from __future__ import annotations

import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

import strategies
from adapterforge.speclang import (
    ComponentSpec,
    ConceptId,
    Connection,
    InterfaceSpec,
    Literal,
    MetaEntry,
    OperationSig,
    ParamSig,
    ParseError,
    ProjectSpec,
    SemType,
    UseDecl,
    VersionConstraint,
    list_of,
    parse_any,
    parse_component,
    parse_project,
    serialize,
    validate,
)
from adapterforge.speclang import BOOL, F64, I32, I64, STRING, UNIT
from adapterforge.speclang.lexer import position, tokenize, unquote
from adapterforge.speclang.parser import parse_type
from conftest import corpus_spec_paths
from genspecs import adaptable_pair, random_component
from oracles import oracle_parse_any, oracle_parse_type, oracle_tokenize


def test_parse_empty_component():
    spec = parse_component('component "A" version "1.0.0" { }')
    assert spec == ComponentSpec(name="A", version=(1, 0, 0))


def test_parse_empty_project():
    spec = parse_project('project "P" { }')
    assert spec == ProjectSpec(name="P")


def test_missing_concept_reports_op_line():
    text = 'component "A" version "1.0.0" {\n  provides interface X {\n    op f() -> unit\n  }\n}'
    with pytest.raises(ParseError) as err:
        parse_component(text)
    assert err.value.code == "E_NO_CONCEPT"
    assert err.value.line == 3


def test_duplicate_uses():
    text = 'project "P" {\n  uses "A" *\n  uses "A" *\n}'
    with pytest.raises(ParseError) as err:
        parse_project(text)
    assert err.value.code == "E_DUP_USE"
    assert err.value.line == 3


@pytest.mark.parametrize(
    "text,code",
    [
        ('component "A" version "1.0" { }', "E_BAD_VERSION"),
        ('component "A" version "1.0.x" { }', "E_BAD_VERSION"),
        ('project "P" { uses "A" >= "nope" }', "E_BAD_CONSTRAINT"),
        ('component "A" version "1.0.0" { junk }', "E_SYNTAX"),
        ('component "A" version "1.0.0" {', "E_SYNTAX"),
        ('component "A version "1.0.0" { }', "E_SYNTAX"),
        ('project "P" { connect A.requires.X -> B.provides.Y }', "E_SYNTAX"),
    ],
)
def test_parse_error_codes(text, code):
    with pytest.raises(ParseError) as err:
        parse_any(text)
    assert err.value.code == code
    assert err.value.line >= 1 and err.value.col >= 1


def test_duplicate_names():
    dup_iface = (
        'component "A" version "1.0.0" {\n'
        "  provides interface X { }\n"
        "  provides interface X { }\n"
        "}"
    )
    with pytest.raises(ParseError) as err:
        parse_component(dup_iface)
    assert err.value.code == "E_DUP_NAME"

    dup_op = (
        'component "A" version "1.0.0" {\n'
        "  provides interface X {\n"
        "    op f() -> unit @concept a.b\n"
        "    op f() -> unit @concept a.b\n"
        "  }\n"
        "}"
    )
    with pytest.raises(ParseError) as err:
        parse_component(dup_op)
    assert err.value.code == "E_DUP_NAME"

    dup_param = (
        'component "A" version "1.0.0" {\n'
        "  provides interface X {\n"
        "    op f(x: i32, x: i32) -> unit @concept a.b\n"
        "  }\n"
        "}"
    )
    with pytest.raises(ParseError) as err:
        parse_component(dup_param)
    assert err.value.code == "E_DUP_NAME"


def test_same_interface_name_on_both_sides_is_fine():
    text = (
        'component "A" version "1.0.0" {\n'
        "  provides interface X { }\n"
        "  requires interface X { }\n"
        "}"
    )
    spec = parse_component(text)
    assert spec.provided[0].name == spec.required[0].name == "X"


# Expected tree for the golden two-interface corpus spec, checked by
# hand against the grammar once and frozen here.
WIDGETS_EXPECTED = ComponentSpec(
    name="widgets",
    version=(1, 4, 2),
    provided=(
        InterfaceSpec(
            "Catalog",
            "provided",
            (
                OperationSig(
                    "lookup",
                    (
                        ParamSig("id", I64, concept=ConceptId(("shop", "catalog", "id"))),
                        ParamSig("verbose", BOOL, default=Literal("bool", False)),
                    ),
                    STRING,
                    ConceptId(("shop", "catalog", "lookup")),
                ),
                OperationSig(
                    "prices",
                    (ParamSig("ids", list_of(I64)),),
                    list_of(F64),
                    ConceptId(("shop", "catalog", "price")),
                ),
            ),
        ),
    ),
    required=(
        InterfaceSpec(
            "Haulage",
            "required",
            (
                OperationSig(
                    "quote",
                    (
                        ParamSig(
                            "weight",
                            F64,
                            concept=ConceptId(("shop", "shipping", "weight")),
                            unit="kg",
                        ),
                        ParamSig("express", BOOL, default=Literal("bool", False)),
                    ),
                    F64,
                    ConceptId(("shop", "shipping", "quote")),
                ),
            ),
        ),
    ),
    meta=(MetaEntry("license", "mit"), MetaEntry("vendor", "acme")),
)


def test_golden_component_tree(corpus_dir: Path):
    text = (corpus_dir / "golden" / "widgets.cdl").read_text()
    assert parse_component(text) == WIDGETS_EXPECTED


SHOPFRONT_EXPECTED = ProjectSpec(
    name="shopfront",
    uses=(
        UseDecl("widgets", VersionConstraint(">=", (1, 0, 0))),
        UseDecl("depot", VersionConstraint("*")),
    ),
    connections=(Connection("widgets", "Haulage", "depot", "Haulage"),),
    demands=(ConceptId(("shop", "catalog", "lookup")),),
)


def test_golden_project_tree(corpus_dir: Path):
    text = (corpus_dir / "golden" / "shopfront.pdl").read_text()
    assert parse_project(text) == SHOPFRONT_EXPECTED


def test_figure3_connection(corpus_dir: Path):
    project = parse_project((corpus_dir / "figure3" / "figure3.pdl").read_text())
    assert project.connections == (
        Connection("reportgen", "Sorting", "sortkit", "BulkSort"),
    )


def test_serialize_empty_component():
    assert serialize(ComponentSpec("A", (1, 0, 0))) == 'component "A" version "1.0.0" {\n}\n'


def test_serialize_sorts_meta():
    spec = ComponentSpec(
        "A", (1, 0, 0), meta=(MetaEntry("b", "2"), MetaEntry("a", "1"))
    )
    text = serialize(spec)
    assert text.index("meta a") < text.index("meta b")


def test_serialize_orders_interfaces_provided_first():
    spec = parse_component(
        'component "A" version "1.0.0" {\n'
        "  requires interface Zeta { }\n"
        "  provides interface Alpha { }\n"
        "  requires interface Beta { }\n"
        "}"
    )
    text = serialize(spec)
    assert (
        text.index("provides interface Alpha")
        < text.index("requires interface Beta")
        < text.index("requires interface Zeta")
    )


@pytest.mark.parametrize("path", corpus_spec_paths(), ids=lambda p: p.name)
def test_corpus_roundtrip(path: Path):
    first = parse_any(path.read_text())
    canon = serialize(first)
    second = parse_any(canon)
    assert second == first
    # Canonical form is a fixed point.
    assert serialize(second) == canon


@given(spec=strategies.component_specs())
@settings(max_examples=150)
def test_generated_component_roundtrip(spec: ComponentSpec):
    assert parse_component(serialize(spec)) == spec


@given(spec=strategies.project_specs())
@settings(max_examples=100)
def test_generated_project_roundtrip(spec: ProjectSpec):
    assert parse_project(serialize(spec)) == spec


def test_parse_determinism(corpus_dir: Path):
    text = (corpus_dir / "golden" / "widgets.cdl").read_text()
    assert parse_component(text) == parse_component(text)


def _op(params: tuple[ParamSig, ...], returns: SemType = UNIT) -> ComponentSpec:
    return ComponentSpec(
        "A",
        (1, 0, 0),
        provided=(
            InterfaceSpec(
                "X",
                "provided",
                (OperationSig("f", params, returns, ConceptId(("a", "b"))),),
            ),
        ),
    )


def test_validate_clean_spec():
    assert validate(WIDGETS_EXPECTED) == []


def test_validate_default_type_mismatch():
    spec = _op((ParamSig("x", I32, default=Literal("bool", True)),))
    codes = [v.code for v in validate(spec)]
    assert codes == ["V_DEFAULT_TYPE"]


def test_validate_default_out_of_range():
    spec = _op((ParamSig("x", I32, default=Literal("int", 2**40)),))
    codes = [v.code for v in validate(spec)]
    assert codes == ["V_DEFAULT_RANGE"]


def test_validate_concept_depth():
    deep = ConceptId(tuple("abcdefghi"))  # 9 segments
    spec = ComponentSpec(
        "A",
        (1, 0, 0),
        provided=(
            InterfaceSpec(
                "X", "provided", (OperationSig("f", (), UNIT, deep),)
            ),
        ),
    )
    codes = [v.code for v in validate(spec)]
    assert codes == ["V_CONCEPT_DEPTH"]


def test_validate_list_nesting():
    quad = list_of(list_of(list_of(list_of(I32))))
    spec = _op((ParamSig("x", quad),))
    codes = [v.code for v in validate(spec)]
    assert codes == ["V_LIST_DEPTH"]


def test_validate_unit_on_non_numeric():
    spec = _op((ParamSig("x", BOOL, unit="ms"),))
    codes = [v.code for v in validate(spec)]
    assert codes == ["V_UNIT_TYPE"]


def test_effective_param_concept_defaults_to_op_concept():
    op = WIDGETS_EXPECTED.provided[0].operations[0]
    explicit, defaulted = op.params
    assert str(explicit.effective_concept(op.concept)) == "shop.catalog.id"
    assert str(defaulted.effective_concept(op.concept)) == "shop.catalog.lookup.arg.verbose"


def test_utf8_rejection(tmp_path: Path):
    from adapterforge.speclang.parser import read_spec_text

    bad = tmp_path / "bad.cdl"
    bad.write_bytes(b'component "A" \xff\xfe version')
    with pytest.raises(ParseError) as err:
        read_spec_text(bad)
    assert err.value.code == "E_SYNTAX"

    good = tmp_path / "good.cdl"
    good.write_bytes("﻿component \"A\" version \"1.0.0\" { }".encode("utf-8"))
    assert parse_component(read_spec_text(good)).name == "A"


@given(text=st.text(max_size=200))
@settings(max_examples=300)
def test_error_totality_on_arbitrary_text(text: str):
    # Anything that is not a valid spec raises ParseError, never
    # anything else, and never kills the process.
    try:
        parse_any(text)
    except ParseError as err:
        assert err.line >= 1 and err.col >= 1


@given(data=st.binary(max_size=120))
@settings(max_examples=200)
def test_error_totality_on_arbitrary_bytes(tmp_path_factory, data: bytes):
    from adapterforge.speclang.parser import read_spec_text

    path = tmp_path_factory.mktemp("fuzz") / "f.cdl"
    path.write_bytes(data)
    try:
        parse_any(read_spec_text(path))
    except ParseError:
        pass


def _op_line(fragment: str) -> str:
    return (
        'component "A" version "1.0.0" {\n'
        "  provides interface I {\n"
        f"    op f({fragment}) -> i32 @concept a\n"
        "  }\n"
        "}\n"
    )


@pytest.mark.parametrize(
    "fragment,offender,message",
    [
        ("x: i32 = \u00b2", "\u00b2", "unexpected character '\u00b2'"),
        ("x: i32 = 1\u00b2", "\u00b2", "unexpected character '\u00b2'"),
        ("x: i32 = \u0663", "\u0663", "unexpected character '\u0663'"),
        ("x: i32 = -\u0663", "-", "stray '-'"),
        ("x: f64 = 1.5e\u0663", "1", "malformed exponent"),
        ("caf\u00e9: i32", "\u00e9", "unexpected character '\u00e9'"),
    ],
)
def test_non_ascii_digits_and_letters_rejected(fragment, offender, message):
    # Lexical classes are ASCII: a Unicode digit or letter outside a
    # string or comment is a syntax error at its own position, never an
    # int() crash or a silently different value.
    with pytest.raises(ParseError) as err:
        parse_any(_op_line(fragment))
    col = len("    op f(") + fragment.index(offender) + 1
    assert (err.value.code, err.value.line, err.value.col) == ("E_SYNTAX", 3, col)
    assert err.value.message == f"{message} (line 3, column {col})"


_LONG_INT = "1" * 5000
_DEEP_LIST = "list<" * 1000 + "i32" + ">" * 1000


@pytest.mark.parametrize(
    "fragment,offset,message",
    [
        ("x: f64 = 1e999", 9, "float literal out of range"),
        ("x: f64 = -1e999", 9, "float literal out of range"),
        (f"x: i32 = {_LONG_INT}", 9, "int literal too long"),
        (f"x: i32 = -{_LONG_INT}", 9, "int literal too long"),
        (f"x: {_DEEP_LIST}", 3 + 5 * 32, "list types nest deeper than 32"),
        ("x: " + "list<" * 33 + "i32" + ">" * 33, 3 + 5 * 32, "list types nest deeper than 32"),
    ],
    ids=["inf", "-inf", "long-int", "-long-int", "list-1000", "list-33"],
)
def test_unrepresentable_values_rejected_at_their_token(fragment, offset, message):
    # Values the canonical form could not write back, or that would
    # recurse without bound, are syntax errors at their own token (for
    # a type, the 33rd `list`).
    with pytest.raises(ParseError) as err:
        parse_any(_op_line(fragment))
    col = len("    op f(") + offset + 1
    assert (err.value.code, err.value.line, err.value.col) == ("E_SYNTAX", 3, col)
    assert err.value.message == f"{message} (line 3, column {col})"


def test_nesting_and_literal_limits_accept_the_boundary():
    spec = parse_any(_op_line("x: " + "list<" * 32 + "i32" + ">" * 32 + ", y: i64 = " + "9" * 4300))
    (op,) = spec.provided[0].operations
    assert op.params[0].ty.nesting_depth() == 32
    assert op.params[1].default.value == int("9" * 4300)
    assert "V_LIST_DEPTH" in {v.code for v in validate(spec)}
    underflow = parse_any(_op_line("x: f64 = 1e-999"))
    assert underflow.provided[0].operations[0].params[0].default.value == 0.0


def test_non_ascii_accepted_in_strings_and_comments():
    spec = parse_component(
        '// caf\u00e9 \u00b2\ncomponent "A" version "1.0.0" {\n'
        '  meta note = "caf\u00e9 \u0663\u00bd" // \u0663\n}\n'
    )
    assert spec.meta[0].value == "caf\u00e9 \u0663\u00bd"


_CORPUS_TEXTS = [p.read_text(encoding="utf-8") for p in corpus_spec_paths()]
_LEX_PIECES = [
    " ", "\t", "\r", "\n", "\r\n", "\x0b", "\ufeff", "//", "// x\n", "/",
    "{", "}", "(", ")", "<", ">", ",", ":", "=", ".", "@", "*", "->", ">=", "-",
    "0", "7", "12", "1.", "1.5", "1e", "1e5", "1E-3", "1.5e+", "-2", "-.",
    "e", "E", "_", "a", "Z", "op", "i32", "list",
    '"', '""', '"a"', '"\\n"', '"\\q"', '"\\', '\\',
    "\u00e9", "\u00b2", "\u0663", "\u00bd", "\u00df", "\u2028", "\x00", "#", "!",
]
_fragments = st.lists(
    st.sampled_from(_LEX_PIECES) | st.text(max_size=2), max_size=12
).map("".join)


@st.composite
def _lexer_inputs(draw: st.DrawFn) -> str:
    if draw(st.booleans()):
        return draw(_fragments)
    base = draw(st.sampled_from(_CORPUS_TEXTS))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(base)))
        base = base[:at] + draw(_fragments) + base[at:]
    return base


def _token_kind(token: str) -> str:
    """The oracle's kind name for a flat token, from its first character."""
    head = token[:1]
    if not head:
        return "EOF"
    if head == '"':
        return "STRING"
    if head.isascii() and (head.isalpha() or head == "_"):
        return "IDENT"
    if head.isdigit() or (head == "-" and token != "->"):
        return "FLOAT" if any(c in token for c in ".eE") else "INT"
    return "PUNCT"


def _flat_tokenize(text: str) -> list[tuple[str, str, int, int]]:
    """`(kind, text, line, col)` per token, rebuilt from the flat token
    texts and `position`."""
    return [
        (_token_kind(tok), unquote(tok) if tok[:1] == '"' else tok, *position(text, i))
        for i, tok in enumerate(tokenize(text))
    ]


def _outcome(run, text: str):
    try:
        return run(text)
    except ParseError as err:
        return (err.code, err.message, err.line, err.col)


@given(text=_lexer_inputs() | st.text(max_size=60))
@settings(max_examples=1000, deadline=None)
def test_tokenize_matches_oracle(text: str):
    assert _outcome(_flat_tokenize, text) == _outcome(oracle_tokenize, text)


# Grammar pieces for splicing: keywords, clauses, quoted keywords and
# punctuators (a string must never pass for either), and literals.
_GRAMMAR_PIECES = [
    " @param x", " @param a0", " @unit ms", " @concept a.b", " @concept", " @", " = 1.5",
    " = -2", " = true", ' = "s"', " = 1e999", " uses", ' uses "A" *', ' uses "A" >= "1.0.0"',
    " connect", " connect A.requires.X -> B.provides.Y", " demand", " demand a.b", " op",
    " op g() -> unit @concept a", " provides interface I {", " requires interface J { }",
    " meta k = ", ' "v"', " version", ' "1.0.0"', ' "1.0"', " component", " project",
    " list<", " list<list<i32>>", " i32", " x: i64", " -> ", " }", " {", " (", " )", " ,",
    ' "op"', ' "}"', ' "{"', ' "->"', ' "component"', ' "list"', ' "i32"', ' ""',
]
_parser_fragments = st.lists(
    st.sampled_from(_GRAMMAR_PIECES) | st.sampled_from(_LEX_PIECES), min_size=1, max_size=6
).map("".join)
_WIDE_TYPES = ["bool", "bytes", "i32", "f64", "string", "list<i64>", "list<list<i32>>", "list<list<list<string>>>"]


@st.composite
def _wide_texts(draw: st.DrawFn) -> str:
    """A component whose ops have up to 16 params, nested list types,
    defaults and per-param clauses."""
    lines = ['component "wide" version "1.0.0" {', "  provides interface W {"]
    for k in range(draw(st.integers(1, 3))):
        arity = draw(st.integers(0, 16))
        params, clauses = [], []
        for i in range(arity):
            ty = draw(st.sampled_from(_WIDE_TYPES))
            default = {"i32": " = -7", "f64": " = 2.5e-3", "bool": " = false"}.get(ty, "")
            params.append(f"a{i}: {ty}" + (default if draw(st.booleans()) else ""))
            if draw(st.booleans()):
                clauses.append(f"      @param a{i} @concept w{k}.grp.g{i % 3}")
        returns = draw(st.sampled_from(_WIDE_TYPES))
        lines.append(f"    op w{k}({', '.join(params)}) -> {returns} @concept w{k}.act")
        lines.extend(clauses)
    lines += ["  }", "}", ""]
    return "\n".join(lines)


_GENERATED_TEXTS = [serialize(random_component(random.Random(seed))) for seed in range(12)] + [
    serialize(spec) for seed in range(4) for spec in adaptable_pair(random.Random(seed))
]


_KEYWORD_OR_PUNCT = re.compile(
    r"->|>=|[{}()<>,:=.@*]|\b(?:component|project|version|meta|provides|requires"
    r"|interface|op|uses|connect|demand|list|true|false)\b"
)


@st.composite
def _parser_inputs(draw: st.DrawFn) -> str:
    """A valid spec with up to three edits: a splice, a deletion, or the
    next keyword or punctuator put in quotes."""
    base = draw(st.sampled_from(_CORPUS_TEXTS + _GENERATED_TEXTS) | _wide_texts())
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(base)))
        edit = draw(st.sampled_from(["splice", "delete", "quote"]))
        if edit == "splice":
            base = base[:at] + draw(_parser_fragments) + base[at:]
        elif edit == "delete":
            base = base[:at] + base[at + draw(st.integers(1, 12)) :]
        elif m := _KEYWORD_OR_PUNCT.search(base, at):
            base = f'{base[: m.start()]}"{m.group()}"{base[m.end() :]}'
    return base


def _parse_outcome(parse, text: str):
    return _outcome(lambda t: repr(parse(t)), text)


@given(text=_parser_inputs() | _fragments)
@settings(max_examples=600, deadline=None)
def test_parse_any_matches_oracle(text: str):
    # Equal values, or the same error code, message, line and column.
    assert _parse_outcome(parse_any, text) == _parse_outcome(oracle_parse_any, text)


_TYPE_PIECES = ["list", "<", ">", "i32", "f64", "string", "unit", "nope", " ", "\n", ",", '"i32"', "1", "-", "//x"]


@given(text=st.lists(st.sampled_from(_TYPE_PIECES), max_size=10).map("".join) | _fragments)
@settings(max_examples=500, deadline=None)
def test_parse_type_matches_oracle(text: str):
    assert _parse_outcome(parse_type, text) == _parse_outcome(oracle_parse_type, text)


_ONE_LINE = 'component "A" version "1.0.0" { ' + 'meta k = "v" ' * 12_500 + "}"
_TRAILER = " \t// comment\r\n" * 80_000  # about 1 MB
_TIMED_PARSE = """
import sys, time
from adapterforge.speclang import ParseError, parse_any
text = sys.stdin.buffer.read().decode("utf-8")
start = time.perf_counter()
try:
    parse_any(text)
    outcome = "ok"
except ParseError as err:
    outcome = err.reason
print(time.perf_counter() - start)
print(outcome)
"""


@pytest.mark.parametrize(
    "text,outcome",
    [
        (_ONE_LINE, "ok"),
        (_ONE_LINE[:-1] + "#", "unexpected character '#'"),
        ('component "A" version "1.0.0" { }' + _TRAILER, "ok"),
        (
            'component "A" version "1.0.0" {' + _TRAILER,
            "expected 'meta', 'provides', 'requires' or '}', got 'end of input'",
        ),
        ('component "A" version "1.0.0" { }' + _TRAILER + "#", "unexpected character '#'"),
    ],
    ids=["50k-tokens", "50k-tokens-error", "1mb-trailer", "1mb-trailer-eof", "1mb-trailer-error"],
)
def test_scan_stays_linear(text, outcome):
    # A skip that backtracks, or a scan that retries at every character
    # of a long run, turns these quadratic. The parse runs in a child
    # process so that such a scan fails on the timeout instead of
    # holding the suite.
    done = subprocess.run(
        [sys.executable, "-c", _TIMED_PARSE],
        input=text.encode("utf-8"),
        capture_output=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    elapsed, got = done.stdout.decode("utf-8").splitlines()
    assert float(elapsed) < 2.0
    assert got == outcome
