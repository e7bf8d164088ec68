"""Recursive-descent parser producing ComponentSpec / ProjectSpec values.

The grammar is block-structured (see docs/spec-language.md for the
EBNF). Parsing enforces the structural invariants that have parse
error codes: duplicate names, missing operation concepts, malformed
versions and constraints. Deeper semantic limits (concept depth, list
nesting, default literal types) are left to the validator so that a
spec can be loaded, inspected, and reported on even when it carries
those defects.

The parser reads the lexer's plain token texts. A token's kind is its
first character: a letter or `_` starts an identifier, `"` a string, a
digit or a `-` other than `->` a number (a float iff it holds `.`, `e`
or `E`); anything else is a punctuator, and `""` is the end of input.
Keywords and punctuators are matched by `==` on the text. An error
site keeps a token index, and `lexer.position` turns it into a line
and column only when the error is raised.

A component is first offered to a declaration-level fast path
(`_fast_component`): one anchored regex match per declaration (the
header, a meta entry, an interface line, or an `op` with its `@param`
clauses), with the parameter list and annotations split out of the
match. It accepts only text the token parser accepts, returns the spec
the token parser would return, and otherwise declines with `None`, so
every parse error still comes from the token parser.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

from . import lexer
from .errors import (
    E_BAD_CONSTRAINT,
    E_BAD_VERSION,
    E_DUP_NAME,
    E_DUP_USE,
    E_NO_CONCEPT,
    E_PARSE,
    E_SYNTAX,
    AdapterForgeError,
    ParseError,
)
from .model import (
    ANY_VERSION,
    CONCEPT_SEGMENT_RE,
    IDENT_RE,
    PROVIDED,
    REQUIRED,
    SCALAR_KINDS,
    ComponentSpec,
    ConceptId,
    Connection,
    InterfaceSpec,
    Literal,
    MetaEntry,
    OperationSig,
    ParamSig,
    ProjectSpec,
    SemType,
    UseDecl,
    VersionConstraint,
    parse_version,
)

# Types nest at most this deep while parsing, so nothing recurses
# without bound; the validator's much lower limit (V_LIST_DEPTH) still
# applies to a spec that parses.
MAX_TYPE_NESTING = 32

_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_NUMBER_START = frozenset("-0123456789")


def _canonical_types() -> dict[str, SemType]:
    """Each scalar and its lists up to the validator's depth, keyed by
    canonical spelling."""
    table = {}
    for kind in SCALAR_KINDS:
        ty = SemType(kind)
        for _ in range(4):
            table[str(ty)] = ty
            ty = SemType("list", ty)
    return table


_TYPES = _canonical_types()


class _TokenStream:
    """The token texts of one source and the index of the next token.
    The index never moves past the final `""`."""

    __slots__ = ("text", "tokens", "i")

    def __init__(self, text: str):
        self.text = text
        self.tokens = lexer.tokenize(text)
        self.i = 0

    def peek(self, ahead: int = 0) -> str:
        # Callers look ahead only past a token that is not the last.
        return self.tokens[self.i + ahead]

    def next(self) -> str:
        tok = self.tokens[self.i]
        if tok:
            self.i += 1
        return tok

    def accept(self, text: str) -> bool:
        if self.tokens[self.i] == text:
            self.i += 1
            return True
        return False

    def expect(self, text: str) -> None:
        """Consume the keyword or punctuator `text`."""
        if not self.accept(text):
            want = f"keyword {text!r}" if text[0] in _IDENT_START else repr(text)
            raise self.unexpected(f"expected {want}")

    def expect_ident(self) -> str:
        tok = self.tokens[self.i]
        if tok[:1] not in _IDENT_START:
            raise self.unexpected("expected identifier")
        self.i += 1
        return tok

    def expect_string(self) -> str:
        tok = self.tokens[self.i]
        if tok[:1] != '"':
            raise self.unexpected("expected string literal")
        self.i += 1
        return lexer.unquote(tok)

    def error(self, code: str, message: str, at: int) -> ParseError:
        """A `code` error at token `at`."""
        return ParseError(code, message, *lexer.position(self.text, at))

    def unexpected(self, message: str, at: int | None = None) -> ParseError:
        """E_SYNTAX naming the token at `at`, by default the next one."""
        at = self.i if at is None else at
        tok = self.tokens[at]
        shown = "end of input" if not tok else lexer.unquote(tok) if tok[0] == '"' else tok
        return self.error(E_SYNTAX, f"{message}, got {shown!r}", at)


def read_spec_text(path: str | Path) -> str:
    """Read a spec or rules file: one that cannot be read is E_PARSE
    naming its path, and one that is not UTF-8 is rejected at the line
    and column of its first invalid byte."""
    try:
        data = Path(path).read_bytes()
    except OSError as err:  # str(err) would name the path a second time
        raise AdapterForgeError(E_PARSE, f"{path}: {err.strerror or err}") from None
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise ParseError(
            E_SYNTAX,
            f"{path} is not UTF-8 ({err.reason} at byte {err.start})",
            *lexer.end_position(data[: err.start].decode("utf-8")),
        ) from None


def parse_spec_file(path: Path, parse):
    """Parse one spec file, attaching file context to any parse error."""
    try:
        text = read_spec_text(path)
    except ParseError as err:  # not UTF-8; the message names the file
        raise AdapterForgeError(E_PARSE, err.message) from err
    try:
        return parse(text)
    except ParseError as err:
        raise AdapterForgeError(E_PARSE, f"{path}: {err.message}") from err


def load_specs_dir(specs_dir: str | Path) -> list[ComponentSpec]:
    """Parse every component spec in a directory, sorted by file name."""
    specs_dir = Path(specs_dir)
    if not specs_dir.is_dir():
        raise AdapterForgeError(
            E_PARSE, f"specs directory {specs_dir} is missing or not a directory"
        )
    return [parse_spec_file(path, parse_component) for path in sorted(specs_dir.glob("*.cdl"))]


def parse_component(text: str) -> ComponentSpec:
    """Parse a `.cdl` component specification."""
    spec = _fast_component(text)
    return spec if spec is not None else _token_component(text)


def _token_component(text: str) -> ComponentSpec:
    ts = _TokenStream(text)
    ts.expect("component")
    spec = _component_body(ts)
    _expect_eof(ts)
    return spec


def parse_project(text: str) -> ProjectSpec:
    """Parse a `.pdl` project specification."""
    ts = _TokenStream(text)
    ts.expect("project")
    spec = _project_body(ts)
    _expect_eof(ts)
    return spec


def parse_any(text: str) -> ComponentSpec | ProjectSpec:
    """Parse either kind of spec, dispatching on the leading keyword."""
    fast = _fast_component(text)
    if fast is not None:
        return fast
    ts = _TokenStream(text)
    if ts.accept("component"):
        spec: ComponentSpec | ProjectSpec = _component_body(ts)
    elif ts.accept("project"):
        spec = _project_body(ts)
    else:
        raise ts.unexpected("expected 'component' or 'project'")
    _expect_eof(ts)
    return spec


def parse_type(text: str) -> SemType:
    """Parse a standalone type expression like `list<i32>`."""
    ty = _TYPES.get(text)
    if ty is not None:
        return ty
    ts = _TokenStream(text)
    ty = _type(ts)
    _expect_eof(ts)
    return ty


def _expect_eof(ts: _TokenStream) -> None:
    if ts.peek():
        raise ts.unexpected("trailing input after specification")


def _name(ts: _TokenStream, what: str) -> str:
    at = ts.i
    name = ts.expect_string()
    if not IDENT_RE.match(name):
        raise ts.error(E_SYNTAX, f"{what} {name!r} is not an identifier", at)
    return name


def _component_body(ts: _TokenStream) -> ComponentSpec:
    name = _name(ts, "component name")
    ts.expect("version")
    at = ts.i
    version_text = ts.expect_string()
    try:
        version = parse_version(version_text)
    except ValueError as err:
        raise ts.error(E_BAD_VERSION, str(err), at) from None
    ts.expect("{")

    provided: list[InterfaceSpec] = []
    required: list[InterfaceSpec] = []
    meta: list[MetaEntry] = []
    while not ts.accept("}"):
        at = ts.i
        if ts.accept("meta"):
            key = ts.expect_ident()
            ts.expect("=")
            meta.append(MetaEntry(key, ts.expect_string()))
        elif ts.peek() in ("provides", "requires"):
            iface = _interface_decl(ts)
            bucket = provided if iface.direction == PROVIDED else required
            if any(existing.name == iface.name for existing in bucket):
                raise ts.error(
                    E_DUP_NAME, f"duplicate {iface.direction} interface {iface.name!r}", at
                )
            bucket.append(iface)
        else:
            raise ts.unexpected("expected 'meta', 'provides', 'requires' or '}'")

    return ComponentSpec(
        name=name,
        version=version,
        provided=tuple(provided),
        required=tuple(required),
        meta=tuple(meta),
    )


def _interface_decl(ts: _TokenStream) -> InterfaceSpec:
    direction = PROVIDED if ts.next() == "provides" else REQUIRED
    ts.expect("interface")
    name = ts.expect_ident()
    ts.expect("{")
    operations: list[OperationSig] = []
    while not ts.accept("}"):
        at = ts.i
        if ts.peek() != "op":
            raise ts.unexpected("expected 'op' or '}'")
        op = _op_decl(ts)
        if any(existing.name == op.name for existing in operations):
            raise ts.error(E_DUP_NAME, f"duplicate operation {op.name!r}", at)
        operations.append(op)
    return InterfaceSpec(name, direction, tuple(operations))


def _op_decl(ts: _TokenStream) -> OperationSig:
    op_at = ts.i
    ts.expect("op")
    name = ts.expect_ident()
    ts.expect("(")

    declared: dict[str, tuple[SemType, Literal | None]] = {}
    if ts.peek() != ")":
        while True:
            at = ts.i
            param = ts.expect_ident()
            if param in declared:
                raise ts.error(E_DUP_NAME, f"duplicate parameter {param!r}", at)
            ts.expect(":")
            declared[param] = (_type(ts), _literal(ts) if ts.accept("=") else None)
            if not ts.accept(","):
                break
    ts.expect(")")
    ts.expect("->")
    returns = _type(ts)

    op_concept: ConceptId | None = None
    param_concepts: dict[str, ConceptId] = {}
    param_units: dict[str, str] = {}
    annotated: set[str] = set()
    while ts.accept("@"):
        at = ts.i - 1
        kind = ts.expect_ident()
        if kind == "concept":
            if op_concept is not None:
                raise ts.error(E_SYNTAX, "duplicate operation @concept", at)
            op_concept = _concept_path(ts)
        elif kind == "param":
            target_at = ts.i
            target = ts.expect_ident()
            if target not in declared:
                raise ts.error(E_SYNTAX, f"@param names unknown parameter {target!r}", target_at)
            if target in annotated:
                raise ts.error(E_DUP_NAME, f"duplicate @param clause for {target!r}", target_at)
            annotated.add(target)
            _param_annotations(ts, target, param_concepts, param_units)
        else:
            raise ts.error(E_SYNTAX, f"unknown annotation @{kind}", at)

    if op_concept is None:
        reason = f"operation {name!r} is missing its @concept annotation"
        if param_concepts:  # the last @param clause may have taken it
            p = next(reversed(param_concepts))
            reason += f"; the @concept after @param {p} annotates parameter {p!r}"
        raise ts.error(E_NO_CONCEPT, reason, op_at)

    params = tuple(
        ParamSig(
            name=pname,
            ty=ptype,
            concept=param_concepts.get(pname),
            unit=param_units.get(pname),
            default=pdefault,
        )
        for pname, (ptype, pdefault) in declared.items()
    )
    return OperationSig(name=name, params=params, returns=returns, concept=op_concept)


def _param_annotations(
    ts: _TokenStream,
    param: str,
    concepts: dict[str, ConceptId],
    units: dict[str, str],
) -> None:
    saw_any = False
    while ts.peek() == "@" and ts.peek(1) in ("concept", "unit"):
        at = ts.i
        ts.next()
        if ts.next() == "concept":
            if param in concepts:
                raise ts.error(E_SYNTAX, f"duplicate @concept for parameter {param!r}", at)
            concepts[param] = _concept_path(ts)
        else:
            if param in units:
                raise ts.error(E_SYNTAX, f"duplicate @unit for parameter {param!r}", at)
            units[param] = ts.expect_ident()
        saw_any = True
    if not saw_any:
        raise ts.error(E_SYNTAX, f"@param {param} carries no @concept or @unit", ts.i)


def _concept_path(ts: _TokenStream) -> ConceptId:
    segments: list[str] = []
    while True:
        at = ts.i
        segment = ts.expect_ident()
        if not CONCEPT_SEGMENT_RE.match(segment):
            raise ts.error(
                E_SYNTAX, f"concept segment {segment!r} must match [a-z][a-z0-9_]*", at
            )
        segments.append(segment)
        if not ts.accept("."):
            return ConceptId(tuple(segments))


def _type(ts: _TokenStream, depth: int = 0) -> SemType:
    at = ts.i
    tok = ts.expect_ident()
    if tok == "list":
        if depth == MAX_TYPE_NESTING:
            raise ts.error(E_SYNTAX, f"list types nest deeper than {MAX_TYPE_NESTING}", at)
        ts.expect("<")
        elem = _type(ts, depth + 1)
        ts.expect(">")
        return SemType("list", elem)
    scalar = _TYPES.get(tok)
    if scalar is None:
        raise ts.error(E_SYNTAX, f"unknown type {tok!r}", at)
    return scalar


def _literal(ts: _TokenStream) -> Literal:
    at = ts.i
    tok = ts.next()
    head = tok[:1]
    if head in _NUMBER_START and tok != "->":
        if "." in tok or "e" in tok or "E" in tok:
            value = float(tok)
            if not math.isfinite(value):
                raise ts.error(E_SYNTAX, "float literal out of range", at)
            return Literal("float", value)
        try:
            return Literal("int", int(tok, 10))
        except ValueError:  # more digits than int() converts
            raise ts.error(E_SYNTAX, "int literal too long", at) from None
    if head == '"':
        return Literal("string", lexer.unquote(tok))
    if tok == "true":
        return Literal("bool", True)
    if tok == "false":
        return Literal("bool", False)
    raise ts.unexpected("expected literal", at)


def _project_body(ts: _TokenStream) -> ProjectSpec:
    name = _name(ts, "project name")
    ts.expect("{")

    uses: list[UseDecl] = []
    connections: list[Connection] = []
    demands: list[ConceptId] = []
    while not ts.accept("}"):
        if ts.accept("uses"):
            at = ts.i
            use = _name(ts, "component name")
            if any(u.name == use for u in uses):
                raise ts.error(E_DUP_USE, f"component {use!r} listed twice", at)
            uses.append(UseDecl(use, _constraint(ts)))
        elif ts.accept("connect"):
            connections.append(_connection(ts, uses))
        elif ts.accept("demand"):
            demands.append(_concept_path(ts))
        else:
            raise ts.unexpected("expected 'uses', 'connect', 'demand' or '}'")

    return ProjectSpec(
        name=name,
        uses=tuple(uses),
        connections=tuple(connections),
        demands=tuple(demands),
    )


def _constraint(ts: _TokenStream) -> VersionConstraint:
    if ts.accept("*"):
        return ANY_VERSION
    op = ts.peek()
    if op == "=" or op == ">=":
        ts.next()
        at = ts.i
        version_text = ts.expect_string()
        try:
            version = parse_version(version_text)
        except ValueError as err:
            raise ts.error(E_BAD_CONSTRAINT, str(err), at) from None
        return VersionConstraint(op, version)
    # Bare `uses "A"` means any version.
    return ANY_VERSION


def _connection(ts: _TokenStream, uses: list[UseDecl]) -> Connection:
    def endpoint(expected_direction: str) -> tuple[str, str]:
        component_at = ts.i
        component = ts.expect_ident()
        ts.expect(".")
        at = ts.i
        if ts.expect_ident() != expected_direction:
            raise ts.error(
                E_SYNTAX, f"expected '{expected_direction}' in connection endpoint", at
            )
        ts.expect(".")
        iface = ts.expect_ident()
        if not any(u.name == component for u in uses):
            raise ts.error(
                E_SYNTAX,
                f"connection references {component!r} which is not listed in uses",
                component_at,
            )
        return component, iface

    consumer_component, consumer_interface = endpoint("requires")
    ts.expect("->")
    provider_component, provider_interface = endpoint("provides")
    return Connection(
        consumer_component=consumer_component,
        consumer_interface=consumer_interface,
        provider_component=provider_component,
        provider_interface=provider_interface,
    )


# Declaration-level fast path. Between declarations it skips what the
# lexer skips; inside one it allows only whitespace, so a comment there
# makes it decline. `\s` also reads `\f` and `\v`, which the lexer
# takes only inside strings and comments; a text holding either is read
# only once it lexes. Every quantifier is possessive, so a match never
# backtracks and a failed one costs only the length it read. After each
# token a pattern demands what may follow it, so every token it reads
# is the token the lexer would read there. A type is any run of `\w<>`,
# looked up in `_TYPES`; a parameter's may not run into `=`, since `>=`
# is one token.
_SKIP = r"(?:\s++|//.*)*+"
_IDENT = r"(?!\d)\w++"
# Any quoted text; a string is read as a token before its value is used.
_STRING = r'"(?:\\.|[^"\\])*+"'
# One declaration, named by the last group it sets: the component header
# (`version`), a meta entry (`meta`), an interface's opening line
# (`interface`), an operation (`op`), or a closing brace (none). A
# header string holding more than a name or a version could not be
# valid; an operation's parameter list is any text up to its `)`,
# strings included.
_DECL_RE = re.compile(
    rf'{_SKIP}(?:component\s*+"(\w++)"\s*+version\s*+"(?P<version>[\d.]++)"\s*+\{{'
    rf"|meta\s++({_IDENT})\s*+=\s*+(?P<meta>{_STRING})"
    rf"|(provides|requires)\s++interface\s++(?P<interface>{_IDENT})\s*+\{{"
    rf'|op\s++({_IDENT})\s*+\(((?:[^")]++|{_STRING})*+)\)\s*+->\s*+([\w<>]++)'
    r"(?P<op>(?:\s*+@\s*+\w++\s++[\w.]++)*+)|\})",
    re.ASCII,
)
# One parameter and its comma. The last group catches a character that
# starts none, so the matches tile the list and a stray has no type. A
# default is checked by reading it as a token.
_PARAM_RE = re.compile(
    rf"\s*+({_IDENT})\s*+:\s*+([\w<>]++)(?!=)\s*+(?:=\s*+({_STRING}|[-+.\w]++)\s*+)?+(,?+)|(.)",
    re.ASCII | re.DOTALL,
)
# A whole dotted concept path: every segment matches CONCEPT_SEGMENT_RE.
_SEGMENT = CONCEPT_SEGMENT_RE.pattern.removesuffix(r"\Z")
_CONCEPT_PATH_RE = re.compile(rf"{_SEGMENT}(?:\.{_SEGMENT})*+")


def _fast_component(text: str) -> ComponentSpec | None:
    """The spec `parse_component` returns for `text`, or None where this
    path declines: not a component, a comment inside a declaration, a
    type outside `_TYPES`, or anything the token parser would reject.
    Never raises."""
    m = _DECL_RE.match(text, int(text.startswith("\ufeff")))
    if m is None or m.lastgroup != "version":
        return None
    if "\f" in text or "\v" in text:
        try:
            lexer.tokenize(text)
        except ParseError:
            return None
    name = m[1]
    try:
        version = parse_version(m[2])
    except ValueError:
        return None
    concepts = {}
    interfaces = {"provides": {}, "requires": {}}
    meta = []
    operations = None  # of the open interface
    pos = m.end()
    while m := _DECL_RE.match(text, pos):
        pos = m.end()
        kind = m.lastgroup
        if operations is None:
            if kind == "meta" and (value := _fast_literal(m[4])):
                meta.append(MetaEntry(m[3], value.value))
            elif kind == "interface" and m[6] not in interfaces[m[5]]:
                operations, keyword, iface = {}, m[5], m[6]
            elif kind is None and IDENT_RE.match(name) and not text[pos:].strip(" \t\r\n"):
                # The component's closing brace, and only whitespace after it.
                provided, required = (tuple(named.values()) for named in interfaces.values())
                return ComponentSpec(name, version, provided, required, tuple(meta))
            else:
                return None
        elif kind == "op":
            op = _fast_op(text, m, concepts)
            if op is None or op.name in operations:
                return None
            operations[op.name] = op
        elif kind is None:  # the interface's closing brace
            direction = PROVIDED if keyword == "provides" else REQUIRED
            interfaces[keyword][iface] = InterfaceSpec(iface, direction, tuple(operations.values()))
            operations = None
        else:
            return None
    return None


def _fast_op(text: str, m: re.Match[str], concepts: dict[str, ConceptId]) -> OperationSig | None:
    # The operation's `@concept`, then `@param` clauses: each names a
    # parameter and carries `@concept`, `@unit` or both.
    annotations = [clause.split() for clause in m["op"].split("@")[1:]]
    if not annotations or annotations[0][0] != "concept":
        return None
    clauses = {}
    current = None
    for kind, value in annotations[1:]:
        if kind == "param" and current != {} and value not in clauses:
            current = clauses[value] = {}
        elif current is None or kind in current:
            return None
        elif kind == "concept" and (concept := _fast_concept(value, concepts)):
            current[kind] = concept
        elif kind == "unit" and IDENT_RE.match(value):
            current[kind] = value
        else:
            return None
    found = _PARAM_RE.findall(text, *m.span(8))
    names = {param[0] for param in found}
    op_concept = _fast_concept(annotations[0][1], concepts)
    returns = _TYPES.get(m[9])
    if current == {} or len(names) < len(found) or not names >= clauses.keys() or not (op_concept and returns):
        return None
    params = []
    last = len(found) - 1
    for i, (pname, ptype, literal, comma, _) in enumerate(found):
        ty = _TYPES.get(ptype)
        default = _fast_literal(literal) if literal else None
        if ty is None or bool(comma) == (i == last) or (literal and default is None):
            return None
        clause = clauses.get(pname, {})
        params.append(ParamSig(pname, ty, clause.get("concept"), clause.get("unit"), default))
    return OperationSig(m[7], tuple(params), returns, op_concept)


def _fast_concept(text: str, concepts: dict[str, ConceptId]) -> ConceptId | None:
    """One ConceptId per concept text within a parse, or None for a path
    that `ConceptId.from_text` would refuse."""
    concept = concepts.get(text)
    if concept is None and _CONCEPT_PATH_RE.fullmatch(text):
        concept = concepts[text] = ConceptId(tuple(text.split(".")))
    return concept


def _fast_literal(tok: str) -> Literal | None:
    """The literal `tok` is when the lexer reads it as one literal token."""
    try:
        ts = _TokenStream(tok)
        literal = _literal(ts)
    except ParseError:
        return None
    return None if ts.peek() else literal
