"""Independent brute-force oracles the tests check the real code against.

The score oracle enumerates every injective placement of required
parameters onto provider slots, with no concept-group shortcuts, and
prices each valid placement straight from the penalty table. The
alignment oracle enumerates every injective placement inside each
concept group and keeps the least `(-score, len(mismatches),
slot_key)`; it shares only the classification of one fixed placement
with the package, never the search. The composition oracle rebuilds
provider calls directly from mismatch payloads. The pool-query oracle
prices every related candidate through the public `pool_list` and
`pool_get`, one index read per candidate. The tokenizer oracle walks the
source one character at a time, tracking line and column per character,
with ASCII character classes. The parser oracle is the package's earlier
`Token`-based regex scanner and recursive-descent parser, kept as they
were: every token is an object carrying its kind, text, line and column.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction
from typing import Any

from adapterforge.adapters import AdapterSpec
from adapterforge.analyser import (
    Mismatch,
    OperationMatch,
    _classify_assignment,
    match_operation,
    shape_as_operation,
)
from adapterforge.conversions import (
    CONCEPT_DISTANCE,
    RENAME,
    ConversionTable,
    MatchConfig,
    TypePort,
)
from adapterforge.pool import PoolQuery, pool_get, pool_list
from adapterforge.speclang import (
    E_SYNTAX,
    ConceptId,
    OperationSig,
    ParseError,
    format_float,
    parse_version,
)
from adapterforge.speclang.errors import (
    E_BAD_CONSTRAINT,
    E_BAD_VERSION,
    E_DUP_NAME,
    E_DUP_USE,
    E_NO_CONCEPT,
)
from adapterforge.speclang.model import (
    ANY_VERSION,
    CONCEPT_SEGMENT_RE,
    IDENT_RE,
    PROVIDED,
    REQUIRED,
    SCALAR_KINDS,
    ComponentSpec,
    Connection,
    InterfaceSpec,
    Literal,
    MetaEntry,
    ParamSig,
    ProjectSpec,
    SemType,
    UseDecl,
    VersionConstraint,
)


def oracle_best_score(
    required: OperationSig,
    provided: OperationSig,
    conv: ConversionTable,
    config: MatchConfig,
) -> Fraction | None:
    """Best reachable score, or None when nothing valid reaches the
    threshold."""
    hops = required.concept.hops_to(provided.concept)
    if hops is None:
        return None
    n_req, n_prov = len(required.params), len(provided.params)
    if n_req > n_prov:
        return None

    req_concepts = [p.effective_concept(required.concept) for p in required.params]
    prov_concepts = [p.effective_concept(required.concept) for p in provided.params]
    fixed = Fraction(0)
    if hops >= 1:
        fixed += config.concept_hop_penalty * hops
    if required.name != provided.name:
        fixed += config.rename_penalty

    best: Fraction | None = None
    for slots in itertools.permutations(range(n_prov), n_req):
        if any(req_concepts[i] != prov_concepts[j] for i, j in enumerate(slots)):
            continue
        assigned = set(slots)
        if any(
            provided.params[j].default is None
            for j in range(n_prov)
            if j not in assigned
        ):
            continue
        penalty = fixed
        ok = True
        for i, j in enumerate(slots):
            frm = TypePort(required.params[i].ty, required.params[i].unit)
            to = TypePort(provided.params[j].ty, provided.params[j].unit)
            if frm == to:
                continue
            if conv.lookup(frm, to) is None:
                ok = False
                break
            penalty += config.conversion_penalty
        if not ok:
            continue
        penalty += config.fill_penalty * (n_prov - n_req)
        if provided.returns != required.returns:
            if conv.lookup(TypePort(provided.returns), TypePort(required.returns)) is None:
                continue
            penalty += config.conversion_penalty
        order = [pair[0] for pair in sorted(enumerate(slots), key=lambda p: p[1])]
        if order != sorted(order):
            penalty += config.permutation_penalty
        score = 1 - penalty
        if best is None or score > best:
            best = score
    if best is None or best < config.threshold:
        return None
    return best


def oracle_best_alignment(
    required: OperationSig,
    provided: OperationSig,
    conv: ConversionTable,
    config: MatchConfig,
) -> OperationMatch | None:
    """The match `match_operation` must return, found by trying every
    injective placement inside each concept group (factorial in group
    size: keep arities small)."""
    hops = required.concept.hops_to(provided.concept)
    if hops is None:
        return None
    base: list[Mismatch] = []
    if hops >= 1:
        base.append(
            Mismatch(
                CONCEPT_DISTANCE,
                location=("", required.name),
                hops=hops,
                concept=provided.concept,
            )
        )
    if required.name != provided.name:
        base.append(
            Mismatch(
                RENAME,
                location=("", required.name),
                renamed_from=required.name,
                renamed_to=provided.name,
            )
        )

    req_concepts = required.param_concepts()
    prov_concepts = provided.param_concepts(base=required.concept)
    groups: dict = {}
    for i, c in enumerate(req_concepts):
        groups.setdefault(c, ([], []))[0].append(i)
    for j, c in enumerate(prov_concepts):
        groups.setdefault(c, ([], []))[1].append(j)
    if any(len(req_idx) > len(prov_idx) for req_idx, prov_idx in groups.values()):
        return None
    per_group = [
        [
            list(zip(req_idx, chosen))
            for chosen in itertools.permutations(prov_idx, len(req_idx))
        ]
        for req_idx, prov_idx in groups.values()
    ]

    best_key: tuple | None = None
    best = None
    for combo in itertools.product(*per_group):
        assignment = {prov_j: req_i for pairs in combo for req_i, prov_j in pairs}
        outcome = _classify_assignment(
            required, provided, assignment, conv, config, tuple(base)
        )
        if outcome is None:
            continue
        mismatches, score = outcome
        slot_key = tuple(
            (0, assignment[j]) if j in assignment else (1,)
            for j in range(len(provided.params))
        )
        key = (-score, len(mismatches), slot_key)
        if best_key is None or key < best_key:
            best_key, best = key, outcome
    if best is None or best[1] < config.threshold:
        return None
    return OperationMatch(required.name, provided.name, best[0], best[1])


def oracle_convert(rule, value: Any, to_kind: str | None) -> Any:
    """Documented scalar rule semantics, reimplemented independently."""
    if rule.kind == "WIDEN":
        return float(value) if to_kind == "f64" else value
    if rule.kind == "NARROW_CHECKED":
        if isinstance(value, float):
            assert value.is_integer()
            value = int(value)
        lo, hi = (-(2**31), 2**31 - 1) if to_kind == "i32" else (-(2**63), 2**63 - 1)
        assert lo <= value <= hi
        return value
    if rule.kind == "UNIT_SCALE":
        if isinstance(value, float):
            return value * float(rule.factor)
        scaled = Fraction(value) * rule.factor
        if to_kind == "f64":
            return float(scaled)
        assert scaled.denominator == 1
        return int(scaled)
    if rule.kind == "PARSE":
        return float(value) if to_kind == "f64" else int(str(value), 10)
    if rule.kind == "FORMAT":
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            return format_float(value)
        return str(value)
    raise AssertionError(f"unknown rule {rule.kind}")


def oracle_provider_call(
    match: OperationMatch,
    provider_op: OperationSig,
    args: list[Any],
    provider_fn,
) -> Any:
    """Execute one matched call by composing permute/convert/fill
    straight from the mismatch payloads."""
    fills = {
        m.slot: m.fill_value.value
        for m in match.mismatches
        if m.kind == "DEFAULT_FILL"
    }
    conversions = {
        m.slot: m
        for m in match.mismatches
        if m.kind == "TYPE_CONVERSION" and m.slot is not None and m.slot >= 0
    }
    order = next(
        (m.order for m in match.mismatches if m.kind == "PARAM_PERMUTATION"), None
    )
    n = len(provider_op.params)
    take_slots = [j for j in range(n) if j not in fills]
    consumer_order = list(order) if order is not None else list(range(len(take_slots)))
    assert len(consumer_order) == len(take_slots)

    provider_args: list[Any] = []
    taken = iter(consumer_order)
    for j in range(n):
        if j in fills:
            provider_args.append(fills[j])
            continue
        value = args[next(taken)]
        if j in conversions:
            m = conversions[j]
            value = oracle_convert(m.rule, value, m.to_port.ty.kind)
        provider_args.append(value)

    result = provider_fn(*provider_args)
    ret = next(
        (m for m in match.mismatches if m.kind == "TYPE_CONVERSION" and m.slot == -1),
        None,
    )
    if ret is not None:
        result = oracle_convert(ret.rule, result, ret.to_port.ty.kind)
    return result


def fold_conservation_holds(tree, pattern) -> bool:
    """Visible nodes plus hidden-subtree sizes must recount to the tree."""
    from adapterforge.aslt import fold, subtree_size, traverse

    view = fold(tree, pattern)
    visible = len(traverse(view))

    def top_hidden(node_id: int, under_hidden: bool) -> list[int]:
        node = tree.node(node_id)
        mine = node_id in view.hidden
        if mine and not under_hidden:
            roots = [node_id]
        else:
            roots = []
        for child in node.meta_children + node.children:
            roots.extend(top_hidden(child, under_hidden or mine))
        return roots

    roots = top_hidden(tree.root, False)
    return visible + sum(subtree_size(tree, r) for r in roots) == len(tree)


def oracle_pool_query(
    root, query: PoolQuery, conv: ConversionTable, config: MatchConfig
) -> list[tuple[str, Fraction]]:
    """`pool_query` as a scan: list the index, then read each related
    candidate through `pool_get` and price it by its best provided op
    (shaped demand) or by concept distance (bare demand)."""
    demand = query.demand
    results: list[tuple[str, Fraction]] = []
    for fp, entry in pool_list(root):
        if query.constraint is not None and not query.constraint.satisfies(
            parse_version(entry.version)
        ):
            continue
        hops = [
            h
            for text in entry.provided_concepts
            if (h := demand.concept.hops_to(ConceptId.from_text(text))) is not None
        ]
        if not hops:
            continue
        if demand.shape is None:
            score = 1 - config.concept_hop_penalty * min(hops)
            if score >= config.threshold:
                results.append((fp, score))
            continue
        value = pool_get(root, fp)
        component = value.to_component_spec() if isinstance(value, AdapterSpec) else value
        wanted = shape_as_operation(demand.concept, demand.shape)
        scores = [
            m.score
            for iface in component.provided
            for op in iface.operations
            if (m := match_operation(wanted, op, conv, config)) is not None
        ]
        if scores:
            results.append((fp, max(scores)))
    return sorted(results, key=lambda pair: (-pair[1], pair[0]))


_DIGITS = frozenset("0123456789")
_LETTERS = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
_IDENT_CHARS = _LETTERS | _DIGITS | {"_"}
_PUNCT_SINGLE = "{}()<>,:=.@*"
_UNESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t", "r": "\r"}


def oracle_tokenize(text: str) -> list[tuple[str, str, int, int]]:
    """`(kind, text, line, col)` for every token, EOF last, or ParseError."""
    if text.startswith("\ufeff"):
        text = text[1:]
    tokens: list[tuple[str, str, int, int]] = []
    line, col = 1, 1
    i, n = 0, len(text)

    def advance(k: int) -> None:
        nonlocal i, line, col
        for _ in range(k):
            if text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            advance(1)
            continue
        if ch == "/" and text[i : i + 2] == "//":
            while i < n and text[i] != "\n":
                advance(1)
            continue
        start_line, start_col = line, col
        if ch == '"':
            tokens.append(("STRING", _oracle_string(text, i, start_line, start_col), start_line, start_col))
            advance(len(_oracle_raw_span(text, i)))
            continue
        if ch == "-":
            if text[i : i + 2] == "->":
                tokens.append(("PUNCT", "->", start_line, start_col))
                advance(2)
                continue
            if i + 1 < n and text[i + 1] in _DIGITS:
                kind, width = _oracle_number(text, i, start_line, start_col)
                tokens.append((kind, text[i : i + width], start_line, start_col))
                advance(width)
                continue
            raise ParseError(E_SYNTAX, "stray '-'", start_line, start_col)
        if ch == ">" and text[i : i + 2] == ">=":
            tokens.append(("PUNCT", ">=", start_line, start_col))
            advance(2)
            continue
        if ch in _PUNCT_SINGLE:
            tokens.append(("PUNCT", ch, start_line, start_col))
            advance(1)
            continue
        if ch in _DIGITS:
            kind, width = _oracle_number(text, i, start_line, start_col)
            tokens.append((kind, text[i : i + width], start_line, start_col))
            advance(width)
            continue
        if ch in _LETTERS or ch == "_":
            j = i
            while j < n and text[j] in _IDENT_CHARS:
                j += 1
            tokens.append(("IDENT", text[i:j], start_line, start_col))
            advance(j - i)
            continue
        raise ParseError(E_SYNTAX, f"unexpected character {ch!r}", start_line, start_col)

    tokens.append(("EOF", "", line, col))
    return tokens


def _oracle_raw_span(text: str, start: int) -> str:
    i = start + 1
    n = len(text)
    while i < n:
        if text[i] == "\\":
            i += 2
            continue
        if text[i] == '"':
            return text[start : i + 1]
        if text[i] == "\n":
            break
        i += 1
    return text[start:]


def _oracle_string(text: str, start: int, line: int, col: int) -> str:
    out: list[str] = []
    i = start + 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == '"':
            return "".join(out)
        if ch == "\n":
            break
        if ch == "\\":
            if i + 1 >= n or text[i + 1] not in _UNESCAPES:
                raise ParseError(E_SYNTAX, "bad string escape", line, col)
            out.append(_UNESCAPES[text[i + 1]])
            i += 2
            continue
        out.append(ch)
        i += 1
    raise ParseError(E_SYNTAX, "unterminated string", line, col)


def _oracle_number(text: str, start: int, line: int, col: int) -> tuple[str, int]:
    n = len(text)
    i = start
    if text[i] == "-":
        i += 1
    while i < n and text[i] in _DIGITS:
        i += 1
    is_float = False
    if i < n and text[i] == ".":
        if i + 1 >= n or text[i + 1] not in _DIGITS:
            raise ParseError(E_SYNTAX, "malformed number", line, col)
        is_float = True
        i += 1
        while i < n and text[i] in _DIGITS:
            i += 1
    if i < n and text[i] in "eE":
        j = i + 1
        if j < n and text[j] in "+-":
            j += 1
        if j >= n or text[j] not in _DIGITS:
            raise ParseError(E_SYNTAX, "malformed exponent", line, col)
        is_float = True
        i = j
        while i < n and text[i] in _DIGITS:
            i += 1
    return ("FLOAT" if is_float else "INT"), i - start


# The parser oracle: the Token scanner and the recursive-descent parser.

# Token kinds.
IDENT = "IDENT"
STRING = "STRING"
INT = "INT"
FLOAT = "FLOAT"
PUNCT = "PUNCT"  # one of { } ( ) < > , : = . @ * -> >=
EOF = "EOF"

_ESCAPE_RE = re.compile(r"\\(.)")

# Alternatives are tried in order, so each error alternative sits
# before the token it would otherwise be cut short into.
_TOKEN_RE = re.compile(
    r"""
    (?P<SKIP>(?:[ \t\r\n]|//[^\n]*)+)
    | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<PUNCT>->|>=|[{}()<>,:=.@*])
    | (?P<STRING>"(?:[^"\\\n]|\\[\\"ntr])*")
    | (?P<BAD_NUMBER>-?[0-9]+\.(?![0-9]))
    | (?P<BAD_EXPONENT>-?[0-9]+(?:\.[0-9]+)?[eE](?![+-]?[0-9]))
    | (?P<FLOAT>-?[0-9]+(?:\.[0-9]+(?:[eE][+-]?[0-9]+)?|[eE][+-]?[0-9]+))
    | (?P<INT>-?[0-9]+)
    | (?P<STRAY_MINUS>-)
    | (?P<BAD_STRING>")
    | (?P<BAD_CHAR>.)
    """,
    re.VERBOSE | re.DOTALL,
)

_PLAIN = frozenset({IDENT, PUNCT, INT, FLOAT})
_ERRORS = {
    "BAD_NUMBER": "malformed number",
    "BAD_EXPONENT": "malformed exponent",
    "STRAY_MINUS": "stray '-'",
}


class Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col

    def is_punct(self, text: str) -> bool:
        return self.kind == PUNCT and self.text == text

    def is_ident(self, text: str | None = None) -> bool:
        return self.kind == IDENT and (text is None or self.text == text)


def _scan_tokens(text: str) -> list[Token]:
    """Turn source text into tokens, raising E_SYNTAX on stray bytes."""
    if text.startswith("﻿"):
        text = text[1:]
    tokens: list[Token] = []
    append = tokens.append
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "SKIP":
            newlines = text.count("\n", m.start(), m.end())
            if newlines:
                line += newlines
                line_start = text.rindex("\n", m.start(), m.end()) + 1
            continue
        col = m.start() - line_start + 1
        if kind in _PLAIN:
            append(Token(kind, m.group(), line, col))
        elif kind == STRING:
            body = m.group()[1:-1]
            if "\\" in body:
                body = _ESCAPE_RE.sub(lambda e: _UNESCAPES[e.group(1)], body)
            append(Token(STRING, body, line, col))
        elif kind == "BAD_STRING":
            raise _string_error(text, m.start(), line, col)
        else:
            message = _ERRORS.get(kind) or f"unexpected character {m.group()!r}"
            raise ParseError(E_SYNTAX, message, line, col)
    append(Token(EOF, "", line, len(text) - line_start + 1))
    return tokens


def _string_error(text: str, start: int, line: int, col: int) -> ParseError:
    """The error for a `"` at `start` that opens no well-formed string."""
    i = start + 1
    while i < len(text) and text[i] != "\n":
        if text[i] == "\\":
            if text[i + 1 : i + 2] not in _UNESCAPES:
                return ParseError(E_SYNTAX, "bad string escape", line, col)
            i += 2
        else:
            i += 1
    return ParseError(E_SYNTAX, "unterminated string", line, col)


# Types nest at most this deep while parsing, so nothing recurses
# without bound; the validator's much lower limit (V_LIST_DEPTH) still
# applies to a spec that parses.
MAX_TYPE_NESTING = 32


class _TokenStream:
    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0

    def peek(self, ahead: int = 0) -> Token:
        if ahead:
            return self._tokens[min(self._pos + ahead, len(self._tokens) - 1)]
        return self._tokens[self._pos]

    def next(self) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind != EOF:
            self._pos += 1
        return tok

    def expect_punct(self, text: str) -> Token:
        tok = self.next()
        if not tok.is_punct(text):
            raise _syntax(f"expected {text!r}", tok)
        return tok

    def expect_ident(self, text: str | None = None) -> Token:
        tok = self.next()
        if tok.kind != IDENT or (text is not None and tok.text != text):
            want = f"keyword {text!r}" if text else "identifier"
            raise _syntax(f"expected {want}", tok)
        return tok

    def expect_string(self) -> Token:
        tok = self.next()
        if tok.kind != STRING:
            raise _syntax("expected string literal", tok)
        return tok


def _syntax(message: str, tok: Token) -> ParseError:
    shown = tok.text if tok.kind != EOF else "end of input"
    return ParseError(E_SYNTAX, f"{message}, got {shown!r}", tok.line, tok.col)


def oracle_parse_any(text: str) -> ComponentSpec | ProjectSpec:
    """Parse either kind of spec, dispatching on the leading keyword."""
    ts = _TokenStream(_scan_tokens(text))
    head = ts.next()
    if head.is_ident("component"):
        spec: ComponentSpec | ProjectSpec = _component_body(ts)
    elif head.is_ident("project"):
        spec = _project_body(ts)
    else:
        raise _syntax("expected 'component' or 'project'", head)
    _expect_eof(ts)
    return spec


def oracle_parse_type(text: str) -> SemType:
    """Parse a standalone type expression like `list<i32>`."""
    ts = _TokenStream(_scan_tokens(text))
    ty = _type(ts)
    _expect_eof(ts)
    return ty


def _expect_eof(ts: _TokenStream) -> None:
    tok = ts.peek()
    if tok.kind != EOF:
        raise _syntax("trailing input after specification", tok)


def _name_token(ts: _TokenStream, what: str) -> Token:
    tok = ts.expect_string()
    if not IDENT_RE.match(tok.text):
        raise ParseError(E_SYNTAX, f"{what} {tok.text!r} is not an identifier", tok.line, tok.col)
    return tok


def _component_body(ts: _TokenStream) -> ComponentSpec:
    name_tok = _name_token(ts, "component name")
    ts.expect_ident("version")
    version_tok = ts.expect_string()
    try:
        version = parse_version(version_tok.text)
    except ValueError as err:
        raise ParseError(E_BAD_VERSION, str(err), version_tok.line, version_tok.col) from None
    ts.expect_punct("{")

    provided: list[InterfaceSpec] = []
    required: list[InterfaceSpec] = []
    meta: list[MetaEntry] = []
    while True:
        tok = ts.peek()
        if tok.is_punct("}"):
            ts.next()
            break
        if tok.is_ident("meta"):
            ts.next()
            key = ts.expect_ident().text
            ts.expect_punct("=")
            meta.append(MetaEntry(key, ts.expect_string().text))
        elif tok.is_ident("provides") or tok.is_ident("requires"):
            iface = _interface_decl(ts)
            bucket = provided if iface.direction == PROVIDED else required
            if any(existing.name == iface.name for existing in bucket):
                raise ParseError(
                    E_DUP_NAME,
                    f"duplicate {iface.direction} interface {iface.name!r}",
                    tok.line,
                    tok.col,
                )
            bucket.append(iface)
        else:
            raise _syntax("expected 'meta', 'provides', 'requires' or '}'", tok)

    return ComponentSpec(
        name=name_tok.text,
        version=version,
        provided=tuple(provided),
        required=tuple(required),
        meta=tuple(meta),
    )


def _interface_decl(ts: _TokenStream) -> InterfaceSpec:
    direction = PROVIDED if ts.next().text == "provides" else REQUIRED
    ts.expect_ident("interface")
    name = ts.expect_ident().text
    ts.expect_punct("{")
    operations: list[OperationSig] = []
    while True:
        tok = ts.peek()
        if tok.is_punct("}"):
            ts.next()
            break
        if tok.is_ident("op"):
            op = _op_decl(ts)
            if any(existing.name == op.name for existing in operations):
                raise ParseError(E_DUP_NAME, f"duplicate operation {op.name!r}", tok.line, tok.col)
            operations.append(op)
        else:
            raise _syntax("expected 'op' or '}'", tok)
    return InterfaceSpec(name, direction, tuple(operations))


def _op_decl(ts: _TokenStream) -> OperationSig:
    op_tok = ts.expect_ident("op")
    name = ts.expect_ident().text
    ts.expect_punct("(")

    names: list[str] = []
    types: list[SemType] = []
    defaults: list[Literal | None] = []
    if not ts.peek().is_punct(")"):
        while True:
            param_tok = ts.expect_ident()
            if param_tok.text in names:
                raise ParseError(
                    E_DUP_NAME, f"duplicate parameter {param_tok.text!r}", param_tok.line, param_tok.col
                )
            ts.expect_punct(":")
            ty = _type(ts)
            default = None
            if ts.peek().is_punct("="):
                ts.next()
                default = _literal(ts)
            names.append(param_tok.text)
            types.append(ty)
            defaults.append(default)
            if ts.peek().is_punct(","):
                ts.next()
                continue
            break
    ts.expect_punct(")")
    ts.expect_punct("->")
    returns = _type(ts)

    op_concept: ConceptId | None = None
    param_concepts: dict[str, ConceptId] = {}
    param_units: dict[str, str] = {}
    annotated: set[str] = set()
    while ts.peek().is_punct("@"):
        at_tok = ts.next()
        kind = ts.expect_ident()
        if kind.text == "concept":
            if op_concept is not None:
                raise ParseError(E_SYNTAX, "duplicate operation @concept", at_tok.line, at_tok.col)
            if annotated:
                raise ParseError(
                    E_SYNTAX, "operation @concept must precede @param clauses", at_tok.line, at_tok.col
                )
            op_concept = _concept_path(ts)
        elif kind.text == "param":
            target = ts.expect_ident()
            if target.text not in names:
                raise ParseError(
                    E_SYNTAX, f"@param names unknown parameter {target.text!r}", target.line, target.col
                )
            if target.text in annotated:
                raise ParseError(
                    E_DUP_NAME, f"duplicate @param clause for {target.text!r}", target.line, target.col
                )
            annotated.add(target.text)
            _param_annotations(ts, target.text, param_concepts, param_units)
        else:
            raise ParseError(E_SYNTAX, f"unknown annotation @{kind.text}", at_tok.line, at_tok.col)

    if op_concept is None:
        raise ParseError(
            E_NO_CONCEPT, f"operation {name!r} is missing its @concept annotation", op_tok.line, op_tok.col
        )

    params = tuple(
        ParamSig(
            name=pname,
            ty=ptype,
            concept=param_concepts.get(pname),
            unit=param_units.get(pname),
            default=pdefault,
        )
        for pname, ptype, pdefault in zip(names, types, defaults)
    )
    return OperationSig(name=name, params=params, returns=returns, concept=op_concept)


def _param_annotations(
    ts: _TokenStream,
    param: str,
    concepts: dict[str, ConceptId],
    units: dict[str, str],
) -> None:
    saw_any = False
    while ts.peek().is_punct("@") and ts.peek(1).kind == IDENT and ts.peek(1).text in ("concept", "unit"):
        at_tok = ts.next()
        kind = ts.next().text
        if kind == "concept":
            if param in concepts:
                raise ParseError(E_SYNTAX, f"duplicate @concept for parameter {param!r}", at_tok.line, at_tok.col)
            concepts[param] = _concept_path(ts)
        else:
            if param in units:
                raise ParseError(E_SYNTAX, f"duplicate @unit for parameter {param!r}", at_tok.line, at_tok.col)
            units[param] = ts.expect_ident().text
        saw_any = True
    if not saw_any:
        tok = ts.peek()
        raise ParseError(E_SYNTAX, f"@param {param} carries no @concept or @unit", tok.line, tok.col)


def _concept_path(ts: _TokenStream) -> ConceptId:
    segments: list[str] = []
    while True:
        tok = ts.expect_ident()
        if not CONCEPT_SEGMENT_RE.match(tok.text):
            raise ParseError(
                E_SYNTAX,
                f"concept segment {tok.text!r} must match [a-z][a-z0-9_]*",
                tok.line,
                tok.col,
            )
        segments.append(tok.text)
        if ts.peek().is_punct("."):
            ts.next()
            continue
        return ConceptId(tuple(segments))


def _type(ts: _TokenStream, depth: int = 0) -> SemType:
    tok = ts.expect_ident()
    if tok.text == "list":
        if depth == MAX_TYPE_NESTING:
            raise ParseError(
                E_SYNTAX, f"list types nest deeper than {MAX_TYPE_NESTING}", tok.line, tok.col
            )
        ts.expect_punct("<")
        elem = _type(ts, depth + 1)
        ts.expect_punct(">")
        return SemType("list", elem)
    if tok.text in SCALAR_KINDS:
        return SemType(tok.text)
    raise ParseError(E_SYNTAX, f"unknown type {tok.text!r}", tok.line, tok.col)


def _literal(ts: _TokenStream) -> Literal:
    tok = ts.next()
    if tok.kind == INT:
        try:
            return Literal("int", int(tok.text, 10))
        except ValueError:  # more digits than int() converts
            raise ParseError(E_SYNTAX, "int literal too long", tok.line, tok.col) from None
    if tok.kind == FLOAT:
        value = float(tok.text)
        if not math.isfinite(value):
            raise ParseError(E_SYNTAX, "float literal out of range", tok.line, tok.col)
        return Literal("float", value)
    if tok.kind == STRING:
        return Literal("string", tok.text)
    if tok.is_ident("true"):
        return Literal("bool", True)
    if tok.is_ident("false"):
        return Literal("bool", False)
    raise _syntax("expected literal", tok)


def _project_body(ts: _TokenStream) -> ProjectSpec:
    name_tok = _name_token(ts, "project name")
    ts.expect_punct("{")

    uses: list[UseDecl] = []
    connections: list[Connection] = []
    demands: list[ConceptId] = []
    while True:
        tok = ts.peek()
        if tok.is_punct("}"):
            ts.next()
            break
        if tok.is_ident("uses"):
            ts.next()
            use_tok = _name_token(ts, "component name")
            if any(u.name == use_tok.text for u in uses):
                raise ParseError(E_DUP_USE, f"component {use_tok.text!r} listed twice", use_tok.line, use_tok.col)
            uses.append(UseDecl(use_tok.text, _constraint(ts)))
        elif tok.is_ident("connect"):
            ts.next()
            connections.append(_connection(ts, tok, uses))
        elif tok.is_ident("demand"):
            ts.next()
            demands.append(_concept_path(ts))
        else:
            raise _syntax("expected 'uses', 'connect', 'demand' or '}'", tok)

    return ProjectSpec(
        name=name_tok.text,
        uses=tuple(uses),
        connections=tuple(connections),
        demands=tuple(demands),
    )


def _constraint(ts: _TokenStream) -> VersionConstraint:
    tok = ts.peek()
    if tok.is_punct("*"):
        ts.next()
        return ANY_VERSION
    if tok.is_punct("=") or tok.is_punct(">="):
        ts.next()
        version_tok = ts.expect_string()
        try:
            version = parse_version(version_tok.text)
        except ValueError as err:
            raise ParseError(E_BAD_CONSTRAINT, str(err), version_tok.line, version_tok.col) from None
        return VersionConstraint(tok.text, version)
    # Bare `uses "A"` means any version.
    return ANY_VERSION


def _connection(ts: _TokenStream, connect_tok: Token, uses: list[UseDecl]) -> Connection:
    def endpoint(expected_direction: str) -> tuple[str, str]:
        comp_tok = ts.expect_ident()
        ts.expect_punct(".")
        direction_tok = ts.expect_ident()
        if direction_tok.text != expected_direction:
            raise ParseError(
                E_SYNTAX,
                f"expected '{expected_direction}' in connection endpoint",
                direction_tok.line,
                direction_tok.col,
            )
        ts.expect_punct(".")
        iface = ts.expect_ident().text
        if not any(u.name == comp_tok.text for u in uses):
            raise ParseError(
                E_SYNTAX,
                f"connection references {comp_tok.text!r} which is not listed in uses",
                comp_tok.line,
                comp_tok.col,
            )
        return comp_tok.text, iface

    consumer_component, consumer_interface = endpoint("requires")
    ts.expect_punct("->")
    provider_component, provider_interface = endpoint("provides")
    return Connection(
        consumer_component=consumer_component,
        consumer_interface=consumer_interface,
        provider_component=provider_component,
        provider_interface=provider_interface,
    )
