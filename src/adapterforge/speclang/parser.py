"""Recursive-descent parser producing ComponentSpec / ProjectSpec values.

The grammar is block-structured (see docs/spec-language.md for the
EBNF). Parsing enforces the structural invariants that have parse
error codes: duplicate names, missing operation concepts, malformed
versions and constraints. Deeper semantic limits (concept depth, list
nesting, default literal types) are left to the validator so that a
spec can be loaded, inspected, and reported on even when it carries
those defects.
"""

from __future__ import annotations

import math
from pathlib import Path

from . import lexer
from .errors import (
    E_BAD_CONSTRAINT,
    E_BAD_VERSION,
    E_DUP_NAME,
    E_DUP_USE,
    E_NO_CONCEPT,
    E_SYNTAX,
    ParseError,
)
from .lexer import EOF, FLOAT, IDENT, INT, STRING, Token
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


def read_spec_text(path: str | Path) -> str:
    """Read a spec or rules file, rejecting anything that is not UTF-8."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise ParseError(
            E_SYNTAX, f"{path} is not UTF-8 ({err.reason} at byte {err.start})", 1, 1
        ) from None


def parse_component(text: str) -> ComponentSpec:
    """Parse a `.cdl` component specification."""
    ts = _TokenStream(lexer.tokenize(text))
    ts.expect_ident("component")
    spec = _component_body(ts)
    _expect_eof(ts)
    return spec


def parse_project(text: str) -> ProjectSpec:
    """Parse a `.pdl` project specification."""
    ts = _TokenStream(lexer.tokenize(text))
    ts.expect_ident("project")
    spec = _project_body(ts)
    _expect_eof(ts)
    return spec


def parse_any(text: str) -> ComponentSpec | ProjectSpec:
    """Parse either kind of spec, dispatching on the leading keyword."""
    ts = _TokenStream(lexer.tokenize(text))
    head = ts.next()
    if head.is_ident("component"):
        spec: ComponentSpec | ProjectSpec = _component_body(ts)
    elif head.is_ident("project"):
        spec = _project_body(ts)
    else:
        raise _syntax("expected 'component' or 'project'", head)
    _expect_eof(ts)
    return spec


def parse_type(text: str) -> SemType:
    """Parse a standalone type expression like `list<i32>`."""
    ts = _TokenStream(lexer.tokenize(text))
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
