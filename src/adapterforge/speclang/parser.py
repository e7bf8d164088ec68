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
_SCALAR_TYPES = {kind: SemType(kind) for kind in SCALAR_KINDS}


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

    names: list[str] = []
    types: list[SemType] = []
    defaults: list[Literal | None] = []
    if ts.peek() != ")":
        while True:
            at = ts.i
            param = ts.expect_ident()
            if param in names:
                raise ts.error(E_DUP_NAME, f"duplicate parameter {param!r}", at)
            ts.expect(":")
            types.append(_type(ts))
            defaults.append(_literal(ts) if ts.accept("=") else None)
            names.append(param)
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
            if annotated:
                raise ts.error(E_SYNTAX, "operation @concept must precede @param clauses", at)
            op_concept = _concept_path(ts)
        elif kind == "param":
            target_at = ts.i
            target = ts.expect_ident()
            if target not in names:
                raise ts.error(E_SYNTAX, f"@param names unknown parameter {target!r}", target_at)
            if target in annotated:
                raise ts.error(E_DUP_NAME, f"duplicate @param clause for {target!r}", target_at)
            annotated.add(target)
            _param_annotations(ts, target, param_concepts, param_units)
        else:
            raise ts.error(E_SYNTAX, f"unknown annotation @{kind}", at)

    if op_concept is None:
        raise ts.error(E_NO_CONCEPT, f"operation {name!r} is missing its @concept annotation", op_at)

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
    scalar = _SCALAR_TYPES.get(tok)
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
