"""In-memory model for component and project specifications.

All values are immutable. Constructors normalize whatever canonical
serialization would normalize anyway (interface order, meta order,
demand dedup), so two specs describing the same thing compare equal
no matter how their source text was laid out.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Any

from .errors import E_DESCRIPTOR, E_UNRESOLVED, AdapterForgeError, json_field

SCALAR_KINDS = ("i32", "i64", "f64", "bool", "string", "bytes", "unit")
NUMERIC_KINDS = ("i32", "i64", "f64")

I32_MIN, I32_MAX = -(2**31), 2**31 - 1
I64_MIN, I64_MAX = -(2**63), 2**63 - 1

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
CONCEPT_SEGMENT_RE = re.compile(r"[a-z][a-z0-9_]*\Z")

PROVIDED = "provided"
REQUIRED = "required"


@dataclass(frozen=True)
class SemType:
    """A value type: one of the scalar kinds or list<elem>."""

    kind: str
    elem: SemType | None = None

    def __post_init__(self) -> None:
        if self.kind == "list":
            if self.elem is None:
                raise ValueError("list type needs an element type")
        elif self.kind not in SCALAR_KINDS:
            raise ValueError(f"unknown type kind {self.kind!r}")
        elif self.elem is not None:
            raise ValueError(f"scalar type {self.kind} cannot have an element type")

    @property
    def is_numeric(self) -> bool:
        return self.kind in NUMERIC_KINDS

    def nesting_depth(self) -> int:
        """Number of list<> wrappers around the scalar core."""
        depth, ty = 0, self
        while ty.kind == "list":
            assert ty.elem is not None
            depth, ty = depth + 1, ty.elem
        return depth

    def __str__(self) -> str:
        if self.kind == "list":
            return f"list<{self.elem}>"
        return self.kind


I32 = SemType("i32")
I64 = SemType("i64")
F64 = SemType("f64")
BOOL = SemType("bool")
STRING = SemType("string")
BYTES = SemType("bytes")
UNIT = SemType("unit")


def list_of(elem: SemType) -> SemType:
    return SemType("list", elem)


@dataclass(frozen=True)
class ConceptId:
    """Dotted semantic tag; ancestry is segment-wise prefixing."""

    segments: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("concept must have at least one segment")

    @classmethod
    def from_text(cls, text: str) -> ConceptId:
        """Parse a dotted path, enforcing the lowercase segment syntax."""
        segments = tuple(text.split("."))
        for seg in segments:
            if not CONCEPT_SEGMENT_RE.match(seg):
                raise ValueError(f"bad concept segment {seg!r}")
        return cls(segments)

    def is_ancestor_of(self, other: ConceptId) -> bool:
        """Strict prefix: data.sort is an ancestor of data.sort.asc."""
        return (
            len(self.segments) < len(other.segments)
            and other.segments[: len(self.segments)] == self.segments
        )

    def hops_to(self, other: ConceptId) -> int | None:
        """Hop count along the ancestor chain, None if unrelated."""
        if self == other:
            return 0
        if self.is_ancestor_of(other) or other.is_ancestor_of(self):
            return abs(len(self.segments) - len(other.segments))
        return None

    def child(self, *extra: str) -> ConceptId:
        return ConceptId(self.segments + extra)

    def __str__(self) -> str:
        return ".".join(self.segments)


def concept_from_json(text: str | None) -> ConceptId | None:
    """A stored concept, held to the segment syntax a spec enforces."""
    if text is None:
        return None
    try:
        return ConceptId.from_text(text)
    except ValueError as err:
        raise AdapterForgeError(E_DESCRIPTOR, f"malformed concept {text!r}: {err}") from None


Version = tuple[int, int, int]


def parse_version(text: str) -> Version:
    parts = text.split(".")
    if len(parts) != 3:
        raise ValueError(f"version {text!r} is not MAJOR.MINOR.PATCH")
    try:
        nums = tuple(int(p, 10) for p in parts)
    except ValueError:
        raise ValueError(f"version {text!r} has non-numeric parts") from None
    if any(n < 0 for n in nums) or any(p != str(n) for p, n in zip(parts, nums)):
        raise ValueError(f"version {text!r} has malformed parts")
    return nums  # type: ignore[return-value]


def format_version(version: Version) -> str:
    return ".".join(str(n) for n in version)


@dataclass(frozen=True)
class VersionConstraint:
    """One of the three supported forms: `*`, `= x.y.z`, `>= x.y.z`."""

    op: str
    version: Version | None = None

    def __post_init__(self) -> None:
        if self.op not in ("*", "=", ">="):
            raise ValueError(f"unknown constraint operator {self.op!r}")
        if (self.version is None) != (self.op == "*"):
            raise ValueError("constraint version mandatory except for *")

    def satisfies(self, version: Version) -> bool:
        if self.op == "*":
            return True
        assert self.version is not None
        if self.op == "=":
            return version == self.version
        return version >= self.version

    def __str__(self) -> str:
        if self.op == "*":
            return "*"
        assert self.version is not None
        return f'{self.op} "{format_version(self.version)}"'


ANY_VERSION = VersionConstraint("*")


@dataclass(frozen=True)
class Literal:
    """A typed literal: default values and adapter fill values."""

    kind: str  # int | float | bool | string
    value: int | float | bool | str

    def __post_init__(self) -> None:
        if self.kind not in ("int", "float", "bool", "string"):
            raise ValueError(f"unknown literal kind {self.kind!r}")

    def matches_type(self, ty: SemType) -> bool:
        """Strict kind compatibility; integer range checked separately."""
        if self.kind == "int":
            return ty.kind in ("i32", "i64")
        if self.kind == "float":
            return ty.kind == "f64"
        if self.kind == "bool":
            return ty.kind == "bool"
        return ty.kind == "string"

    def in_range(self, ty: SemType) -> bool:
        if self.kind != "int":
            return True
        assert isinstance(self.value, int)
        if ty.kind == "i32":
            return I32_MIN <= self.value <= I32_MAX
        if ty.kind == "i64":
            return I64_MIN <= self.value <= I64_MAX
        return True

    def canonical_text(self) -> str:
        if self.kind == "string":
            return quote_string(str(self.value))
        if self.kind == "bool":
            return "true" if self.value else "false"
        if self.kind == "float":
            return format_float(float(self.value))
        return str(self.value)


def literal_to_json(lit: Literal) -> dict:
    return {"kind": lit.kind, "value": lit.value}


_LITERAL_JSON_TYPES: dict[str, type | tuple[type, ...]] = {
    "int": int,
    "float": (int, float),
    "bool": bool,
    "string": str,
}


def literal_from_json(doc: Any) -> Literal:
    if not isinstance(doc, dict):
        raise AdapterForgeError(E_DESCRIPTOR, "a literal must be an object")
    kind = json_field(doc, "kind", str)
    value = json_field(doc, "value", _LITERAL_JSON_TYPES.get(kind, object))
    if kind == "float":
        value = float(value)
        if not math.isfinite(value):  # a spec could not write it back
            raise AdapterForgeError(E_DESCRIPTOR, f"float literal {value} is not finite")
    return Literal(kind, value)


def format_float(value: float) -> str:
    """repr round-trips exactly; ensure the text re-lexes as a float."""
    text = repr(value)
    if "." not in text and "e" not in text and "E" not in text:
        text += ".0"
    return text


_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t", "\r": "\\r"}


def quote_string(value: str) -> str:
    out = ['"']
    for ch in value:
        out.append(_ESCAPES.get(ch, ch))
    out.append('"')
    return "".join(out)


@dataclass(frozen=True)
class ParamSig:
    """One operation parameter.

    `concept` holds only an explicit @concept annotation; the effective
    concept of an unannotated parameter derives from the operation
    (op concept + .arg.<name>), so independently written specs align.
    """

    name: str
    ty: SemType
    concept: ConceptId | None = None
    unit: str | None = None
    default: Literal | None = None

    def effective_concept(self, op_concept: ConceptId) -> ConceptId:
        if self.concept is not None:
            return self.concept
        return op_concept.child("arg", self.name)


@dataclass(frozen=True)
class OperationSig:
    name: str
    params: tuple[ParamSig, ...]
    returns: SemType
    concept: ConceptId

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", tuple(self.params))

    def param_concepts(self, base: ConceptId | None = None) -> tuple[ConceptId, ...]:
        """Effective parameter concepts.

        `base` substitutes the anchor for synthesized (unannotated)
        concepts; matching anchors both sides of a comparison on the
        consumer's operation concept so that ancestry-related
        operations can still align their parameters. Without `base`
        the tuple is computed once per op and kept on it.
        """
        if base is not None:
            return tuple(p.effective_concept(base) for p in self.params)
        concepts = self.__dict__.get("_param_concepts")
        if concepts is None:
            concepts = tuple(p.effective_concept(self.concept) for p in self.params)
            object.__setattr__(self, "_param_concepts", concepts)
        return concepts


@dataclass(frozen=True)
class InterfaceSpec:
    name: str
    direction: str  # provided | required
    operations: tuple[OperationSig, ...]

    def __post_init__(self) -> None:
        if self.direction not in (PROVIDED, REQUIRED):
            raise ValueError(f"bad interface direction {self.direction!r}")
        object.__setattr__(self, "operations", tuple(self.operations))

    def operation(self, name: str) -> OperationSig | None:
        for op in self.operations:
            if op.name == name:
                return op
        return None

    def with_direction(self, direction: str) -> InterfaceSpec:
        if direction == self.direction:
            return self
        return InterfaceSpec(self.name, direction, self.operations)


@dataclass(frozen=True)
class MetaEntry:
    key: str
    value: str


@dataclass(frozen=True)
class ComponentSpec:
    name: str
    version: Version
    provided: tuple[InterfaceSpec, ...] = ()
    required: tuple[InterfaceSpec, ...] = ()
    meta: tuple[MetaEntry, ...] = ()

    def __post_init__(self) -> None:
        # Normalize to canonical order so equality matches serialization.
        object.__setattr__(
            self, "provided", tuple(sorted(self.provided, key=lambda i: i.name))
        )
        object.__setattr__(
            self, "required", tuple(sorted(self.required, key=lambda i: i.name))
        )
        object.__setattr__(
            self, "meta", tuple(sorted(self.meta, key=lambda m: (m.key, m.value)))
        )
        for iface in self.provided:
            if iface.direction != PROVIDED:
                raise ValueError(f"interface {iface.name} listed as provided but marked {iface.direction}")
        for iface in self.required:
            if iface.direction != REQUIRED:
                raise ValueError(f"interface {iface.name} listed as required but marked {iface.direction}")

    def interface(self, direction: str, name: str) -> InterfaceSpec | None:
        pool = self.provided if direction == PROVIDED else self.required
        for iface in pool:
            if iface.name == name:
                return iface
        return None

    def provided_concepts(self) -> tuple[ConceptId, ...]:
        """Sorted, deduplicated concepts of all provided operations."""
        concepts = {op.concept for iface in self.provided for op in iface.operations}
        return tuple(sorted(concepts, key=lambda c: c.segments))


@dataclass(frozen=True)
class UseDecl:
    name: str
    constraint: VersionConstraint = ANY_VERSION


@dataclass(frozen=True)
class Connection:
    consumer_component: str
    consumer_interface: str
    provider_component: str
    provider_interface: str

    def label(self) -> str:
        return (
            f"{self.consumer_component}.requires.{self.consumer_interface}"
            f" -> {self.provider_component}.provides.{self.provider_interface}"
        )


@dataclass(frozen=True)
class ProjectSpec:
    name: str
    uses: tuple[UseDecl, ...] = ()
    connections: tuple[Connection, ...] = ()
    demands: tuple[ConceptId, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "uses", tuple(self.uses))
        object.__setattr__(self, "connections", tuple(self.connections))
        seen: list[ConceptId] = []
        for demand in self.demands:
            if demand not in seen:
                seen.append(demand)
        object.__setattr__(self, "demands", tuple(seen))

    def use(self, name: str) -> UseDecl | None:
        for use in self.uses:
            if use.name == name:
                return use
        return None


def resolve_components(
    project: ProjectSpec, components: list[ComponentSpec]
) -> dict[str, ComponentSpec]:
    """Pick, per uses entry, the highest version satisfying its constraint."""
    resolved: dict[str, ComponentSpec] = {}
    for use in project.uses:
        candidates = [
            c
            for c in components
            if c.name == use.name and use.constraint.satisfies(c.version)
        ]
        if not candidates:
            raise AdapterForgeError(
                E_UNRESOLVED,
                f"no component satisfies uses {use.name!r} {use.constraint}",
            )
        resolved[use.name] = max(candidates, key=lambda c: c.version)
    return resolved
