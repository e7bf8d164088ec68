"""Directional representation-bridging rules and matching penalties.

A conversion table says which (type, unit) pairs can be bridged and
how. The relation is explicitly directional and never implies its own
inverse; identity entries are rejected because equal ports need no
bridging. Scoring penalties and the adaptability threshold live beside
the table so a corpus can tune them from the same rules file.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from pathlib import Path

from .speclang import SemType
from .speclang.errors import E_SYNTAX, ParseError
from .speclang.parser import parse_type

WIDEN = "WIDEN"
NARROW_CHECKED = "NARROW_CHECKED"
UNIT_SCALE = "UNIT_SCALE"
PARSE = "PARSE"
FORMAT = "FORMAT"

RULE_KINDS = (WIDEN, NARROW_CHECKED, UNIT_SCALE, PARSE, FORMAT)

# Mismatch kinds (shared vocabulary with the analyser and reports).
RENAME = "RENAME"
PARAM_PERMUTATION = "PARAM_PERMUTATION"
TYPE_CONVERSION = "TYPE_CONVERSION"
DEFAULT_FILL = "DEFAULT_FILL"
MISSING_OPERATION = "MISSING_OPERATION"
CONCEPT_DISTANCE = "CONCEPT_DISTANCE"


@dataclass(frozen=True)
class TypePort:
    """A value slot as seen on the wire: type plus optional unit tag."""

    ty: SemType
    unit: str | None = None

    def __str__(self) -> str:
        return f"{self.ty}@{self.unit}" if self.unit else str(self.ty)


@dataclass(frozen=True)
class ConversionRule:
    kind: str
    factor: Fraction | None = None  # UNIT_SCALE only

    def __post_init__(self) -> None:
        if self.kind not in RULE_KINDS:
            raise ValueError(f"unknown conversion rule {self.kind!r}")
        if self.kind == UNIT_SCALE:
            if self.factor is None or self.factor == 0:
                raise ValueError("UNIT_SCALE needs a nonzero factor")
        elif self.factor is not None:
            raise ValueError(f"{self.kind} carries no factor")

    def __str__(self) -> str:
        if self.kind == UNIT_SCALE:
            assert self.factor is not None
            return f"{self.kind} {self.factor.numerator}/{self.factor.denominator}"
        return self.kind


@dataclass
class ConversionTable:
    entries: dict[tuple[TypePort, TypePort], ConversionRule] = field(default_factory=dict)

    def add(self, frm: TypePort, to: TypePort, rule: ConversionRule) -> None:
        if frm == to:
            raise ValueError(f"identity conversion {frm} -> {to} is not allowed")
        self.entries[(frm, to)] = rule

    def lookup(self, frm: TypePort, to: TypePort) -> ConversionRule | None:
        return self.entries.get((frm, to))


@dataclass(frozen=True)
class MatchConfig:
    """Penalty per mismatch kind (CONCEPT_DISTANCE is per hop) and the
    score threshold separating adaptable from incompatible.

    Penalties are at least 0, so an extra mismatch never raises a score
    (the matcher's exactness rests on this), and the threshold lies in
    [0, 1].
    """

    rename_penalty: Fraction = Fraction(0)
    permutation_penalty: Fraction = Fraction(1, 20)
    conversion_penalty: Fraction = Fraction(1, 10)
    fill_penalty: Fraction = Fraction(3, 20)
    concept_hop_penalty: Fraction = Fraction(1, 10)
    threshold: Fraction = Fraction(1, 2)

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "threshold":
                if not 0 <= value <= 1:
                    raise ValueError(f"threshold must lie in [0, 1], got {value}")
            elif value < 0:
                raise ValueError(f"{f.name} must be >= 0, got {value}")

    def penalty(self, kind: str, hops: int = 1) -> Fraction:
        if kind == RENAME:
            return self.rename_penalty
        if kind == PARAM_PERMUTATION:
            return self.permutation_penalty
        if kind == TYPE_CONVERSION:
            return self.conversion_penalty
        if kind == DEFAULT_FILL:
            return self.fill_penalty
        if kind == CONCEPT_DISTANCE:
            return self.concept_hop_penalty * hops
        raise ValueError(f"no penalty defined for {kind}")


DEFAULT_CONFIG = MatchConfig()

_PENALTY_FIELDS = {
    "rename": "rename_penalty",
    "param_permutation": "permutation_penalty",
    "type_conversion": "conversion_penalty",
    "default_fill": "fill_penalty",
    "concept_distance": "concept_hop_penalty",
}


def parse_rules_text(text: str) -> tuple[ConversionTable, MatchConfig]:
    """Parse a rules file.

    Each conversion is one comma-separated line:
    from-type, from-unit, to-type, to-unit, rule, factor-numerator,
    factor-denominator (`-` for "no unit"). Directive lines
    `penalty <kind> <num>/<den>` and `threshold <num>/<den>` override
    the built-in scoring constants.
    """
    table = ConversionTable()
    overrides: dict[str, Fraction] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "," not in line:
            _parse_directive(line, lineno, overrides)
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != 7:
            raise ParseError(E_SYNTAX, f"expected 7 fields, got {len(fields)}", lineno, 1)
        from_ty, from_unit, to_ty, to_unit, rule_name, num, den = fields
        try:
            frm = TypePort(parse_type(from_ty), None if from_unit == "-" else from_unit)
            to = TypePort(parse_type(to_ty), None if to_unit == "-" else to_unit)
        except ParseError as err:
            raise ParseError(E_SYNTAX, err.message, lineno, 1) from None
        kind = rule_name.upper()
        if kind not in RULE_KINDS:
            raise ParseError(E_SYNTAX, f"unknown rule {rule_name!r}", lineno, 1)
        try:
            factor = Fraction(int(num), int(den)) if kind == UNIT_SCALE else None
            rule = ConversionRule(kind, factor)
            table.add(frm, to, rule)
        except (ValueError, ZeroDivisionError) as err:
            raise ParseError(E_SYNTAX, str(err), lineno, 1) from None
    config = DEFAULT_CONFIG
    if overrides:
        config = replace(DEFAULT_CONFIG, **overrides)  # type: ignore[arg-type]
    return table, config


def _parse_directive(line: str, lineno: int, overrides: dict[str, Fraction]) -> None:
    parts = line.split()
    if parts[0] == "threshold" and len(parts) == 2:
        field_name: str | None = "threshold"
    elif parts[0] == "penalty" and len(parts) == 3:
        field_name = _PENALTY_FIELDS.get(parts[1])
        if field_name is None:
            raise ParseError(E_SYNTAX, f"unknown penalty kind {parts[1]!r}", lineno, 1)
    else:
        raise ParseError(E_SYNTAX, f"unrecognized directive {line!r}", lineno, 1)
    try:
        value = _fraction(parts[-1])
        replace(DEFAULT_CONFIG, **{field_name: value})  # range check, here for the line number
    except (ValueError, ZeroDivisionError) as err:
        raise ParseError(E_SYNTAX, str(err), lineno, 1) from None
    overrides[field_name] = value


def _fraction(text: str) -> Fraction:
    if "/" in text:
        num, den = text.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def load_rules(path: str | Path) -> tuple[ConversionTable, MatchConfig]:
    return parse_rules_text(Path(path).read_text(encoding="utf-8"))
