"""Adapter generation: turning an adaptable match into a bridging component.

An adapter implements the consumer's required interface verbatim and
delegates every call, with per-slot transformations, to the provider's
provided interface. Its mapping tables come straight out of the
analyser's mismatch payloads; generation adds no new behaviour. The
emitted descriptor is canonical JSON, so equal inputs give
byte-identical artifacts, and the descriptor is what the pool stores.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from . import __version__, canonjson
from .analyser import (
    ADAPTABLE,
    RETURN_SLOT,
    ConnectionVerdict,
    OperationMatch,
)
from .conversions import (
    DEFAULT_FILL,
    FORMAT,
    NARROW_CHECKED,
    PARAM_PERMUTATION,
    PARSE,
    TYPE_CONVERSION,
    UNIT_SCALE,
    WIDEN,
    ConversionRule,
    TypePort,
)
from .conversions import port_from_json as _port_from_json
from .conversions import port_to_json as _port_to_json
from .conversions import rule_from_json as _rule_from_json
from .conversions import rule_to_json as _rule_to_json
from .speclang import (
    PROVIDED,
    REQUIRED,
    ComponentSpec,
    InterfaceSpec,
    Literal,
    MetaEntry,
    OperationSig,
    ParamSig,
    format_float,
    format_version,
    parse_version,
)
from .speclang.errors import E_DESCRIPTOR, E_PARSE, AdapterForgeError
from .speclang.errors import json_field as _field
from .speclang.errors import json_objects as _objects
from .speclang.model import I32_MAX, I32_MIN, I64_MAX, I64_MIN
from .speclang.model import concept_from_json as _concept_from_json
from .speclang.model import literal_from_json as _literal_from_json
from .speclang.model import literal_to_json as _literal_to_json
from .speclang.parser import parse_type

E_NOT_ADAPTABLE = "E_NOT_ADAPTABLE"
E_NARROW = "E_NARROW"

TAKE = "TAKE"
CONVERT = "CONVERT"
FILL = "FILL"

@dataclass(frozen=True)
class SlotAction:
    """How one provider argument slot is produced from consumer input."""

    kind: str  # TAKE | CONVERT | FILL
    index: int | None = None  # consumer param index for TAKE/CONVERT
    rule: ConversionRule | None = None
    from_port: TypePort | None = None
    to_port: TypePort | None = None
    fill: Literal | None = None


@dataclass(frozen=True)
class ReturnAction:
    """PASS, or CONVERT with the provider->consumer bridging rule."""

    rule: ConversionRule | None = None
    from_port: TypePort | None = None
    to_port: TypePort | None = None

    @property
    def is_pass(self) -> bool:
        return self.rule is None


PASS = ReturnAction()


@dataclass(frozen=True)
class OpMapping:
    from_op: str
    to_op: str
    slots: tuple[SlotAction, ...]
    return_action: ReturnAction = PASS

    def __post_init__(self) -> None:
        taken = sorted(
            a.index for a in self.slots if a.kind in (TAKE, CONVERT)
        )
        if taken != list(range(len(taken))):
            raise ValueError(
                f"mapping {self.from_op}->{self.to_op} drops or duplicates consumer inputs: {taken}"
            )


@dataclass(frozen=True)
class Provenance:
    project: str
    score: Fraction
    tool: str


@dataclass(frozen=True)
class AdapterSpec:
    name: str
    version: tuple[int, int, int]
    implements: InterfaceSpec  # direction=provided, consumer interface verbatim
    delegates_component: str
    delegates_version: tuple[int, int, int]
    delegates_to: InterfaceSpec  # direction=required, provider interface verbatim
    mappings: tuple[OpMapping, ...]
    provenance: Provenance

    def to_component_spec(self) -> ComponentSpec:
        """The adapter as an ordinary component, ready for integration."""
        return ComponentSpec(
            name=self.name,
            version=self.version,
            provided=(self.implements,),
            required=(self.delegates_to,),
            meta=(
                MetaEntry("adapter", "true"),
                MetaEntry("delegates_to", self.delegates_component),
                MetaEntry("generated_by", self.provenance.tool),
                MetaEntry("match_score", canonjson.fraction_to_text(self.provenance.score)),
                MetaEntry("source_project", self.provenance.project),
            ),
        )


def as_component(value: AdapterSpec | ComponentSpec) -> ComponentSpec:
    """The component view of a pool value: an adapter integrates as its
    component spec, a component as itself."""
    return value.to_component_spec() if isinstance(value, AdapterSpec) else value


def check_adapter(adapter: AdapterSpec) -> list[str]:
    """Why the adapter could not run as its mappings say; empty when it
    can. Each consumer op must be mapped exactly once, onto an op of
    `delegates_to`, with one slot per provider param; the TAKE and
    CONVERT slots must take each consumer param once. A TAKE joins
    params of equal type and unit, a FILL literal fits its provider
    param, a PASS return joins equal return types, and every CONVERT
    must bridge the declared types and units of the ends it joins."""
    consumer = {op.name: op for op in adapter.implements.operations}
    provider = {op.name: op for op in adapter.delegates_to.operations}
    mapped = Counter(m.from_op for m in adapter.mappings)
    problems = [
        f"op {name} is mapped {mapped[name]} times" for name in consumer if mapped[name] != 1
    ]
    for m in adapter.mappings:
        required, provided = consumer.get(m.from_op), provider.get(m.to_op)
        if required is None:
            problems.append(f"op {m.from_op} is not in {adapter.implements.name}")
            continue
        if provided is None:
            problems.append(f"{m.from_op} maps to {m.to_op}, not in {adapter.delegates_to.name}")
            continue
        arrow = f"{m.from_op}->{m.to_op}"
        if len(m.slots) != len(provided.params):
            problems.append(f"{arrow} has {len(m.slots)} slots for {len(provided.params)} params")
        taken = sorted(a.index for a in m.slots if a.kind in (TAKE, CONVERT))
        if taken != list(range(len(required.params))):
            problems.append(f"{arrow} takes params {taken} of {len(required.params)}")
        for a, to in zip(m.slots, provided.params):
            if a.kind == FILL and not (a.fill.matches_type(to.ty) and a.fill.in_range(to.ty)):
                problems.append(f"{arrow} fills {to.name}: {to.ty} with {a.fill.canonical_text()}")
            elif a.index in range(len(required.params)):
                frm = required.params[a.index]
                if a.kind == TAKE and (frm.ty, frm.unit) != (to.ty, to.unit):
                    ports = TypePort(frm.ty, frm.unit), TypePort(to.ty, to.unit)
                    problems.append(f"{arrow} takes {ports[0]} as {ports[1]} for {frm.name}")
                if a.kind == CONVERT and (a.from_port, a.to_port) != (
                    TypePort(frm.ty, frm.unit),
                    TypePort(to.ty, to.unit),
                ):
                    problems.append(f"{arrow} converts {a.from_port} to {a.to_port} for {frm.name}")
        ret = m.return_action
        if ret.is_pass and provided.returns != required.returns:
            problems.append(f"{arrow} passes its return {provided.returns} as {required.returns}")
        if not ret.is_pass and (ret.from_port, ret.to_port) != (
            TypePort(provided.returns),
            TypePort(required.returns),
        ):
            problems.append(f"{arrow} converts its return from {ret.from_port} to {ret.to_port}")
    return problems


def generate_adapter(
    match: ConnectionVerdict,
    consumer: ComponentSpec,
    provider: ComponentSpec,
    project_name: str,
) -> AdapterSpec:
    """Build the bridging adapter for one ADAPTABLE connection."""
    if match.status != ADAPTABLE:
        raise AdapterForgeError(
            E_NOT_ADAPTABLE,
            f"connection {match.connection.label()} is {match.status}, not ADAPTABLE",
        )
    conn = match.connection
    consumer_iface = consumer.interface(REQUIRED, conn.consumer_interface)
    provider_iface = provider.interface(PROVIDED, conn.provider_interface)
    assert consumer_iface is not None and provider_iface is not None

    mappings = tuple(
        _mapping_from_match(om, provider_iface) for om in match.op_matches
    )
    fingerprint = _mapping_fingerprint(consumer, provider, conn.consumer_interface, conn.provider_interface, mappings)
    name = f"adapt_{consumer.name}_{provider.name}_{fingerprint[:8]}"
    assert match.score is not None
    return AdapterSpec(
        name=name,
        version=(1, 0, 0),
        implements=consumer_iface.with_direction(PROVIDED),
        delegates_component=provider.name,
        delegates_version=provider.version,
        delegates_to=provider_iface.with_direction(REQUIRED),
        mappings=mappings,
        provenance=Provenance(project=project_name, score=match.score, tool=f"adapterforge {__version__}"),
    )


def _mapping_from_match(om: OperationMatch, provider_iface: InterfaceSpec) -> OpMapping:
    provider_op = provider_iface.operation(om.provided_name)
    assert provider_op is not None
    by_slot = {m.slot: m for m in om.mismatches if m.kind in (DEFAULT_FILL, TYPE_CONVERSION)}
    order = next((m.order for m in om.mismatches if m.kind == PARAM_PERMUTATION), None)
    takes = iter(order if order is not None else range(len(provider_op.params)))

    slots: list[SlotAction] = []
    for j in range(len(provider_op.params)):
        m = by_slot.get(j)
        if m is None:
            slots.append(SlotAction(TAKE, index=next(takes)))
        elif m.kind == DEFAULT_FILL:
            slots.append(SlotAction(FILL, fill=m.fill_value))
        else:
            slots.append(
                SlotAction(CONVERT, index=next(takes), rule=m.rule, from_port=m.from_port, to_port=m.to_port)
            )
    ret = by_slot.get(RETURN_SLOT)
    return OpMapping(
        from_op=om.required_name,
        to_op=om.provided_name,
        slots=tuple(slots),
        return_action=PASS if ret is None else ReturnAction(ret.rule, ret.from_port, ret.to_port),
    )


def _mapping_fingerprint(
    consumer: ComponentSpec,
    provider: ComponentSpec,
    consumer_iface: str,
    provider_iface: str,
    mappings: tuple[OpMapping, ...],
) -> str:
    payload = {
        "consumer": [consumer.name, format_version(consumer.version), consumer_iface],
        "provider": [provider.name, format_version(provider.version), provider_iface],
        "mappings": [_mapping_to_json(m) for m in mappings],
    }
    return hashlib.sha256(canonjson.dump_bytes(payload)).hexdigest()


# --- descriptor (de)serialization ---


def emit_descriptor(adapter: AdapterSpec) -> str:
    """Canonical JSON for the pool; byte-identical for equal adapters."""
    doc = {
        "format": "adapter/1",
        "name": adapter.name,
        "version": format_version(adapter.version),
        "implements": _iface_to_json(adapter.implements),
        "delegates": {
            "component": adapter.delegates_component,
            "version": format_version(adapter.delegates_version),
            "interface": _iface_to_json(adapter.delegates_to),
        },
        "mappings": [_mapping_to_json(m) for m in adapter.mappings],
        "provenance": {
            "project": adapter.provenance.project,
            "score": canonjson.fraction_to_text(adapter.provenance.score),
            "tool": adapter.provenance.tool,
        },
    }
    return canonjson.dumps(doc)


def parse_descriptor(text: str) -> AdapterSpec:
    """Rebuild an adapter from its descriptor. A document that is not a
    well-formed `adapter/1` descriptor raises a coded error."""
    try:
        doc = canonjson.loads(text)
    except (ValueError, RecursionError) as err:
        raise AdapterForgeError(E_DESCRIPTOR, f"descriptor is not JSON: {err}") from None
    if not isinstance(doc, dict) or doc.get("format") != "adapter/1":
        raise AdapterForgeError(E_DESCRIPTOR, "not an adapter descriptor")
    delegates = _field(doc, "delegates", dict)
    provenance = _field(doc, "provenance", dict)
    try:
        return AdapterSpec(
            name=_field(doc, "name", str),
            version=parse_version(_field(doc, "version", str)),
            implements=_iface_from_json(_field(doc, "implements", dict), PROVIDED),
            delegates_component=_field(delegates, "component", str),
            delegates_version=parse_version(_field(delegates, "version", str)),
            delegates_to=_iface_from_json(_field(delegates, "interface", dict), REQUIRED),
            mappings=tuple(_mapping_from_json(m) for m in _objects(doc, "mappings")),
            provenance=Provenance(
                project=_field(provenance, "project", str),
                score=canonjson.fraction_from_text(_field(provenance, "score", str)),
                tool=_field(provenance, "tool", str),
            ),
        )
    except (ValueError, ArithmeticError) as err:
        raise AdapterForgeError(E_DESCRIPTOR, f"malformed descriptor: {err}") from None


def _iface_to_json(iface: InterfaceSpec) -> dict:
    return {
        "name": iface.name,
        "operations": [
            {
                "name": op.name,
                "concept": str(op.concept),
                "returns": str(op.returns),
                "params": [
                    {
                        "name": p.name,
                        "type": str(p.ty),
                        **({"concept": str(p.concept)} if p.concept else {}),
                        **({"unit": p.unit} if p.unit else {}),
                        **({"default": _literal_to_json(p.default)} if p.default else {}),
                    }
                    for p in op.params
                ],
            }
            for op in iface.operations
        ],
    }


def _iface_from_json(doc: dict, direction: str) -> InterfaceSpec:
    ops = tuple(
        OperationSig(
            name=_field(op, "name", str),
            params=tuple(
                ParamSig(
                    name=_field(p, "name", str),
                    ty=parse_type(_field(p, "type", str)),
                    concept=_concept_from_json(_field(p, "concept", str, optional=True)),
                    unit=_field(p, "unit", str, optional=True),
                    default=_literal_from_json(p["default"]) if "default" in p else None,
                )
                for p in _objects(op, "params")
            ),
            returns=parse_type(_field(op, "returns", str)),
            concept=_concept_from_json(_field(op, "concept", str)),
        )
        for op in _objects(doc, "operations")
    )
    return InterfaceSpec(_field(doc, "name", str), direction, ops)


def _conversion_from_json(doc: dict) -> tuple[ConversionRule, TypePort, TypePort]:
    return (
        _rule_from_json(_field(doc, "rule", dict)),
        _port_from_json(_field(doc, "from", dict)),
        _port_from_json(_field(doc, "to", dict)),
    )


def _mapping_to_json(mapping: OpMapping) -> dict:
    slots = []
    for action in mapping.slots:
        entry: dict[str, Any] = {"kind": action.kind}
        if action.index is not None:
            entry["index"] = action.index
        if action.rule is not None:
            entry["rule"] = _rule_to_json(action.rule)
            entry["from"] = _port_to_json(action.from_port)
            entry["to"] = _port_to_json(action.to_port)
        if action.fill is not None:
            entry["fill"] = _literal_to_json(action.fill)
        slots.append(entry)
    ret: dict[str, Any] = {"kind": "PASS"}
    if not mapping.return_action.is_pass:
        ret = {
            "kind": "CONVERT",
            "rule": _rule_to_json(mapping.return_action.rule),
            "from": _port_to_json(mapping.return_action.from_port),
            "to": _port_to_json(mapping.return_action.to_port),
        }
    return {
        "from": mapping.from_op,
        "to": mapping.to_op,
        "slots": slots,
        "return": ret,
    }


def _slot_from_json(doc: dict) -> SlotAction:
    kind = _field(doc, "kind", str)
    if kind == TAKE:
        return SlotAction(TAKE, index=_field(doc, "index", int))
    if kind == CONVERT:
        rule, from_port, to_port = _conversion_from_json(doc)
        index = _field(doc, "index", int)
        return SlotAction(CONVERT, index=index, rule=rule, from_port=from_port, to_port=to_port)
    if kind == FILL:
        return SlotAction(FILL, fill=_literal_from_json(doc.get("fill")))
    raise AdapterForgeError(E_DESCRIPTOR, f"unknown slot kind {kind!r}")


def _mapping_from_json(doc: dict) -> OpMapping:
    ret_doc = _field(doc, "return", dict)
    ret_kind = _field(ret_doc, "kind", str)
    if ret_kind == "PASS":
        return_action = PASS
    elif ret_kind == CONVERT:
        return_action = ReturnAction(*_conversion_from_json(ret_doc))
    else:
        raise AdapterForgeError(E_DESCRIPTOR, f"unknown return kind {ret_kind!r}")
    return OpMapping(
        from_op=_field(doc, "from", str),
        to_op=_field(doc, "to", str),
        slots=tuple(_slot_from_json(slot) for slot in _objects(doc, "slots")),
        return_action=return_action,
    )


# --- mapping execution (test harness) ---


def interpret_mapping(
    mapping: OpMapping, args: list[Any], provider_fn: Callable[..., Any]
) -> Any:
    """Run one mapped call against a provider oracle.

    Used by tests to prove mappings are behaviour-preserving bridges;
    conversions marked runtime-checked raise on out-of-range values.
    """
    provider_args = []
    for action in mapping.slots:
        if action.kind == TAKE:
            assert action.index is not None
            provider_args.append(args[action.index])
        elif action.kind == CONVERT:
            assert action.index is not None and action.rule is not None
            provider_args.append(
                apply_rule(action.rule, args[action.index], action.to_port)
            )
        else:
            assert action.fill is not None
            provider_args.append(action.fill.value)
    result = provider_fn(*provider_args)
    if mapping.return_action.is_pass:
        return result
    assert mapping.return_action.rule is not None
    return apply_rule(mapping.return_action.rule, result, mapping.return_action.to_port)


def apply_rule(rule: ConversionRule, value: Any, to_port: TypePort | None) -> Any:
    """Apply one bridging rule to one runtime value."""
    target = to_port.ty.kind if to_port is not None else None
    if rule.kind == WIDEN:
        if target == "f64":
            return float(value)
        return value
    if rule.kind == NARROW_CHECKED:
        return _narrow(value, target)
    if rule.kind == UNIT_SCALE:
        assert rule.factor is not None
        scaled = Fraction(value) * rule.factor if not isinstance(value, float) else value * float(rule.factor)
        if target == "f64":
            return float(scaled)
        if isinstance(scaled, Fraction):
            if scaled.denominator != 1:
                raise AdapterForgeError(E_NARROW, f"{value} does not scale to an integer")
            return _narrow(int(scaled), target)
        return scaled
    if rule.kind == PARSE:
        text = str(value)
        try:
            if target == "f64":
                return float(text)
            return _narrow(int(text, 10), target)
        except ValueError:
            raise AdapterForgeError(E_PARSE, f"cannot parse {text!r} as {target}") from None
    if rule.kind == FORMAT:
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            return format_float(value)
        return str(value)
    raise AdapterForgeError(E_PARSE, f"unknown rule {rule.kind}")


def _narrow(value: Any, target: str | None) -> Any:
    lo, hi = (I32_MIN, I32_MAX) if target == "i32" else (I64_MIN, I64_MAX)
    if isinstance(value, float):
        if not value.is_integer():
            raise AdapterForgeError(E_NARROW, f"{value} is not integral")
        value = int(value)
    if not (lo <= value <= hi):
        raise AdapterForgeError(E_NARROW, f"{value} out of {target} range")
    return value
