"""Canonical text rendering for specs.

The canonical form is the interchange format: 2-space indentation,
interfaces sorted by (direction, name) with provided first, operations
and parameters in declaration order, meta entries sorted by key,
explicit version constraints, trailing newline. Content fingerprints
are computed over these bytes, so the rendering must stay bit-stable.
`serialize` is the one entry point, and it returns the text alone.
"""

from __future__ import annotations

from .model import (
    ComponentSpec,
    InterfaceSpec,
    OperationSig,
    ProjectSpec,
    format_version,
    quote_string,
)


def serialize(spec: ComponentSpec | ProjectSpec) -> str:
    lines: list[str] = []
    if isinstance(spec, ComponentSpec):
        _emit_component(spec, lines)
    else:
        _emit_project(spec, lines)
    return "\n".join(lines) + "\n"


def _emit_component(spec: ComponentSpec, lines: list[str]) -> None:
    lines.append(f'component {quote_string(spec.name)} version "{format_version(spec.version)}" {{')
    for entry in spec.meta:
        lines.append(f"  meta {entry.key} = {quote_string(entry.value)}")
    for iface in spec.provided + spec.required:
        _emit_interface(iface, lines)
    lines.append("}")


def _emit_interface(iface: InterfaceSpec, lines: list[str]) -> None:
    keyword = "provides" if iface.direction == "provided" else "requires"
    lines.append(f"  {keyword} interface {iface.name} {{")
    for op in iface.operations:
        _emit_op(op, lines)
    lines.append("  }")


def _emit_op(op: OperationSig, lines: list[str]) -> None:
    rendered_params = []
    for p in op.params:
        text = f"{p.name}: {p.ty}"
        if p.default is not None:
            text += f" = {p.default.canonical_text()}"
        rendered_params.append(text)
    lines.append(
        f"    op {op.name}({', '.join(rendered_params)}) -> {op.returns} @concept {op.concept}"
    )
    for p in op.params:
        if p.concept is None and p.unit is None:
            continue
        clause = f"      @param {p.name}"
        if p.concept is not None:
            clause += f" @concept {p.concept}"
        if p.unit is not None:
            clause += f" @unit {p.unit}"
        lines.append(clause)


def _emit_project(spec: ProjectSpec, lines: list[str]) -> None:
    lines.append(f"project {quote_string(spec.name)} {{")
    for use in spec.uses:
        lines.append(f"  uses {quote_string(use.name)} {use.constraint}")
    for conn in spec.connections:
        lines.append(
            f"  connect {conn.consumer_component}.requires.{conn.consumer_interface}"
            f" -> {conn.provider_component}.provides.{conn.provider_interface}"
        )
    for demand in spec.demands:
        lines.append(f"  demand {demand}")
    lines.append("}")
