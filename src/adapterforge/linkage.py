"""Workflow orchestration: read, compare, consult the pool, retrieve or
generate adapters, integrate, store, re-verify.

One run walks the full loop. Exact connections are left alone. Every
other connection, and every project demand, consults the pool first
through one concept query, reading candidates in rank order until one
is taken. A connection takes only a hit that will re-verify as exact
(it provides the consumer's required interface verbatim and requires
the provider's provided interface verbatim), so its query keeps only
entries that list every concept of that interface; otherwise an
adapter is generated when the connection is adaptable. Neither takes a
hit whose name the project uses for another component.
Generated adapters are always stored, even when later verification
fails; a failed verification turns the outcome unresolvable instead of
unwinding the pool.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable

from .adapters import AdapterSpec, as_component, emit_descriptor, generate_adapter
from .analyser import ADAPTABLE, EXACT, Demand, MatchReport, analyse, analyse_resolved
from .conversions import DEFAULT_CONFIG, ConversionTable, MatchConfig
from .pool import PoolQuery, init_pool, pool_add_generated, pool_query
from .speclang import (
    PROVIDED,
    REQUIRED,
    ComponentSpec,
    Connection,
    InterfaceSpec,
    ProjectSpec,
    UseDecl,
    VersionConstraint,
    parse_project,
)
from .speclang.errors import AdapterForgeError
from .speclang.model import resolve_components
from .speclang.parser import load_specs_dir, parse_spec_file

E_INTERFACE_MISMATCH = "E_INTERFACE_MISMATCH"

ALREADY_EXACT = "ALREADY_EXACT"
ADAPTED = "ADAPTED"
UNRESOLVABLE = "UNRESOLVABLE"

POOL_HIT = "POOL_HIT"
GENERATED = "GENERATED"

# Workflow actions in their mandated order; 1-7 follow the numbered
# steps, store/verify close the loop.
STEP_NUMBERS = {
    "read": 1,
    "compare": 2,
    "query": 3,
    "return": 4,
    "invite": 5,
    "generate": 6,
    "integrate": 7,
    "store": 8,
    "verify": 9,
}


@dataclass(frozen=True)
class StepRecord:
    step: int
    action: str
    detail: str
    at: str  # UTC timestamp


@dataclass(frozen=True)
class Integration:
    connection: str  # connection label, or "demand:<concept>" insertions
    source: str  # POOL_HIT | GENERATED
    fingerprint: str
    component: str  # name of the integrated component


@dataclass(frozen=True)
class WorkflowResult:
    outcome: str  # ALREADY_EXACT | ADAPTED | UNRESOLVABLE
    integrations: tuple[Integration, ...]
    unresolved: tuple[Demand, ...]
    final_report: MatchReport
    steps: tuple[StepRecord, ...]
    adapted_project: ProjectSpec
    added_components: tuple[ComponentSpec, ...]
    generated_adapters: tuple[AdapterSpec, ...]
    diagnostics: tuple[str, ...] = ()
    descriptors: tuple[str, ...] = ()  # emit_descriptor text per generated adapter

    def __post_init__(self) -> None:
        if len(self.descriptors) != len(self.generated_adapters):
            raise ValueError("a workflow result needs one descriptor per generated adapter")


class _Trace:
    def __init__(self) -> None:
        self.records: list[StepRecord] = []

    def add(self, action: str, detail: str) -> None:
        self.records.append(
            StepRecord(
                step=STEP_NUMBERS[action],
                action=action,
                detail=detail,
                at=datetime.now(timezone.utc).isoformat(timespec="microseconds"),
            )
        )


def integrate(
    project: ProjectSpec,
    connection: Connection,
    adapter: AdapterSpec | ComponentSpec,
) -> ProjectSpec:
    """Splice an adapter into one connection: the single consumer ->
    provider edge becomes consumer -> adapter -> provider, and the
    adapter is pinned in `uses`."""
    component = as_component(adapter)
    if component.interface(PROVIDED, connection.consumer_interface) is None:
        raise AdapterForgeError(
            E_INTERFACE_MISMATCH,
            f"{component.name} does not provide interface {connection.consumer_interface!r}",
        )
    if component.interface(REQUIRED, connection.provider_interface) is None:
        raise AdapterForgeError(
            E_INTERFACE_MISMATCH,
            f"{component.name} does not delegate to interface {connection.provider_interface!r}",
        )

    try:
        at = project.connections.index(connection)
    except ValueError:
        raise AdapterForgeError(
            E_INTERFACE_MISMATCH, f"project has no connection {connection.label()}"
        ) from None
    wanted, offered = connection.consumer_interface, connection.provider_interface
    into = replace(connection, provider_component=component.name, provider_interface=wanted)
    out = replace(connection, consumer_component=component.name, consumer_interface=offered)
    connections = project.connections[:at] + (into, out) + project.connections[at + 1 :]
    return _pin(replace(project, connections=connections), component)


def _pin(project: ProjectSpec, component: ComponentSpec) -> ProjectSpec:
    """The project with `component` pinned to its exact version in
    `uses`, unless the project already uses a component of that name."""
    if project.use(component.name) is not None:
        return project
    pin = UseDecl(component.name, VersionConstraint("=", component.version))
    return replace(project, uses=project.uses + (pin,))


def _healing_hit(
    component: ComponentSpec, consumer_iface: InterfaceSpec, provider_iface: InterfaceSpec
) -> bool:
    """A usable pool hit must re-verify as exact on both rewritten
    edges: provide the consumer's interface verbatim and require the
    provider's verbatim."""
    provides = component.interface(PROVIDED, consumer_iface.name)
    requires = component.interface(REQUIRED, provider_iface.name)
    return (
        provides == consumer_iface.with_direction(PROVIDED)
        and requires == provider_iface.with_direction(REQUIRED)
    )


def run_workflow(
    project_path: str | Path,
    specs_dir: str | Path,
    pool_root: str | Path,
    conv: ConversionTable,
    config: MatchConfig = DEFAULT_CONFIG,
) -> WorkflowResult:
    trace = _Trace()

    project = parse_spec_file(Path(project_path), parse_project)
    components = load_specs_dir(specs_dir)
    trace.add("read", f"{project.name}: {len(components)} component spec(s)")

    init_pool(pool_root)

    resolved = resolve_components(project, components)
    report = analyse_resolved(project, resolved, conv, config)
    trace.add("compare", f"{len(report.verdicts)} connection(s), {len(report.demand)} demand(s)")

    current = project
    added: list[ComponentSpec] = []
    generated: list[AdapterSpec] = []
    descriptors: list[str] = []
    integrations: list[Integration] = []
    unresolved: list[Demand] = []
    diagnostics: list[str] = []

    def splice(
        fp: str, value: ComponentSpec | AdapterSpec, source: str, target: Connection | Demand
    ) -> None:
        """Rewire a connection through the healing component, or only pin
        it for a project demand; a component whose name the project
        already uses is not added a second time."""
        nonlocal current
        component = as_component(value)
        if current.use(component.name) is None:
            added.append(component)
        if isinstance(target, Connection):
            current = integrate(current, target, component)
            label, where = target.label(), f"into {target.label()}"
        else:
            current = _pin(current, component)
            label, where = f"demand:{target.concept}", f"for demand {target.concept}"
        integrations.append(Integration(label, source, fp, component.name))
        trace.add("integrate", f"{component.name} {where}")

    def consult(
        query: PoolQuery, note: str, accept: Callable[[ComponentSpec | AdapterSpec], bool]
    ) -> tuple[str, ComponentSpec | AdapterSpec] | None:
        """The best-ranked candidate for `query` that `accept` takes, as
        `(fingerprint, value)`, reading no artifact ranked after it;
        `pool_query` returns only candidates that reach the threshold."""
        trace.add("query", note)
        ranked = pool_query(pool_root, query, config)
        trace.add("return", f"{len(ranked)} candidate(s)")
        for candidate in ranked:
            value = candidate.load()
            if accept(value):
                return candidate.fingerprint, value
        return None

    def pinnable(value: ComponentSpec | AdapterSpec) -> bool:
        """Whether splicing `value` puts that very component in the
        project: `_pin` keeps the project's own `uses` line for a name
        it uses, so a used name is taken only for the component the
        project resolves it to or one an earlier integration added."""
        component = as_component(value)
        name = component.name
        return current.use(name) is None or component in added or resolved.get(name) == component

    for verdict in report.verdicts:
        if verdict.status == EXACT:
            continue
        conn = verdict.connection
        consumer = resolved[conn.consumer_component]
        provider = resolved[conn.provider_component]
        consumer_iface = consumer.interface(REQUIRED, conn.consumer_interface)
        provider_iface = provider.interface(PROVIDED, conn.provider_interface)
        assert consumer_iface is not None and provider_iface is not None

        # Not EXACT, so the consumer's interface has at least one operation.
        # A healing hit provides that interface verbatim, so its index
        # entry lists every op concept of it, and each such entry scores 1.
        wanted = consumer_iface.operations[0].concept
        provides = frozenset(op.concept for op in consumer_iface.operations)
        hit = consult(
            PoolQuery(wanted, provides=provides), f"{wanted} for {conn.label()}",
            accept=lambda value: (
                pinnable(value) and _healing_hit(as_component(value), consumer_iface, provider_iface)
            ),
        )
        if hit is not None:
            splice(*hit, POOL_HIT, conn)
        elif verdict.status == ADAPTABLE:
            trace.add("invite", f"generate adapter for {conn.label()}")
            value = generate_adapter(verdict, consumer, provider, project.name)
            trace.add("generate", value.name)
            generated.append(value)
            descriptors.append(emit_descriptor(value))
            fp = pool_add_generated(pool_root, value, descriptors[-1])
            trace.add("store", f"{value.name} as {fp}")
            splice(fp, value, GENERATED, conn)
        else:
            label = conn.label()
            unresolved.extend(d for d in report.demand if d.origin == label)
            diagnostics.append(f"{label}: {verdict.reason}; needs development")

    for demand in report.demand:
        if demand.origin != "project":
            continue
        note = f"{demand.concept} (project demand)"
        hit = consult(PoolQuery(demand.concept), note, accept=pinnable)
        if hit is None:
            unresolved.append(demand)
        else:
            splice(*hit, POOL_HIT, demand)

    all_components = components + added
    final_report = analyse(current, all_components, conv, config)
    verified = final_report.all_exact() and not final_report.demand
    trace.add("verify", "exact" if verified else "not exact")

    if unresolved:
        outcome = UNRESOLVABLE
    elif not verified:
        outcome = UNRESOLVABLE
        diagnostics.append("verification after integration did not reach EXACT")
    elif integrations:
        outcome = ADAPTED
    else:
        outcome = ALREADY_EXACT

    return WorkflowResult(
        outcome=outcome,
        integrations=tuple(integrations),
        unresolved=tuple(unresolved),
        final_report=final_report,
        steps=tuple(trace.records),
        adapted_project=current,
        added_components=tuple(added),
        generated_adapters=tuple(generated),
        diagnostics=tuple(diagnostics),
        descriptors=tuple(descriptors),
    )
