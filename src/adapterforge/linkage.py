"""Workflow orchestration: read, compare, consult the pool, retrieve or
generate adapters, integrate, store, re-verify.

One run walks the full loop. Exact connections are left alone. Every
other connection, and every project demand, consults the pool first
through one query; a connection takes only a hit that will re-verify
as exact (it provides the consumer's required interface verbatim and
requires the provider's provided interface verbatim), otherwise an
adapter is generated when the connection is adaptable. Generated
adapters are always stored, even when later verification fails; a
failed verification turns the outcome unresolvable instead of
unwinding the pool.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable

from .adapters import AdapterSpec, as_component, emit_descriptor, generate_adapter
from .analyser import (
    ADAPTABLE,
    EXACT,
    ConnectionVerdict,
    Demand,
    MatchReport,
    analyse,
    analyse_resolved,
    shape_of,
)
from .aslt import resolve_components
from .conversions import DEFAULT_CONFIG, ConversionTable, MatchConfig
from .pool import PoolQuery, init_pool, pool_add_generated, pool_query
from .speclang import (
    PROVIDED,
    REQUIRED,
    ComponentSpec,
    Connection,
    InterfaceSpec,
    ParseError,
    ProjectSpec,
    UseDecl,
    VersionConstraint,
    parse_component,
    parse_project,
)
from .speclang.errors import AdapterForgeError
from .speclang.parser import read_spec_text

E_PARSE = "E_PARSE"
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


class LinkageError(AdapterForgeError):
    pass


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
class IntegratedProject:
    original: ProjectSpec
    project: ProjectSpec
    added: tuple[ComponentSpec, ...] = ()


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


def load_specs_dir(specs_dir: str | Path) -> list[ComponentSpec]:
    """Parse every component spec in a directory, sorted by file name."""
    specs: list[ComponentSpec] = []
    for path in sorted(Path(specs_dir).glob("*.cdl")):
        specs.append(parse_spec_file(path, parse_component))
    return specs


def parse_spec_file(path: Path, parse):
    """Parse one spec file, attaching file context to any parse error."""
    try:
        text = read_spec_text(path)
    except ParseError as err:  # not UTF-8; the message names the file
        raise LinkageError(E_PARSE, err.message) from err
    except OSError as err:  # str(err) would name the path a second time
        raise LinkageError(E_PARSE, f"{path}: {err.strerror or err}") from None
    try:
        return parse(text)
    except ParseError as err:
        raise LinkageError(E_PARSE, f"{path}: {err.message}") from err


def integrate(
    project: ProjectSpec,
    connection: Connection,
    adapter: AdapterSpec | ComponentSpec,
) -> IntegratedProject:
    """Splice an adapter into one connection: the single consumer ->
    provider edge becomes consumer -> adapter -> provider."""
    component = as_component(adapter)
    if component.interface(PROVIDED, connection.consumer_interface) is None:
        raise LinkageError(
            E_INTERFACE_MISMATCH,
            f"{component.name} does not provide interface {connection.consumer_interface!r}",
        )
    if component.interface(REQUIRED, connection.provider_interface) is None:
        raise LinkageError(
            E_INTERFACE_MISMATCH,
            f"{component.name} does not delegate to interface {connection.provider_interface!r}",
        )

    new_connections: list[Connection] = []
    replaced = False
    for conn in project.connections:
        if conn == connection and not replaced:
            replaced = True
            new_connections.append(
                Connection(
                    consumer_component=conn.consumer_component,
                    consumer_interface=conn.consumer_interface,
                    provider_component=component.name,
                    provider_interface=conn.consumer_interface,
                )
            )
            new_connections.append(
                Connection(
                    consumer_component=component.name,
                    consumer_interface=conn.provider_interface,
                    provider_component=conn.provider_component,
                    provider_interface=conn.provider_interface,
                )
            )
        else:
            new_connections.append(conn)
    if not replaced:
        raise LinkageError(
            E_INTERFACE_MISMATCH, f"project has no connection {connection.label()}"
        )

    rewritten = _pin(replace(project, connections=tuple(new_connections)), component)
    return IntegratedProject(original=project, project=rewritten, added=(component,))


def _pin(project: ProjectSpec, component: ComponentSpec) -> ProjectSpec:
    """The project with `component` pinned to its exact version in
    `uses`, unless the project already uses a component of that name."""
    if project.use(component.name) is not None:
        return project
    pin = UseDecl(component.name, VersionConstraint("=", component.version))
    return replace(project, uses=project.uses + (pin,))


def _healing_hit(
    candidate: ComponentSpec | AdapterSpec,
    consumer_iface: InterfaceSpec,
    provider_iface: InterfaceSpec,
) -> bool:
    """A usable pool hit must re-verify as exact on both rewritten
    edges: provide the consumer's interface verbatim and require the
    provider's verbatim."""
    component = as_component(candidate)
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
        first_op = consumer_iface.operations[0]
        demand = Demand(first_op.concept, shape_of(first_op), conn.label())
        hit = _consult_pool(
            pool_root, demand, f"{demand.concept} for {conn.label()}", conv, config, trace,
            accept=lambda value: _healing_hit(value, consumer_iface, provider_iface),
        )
        if hit is not None:
            fp, value = hit
            source = POOL_HIT
        elif verdict.status == ADAPTABLE:
            trace.add("invite", f"generate adapter for {conn.label()}")
            value = generate_adapter(verdict, consumer, provider, project.name)
            trace.add("generate", value.name)
            generated.append(value)
            descriptors.append(emit_descriptor(value))
            fp = pool_add_generated(pool_root, value, descriptors[-1])
            source = GENERATED
            trace.add("store", f"{value.name} as {fp}")
        else:
            unresolved.extend(_connection_demands(report, verdict, consumer_iface))
            diagnostics.append(
                f"{conn.label()}: {verdict.reason or 'incompatible'}; needs development"
            )
            continue
        component = as_component(value)
        current = integrate(current, conn, component).project
        added.append(component)
        integrations.append(Integration(conn.label(), source, fp, component.name))
        trace.add("integrate", f"{component.name} into {conn.label()}")

    for demand in report.demand:
        if demand.origin != "project":
            continue
        note = f"{demand.concept} (project demand)"
        hit = _consult_pool(pool_root, demand, note, conv, config, trace, accept=lambda value: True)
        if hit is None:
            unresolved.append(demand)
            continue
        fp, value = hit
        component = as_component(value)
        if current.use(component.name) is None:
            added.append(component)
        current = _pin(current, component)
        integrations.append(
            Integration(f"demand:{demand.concept}", POOL_HIT, fp, component.name)
        )
        trace.add("integrate", f"{component.name} for demand {demand.concept}")

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


def _consult_pool(
    pool_root: str | Path,
    demand: Demand,
    note: str,
    conv: ConversionTable,
    config: MatchConfig,
    trace: _Trace,
    accept: Callable[[ComponentSpec | AdapterSpec], bool],
) -> tuple[str, ComponentSpec | AdapterSpec] | None:
    """The best-ranked candidate for `demand` that `accept` takes, as
    `(fingerprint, value)`; `pool_query` returns only candidates that
    reach the threshold."""
    trace.add("query", note)
    ranked = pool_query(pool_root, PoolQuery(demand), conv, config)
    trace.add("return", f"{len(ranked)} candidate(s)")
    for candidate in ranked:
        value = candidate.load()
        if accept(value):
            return candidate.fingerprint, value
    return None


def _connection_demands(
    report: MatchReport, verdict: ConnectionVerdict, consumer_iface: InterfaceSpec
) -> list[Demand]:
    label = verdict.connection.label()
    from_report = [d for d in report.demand if d.origin == label]
    if from_report:
        return from_report
    # Low-score incompatibility: every required operation is unmet demand.
    return [
        Demand(concept=op.concept, shape=shape_of(op), origin=label)
        for op in consumer_iface.operations
    ]

