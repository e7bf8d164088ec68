"""Workflow orchestration: read, compare, consult the pool, retrieve or
generate adapters, integrate, store, re-verify.

One run walks the full loop. Exact connections are left alone. For
every other connection the pool is consulted first; only a hit that
will actually re-verify as exact (it provides the consumer's required
interface verbatim and requires the provider's provided interface
verbatim) is taken, otherwise an adapter is generated when the
connection is adaptable. Generated adapters are always stored, even
when later verification fails; a failed verification turns the outcome
unresolvable instead of unwinding the pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from .adapters import AdapterSpec, emit_descriptor, generate_adapter
from .analyser import (
    ADAPTABLE,
    EXACT,
    ConnectionVerdict,
    Demand,
    MatchReport,
    analyse,
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


@dataclass
class WorkflowOptions:
    auto_init_pool: bool = True
    lock_timeout: float = 5.0


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
        return parse(read_spec_text(path))
    except ParseError as err:
        raise LinkageError(E_PARSE, f"{path}: {err.message}") from err
    except OSError as err:
        raise LinkageError(E_PARSE, f"{path}: {err}") from None


def integrate(
    project: ProjectSpec,
    connection: Connection,
    adapter: AdapterSpec | ComponentSpec,
) -> IntegratedProject:
    """Splice an adapter into one connection: the single consumer ->
    provider edge becomes consumer -> adapter -> provider."""
    component = adapter.to_component_spec() if isinstance(adapter, AdapterSpec) else adapter
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

    uses = project.uses
    if project.use(component.name) is None:
        uses = uses + (UseDecl(component.name, VersionConstraint("=", component.version)),)
    rewritten = ProjectSpec(
        name=project.name,
        uses=uses,
        connections=tuple(new_connections),
        demands=project.demands,
    )
    return IntegratedProject(original=project, project=rewritten, added=(component,))


def _healing_hit(
    candidate: ComponentSpec | AdapterSpec,
    consumer_iface: InterfaceSpec,
    provider_iface: InterfaceSpec,
) -> bool:
    """A usable pool hit must re-verify as exact on both rewritten
    edges: provide the consumer's interface verbatim and require the
    provider's verbatim."""
    component = candidate.to_component_spec() if isinstance(candidate, AdapterSpec) else candidate
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
    options: WorkflowOptions | None = None,
) -> WorkflowResult:
    options = options or WorkflowOptions()
    trace = _Trace()

    project = parse_spec_file(Path(project_path), parse_project)
    components = load_specs_dir(specs_dir)
    trace.add("read", f"{project.name}: {len(components)} component spec(s)")

    if options.auto_init_pool:
        init_pool(pool_root)

    report = analyse(project, components, conv, config)
    trace.add("compare", f"{len(report.verdicts)} connection(s), {len(report.demand)} demand(s)")

    resolved = resolve_components(project, components)
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

        hit = _consult_pool(
            pool_root, verdict, consumer_iface, provider_iface, conv, config, trace
        )
        if hit is not None:
            fp, candidate = hit
            component = (
                candidate.to_component_spec()
                if isinstance(candidate, AdapterSpec)
                else candidate
            )
            current = integrate(current, conn, component).project
            added.append(component)
            integrations.append(
                Integration(conn.label(), POOL_HIT, fp, component.name)
            )
            trace.add("integrate", f"{component.name} into {conn.label()}")
            continue

        if verdict.status == ADAPTABLE:
            trace.add("invite", f"generate adapter for {conn.label()}")
            adapter = generate_adapter(verdict, consumer, provider, project.name)
            trace.add("generate", adapter.name)
            component = adapter.to_component_spec()
            current = integrate(current, conn, component).project
            added.append(component)
            generated.append(adapter)
            descriptors.append(emit_descriptor(adapter))
            fp = pool_add_generated(
                pool_root, adapter, descriptors[-1], timeout=options.lock_timeout
            )
            trace.add("store", f"{adapter.name} as {fp}")
            integrations.append(Integration(conn.label(), GENERATED, fp, adapter.name))
            trace.add("integrate", f"{adapter.name} into {conn.label()}")
        else:
            unresolved.extend(_connection_demands(report, verdict, consumer_iface))
            diagnostics.append(
                f"{conn.label()}: {verdict.reason or 'incompatible'}; needs development"
            )

    for demand in report.demand:
        if demand.origin != "project":
            continue
        hit = _query_demand(pool_root, demand, conv, config, trace)
        if hit is None:
            unresolved.append(demand)
            continue
        fp, candidate = hit
        component = (
            candidate.to_component_spec() if isinstance(candidate, AdapterSpec) else candidate
        )
        if current.use(component.name) is None:
            current = ProjectSpec(
                name=current.name,
                uses=current.uses
                + (UseDecl(component.name, VersionConstraint("=", component.version)),),
                connections=current.connections,
                demands=current.demands,
            )
            added.append(component)
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
    pool_root, verdict, consumer_iface, provider_iface, conv, config, trace
) -> tuple[str, ComponentSpec | AdapterSpec] | None:
    if not consumer_iface.operations:
        return None
    first_op = consumer_iface.operations[0]
    demand = Demand(
        concept=first_op.concept,
        shape=shape_of(first_op),
        origin=verdict.connection.label(),
    )
    trace.add("query", f"{demand.concept} for {verdict.connection.label()}")
    ranked = pool_query(pool_root, PoolQuery(demand), conv, config)
    trace.add("return", f"{len(ranked)} candidate(s)")
    for candidate in ranked:
        if candidate.score < config.threshold:
            break
        value = candidate.load()
        if _healing_hit(value, consumer_iface, provider_iface):
            return candidate.fingerprint, value
    return None


def _query_demand(
    pool_root, demand: Demand, conv, config, trace
) -> tuple[str, ComponentSpec | AdapterSpec] | None:
    trace.add("query", f"{demand.concept} (project demand)")
    ranked = pool_query(pool_root, PoolQuery(demand), conv, config)
    trace.add("return", f"{len(ranked)} candidate(s)")
    if not ranked or ranked[0].score < config.threshold:
        return None
    return ranked[0].fingerprint, ranked[0].load()


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

