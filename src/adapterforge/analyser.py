"""Connection analysis: signature matching, mismatch classification,
verdicts, and demand computation.

Analysis works on the parsed specs themselves: it resolves the
project's `uses` and reads the components directly. It builds no
element tree; the ASLT (`aslt.py`) is an inspection view only.

Matching is concept-first. Two operations are candidates for each
other only when their concepts are equal or related by ancestry, and
parameters align only through equal effective concepts, never through
names or positions. Structure then classifies the residue into
mismatches, and a fixed penalty table turns the mismatch list into an
exact rational score. The reported alignment is the best-scoring one,
found exactly in polynomial time: a min-cost assignment (the Hungarian
method) inside each concept group gives the best alignment overall,
and a dynamic program over provider slots the best one that keeps the
consumer's parameter order; the better of the two, once a permuted one
is charged the permutation penalty, wins. Ties resolve
deterministically: fewest mismatches, then the lexicographically
smallest slot assignment.

A concept group skips the assignment solver when it is forced: it has
as many provider slots as required params, each param has exactly one
feasible slot (equal port, or one the conversion table bridges to), and
no two params share that slot. That placement is then the only one
that costs less than an infeasible entry, so it is the solver's optimum.
Groups with a real choice, or with spare slots to fill, still go to the
solver. Slots are priced from the conversion table's rules by source
port: one membership test per pair, and only for ports that have an
outgoing rule.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .conversions import (
    CONCEPT_DISTANCE,
    DEFAULT_CONFIG,
    DEFAULT_FILL,
    MISSING_OPERATION,
    PARAM_PERMUTATION,
    RENAME,
    TYPE_CONVERSION,
    ConversionRule,
    ConversionTable,
    MatchConfig,
    TypePort,
)
from .speclang import (
    PROVIDED,
    REQUIRED,
    ComponentSpec,
    ConceptId,
    Connection,
    InterfaceSpec,
    Literal,
    OperationSig,
    ProjectSpec,
    SemType,
)
from .speclang.errors import E_UNRESOLVED, AdapterForgeError
from .speclang.model import resolve_components

EXACT = "EXACT"
ADAPTABLE = "ADAPTABLE"
INCOMPATIBLE = "INCOMPATIBLE"

# Slot index standing for the return value in conversion mismatches.
RETURN_SLOT = -1


@dataclass(frozen=True)
class Mismatch:
    """One classified divergence; the payload fields used depend on kind."""

    kind: str
    location: tuple[str, str] = ("", "")  # (connection label, operation)
    renamed_from: str | None = None
    renamed_to: str | None = None
    order: tuple[int, ...] | None = None  # consumer indices in provider slot order
    slot: int | None = None  # provider slot, RETURN_SLOT for returns
    from_port: TypePort | None = None
    to_port: TypePort | None = None
    rule: ConversionRule | None = None
    fill_value: Literal | None = None
    hops: int | None = None
    concept: ConceptId | None = None

    def __post_init__(self) -> None:
        if self.kind == PARAM_PERMUTATION:
            assert self.order is not None
            n = len(self.order)
            if sorted(self.order) != list(range(n)):
                raise ValueError(f"{self.order} is not a permutation of 0..{n - 1}")
            if self.order == tuple(range(n)):
                raise ValueError("identity permutation is not a mismatch")
        if self.kind == CONCEPT_DISTANCE and (self.hops is None or self.hops < 1):
            raise ValueError("concept distance needs hop count >= 1")

    def describe(self) -> str:
        if self.kind == RENAME:
            return f"RENAME {self.renamed_from} -> {self.renamed_to}"
        if self.kind == PARAM_PERMUTATION:
            return f"PARAM_PERMUTATION ({', '.join(map(str, self.order or ()))})"
        if self.kind == TYPE_CONVERSION:
            where = "return" if self.slot == RETURN_SLOT else f"slot {self.slot}"
            return f"TYPE_CONVERSION {where} {self.from_port} -> {self.to_port} [{self.rule}]"
        if self.kind == DEFAULT_FILL:
            value = self.fill_value.canonical_text() if self.fill_value else "?"
            return f"DEFAULT_FILL slot {self.slot} = {value}"
        if self.kind == MISSING_OPERATION:
            return f"MISSING_OPERATION {self.location[1]} @concept {self.concept}"
        if self.kind == CONCEPT_DISTANCE:
            return f"CONCEPT_DISTANCE {self.hops} hop(s) to {self.concept}"
        return self.kind


def score_mismatches(mismatches: tuple[Mismatch, ...], config: MatchConfig) -> Fraction:
    """1 minus the summed penalties; exact arithmetic throughout."""
    total = Fraction(0)
    for m in mismatches:
        total += config.penalty(m.kind, m.hops or 1)
    return 1 - total


@dataclass(frozen=True)
class OperationMatch:
    required_name: str
    provided_name: str
    mismatches: tuple[Mismatch, ...]
    score: Fraction


@dataclass(frozen=True)
class OperationShape:
    """Name-free signature: (type, unit, concept) per slot plus return."""

    params: tuple[tuple[SemType, str | None, ConceptId], ...]
    returns: SemType


def shape_of(op: OperationSig) -> OperationShape:
    return OperationShape(
        params=tuple(
            (p.ty, p.unit, p.effective_concept(op.concept)) for p in op.params
        ),
        returns=op.returns,
    )


@dataclass(frozen=True)
class Demand:
    """Functionality the project needs and no wired provider offers."""

    concept: ConceptId
    shape: OperationShape | None
    origin: str  # connection label or "project"


@dataclass(frozen=True)
class ConnectionVerdict:
    connection: Connection
    status: str  # EXACT | ADAPTABLE | INCOMPATIBLE
    op_matches: tuple[OperationMatch, ...]
    mismatches: tuple[Mismatch, ...]
    score: Fraction | None
    reason: str | None = None


@dataclass(frozen=True)
class MatchReport:
    project: str
    verdicts: tuple[ConnectionVerdict, ...]
    demand: tuple[Demand, ...]

    def all_exact(self) -> bool:
        return all(v.status == EXACT for v in self.verdicts)


def match_operation(
    required: OperationSig,
    provided: OperationSig,
    conv: ConversionTable,
    config: MatchConfig = DEFAULT_CONFIG,
    *,
    location: tuple[str, str] | None = None,
) -> OperationMatch | None:
    """Best concept-driven alignment of one required op onto one
    provided op, or None when no alignment reaches the threshold.
    Every mismatch is located at `location`, by default `("",
    required.name)`; analysis passes `(connection label, required.name)`."""
    hops = required.concept.hops_to(provided.concept)
    if hops is None:
        return None

    loc = location if location is not None else ("", required.name)
    base: list[Mismatch] = []
    if hops >= 1:
        base.append(Mismatch(CONCEPT_DISTANCE, location=loc, hops=hops, concept=provided.concept))
    if required.name != provided.name:
        base.append(
            Mismatch(RENAME, location=loc, renamed_from=required.name, renamed_to=provided.name)
        )

    best = _best_alignment(required, provided, conv, config, tuple(base), loc)
    if best is None:
        return None
    mismatches, score = best
    if score < config.threshold:
        return None
    return OperationMatch(
        required_name=required.name,
        provided_name=provided.name,
        mismatches=mismatches,
        score=score,
    )


def _best_alignment(
    required: OperationSig,
    provided: OperationSig,
    conv: ConversionTable,
    config: MatchConfig,
    base: tuple[Mismatch, ...],
    loc: tuple[str, str],
) -> tuple[tuple[Mismatch, ...], Fraction] | None:
    """The classified alignment with the least key `(-score,
    len(mismatches), slot_key)`, or None when no alignment is feasible.
    `slot_key` lists, per provider slot in order, the consumer index the
    slot takes, a filled slot ranking after every index."""
    # Synthesized param concepts resolve against the consumer's op
    # concept on both sides; explicit annotations stay absolute.
    req_concepts = required.param_concepts()
    prov_concepts = provided.param_concepts(base=required.concept)

    groups: dict[ConceptId, tuple[list[int], list[int]]] = {}
    for i, c in enumerate(req_concepts):
        groups.setdefault(c, ([], []))[0].append(i)
    for j, c in enumerate(prov_concepts):
        groups.setdefault(c, ([], []))[1].append(j)
    if any(len(req_idx) > len(prov_idx) for req_idx, prov_idx in groups.values()):
        return None  # some required parameter has nowhere to go

    if any(len(prov_idx) > 1 for _, prov_idx in groups.values()):
        assignment = _least_cost_alignment(required, provided, groups, conv, config)
        if assignment is None:
            return None
    else:
        # No slot has a rival, so there is one alignment to classify.
        assignment = {
            prov_idx[0]: req_idx[0] for req_idx, prov_idx in groups.values() if req_idx
        }
    return _classify_assignment(required, provided, assignment, conv, config, base, loc)


def _least_cost_alignment(
    required: OperationSig,
    provided: OperationSig,
    groups: dict[ConceptId, tuple[list[int], list[int]]],
    conv: ConversionTable,
    config: MatchConfig,
) -> dict[int, int] | None:
    """Provider slot -> consumer index of the winning alignment.

    Fills number m - n on every alignment, so the key varies only with
    the conversion count C and whether the order is permuted. A slot
    costs `c * radix**m + rank * radix**(m-1-j)`, with radix = n + 1,
    c = 1 for a conversion and rank the consumer index (n when the slot
    is filled): summed costs order alignments by (C, slot_key) exactly,
    and distinct alignments never tie. The least-cost alignment is
    solved per concept group; when it is permuted, the least-cost
    in-order alignment may still win once the permutation is charged.
    """
    n, m = len(required.params), len(provided.params)
    radix = n + 1
    weight = [radix ** (m - 1 - j) for j in range(m)]
    per_conversion = radix**m
    fill = [
        n * weight[j] if p.default is not None else None
        for j, p in enumerate(provided.params)
    ]
    # price[i][j]: cost of consumer i in slot j; None across concepts or
    # when no rule bridges the ports.
    price: list[list[int | None]] = [[None] * m for _ in range(n)]
    for req_idx, prov_idx in groups.values():
        for i in req_idx:
            a = required.params[i]
            bridges = conv.rules.get((a.ty, a.unit))
            line = price[i]
            for j in prov_idx:
                b = provided.params[j]
                if a.ty == b.ty and a.unit == b.unit:
                    line[j] = i * weight[j]
                elif bridges and (b.ty, b.unit) in bridges:
                    line[j] = per_conversion + i * weight[j]

    cost = 0
    assignment: dict[int, int] = {}
    blocked = per_conversion * radix  # above any feasible total
    for req_idx, prov_idx in groups.values():
        placed = _assign_group(req_idx, prov_idx, price, fill, blocked)
        if placed is None:
            return None
        cost += placed[0]
        assignment.update(placed[1])
    if [assignment[j] for j in range(m) if j in assignment] == list(range(n)):
        return assignment

    monotone = _monotone_optimum(price, fill)
    if monotone is None:
        return assignment
    # The in-order alignment needs `extra` >= 0 more conversions; the
    # permuted one pays the permutation penalty and one more mismatch.
    mono_conv, mono_slots = divmod(monotone[0], per_conversion)
    perm_conv, perm_slots = divmod(cost, per_conversion)
    extra = mono_conv - perm_conv
    if (config.conversion_penalty * extra, extra, mono_slots) < (
        config.permutation_penalty,
        1,
        perm_slots,
    ):
        return monotone[1]
    return assignment


def _assign_group(
    req_idx: list[int],
    prov_idx: list[int],
    price: list[list[int | None]],
    fill: list[int | None],
    blocked: int,
) -> tuple[int, dict[int, int]] | None:
    """Least-cost placement of one concept group's required params onto
    its provider slots; the slots left over are filled."""
    if len(req_idx) == len(prov_idx):
        # A forced group: when each param has one feasible slot and no two
        # share it, that placement is the only one below `blocked`.
        forced: dict[int, int] = {}
        total = 0
        for i in req_idx:
            line = price[i]
            feasible = [j for j in prov_idx if line[j] is not None]
            if len(feasible) != 1 or feasible[0] in forced:
                break
            forced[feasible[0]] = i
            total += line[feasible[0]]
        else:
            return total, forced
    # Square matrix: one row per required param, padded with identical
    # "left unassigned" rows; infeasible entries cost `blocked`.
    rows = []
    for i in req_idx:
        line = price[i]
        rows.append([blocked if line[j] is None else line[j] for j in prov_idx])
    dummy = [blocked if fill[j] is None else fill[j] for j in prov_idx]
    rows += [dummy] * (len(prov_idx) - len(req_idx))
    cols = _min_cost_assignment(rows)
    total = sum([row[col] for row, col in zip(rows, cols)])
    if total >= blocked:
        return None
    return total, {prov_idx[cols[r]]: i for r, i in enumerate(req_idx)}


def _min_cost_assignment(cost: list[list[int]]) -> list[int]:
    """Column of each row in a least-total assignment of a square
    matrix: the Hungarian method with potentials, O(k^3)."""
    k = len(cost)
    u = [0] * (k + 1)
    v = [0] * (k + 1)
    owner = [0] * (k + 1)  # 1-based row holding each column; column 0 is scratch
    way = [0] * (k + 1)
    for row in range(1, k + 1):
        owner[0] = row
        col0 = 0
        slack = [math.inf] * (k + 1)
        used = [False] * (k + 1)
        while owner[col0]:
            used[col0] = True
            r0 = owner[col0]
            line, ur = cost[r0 - 1], u[r0]
            delta, col1 = math.inf, 0
            for col in range(1, k + 1):
                if not used[col]:
                    cur = line[col - 1] - ur - v[col]
                    if cur < slack[col]:
                        slack[col] = cur
                        way[col] = col0
                    if slack[col] < delta:
                        delta, col1 = slack[col], col
            for col in range(k + 1):
                if used[col]:
                    u[owner[col]] += delta
                    v[col] -= delta
                else:
                    slack[col] -= delta
            col0 = col1
        while col0:
            col1 = way[col0]
            owner[col0] = owner[col1]
            col0 = col1
    cols = [0] * k
    for col in range(1, k + 1):
        cols[owner[col] - 1] = col - 1
    return cols


def _monotone_optimum(
    price: list[list[int | None]], fill: list[int | None]
) -> tuple[int, dict[int, int]] | None:
    """Least-cost alignment that keeps consumer order, by dynamic
    programming over provider slots: O(n*m)."""
    n = len(price)
    best: list[int | None] = [0] + [None] * n  # consumers 0..i-1 placed so far
    took: list[list[bool]] = []
    for j, free in enumerate(fill):
        nxt: list[int | None] = [None] * (n + 1)
        step = [False] * (n + 1)
        for i, c in enumerate(best):
            if c is None:
                continue
            if free is not None and (nxt[i] is None or c + free < nxt[i]):
                nxt[i] = c + free
                step[i] = False
            p = price[i][j] if i < n else None
            if p is not None and (nxt[i + 1] is None or c + p < nxt[i + 1]):
                nxt[i + 1] = c + p
                step[i + 1] = True
        best = nxt
        took.append(step)
    if best[n] is None:
        return None
    assignment: dict[int, int] = {}
    i = n
    for j in range(len(fill) - 1, -1, -1):
        if took[j][i]:
            i -= 1
            assignment[j] = i
    return best[n], assignment


def _classify_assignment(
    required: OperationSig,
    provided: OperationSig,
    assignment: dict[int, int],
    conv: ConversionTable,
    config: MatchConfig,
    base: tuple[Mismatch, ...],
    loc: tuple[str, str] | None = None,
) -> tuple[tuple[Mismatch, ...], Fraction] | None:
    """The mismatches and score of one alignment, located at `loc` (by
    default `("", required.name)`), or None when it is infeasible."""
    if loc is None:
        loc = ("", required.name)
    mismatches = list(base)

    order = tuple(
        assignment[j] for j in range(len(provided.params)) if j in assignment
    )
    if order != tuple(range(len(order))):
        mismatches.append(Mismatch(PARAM_PERMUTATION, location=loc, order=order))

    for j, prov_param in enumerate(provided.params):
        if j in assignment:
            req_param = required.params[assignment[j]]
            if req_param.ty == prov_param.ty and req_param.unit == prov_param.unit:
                continue
            from_port = TypePort(req_param.ty, req_param.unit)
            to_port = TypePort(prov_param.ty, prov_param.unit)
            rule = conv.lookup(from_port, to_port)
            if rule is None:
                return None
            mismatches.append(
                Mismatch(
                    TYPE_CONVERSION,
                    location=loc,
                    slot=j,
                    from_port=from_port,
                    to_port=to_port,
                    rule=rule,
                )
            )
        else:
            if prov_param.default is None:
                return None
            mismatches.append(
                Mismatch(
                    DEFAULT_FILL, location=loc, slot=j, fill_value=prov_param.default
                )
            )

    if provided.returns != required.returns:
        from_port = TypePort(provided.returns, None)
        to_port = TypePort(required.returns, None)
        rule = conv.lookup(from_port, to_port)
        if rule is None:
            return None
        mismatches.append(
            Mismatch(
                TYPE_CONVERSION,
                location=loc,
                slot=RETURN_SLOT,
                from_port=from_port,
                to_port=to_port,
                rule=rule,
            )
        )

    result = tuple(mismatches)
    return result, score_mismatches(result, config)


def analyse(
    project: ProjectSpec,
    components: list[ComponentSpec],
    conv: ConversionTable,
    config: MatchConfig = DEFAULT_CONFIG,
) -> MatchReport:
    """Match every connection and compute unmet demand."""
    return analyse_resolved(project, resolve_components(project, components), conv, config)


def analyse_resolved(
    project: ProjectSpec,
    resolved: dict[str, ComponentSpec],
    conv: ConversionTable,
    config: MatchConfig,
) -> MatchReport:
    """`analyse` given the project's resolved `uses` (`resolve_components`)."""
    demands: list[Demand] = []
    verdicts = tuple(
        _judge_connection(conn, resolved, conv, config, demands)
        for conn in project.connections
    )

    provided_concepts = {
        op.concept
        for spec in resolved.values()
        for iface in spec.provided
        for op in iface.operations
    }
    for wanted in project.demands:
        if not any(wanted.hops_to(have) is not None for have in provided_concepts):
            demands.append(Demand(concept=wanted, shape=None, origin="project"))

    return MatchReport(project=project.name, verdicts=verdicts, demand=tuple(demands))


def _judge_connection(
    conn: Connection,
    resolved: dict[str, ComponentSpec],
    conv: ConversionTable,
    config: MatchConfig,
    demands: list[Demand],
) -> ConnectionVerdict:
    """The connection's verdict; each required op with no candidate is
    also appended to `demands` as unmet demand. Every match reaches the
    threshold, so their mean does too."""
    label = conn.label()
    required_iface = _find_interface(resolved, conn.consumer_component, REQUIRED, conn.consumer_interface)
    provided_iface = _find_interface(resolved, conn.provider_component, PROVIDED, conn.provider_interface)

    op_matches: list[OperationMatch] = []
    missing: list[Mismatch] = []
    for req_op in required_iface.operations:
        loc = (label, req_op.name)
        best = _best_candidate(req_op, provided_iface, conv, config, loc)
        if best is None:
            missing.append(Mismatch(MISSING_OPERATION, location=loc, concept=req_op.concept))
            demands.append(Demand(req_op.concept, shape_of(req_op), label))
        else:
            op_matches.append(best)

    all_mismatches = tuple(
        itertools.chain(*(m.mismatches for m in op_matches), missing)
    )
    if missing:
        return ConnectionVerdict(
            connection=conn,
            status=INCOMPATIBLE,
            op_matches=tuple(op_matches),
            mismatches=all_mismatches,
            score=None,
            reason=f"{len(missing)} required operation(s) have no candidate",
        )
    if not all_mismatches:
        return ConnectionVerdict(conn, EXACT, tuple(op_matches), (), Fraction(1))
    mean = sum((m.score for m in op_matches), Fraction(0)) / len(op_matches)
    return ConnectionVerdict(conn, ADAPTABLE, tuple(op_matches), all_mismatches, mean)


def _find_interface(
    resolved: dict[str, ComponentSpec], component: str, direction: str, name: str
) -> InterfaceSpec:
    spec = resolved.get(component)
    if spec is None:
        raise AdapterForgeError(E_UNRESOLVED, f"connection references unknown component {component!r}")
    iface = spec.interface(direction, name)
    if iface is None:
        raise AdapterForgeError(
            E_UNRESOLVED,
            f"component {component!r} has no {direction} interface {name!r}",
        )
    return iface


def _best_candidate(
    req_op: OperationSig,
    provided_iface: InterfaceSpec,
    conv: ConversionTable,
    config: MatchConfig,
    loc: tuple[str, str] | None = None,
) -> OperationMatch | None:
    best: OperationMatch | None = None
    best_key: tuple | None = None
    for prov_op in provided_iface.operations:
        match = match_operation(req_op, prov_op, conv, config, location=loc)
        if match is None:
            continue
        key = (-match.score, len(match.mismatches), match.provided_name)
        if best_key is None or key < best_key:
            best_key = key
            best = match
    return best


def verify(
    project: ProjectSpec,
    components: list[ComponentSpec],
    conv: ConversionTable,
    config: MatchConfig = DEFAULT_CONFIG,
) -> bool:
    """Re-run analysis; true iff every connection is EXACT."""
    return analyse(project, components, conv, config).all_exact()
