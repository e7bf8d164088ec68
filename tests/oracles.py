"""Independent brute-force oracles the tests check the real code against.

The score oracle enumerates every injective placement of required
parameters onto provider slots, with no concept-group shortcuts, and
prices each valid placement straight from the penalty table. The
alignment oracle enumerates every injective placement inside each
concept group and keeps the least `(-score, len(mismatches),
slot_key)`; it shares only the classification of one fixed placement
with the package, never the search. The composition oracle rebuilds
provider calls directly from mismatch payloads.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Any

from adapterforge.analyser import Mismatch, OperationMatch, _classify_assignment
from adapterforge.conversions import (
    CONCEPT_DISTANCE,
    RENAME,
    ConversionTable,
    MatchConfig,
    TypePort,
)
from adapterforge.speclang import OperationSig, format_float


def oracle_best_score(
    required: OperationSig,
    provided: OperationSig,
    conv: ConversionTable,
    config: MatchConfig,
) -> Fraction | None:
    """Best reachable score, or None when nothing valid reaches the
    threshold."""
    hops = required.concept.hops_to(provided.concept)
    if hops is None:
        return None
    n_req, n_prov = len(required.params), len(provided.params)
    if n_req > n_prov:
        return None

    req_concepts = [p.effective_concept(required.concept) for p in required.params]
    prov_concepts = [p.effective_concept(required.concept) for p in provided.params]
    fixed = Fraction(0)
    if hops >= 1:
        fixed += config.concept_hop_penalty * hops
    if required.name != provided.name:
        fixed += config.rename_penalty

    best: Fraction | None = None
    for slots in itertools.permutations(range(n_prov), n_req):
        if any(req_concepts[i] != prov_concepts[j] for i, j in enumerate(slots)):
            continue
        assigned = set(slots)
        if any(
            provided.params[j].default is None
            for j in range(n_prov)
            if j not in assigned
        ):
            continue
        penalty = fixed
        ok = True
        for i, j in enumerate(slots):
            frm = TypePort(required.params[i].ty, required.params[i].unit)
            to = TypePort(provided.params[j].ty, provided.params[j].unit)
            if frm == to:
                continue
            if conv.lookup(frm, to) is None:
                ok = False
                break
            penalty += config.conversion_penalty
        if not ok:
            continue
        penalty += config.fill_penalty * (n_prov - n_req)
        if provided.returns != required.returns:
            if conv.lookup(TypePort(provided.returns), TypePort(required.returns)) is None:
                continue
            penalty += config.conversion_penalty
        order = [pair[0] for pair in sorted(enumerate(slots), key=lambda p: p[1])]
        if order != sorted(order):
            penalty += config.permutation_penalty
        score = 1 - penalty
        if best is None or score > best:
            best = score
    if best is None or best < config.threshold:
        return None
    return best


def oracle_best_alignment(
    required: OperationSig,
    provided: OperationSig,
    conv: ConversionTable,
    config: MatchConfig,
) -> OperationMatch | None:
    """The match `match_operation` must return, found by trying every
    injective placement inside each concept group (factorial in group
    size: keep arities small)."""
    hops = required.concept.hops_to(provided.concept)
    if hops is None:
        return None
    base: list[Mismatch] = []
    if hops >= 1:
        base.append(
            Mismatch(
                CONCEPT_DISTANCE,
                location=("", required.name),
                hops=hops,
                concept=provided.concept,
            )
        )
    if required.name != provided.name:
        base.append(
            Mismatch(
                RENAME,
                location=("", required.name),
                renamed_from=required.name,
                renamed_to=provided.name,
            )
        )

    req_concepts = required.param_concepts()
    prov_concepts = provided.param_concepts(base=required.concept)
    groups: dict = {}
    for i, c in enumerate(req_concepts):
        groups.setdefault(c, ([], []))[0].append(i)
    for j, c in enumerate(prov_concepts):
        groups.setdefault(c, ([], []))[1].append(j)
    if any(len(req_idx) > len(prov_idx) for req_idx, prov_idx in groups.values()):
        return None
    per_group = [
        [
            list(zip(req_idx, chosen))
            for chosen in itertools.permutations(prov_idx, len(req_idx))
        ]
        for req_idx, prov_idx in groups.values()
    ]

    best_key: tuple | None = None
    best = None
    for combo in itertools.product(*per_group):
        assignment = {prov_j: req_i for pairs in combo for req_i, prov_j in pairs}
        outcome = _classify_assignment(
            required, provided, assignment, conv, config, tuple(base)
        )
        if outcome is None:
            continue
        mismatches, score = outcome
        slot_key = tuple(
            (0, assignment[j]) if j in assignment else (1,)
            for j in range(len(provided.params))
        )
        key = (-score, len(mismatches), slot_key)
        if best_key is None or key < best_key:
            best_key, best = key, outcome
    if best is None or best[1] < config.threshold:
        return None
    return OperationMatch(required.name, provided.name, best[0], best[1])


def oracle_convert(rule, value: Any, to_kind: str | None) -> Any:
    """Documented scalar rule semantics, reimplemented independently."""
    if rule.kind == "WIDEN":
        return float(value) if to_kind == "f64" else value
    if rule.kind == "NARROW_CHECKED":
        if isinstance(value, float):
            assert value.is_integer()
            value = int(value)
        lo, hi = (-(2**31), 2**31 - 1) if to_kind == "i32" else (-(2**63), 2**63 - 1)
        assert lo <= value <= hi
        return value
    if rule.kind == "UNIT_SCALE":
        if isinstance(value, float):
            return value * float(rule.factor)
        scaled = Fraction(value) * rule.factor
        if to_kind == "f64":
            return float(scaled)
        assert scaled.denominator == 1
        return int(scaled)
    if rule.kind == "PARSE":
        return float(value) if to_kind == "f64" else int(str(value), 10)
    if rule.kind == "FORMAT":
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            return format_float(value)
        return str(value)
    raise AssertionError(f"unknown rule {rule.kind}")


def oracle_provider_call(
    match: OperationMatch,
    provider_op: OperationSig,
    args: list[Any],
    provider_fn,
) -> Any:
    """Execute one matched call by composing permute/convert/fill
    straight from the mismatch payloads."""
    fills = {
        m.slot: m.fill_value.value
        for m in match.mismatches
        if m.kind == "DEFAULT_FILL"
    }
    conversions = {
        m.slot: m
        for m in match.mismatches
        if m.kind == "TYPE_CONVERSION" and m.slot is not None and m.slot >= 0
    }
    order = next(
        (m.order for m in match.mismatches if m.kind == "PARAM_PERMUTATION"), None
    )
    n = len(provider_op.params)
    take_slots = [j for j in range(n) if j not in fills]
    consumer_order = list(order) if order is not None else list(range(len(take_slots)))
    assert len(consumer_order) == len(take_slots)

    provider_args: list[Any] = []
    taken = iter(consumer_order)
    for j in range(n):
        if j in fills:
            provider_args.append(fills[j])
            continue
        value = args[next(taken)]
        if j in conversions:
            m = conversions[j]
            value = oracle_convert(m.rule, value, m.to_port.ty.kind)
        provider_args.append(value)

    result = provider_fn(*provider_args)
    ret = next(
        (m for m in match.mismatches if m.kind == "TYPE_CONVERSION" and m.slot == -1),
        None,
    )
    if ret is not None:
        result = oracle_convert(ret.rule, result, ret.to_port.ty.kind)
    return result


def fold_conservation_holds(tree, pattern) -> bool:
    """Visible nodes plus hidden-subtree sizes must recount to the tree."""
    from adapterforge.aslt import fold, subtree_size, traverse

    view = fold(tree, pattern)
    visible = len(traverse(view))

    def top_hidden(node_id: int, under_hidden: bool) -> list[int]:
        node = tree.node(node_id)
        mine = node_id in view.hidden
        if mine and not under_hidden:
            roots = [node_id]
        else:
            roots = []
        for child in node.meta_children + node.children:
            roots.extend(top_hidden(child, under_hidden or mine))
        return roots

    roots = top_hidden(tree.root, False)
    return visible + sum(subtree_size(tree, r) for r in roots) == len(tree)
