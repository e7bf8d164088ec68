"""Independent brute-force oracles the tests check the real code against.

The score oracle enumerates every injective placement of required
parameters onto provider slots, with no concept-group shortcuts, and
prices each valid placement straight from the penalty table. The
alignment oracle enumerates every injective placement inside each
concept group and keeps the least `(-score, len(mismatches),
slot_key)`; it shares only the classification of one fixed placement
with the package, never the search. The composition oracle rebuilds
provider calls directly from mismatch payloads. The pool-query oracle
prices every related candidate through the public `pool_list` and
`pool_get`, one index read per candidate. The tokenizer oracle walks the
source one character at a time, tracking line and column per character,
with ASCII character classes.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Any

from adapterforge.adapters import AdapterSpec
from adapterforge.analyser import (
    Mismatch,
    OperationMatch,
    _classify_assignment,
    match_operation,
    shape_as_operation,
)
from adapterforge.conversions import (
    CONCEPT_DISTANCE,
    RENAME,
    ConversionTable,
    MatchConfig,
    TypePort,
)
from adapterforge.pool import PoolQuery, pool_get, pool_list
from adapterforge.speclang import (
    E_SYNTAX,
    ConceptId,
    OperationSig,
    ParseError,
    format_float,
    parse_version,
)


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


def oracle_pool_query(
    root, query: PoolQuery, conv: ConversionTable, config: MatchConfig
) -> list[tuple[str, Fraction]]:
    """`pool_query` as a scan: list the index, then read each related
    candidate through `pool_get` and price it by its best provided op
    (shaped demand) or by concept distance (bare demand)."""
    demand = query.demand
    results: list[tuple[str, Fraction]] = []
    for fp, entry in pool_list(root):
        if query.constraint is not None and not query.constraint.satisfies(
            parse_version(entry.version)
        ):
            continue
        hops = [
            h
            for text in entry.provided_concepts
            if (h := demand.concept.hops_to(ConceptId.from_text(text))) is not None
        ]
        if not hops:
            continue
        if demand.shape is None:
            score = 1 - config.concept_hop_penalty * min(hops)
            if score >= config.threshold:
                results.append((fp, score))
            continue
        value = pool_get(root, fp)
        component = value.to_component_spec() if isinstance(value, AdapterSpec) else value
        wanted = shape_as_operation(demand.concept, demand.shape)
        scores = [
            m.score
            for iface in component.provided
            for op in iface.operations
            if (m := match_operation(wanted, op, conv, config)) is not None
        ]
        if scores:
            results.append((fp, max(scores)))
    return sorted(results, key=lambda pair: (-pair[1], pair[0]))


_DIGITS = frozenset("0123456789")
_LETTERS = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
_IDENT_CHARS = _LETTERS | _DIGITS | {"_"}
_PUNCT_SINGLE = "{}()<>,:=.@*"
_UNESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t", "r": "\r"}


def oracle_tokenize(text: str) -> list[tuple[str, str, int, int]]:
    """`(kind, text, line, col)` for every token, EOF last, or ParseError."""
    if text.startswith("\ufeff"):
        text = text[1:]
    tokens: list[tuple[str, str, int, int]] = []
    line, col = 1, 1
    i, n = 0, len(text)

    def advance(k: int) -> None:
        nonlocal i, line, col
        for _ in range(k):
            if text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            advance(1)
            continue
        if ch == "/" and text[i : i + 2] == "//":
            while i < n and text[i] != "\n":
                advance(1)
            continue
        start_line, start_col = line, col
        if ch == '"':
            tokens.append(("STRING", _oracle_string(text, i, start_line, start_col), start_line, start_col))
            advance(len(_oracle_raw_span(text, i)))
            continue
        if ch == "-":
            if text[i : i + 2] == "->":
                tokens.append(("PUNCT", "->", start_line, start_col))
                advance(2)
                continue
            if i + 1 < n and text[i + 1] in _DIGITS:
                kind, width = _oracle_number(text, i, start_line, start_col)
                tokens.append((kind, text[i : i + width], start_line, start_col))
                advance(width)
                continue
            raise ParseError(E_SYNTAX, "stray '-'", start_line, start_col)
        if ch == ">" and text[i : i + 2] == ">=":
            tokens.append(("PUNCT", ">=", start_line, start_col))
            advance(2)
            continue
        if ch in _PUNCT_SINGLE:
            tokens.append(("PUNCT", ch, start_line, start_col))
            advance(1)
            continue
        if ch in _DIGITS:
            kind, width = _oracle_number(text, i, start_line, start_col)
            tokens.append((kind, text[i : i + width], start_line, start_col))
            advance(width)
            continue
        if ch in _LETTERS or ch == "_":
            j = i
            while j < n and text[j] in _IDENT_CHARS:
                j += 1
            tokens.append(("IDENT", text[i:j], start_line, start_col))
            advance(j - i)
            continue
        raise ParseError(E_SYNTAX, f"unexpected character {ch!r}", start_line, start_col)

    tokens.append(("EOF", "", line, col))
    return tokens


def _oracle_raw_span(text: str, start: int) -> str:
    i = start + 1
    n = len(text)
    while i < n:
        if text[i] == "\\":
            i += 2
            continue
        if text[i] == '"':
            return text[start : i + 1]
        if text[i] == "\n":
            break
        i += 1
    return text[start:]


def _oracle_string(text: str, start: int, line: int, col: int) -> str:
    out: list[str] = []
    i = start + 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == '"':
            return "".join(out)
        if ch == "\n":
            break
        if ch == "\\":
            if i + 1 >= n or text[i + 1] not in _UNESCAPES:
                raise ParseError(E_SYNTAX, "bad string escape", line, col)
            out.append(_UNESCAPES[text[i + 1]])
            i += 2
            continue
        out.append(ch)
        i += 1
    raise ParseError(E_SYNTAX, "unterminated string", line, col)


def _oracle_number(text: str, start: int, line: int, col: int) -> tuple[str, int]:
    n = len(text)
    i = start
    if text[i] == "-":
        i += 1
    while i < n and text[i] in _DIGITS:
        i += 1
    is_float = False
    if i < n and text[i] == ".":
        if i + 1 >= n or text[i + 1] not in _DIGITS:
            raise ParseError(E_SYNTAX, "malformed number", line, col)
        is_float = True
        i += 1
        while i < n and text[i] in _DIGITS:
            i += 1
    if i < n and text[i] in "eE":
        j = i + 1
        if j < n and text[j] in "+-":
            j += 1
        if j >= n or text[j] not in _DIGITS:
            raise ParseError(E_SYNTAX, "malformed exponent", line, col)
        is_float = True
        i = j
        while i < n and text[i] in _DIGITS:
            i += 1
    return ("FLOAT" if is_float else "INT"), i - start
