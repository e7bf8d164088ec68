"""Seeded spec generators for the three benchmark workloads.

The generators write spec text directly, in the canonical form the
toolchain's serializer produces, and never call into `adapterforge`.
That keeps the expected results independent of the code under test:
every verdict and exact score below is known by construction, and the
SHA-256 of a written component file is the fingerprint `pool add` must
print for it.

Penalties mirror the defaults of `tests/corpus/conversions.rules`
(which sets none): permutation 1/20, conversion 1/10, default fill
3/20, concept hop 1/10, rename 0, threshold 1/2.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from fractions import Fraction

PERMUTATION = Fraction(1, 20)
CONVERSION = Fraction(1, 10)
FILL = Fraction(3, 20)
HOP = Fraction(1, 10)
THRESHOLD = Fraction(1, 2)

SCALARS = ("i32", "i64", "f64", "bool", "string")

# The conversion rules file: (from type, from unit) -> (to type, to unit).
TABLE_EDGES = (
    (("i32", None), ("i64", None)),
    (("i32", None), ("f64", None)),
    (("i64", None), ("i32", None)),
    (("f64", "ms"), ("f64", "s")),
    (("string", None), ("i64", None)),
    (("i64", None), ("string", None)),
)
UNITLESS_EDGES = tuple(e for e in TABLE_EDGES if e[0][1] is None and e[1][1] is None)

# Ten pairwise-distinct types none of which the rules file converts, so
# a wide op's true alignment is its only feasible one and every other
# placement fails at its first misplaced slot: matcher cost depends on
# the group sizes alone, not on which types a seed drew.
WIDE_TYPES = ("bool", "bytes") + tuple(
    f"list<{t}>" for t in ("i32", "i64", "f64", "bool", "string", "bytes", "list<i32>", "list<string>")
)


@dataclass(frozen=True)
class Param:
    name: str
    ty: str
    concept: str | None = None
    unit: str | None = None
    default: str | None = None  # canonical literal text


@dataclass(frozen=True)
class Op:
    name: str
    params: tuple[Param, ...]
    returns: str
    concept: str


@dataclass(frozen=True)
class Connection:
    consumer: str
    consumer_iface: str
    provider: str
    provider_iface: str
    status: str  # EXACT | ADAPTABLE, by construction
    score: Fraction
    ops: tuple[Op, ...]  # the consumer's required operations


@dataclass
class Project:
    """One generated project: file name -> canonical text, plus the
    outcome every connection must have."""

    name: str
    files: dict[str, str]
    connections: tuple[Connection, ...]
    hot: bool = False
    component_files: tuple[str, ...] = ()  # (consumer, provider) file names
    provider_concepts: tuple[str, ...] = ()  # op concepts the provider provides

    @property
    def pdl(self) -> str:
        return f"{self.name}.pdl"

    def adaptable(self) -> tuple[Connection, ...]:
        return tuple(c for c in self.connections if c.status == "ADAPTABLE")


def _ident(rng: random.Random) -> str:
    return "".join(rng.choices(string.ascii_lowercase, k=rng.randint(3, 7)))


def _quote(text: str) -> str:
    return '"' + text + '"'  # generated strings are plain lowercase letters


def _float_text(value: float) -> str:
    text = repr(value)
    return text if ("." in text or "e" in text) else text + ".0"


def _type(rng: random.Random) -> str:
    ty = rng.choice(SCALARS)
    return f"list<{ty}>" if rng.random() < 0.2 else ty


def _default(rng: random.Random, ty: str) -> str | None:
    if ty in ("i32", "i64"):
        return str(rng.randint(-1000, 1000))
    if ty == "f64":
        return _float_text(round(rng.uniform(-100, 100), 3))
    if ty == "bool":
        return "true" if rng.random() < 0.5 else "false"
    if ty == "string":
        return _quote(_ident(rng))
    return None


# --- canonical text -----------------------------------------------------


def _op_lines(op: Op) -> list[str]:
    rendered = ", ".join(
        f"{p.name}: {p.ty}" + (f" = {p.default}" if p.default is not None else "")
        for p in op.params
    )
    lines = [f"    op {op.name}({rendered}) -> {op.returns} @concept {op.concept}"]
    for p in op.params:
        if p.concept is None and p.unit is None:
            continue
        clause = f"      @param {p.name}"
        if p.concept is not None:
            clause += f" @concept {p.concept}"
        if p.unit is not None:
            clause += f" @unit {p.unit}"
        lines.append(clause)
    return lines


def component_text(
    name: str,
    provided: dict[str, tuple[Op, ...]] | None = None,
    required: dict[str, tuple[Op, ...]] | None = None,
) -> str:
    """Canonical `.cdl`: provided interfaces first, each group by name."""
    lines = [f'component "{name}" version "1.0.0" {{']
    for keyword, ifaces in (("provides", provided or {}), ("requires", required or {})):
        for iface in sorted(ifaces):
            lines.append(f"  {keyword} interface {iface} {{")
            for op in ifaces[iface]:
                lines.extend(_op_lines(op))
            lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def project_text(name: str, uses: tuple[str, ...], connections: tuple[Connection, ...]) -> str:
    lines = [f'project "{name}" {{']
    lines.extend(f'  uses "{u}" *' for u in uses)
    lines.extend(
        f"  connect {c.consumer}.requires.{c.consumer_iface}"
        f" -> {c.provider}.provides.{c.provider_iface}"
        for c in connections
    )
    lines.append("}")
    return "\n".join(lines) + "\n"


# --- heal / reuse: one adaptable connection -----------------------------


def _derived_op_pair(rng: random.Random, k: int, family: str) -> tuple[Op, Op, Fraction]:
    """A (required, provided) op pair derived through penalty-priced
    edits whose total stays within the threshold. Every parameter has
    its own explicit concept, so exactly one alignment exists and its
    score is 1 minus the penalties spent. Returns the pair and the
    score."""
    budget = 1 - THRESHOLD
    prov: list[Param] = []
    cons: list[tuple[int, Param]] = []
    for i in range(rng.randint(0, 3)):
        tag = f"{family}.slot.s{i}"
        if rng.random() < 0.3 and budget >= CONVERSION:
            (from_ty, from_unit), (to_ty, to_unit) = rng.choice(TABLE_EDGES)
            budget -= CONVERSION
            prov.append(Param(f"q{i}", to_ty, tag, to_unit))
            cons.append((i, Param(f"c{i}", from_ty, tag, from_unit)))
            continue
        ty = _type(rng)
        default = _default(rng, ty)
        if default is not None and rng.random() < 0.25 and budget >= FILL:
            budget -= FILL
            prov.append(Param(f"q{i}", ty, tag, default=default))
        else:
            prov.append(Param(f"q{i}", ty, tag))
            cons.append((i, Param(f"c{i}", ty, tag)))

    if len(cons) > 1 and rng.random() < 0.4 and budget >= PERMUTATION:
        shuffled = cons[:]
        while [s for s, _ in shuffled] == [s for s, _ in cons]:
            rng.shuffle(shuffled)
        cons = shuffled
        budget -= PERMUTATION

    returns = prov_returns = _type(rng)
    if rng.random() < 0.2 and budget >= CONVERSION:
        (prov_returns, _), (returns, _) = rng.choice(UNITLESS_EDGES)
        budget -= CONVERSION

    cons_concept = prov_concept = f"{family}.act"
    max_hops = int(budget / HOP)
    if max_hops and rng.random() < 0.3:
        hops = rng.randint(1, min(max_hops, 2))
        prov_concept = cons_concept + "".join(f".h{j}" for j in range(hops))
        budget -= hops * HOP

    base = f"do{k}_{_ident(rng)}"
    # Op 0 is always renamed (rename costs 0), so every connection is
    # ADAPTABLE and every project exercises adapter generation.
    renamed = k == 0 or rng.random() < 0.5
    required = Op(
        f"{base}_v2" if renamed else base, tuple(p for _, p in cons), returns, cons_concept
    )
    provided = Op(base, tuple(prov), prov_returns, prov_concept)
    spent = (1 - THRESHOLD) - budget
    return required, provided, 1 - spent


def adaptable_project(rng: random.Random, tag: str, hot_family: str | None = None) -> Project:
    """Consumer, provider and project with one ADAPTABLE connection of
    1-3 ops (arity <= 3). With `hot_family`, op 0 draws its concepts
    from that shared family, so shaped pool queries for it price every
    stored artifact of the same family."""
    required_ops, provided_ops, scores = [], [], []
    for k in range(rng.randint(1, 3)):
        family = (
            hot_family
            if (k == 0 and hot_family)
            else f"fam{k}.{_ident(rng)}.{_ident(rng)}"
        )
        req, prov, score = _derived_op_pair(rng, k, family)
        required_ops.append(req)
        provided_ops.append(prov)
        scores.append(score)
    consumer = f"need_{tag}_{_ident(rng)}"
    provider = f"have_{tag}_{_ident(rng)}"
    conn = Connection(
        consumer, "Wanted", provider, "Offered",
        "ADAPTABLE", sum(scores, Fraction(0)) / len(scores), tuple(required_ops),
    )
    name = f"proj_{tag}_{_ident(rng)}"
    files = {
        f"{consumer}.cdl": component_text(consumer, required={"Wanted": tuple(required_ops)}),
        f"{provider}.cdl": component_text(provider, provided={"Offered": tuple(provided_ops)}),
        f"{name}.pdl": project_text(name, (consumer, provider), (conn,)),
    }
    return Project(
        name, files, (conn,), hot=hot_family is not None,
        component_files=(f"{consumer}.cdl", f"{provider}.cdl"),
        provider_concepts=tuple(sorted({op.concept for op in provided_ops})),
    )


# --- wide: many connections, permuted concept groups ---------------------

# Concept-group sizes of the ops of every wide project (arity = sum).
# A group of size g costs g! alignments. The mix is fixed so that every
# seed runs the same amount of matcher work; seeds vary names, types,
# permutations and which connection gets which op. Arity is capped at 7.
WIDE_DECK = (
    (6,), (5,), (4, 3), (4,), (3, 2), (3,), (3,), (2, 2), (2,), (2,), (1,), (1,), (0,), (0,),
)
# Every fourth project also has one op whose 7 params share one group,
# so about a quarter of checks carry the factorial tail.
WIDE_HEAVY = (7,)
WIDE_HEAVY_EVERY = 4


def _wide_op(rng: random.Random, concept: str, name: str, groups: tuple[int, ...]) -> tuple[Op, Op, bool]:
    """Provider op and a consumer op whose params are a permutation of
    the provider's. Params fall into explicit concept groups of the
    given sizes and have pairwise-distinct, inconvertible types, so the
    true alignment is the only feasible one: its score is 1 for the
    identity permutation and 19/20 otherwise. Returns (required,
    provided, permuted)."""
    group_of = [g for g, size in enumerate(groups) for _ in range(size)]
    rng.shuffle(group_of)
    types = rng.sample(WIDE_TYPES, len(group_of))
    prov = tuple(
        Param(f"p{i}", ty, f"{concept}.grp.g{g}") for i, (ty, g) in enumerate(zip(types, group_of))
    )
    order = list(range(len(prov)))
    rng.shuffle(order)
    cons = tuple(
        Param(f"a{i}", prov[j].ty, prov[j].concept) for i, j in enumerate(order)
    )
    returns = rng.choice(SCALARS)
    return Op(name, cons, returns, concept), Op(name, prov, returns, concept), order != sorted(order)


def wide_project(rng: random.Random, index: int, n_connections: int = 8) -> Project:
    """One consumer and one provider joined by `n_connections`
    connections of 1-3 ops dealt from `WIDE_DECK`; at least one
    connection is ADAPTABLE."""
    deck = list(WIDE_DECK) + ([WIDE_HEAVY] if index % WIDE_HEAVY_EVERY == 0 else [])
    tag = f"p{index}"
    while True:
        rng.shuffle(deck)
        per_conn: list[list[tuple[int, ...]]] = [[g] for g in deck[:n_connections]]
        for g in deck[n_connections:]:
            rng.choice([ops for ops in per_conn if len(ops) < 3]).append(g)
        consumer = f"wneed_{tag}_{_ident(rng)}"
        provider = f"whave_{tag}_{_ident(rng)}"
        required: dict[str, tuple[Op, ...]] = {}
        provided: dict[str, tuple[Op, ...]] = {}
        conns = []
        for c, shapes in enumerate(per_conn):
            req_ops, prov_ops, scores = [], [], []
            for k, groups in enumerate(shapes):
                concept = f"wide{c}x{k}.{_ident(rng)}.act"
                req, prov, permuted = _wide_op(rng, concept, f"w{c}op{k}_{_ident(rng)}", groups)
                req_ops.append(req)
                prov_ops.append(prov)
                scores.append(1 - PERMUTATION if permuted else Fraction(1))
            required[f"Req{c}"] = tuple(req_ops)
            provided[f"Prov{c}"] = tuple(prov_ops)
            adaptable = any(score < 1 for score in scores)
            conns.append(
                Connection(
                    consumer, f"Req{c}", provider, f"Prov{c}",
                    "ADAPTABLE" if adaptable else "EXACT",
                    sum(scores, Fraction(0)) / len(scores),
                    tuple(req_ops),
                )
            )
        if any(c.status == "ADAPTABLE" for c in conns):
            break
    name = f"wproj_{tag}_{_ident(rng)}"
    files = {
        f"{consumer}.cdl": component_text(consumer, required=required),
        f"{provider}.cdl": component_text(provider, provided=provided),
        f"{name}.pdl": project_text(name, (consumer, provider), tuple(conns)),
    }
    return Project(
        name, files, tuple(conns),
        component_files=(f"{consumer}.cdl", f"{provider}.cdl"),
    )
