"""Seeded random spec generators for the acceptance suite.

`adaptable_pair` builds (consumer, provider, project) instances that
are EXACT or ADAPTABLE by construction: the provider is drawn first
and the consumer derived from it through penalty-priced edits (rename,
permutation, table conversions, default fills, concept hops) whose
total stays within the adaptability threshold.
"""

from __future__ import annotations

import random
import string

from adapterforge.conversions import DEFAULT_CONFIG, MatchConfig
from adapterforge.speclang import (
    BOOL,
    F64,
    I32,
    I64,
    STRING,
    ComponentSpec,
    ConceptId,
    Connection,
    InterfaceSpec,
    Literal,
    MetaEntry,
    OperationSig,
    ParamSig,
    ProjectSpec,
    SemType,
    UseDecl,
    list_of,
)

SCALARS = (I32, I64, F64, BOOL, STRING)

# Mirrors tests/corpus/conversions.rules: (from type, from unit) -> (to type, to unit).
TABLE_EDGES = [
    ((I32, None), (I64, None)),
    ((I32, None), (F64, None)),
    ((I64, None), (I32, None)),
    ((F64, "ms"), (F64, "s")),
    ((STRING, None), (I64, None)),
    ((I64, None), (STRING, None)),
]


def _ident(rng: random.Random, prefix: str = "") -> str:
    body = "".join(rng.choices(string.ascii_lowercase, k=rng.randint(3, 7)))
    return f"{prefix}{body}"


def _concept(rng: random.Random, depth: int = 3) -> ConceptId:
    return ConceptId(tuple(_ident(rng) for _ in range(depth)))


def _sem_type(rng: random.Random) -> SemType:
    ty = rng.choice(SCALARS)
    if rng.random() < 0.2:
        return list_of(ty)
    return ty


def _default_for(rng: random.Random, ty: SemType) -> Literal | None:
    if ty.kind in ("i32", "i64"):
        return Literal("int", rng.randint(-1000, 1000))
    if ty.kind == "f64":
        return Literal("float", round(rng.uniform(-100, 100), 3))
    if ty.kind == "bool":
        return Literal("bool", rng.random() < 0.5)
    if ty.kind == "string":
        return Literal("string", _ident(rng))
    return None


def random_component(rng: random.Random) -> ComponentSpec:
    """An arbitrary valid component, for round-trip style checks."""
    used_names: set[str] = set()

    def fresh_interface_name() -> str:
        while True:
            name = _ident(rng).capitalize()
            if name not in used_names:
                used_names.add(name)
                return name

    def interface(direction: str) -> InterfaceSpec:
        ops = []
        for _ in range(rng.randint(0, 3)):
            params = []
            for p in range(rng.randint(0, 4)):
                ty = _sem_type(rng)
                params.append(
                    ParamSig(
                        name=f"p{p}_{_ident(rng)}",
                        ty=ty,
                        concept=_concept(rng) if rng.random() < 0.4 else None,
                        unit=rng.choice(["ms", "s", "kg"]) if ty.is_numeric and rng.random() < 0.3 else None,
                        default=_default_for(rng, ty) if rng.random() < 0.3 else None,
                    )
                )
            ops.append(
                OperationSig(
                    name=f"op{len(ops)}_{_ident(rng)}",
                    params=tuple(params),
                    returns=_sem_type(rng),
                    concept=_concept(rng),
                )
            )
        return InterfaceSpec(fresh_interface_name(), direction, tuple(ops))

    return ComponentSpec(
        name=_ident(rng),
        version=(rng.randint(0, 9), rng.randint(0, 9), rng.randint(0, 9)),
        provided=tuple(interface("provided") for _ in range(rng.randint(0, 2))),
        required=tuple(interface("required") for _ in range(rng.randint(0, 2))),
        meta=tuple(
            MetaEntry(_ident(rng), _ident(rng)) for _ in range(rng.randint(0, 2))
        ),
    )


def adaptable_pair(
    rng: random.Random, config: MatchConfig = DEFAULT_CONFIG
) -> tuple[ComponentSpec, ComponentSpec, ProjectSpec]:
    """One consumer/provider/project triple whose single connection is
    EXACT or ADAPTABLE by construction."""
    n_ops = rng.randint(1, 3)
    required_ops = []
    provided_ops = []
    for k in range(n_ops):
        req_op, prov_op = _derived_op_pair(rng, k, config)
        required_ops.append(req_op)
        provided_ops.append(prov_op)

    consumer = ComponentSpec(
        name=f"need_{_ident(rng)}",
        version=(1, 0, 0),
        required=(InterfaceSpec("Wanted", "required", tuple(required_ops)),),
    )
    provider = ComponentSpec(
        name=f"have_{_ident(rng)}",
        version=(1, 0, 0),
        provided=(InterfaceSpec("Offered", "provided", tuple(provided_ops)),),
    )
    project = ProjectSpec(
        name=f"proj_{_ident(rng)}",
        uses=(UseDecl(consumer.name), UseDecl(provider.name)),
        connections=(
            Connection(consumer.name, "Wanted", provider.name, "Offered"),
        ),
    )
    return consumer, provider, project


def _derived_op_pair(
    rng: random.Random, k: int, config: MatchConfig
) -> tuple[OperationSig, OperationSig]:
    # Distinct concept families keep candidate selection unambiguous.
    family = ConceptId((f"fam{k}", _ident(rng), _ident(rng)))
    budget = config.threshold  # total penalty allowed for score >= threshold

    # Provider parameters: some taken from the consumer, some filled.
    n_params = rng.randint(0, 3)
    prov_params: list[ParamSig] = []
    cons_params: list[tuple[int, ParamSig]] = []  # (provider slot, consumer param)
    for i in range(n_params):
        tag = family.child("slot", f"s{i}")
        converted = rng.random() < 0.3
        if converted and budget >= config.conversion_penalty:
            (from_ty, from_unit), (to_ty, to_unit) = rng.choice(TABLE_EDGES)
            budget -= config.conversion_penalty
            prov_params.append(ParamSig(f"q{i}", to_ty, concept=tag, unit=to_unit))
            cons_params.append((i, ParamSig(f"c{i}", from_ty, concept=tag, unit=from_unit)))
            continue
        ty = _sem_type(rng)
        default = _default_for(rng, ty)
        fillable = default is not None and ty.kind != "list"
        if fillable and rng.random() < 0.25 and budget >= config.fill_penalty:
            budget -= config.fill_penalty
            prov_params.append(ParamSig(f"q{i}", ty, concept=tag, default=default))
        else:
            prov_params.append(ParamSig(f"q{i}", ty, concept=tag))
            cons_params.append((i, ParamSig(f"c{i}", ty, concept=tag)))

    if len(cons_params) > 1 and rng.random() < 0.4 and budget >= config.permutation_penalty:
        shuffled = cons_params[:]
        while [s for s, _ in shuffled] == [s for s, _ in cons_params]:
            rng.shuffle(shuffled)
        cons_params = shuffled
        budget -= config.permutation_penalty

    returns = _sem_type(rng)
    prov_returns = returns
    if rng.random() < 0.2 and budget >= config.conversion_penalty:
        (from_ty, from_unit), (to_ty, to_unit) = rng.choice(
            [e for e in TABLE_EDGES if e[0][1] is None and e[1][1] is None]
        )
        prov_returns, returns = from_ty, to_ty
        budget -= config.conversion_penalty

    cons_concept = family.child("act")
    prov_concept = cons_concept
    max_hops = int(budget / config.concept_hop_penalty)
    if max_hops and rng.random() < 0.3:
        hops = rng.randint(1, min(max_hops, 2))
        prov_concept = cons_concept.child(*(f"h{j}" for j in range(hops)))
        budget -= hops * config.concept_hop_penalty

    base_name = f"do{k}_{_ident(rng)}"
    required = OperationSig(
        name=base_name if rng.random() < 0.5 else f"{base_name}_v2",
        params=tuple(p for _, p in cons_params),
        returns=returns,
        concept=cons_concept,
    )
    provided = OperationSig(
        name=base_name,
        params=tuple(prov_params),
        returns=prov_returns,
        concept=prov_concept,
    )
    return required, provided


def enumerated_signatures() -> list[OperationSig]:
    """Every signature of arity 0-2 over three numeric types, two
    parameter concepts and optional defaults, under two op concepts one
    hop apart and two return types, plus four shapes of arity 3-4: 272
    signatures, so 73,984 ordered pairs."""
    types = (I32, I64, F64)
    c = {
        1: ConceptId(("data", "k", "pone")),
        2: ConceptId(("data", "k", "ptwo")),
        3: ConceptId(("data", "k", "pthree")),
        4: ConceptId(("data", "k", "pfour")),
    }

    def default_for(ty):
        if ty.kind == "f64":
            return Literal("float", 1.5)
        return Literal("int", 7)

    param_shapes: list[tuple] = [()]
    for ty in types:
        for tag in (1, 2):
            for with_default in (False, True):
                param_shapes.append(((ty, tag, with_default),))
    for ty1 in types:
        for ty2 in types:
            for tags in ((1, 2), (2, 1), (1, 1)):
                for with_default in (False, True):
                    param_shapes.append(
                        ((ty1, tags[0], False), (ty2, tags[1], with_default))
                    )

    sigs = []
    for concept in (ConceptId(("data", "k")), ConceptId(("data", "k", "sub"))):
        for returns in (I32, STRING):
            for shape in param_shapes:
                params = tuple(
                    ParamSig(
                        name=f"p{i}",
                        ty=ty,
                        concept=c[tag],
                        default=default_for(ty) if with_default else None,
                    )
                    for i, (ty, tag, with_default) in enumerate(shape)
                )
                sigs.append(OperationSig("f", params, returns, concept))
    # A handful of 3- and 4-parameter shapes to cover the stated bound.
    wide = [
        ((I32, 1), (I64, 2), (F64, 3)),
        ((F64, 1), (I32, 2), (I64, 3)),
        ((I32, 1), (I32, 2), (I64, 3), (F64, 4)),
        ((I64, 4), (F64, 3), (I32, 2), (I32, 1)),
    ]
    for shape in wide:
        params = tuple(
            ParamSig(name=f"p{i}", ty=ty, concept=c[tag])
            for i, (ty, tag) in enumerate(shape)
        )
        sigs.append(OperationSig("f", params, I32, ConceptId(("data", "k"))))
    return sigs
