from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

import strategies
from genspecs import adaptable_pair
from oracles import oracle_best_score
from testutil import component, concept, op, param
from adapterforge.analyser import (
    ADAPTABLE,
    EXACT,
    INCOMPATIBLE,
    Demand,
    Mismatch,
    analyse,
    match_operation,
    score_mismatches,
    shape_of,
    verify,
)
from adapterforge.conversions import (
    CONCEPT_DISTANCE,
    DEFAULT_CONFIG,
    DEFAULT_FILL,
    MISSING_OPERATION,
    PARAM_PERMUTATION,
    RENAME,
    TYPE_CONVERSION,
    ConversionTable,
    MatchConfig,
    load_rules,
)
from adapterforge.speclang import (
    BOOL,
    BYTES,
    F64,
    I32,
    I64,
    PROVIDED,
    REQUIRED,
    STRING,
    UNIT,
    AdapterForgeError,
    Connection,
    InterfaceSpec,
    Literal,
    UseDecl,
    list_of,
    parse_component,
    parse_project,
)

EMPTY = ConversionTable()


@pytest.fixture(scope="module")
def rules(corpus_dir_module: Path):
    return load_rules(corpus_dir_module / "conversions.rules")


@pytest.fixture(scope="module")
def corpus_dir_module() -> Path:
    return Path(__file__).parent / "corpus"


def test_identical_signatures_exact():
    sig = op("sort", (param("items", list_of(I32)),), list_of(I32), "data.sorting.sort")
    match = match_operation(sig, sig, EMPTY)
    assert match is not None
    assert match.mismatches == ()
    assert match.score == 1


def test_rename_plus_default_fill():
    required = op(
        "sortAsc", (param("items", list_of(I32)),), list_of(I32), "data.sorting.sort"
    )
    provided = op(
        "sort",
        (
            param("items", list_of(I32)),
            param("ascending", BOOL, default=Literal("bool", True)),
        ),
        list_of(I32),
        "data.sorting.sort",
    )
    match = match_operation(required, provided, EMPTY)
    assert match is not None
    assert [m.kind for m in match.mismatches] == [RENAME, DEFAULT_FILL]
    # Expected score recomputed from the penalty table.
    expected = 1 - (DEFAULT_CONFIG.rename_penalty + DEFAULT_CONFIG.fill_penalty)
    assert match.score == expected == Fraction(17, 20)
    assert oracle_best_score(required, provided, EMPTY, DEFAULT_CONFIG) == expected


def test_swapped_params_with_unit_scale(rules):
    conv, config = rules
    required = op(
        "schedule",
        (
            param("a", F64, "infra.timer.delay", unit="ms"),
            param("b", BOOL, "infra.timer.repeat"),
        ),
        UNIT,
        "infra.timer.schedule",
    )
    provided = op(
        "schedule",
        (
            param("b", BOOL, "infra.timer.repeat"),
            param("a", F64, "infra.timer.delay", unit="s"),
        ),
        UNIT,
        "infra.timer.schedule",
    )
    match = match_operation(required, provided, conv, config)
    assert match is not None
    kinds = [m.kind for m in match.mismatches]
    assert kinds == [PARAM_PERMUTATION, TYPE_CONVERSION]
    permutation = match.mismatches[0]
    assert permutation.order == (1, 0)
    conversion = match.mismatches[1]
    assert conversion.slot == 1
    assert conversion.rule is not None and conversion.rule.kind == "UNIT_SCALE"
    assert conversion.rule.factor == Fraction(1, 1000)
    assert match.score == Fraction(17, 20)
    # Brute force confirms this is the unique best alignment's score.
    assert oracle_best_score(required, provided, conv, config) == match.score


def test_concept_distance_hops():
    near = op("f", (), UNIT, "data.sort")
    farther = op("g", (), UNIT, "data.sort.asc.fast")
    match = match_operation(near, farther, EMPTY)
    assert match is not None
    hops = [m for m in match.mismatches if m.kind == CONCEPT_DISTANCE]
    assert len(hops) == 1 and hops[0].hops == 2
    assert match.score == 1 - 2 * DEFAULT_CONFIG.concept_hop_penalty - DEFAULT_CONFIG.rename_penalty


def test_unrelated_concepts_never_match():
    a = op("f", (), UNIT, "data.sorting")
    b = op("f", (), UNIT, "data.searching")
    assert match_operation(a, b, EMPTY) is None


def test_below_threshold_is_no_match():
    a = op("f", (), UNIT, "a")
    six_hops = op("f", (), UNIT, "a.b.c.d.e.f.g")
    assert match_operation(a, six_hops, EMPTY) is None
    five_hops = op("f", (), UNIT, "a.b.c.d.e.f")
    match = match_operation(a, five_hops, EMPTY)
    assert match is not None and match.score == Fraction(1, 2)


def test_return_conversion(rules):
    conv, config = rules
    required = op("f", (), STRING, "a.b")
    provided = op("f", (), I64, "a.b")
    match = match_operation(required, provided, conv, config)
    assert match is not None
    assert [m.kind for m in match.mismatches] == [TYPE_CONVERSION]
    assert match.mismatches[0].slot == -1
    assert match.mismatches[0].rule.kind == "FORMAT"
    # Direction is provider result -> consumer expectation.
    assert str(match.mismatches[0].from_port) == "i64"
    assert str(match.mismatches[0].to_port) == "string"


def test_unconvertible_param_is_no_match():
    required = op("f", (param("x", BYTES, "a.b.x"),), UNIT, "a.b")
    provided = op("f", (param("y", I32, "a.b.x"),), UNIT, "a.b")
    assert match_operation(required, provided, EMPTY) is None


def test_cross_type_grouping_prefers_valid_assignment():
    # Same concept on two params of different types: only the crossed
    # placement avoids conversions entirely.
    required = op(
        "f",
        (param("x", I32, "a.b.k"), param("y", F64, "a.b.k")),
        UNIT,
        "a.b",
    )
    provided = op(
        "f",
        (param("u", F64, "a.b.k"), param("v", I32, "a.b.k")),
        UNIT,
        "a.b",
    )
    match = match_operation(required, provided, EMPTY)
    assert match is not None
    assert [m.kind for m in match.mismatches] == [PARAM_PERMUTATION]
    assert match.score == 1 - DEFAULT_CONFIG.permutation_penalty
    assert oracle_best_score(required, provided, EMPTY, DEFAULT_CONFIG) == match.score


@given(sig=strategies.operation_sigs("anyop"))
@settings(max_examples=120)
def test_symmetric_exactness(sig):
    match = match_operation(sig, sig, EMPTY)
    assert match is not None
    assert match.score == 1
    assert match.mismatches == ()


def test_score_monotonicity():
    base = (
        Mismatch(RENAME, renamed_from="a", renamed_to="b"),
        Mismatch(TYPE_CONVERSION, slot=0),
    )
    extended_by = {
        RENAME: Mismatch(RENAME, renamed_from="c", renamed_to="d"),
        PARAM_PERMUTATION: Mismatch(PARAM_PERMUTATION, order=(1, 0)),
        TYPE_CONVERSION: Mismatch(TYPE_CONVERSION, slot=1),
        DEFAULT_FILL: Mismatch(DEFAULT_FILL, slot=2),
        CONCEPT_DISTANCE: Mismatch(CONCEPT_DISTANCE, hops=1, concept=concept("a.b")),
    }
    for kind, extra in extended_by.items():
        before = score_mismatches(base, DEFAULT_CONFIG)
        after = score_mismatches(base + (extra,), DEFAULT_CONFIG)
        assert before - after == DEFAULT_CONFIG.penalty(kind, extra.hops or 1)


def _sample_space():
    """Small signature space for the sampled oracle-agreement test."""
    from itertools import product

    types = (I32, I64, F64)
    concepts = ("data.k.one", "data.k.two")
    sigs = []
    for arity in (0, 1, 2):
        for tys in product(types, repeat=arity):
            for cs in product(concepts, repeat=arity):
                params = tuple(
                    param(f"p{i}", ty, cs[i]) for i, ty in enumerate(tys)
                )
                sigs.append(op("f", params, I32, "data.k"))
    return sigs


def test_oracle_agreement_sampled(rules):
    conv, config = rules
    sigs = _sample_space()
    checked = disagreements = 0
    for required in sigs[::2]:
        for provided in sigs[::3]:
            checked += 1
            fast = match_operation(required, provided, conv, config)
            slow = oracle_best_score(required, provided, conv, config)
            if (fast is None) != (slow is None):
                disagreements += 1
            elif fast is not None and fast.score != slow:
                disagreements += 1
    assert checked > 200
    assert disagreements == 0


def _load_case(corpus: Path, names: list[str], project_name: str):
    components = [
        parse_component((corpus / n).read_text()) for n in names
    ]
    project = parse_project((corpus / project_name).read_text())
    return project, components


def test_exact_corpus_connection(corpus_dir_module, rules):
    conv, config = rules
    project, components = _load_case(
        corpus_dir_module / "exact", ["archiver.cdl", "hashlibx.cdl"], "exactpair.pdl"
    )
    report = analyse(project, components, conv, config)
    assert [v.status for v in report.verdicts] == [EXACT]
    assert report.verdicts[0].score == 1
    assert report.verdicts[0].mismatches == ()
    assert report.demand == ()
    assert verify(project, components, conv, config)


def test_figure3_scenario_is_adaptable(corpus_dir_module, rules):
    # Components that cooperate on meaning but differ in interface
    # shape: the analyser must classify, not reject.
    conv, config = rules
    project, components = _load_case(
        corpus_dir_module / "figure3", ["reportgen.cdl", "sortkit.cdl"], "figure3.pdl"
    )
    report = analyse(project, components, conv, config)
    assert [v.status for v in report.verdicts] == [ADAPTABLE]
    verdict = report.verdicts[0]
    assert len(verdict.mismatches) > 0
    assert verdict.score == Fraction(17, 20)
    assert not verify(project, components, conv, config)


def test_missing_concept_yields_demand(corpus_dir_module, rules):
    conv, config = rules
    project, components = _load_case(
        corpus_dir_module / "missing", ["notary.cdl"], "wantsign.pdl"
    )
    report = analyse(project, components, conv, config)
    assert report.verdicts == ()
    assert [str(d.concept) for d in report.demand] == ["data.crypto.sign"]
    assert report.demand[0].origin == "project"
    assert report.demand[0].shape is None


def test_missing_operation_demand_carries_shape(rules):
    conv, config = rules
    consumer = parse_component(
        'component "c" version "1.0.0" {\n'
        "  requires interface I {\n"
        "    op sign(payload: bytes) -> bytes @concept data.crypto.sign\n"
        "    op digest(data: bytes) -> string @concept data.crypto.digest\n"
        "  }\n"
        "}"
    )
    provider = parse_component(
        'component "p" version "1.0.0" {\n'
        "  provides interface J {\n"
        "    op digest(data: bytes) -> string @concept data.crypto.digest\n"
        "  }\n"
        "}"
    )
    project = parse_project(
        'project "x" {\n  uses "c" *\n  uses "p" *\n  connect c.requires.I -> p.provides.J\n}'
    )
    report = analyse(project, [consumer, provider], conv, config)
    verdict = report.verdicts[0]
    assert verdict.status == INCOMPATIBLE
    assert any(m.kind == "MISSING_OPERATION" for m in verdict.mismatches)
    assert len(report.demand) == 1
    demand = report.demand[0]
    assert str(demand.concept) == "data.crypto.sign"
    assert demand.shape is not None
    assert demand.shape.returns == BYTES
    sign_op = consumer.required[0].operation("sign")
    assert demand.shape == shape_of(sign_op)


def test_tie_break_prefers_fewer_mismatches_then_name():
    make = lambda name: op(name, (param("x", I32),), I32, "a.b")
    required = make("f")
    iface_renames_only = InterfaceSpec("I", "provided", (make("zeta"), make("alpha")))
    from adapterforge.analyser import _best_candidate

    best = _best_candidate(required, iface_renames_only, EMPTY, DEFAULT_CONFIG)
    assert best is not None and best.provided_name == "alpha"

    iface_with_exact = InterfaceSpec("I", "provided", (make("zeta"), make("f")))
    best = _best_candidate(required, iface_with_exact, EMPTY, DEFAULT_CONFIG)
    assert best is not None and best.provided_name == "f"
    assert best.mismatches == ()


def test_analyse_deterministic(corpus_dir_module, rules):
    conv, config = rules
    project, components = _load_case(
        corpus_dir_module / "figure3", ["reportgen.cdl", "sortkit.cdl"], "figure3.pdl"
    )
    a = analyse(project, components, conv, config)
    b = analyse(project, components, conv, config)
    assert a == b


def test_unresolved_interface(rules):
    conv, config = rules
    consumer = parse_component('component "c" version "1.0.0" { }')
    provider = parse_component('component "p" version "1.0.0" { }')
    project = parse_project(
        'project "x" {\n  uses "c" *\n  uses "p" *\n  connect c.requires.I -> p.provides.J\n}'
    )
    with pytest.raises(AdapterForgeError) as err:
        analyse(project, [consumer, provider], conv, config)
    assert err.value.code == "E_UNRESOLVED"


_penalties = st.fractions(min_value=0, max_value=1, max_denominator=20)
_match_configs = st.builds(
    MatchConfig,
    rename_penalty=_penalties,
    permutation_penalty=_penalties,
    conversion_penalty=_penalties,
    fill_penalty=_penalties,
    concept_hop_penalty=_penalties,
    threshold=_penalties,
)


@given(
    config=_match_configs,
    seed=st.integers(0, 2**32 - 1),
    wanted=strategies.interface_specs("Wanted", REQUIRED),
    extra=strategies.interface_specs("Offered", PROVIDED),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_verdicts_and_connection_demand_under_random_configs(
    rules, config, seed, wanted, extra, data
):
    """A verdict is INCOMPATIBLE exactly when it has a MISSING_OPERATION,
    an ADAPTABLE score reaches the threshold, and the demands a
    connection originates are its missing ops in interface order."""
    conv, _ = rules
    # One connection built adaptable under the default config, and one
    # whose provider offers some of a random consumer's ops verbatim
    # beside random ones.
    consumer, provider, project = adaptable_pair(random.Random(seed))
    kept = tuple(o for o in wanted.operations if data.draw(st.booleans()))
    names = {o.name for o in kept}
    others = tuple(o for o in extra.operations if o.name not in names)
    offered = replace(extra, operations=kept + others)
    wild_consumer = component("wildneed", required=(wanted,))
    wild_provider = component("wildhave", provided=(offered,))
    project = replace(
        project,
        uses=project.uses + (UseDecl("wildneed"), UseDecl("wildhave")),
        connections=project.connections
        + (Connection("wildneed", "Wanted", "wildhave", "Offered"),),
    )
    components = {c.name: c for c in (consumer, provider, wild_consumer, wild_provider)}
    report = analyse(project, list(components.values()), conv, config)
    for verdict in report.verdicts:
        conn = verdict.connection
        missing = [m.location[1] for m in verdict.mismatches if m.kind == MISSING_OPERATION]
        assert (verdict.status == INCOMPATIBLE) == bool(missing)
        if verdict.status == ADAPTABLE:
            assert verdict.score >= config.threshold
        iface = components[conn.consumer_component].interface(REQUIRED, conn.consumer_interface)
        unmet = [o for o in iface.operations if o.name in missing]
        assert [o.name for o in unmet] == missing
        label = conn.label()
        assert [d for d in report.demand if d.origin == label] == [
            Demand(o.concept, shape_of(o), label) for o in unmet
        ]


def test_duplicate_op_names_demand_only_the_op_with_no_candidate():
    """Two required ops of one name cannot come from a spec (the parser
    gives E_DUP_NAME, pool admission refuses them), but an interface
    built in code may hold them: only the unmatched one is demand."""
    served = op("f", (param("x", I32),), I32, "a.b")
    unserved = op("f", (param("x", I32),), I32, "c.d")
    consumer = component("c", required=(InterfaceSpec("I", REQUIRED, (served, unserved)),))
    provider = component("p", provided=(InterfaceSpec("J", PROVIDED, (served,)),))
    project = parse_project(
        'project "x" {\n  uses "c" *\n  uses "p" *\n  connect c.requires.I -> p.provides.J\n}'
    )
    report = analyse(project, [consumer, provider], EMPTY, DEFAULT_CONFIG)
    (verdict,) = report.verdicts
    assert verdict.status == INCOMPATIBLE
    label = verdict.connection.label()
    assert report.demand == (Demand(unserved.concept, shape_of(unserved), label),)
