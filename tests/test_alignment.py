"""The polynomial-time matcher against the enumerating alignment oracle.

`match_operation` must return the very `OperationMatch` the oracle
picks, mismatch tuples included, since adapter names, descriptors and
goldens depend on the chosen alignment and not only on its score. The
tie configurations make the `slot_key` tie-break decide between
alignments of equal score and mismatch count.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import genspecs
from oracles import oracle_best_alignment
from testutil import op, param
from adapterforge import canonjson
from adapterforge.analyser import ADAPTABLE, match_operation
from adapterforge.cli import main
from adapterforge.conversions import (
    DEFAULT_FILL,
    PARAM_PERMUTATION,
    TYPE_CONVERSION,
    load_rules,
)
from adapterforge.report import match_report_from_json
from adapterforge.speclang import (
    BOOL,
    BYTES,
    F64,
    I32,
    I64,
    STRING,
    ComponentSpec,
    ConceptId,
    Connection,
    InterfaceSpec,
    Literal,
    OperationSig,
    ParamSig,
    ProjectSpec,
    UseDecl,
    list_of,
    serialize,
)

RULES = Path(__file__).parent / "corpus" / "conversions.rules"
CONV, DEFAULT = load_rules(RULES)
CONFIGS = {
    "default": DEFAULT,
    # A permuted alignment and an in-order one with one more
    # conversion tie on score and mismatch count.
    "permutation==conversion": replace(DEFAULT, permutation_penalty=DEFAULT.conversion_penalty),
    # Conversions are free: the mismatch count, then slot_key, decides.
    "conversion==0": replace(DEFAULT, conversion_penalty=Fraction(0)),
    "all-zero": replace(
        DEFAULT,
        rename_penalty=Fraction(0),
        permutation_penalty=Fraction(0),
        conversion_penalty=Fraction(0),
        fill_penalty=Fraction(0),
        concept_hop_penalty=Fraction(0),
    ),
}


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_enumerated_pairs_match_oracle(config_name):
    config = CONFIGS[config_name]
    sigs = genspecs.enumerated_signatures()
    disagreements = [
        (required, provided)
        for required, provided in itertools.product(sigs, sigs)
        if match_operation(required, provided, CONV, config)
        != oracle_best_alignment(required, provided, CONV, config)
    ]
    assert len(sigs) ** 2 == 73_984
    assert disagreements == []


# Few ports, weighted towards two that convert into each other, and at
# most two shared concepts: groups run large and hold equal ports (ties
# that slot_key settles), bridgeable ports and ports nothing bridges.
_PORTS = [
    (I32, None), (I32, None), (I64, None), (I64, None), (STRING, None), (F64, "ms"), (F64, "s")
]
_GROUPS = [ConceptId(("g", "one")), ConceptId(("g", "two"))]
_DEFAULTS = {
    "i32": Literal("int", 7),
    "i64": Literal("int", 8),
    "f64": Literal("float", 1.5),
    "string": Literal("string", "x"),
}


@st.composite
def op_pairs(draw) -> tuple[OperationSig, OperationSig]:
    """A provider op of arity <= 7 and a consumer op taking a subset of
    its params in any order, some with another port or concept."""
    groups = _GROUPS[: draw(st.integers(1, 2))]
    m = draw(st.integers(0, 7))
    provided_params = []
    for j in range(m):
        ty, unit = draw(st.sampled_from(_PORTS))
        default = _DEFAULTS[ty.kind] if draw(st.booleans()) else None
        # Unannotated params get a concept synthesized from their name.
        concept = draw(st.sampled_from(groups + [None]))
        provided_params.append(
            ParamSig(f"p{j}", ty, concept=concept, unit=unit, default=default)
        )
    taken = draw(st.permutations(range(m)))[: draw(st.integers(0, m))]
    required_params = []
    for j in taken:
        source = provided_params[j]
        if draw(st.integers(0, 3)) == 0:
            ty, unit = draw(st.sampled_from(_PORTS))
            source = replace(source, ty=ty, unit=unit)
        if draw(st.integers(0, 7)) == 0:
            source = replace(source, concept=draw(st.sampled_from(groups)))
        required_params.append(replace(source, default=None))
    returns = draw(st.sampled_from([I32, I64, STRING]))
    required = OperationSig("f", tuple(required_params), returns, ConceptId(("data", "k")))
    provided = OperationSig(
        draw(st.sampled_from(["f", "g"])),
        tuple(provided_params),
        draw(st.sampled_from([returns, I32, I64])),
        draw(st.sampled_from([ConceptId(("data", "k")), ConceptId(("data", "k", "sub"))])),
    )
    return required, provided


@given(pair=op_pairs(), config_name=st.sampled_from(sorted(CONFIGS)))
@settings(max_examples=1000, deadline=None)
def test_random_pairs_match_oracle(pair, config_name):
    required, provided = pair
    config = CONFIGS[config_name]
    assert match_operation(required, provided, CONV, config) == oracle_best_alignment(
        required, provided, CONV, config
    )


def test_equal_keys_fall_to_slot_key():
    # Either the permuted placement (x -> slot 2, y -> slot 1) or the
    # in-order one converting x to string in slot 0.
    required = op("f", (param("x", I64, "g.one"), param("y", I32, "g.one")), I32, "data.k")
    provided = op(
        "f",
        (
            param("s", STRING, "g.one", default=Literal("string", "x")),
            param("i", I32, "g.one"),
            param("l", I64, "g.one", default=Literal("int", 8)),
        ),
        I32,
        "data.k",
    )
    # The permutation is cheaper than a conversion: it wins on score.
    match = match_operation(required, provided, CONV, DEFAULT)
    assert [(m.kind, m.slot, m.order) for m in match.mismatches] == [
        (PARAM_PERMUTATION, None, (1, 0)),
        (DEFAULT_FILL, 0, None),
    ]
    # Equal penalties tie on score and mismatch count; slot_key (x, y,
    # fill) beats (fill, y, x).
    tied = CONFIGS["permutation==conversion"]
    match = match_operation(required, provided, CONV, tied)
    assert [(m.kind, m.slot) for m in match.mismatches] == [
        (TYPE_CONVERSION, 0),
        (DEFAULT_FILL, 2),
    ]
    assert match == oracle_best_alignment(required, provided, CONV, tied)


def _rotated_single_group(n: int) -> tuple[OperationSig, OperationSig, tuple[int, ...]]:
    """n params of pairwise-distinct types sharing one explicit concept;
    the consumer lists them rotated by one. Returns the pair and the
    consumer index each provider slot takes."""
    scalars = [I32, I64, F64, BOOL, STRING, BYTES]
    types = scalars + [list_of(t) for t in scalars] + [list_of(list_of(t)) for t in scalars]
    provided = op(
        "f", tuple(param(f"p{j}", types[j], "wide.grp") for j in range(n)), I32, "wide.act"
    )
    rotated = list(range(1, n)) + [0]
    required = op("f", tuple(provided.params[j] for j in rotated), I32, "wide.act")
    order = tuple(rotated.index(j) for j in range(n))
    return required, provided, order


def test_arity_16_recovers_the_constructed_permutation():
    required, provided, order = _rotated_single_group(16)
    started = time.perf_counter()
    match = match_operation(required, provided, CONV, DEFAULT)
    elapsed = time.perf_counter() - started
    assert match is not None
    assert [(m.kind, m.order) for m in match.mismatches] == [(PARAM_PERMUTATION, order)]
    assert match.score == 1 - DEFAULT.permutation_penalty
    assert elapsed < 1.0  # enumeration would try 16! placements


def test_check_of_a_12_param_op_finishes(capsys, tmp_path):
    required, provided, _ = _rotated_single_group(12)
    consumer = ComponentSpec(
        "wants", (1, 0, 0), required=(InterfaceSpec("Need", "required", (required,)),)
    )
    provider = ComponentSpec(
        "has", (1, 0, 0), provided=(InterfaceSpec("Give", "provided", (provided,)),)
    )
    project = ProjectSpec(
        "wide12",
        uses=(UseDecl("wants"), UseDecl("has")),
        connections=(Connection("wants", "Need", "has", "Give"),),
    )
    for name, spec in (("wants.cdl", consumer), ("has.cdl", provider), ("wide12.pdl", project)):
        (tmp_path / name).write_text(serialize(spec))

    started = time.perf_counter()
    code = main(["check", str(tmp_path / "wide12.pdl"), "--format", "structured"])
    elapsed = time.perf_counter() - started
    report = match_report_from_json(canonjson.loads(capsys.readouterr().out))
    assert code == 1
    [verdict] = report.verdicts
    assert verdict.status == ADAPTABLE
    assert verdict.score == 1 - DEFAULT.permutation_penalty
    assert elapsed < 2.0  # enumeration would try 12! placements
