from __future__ import annotations

from fractions import Fraction

import pytest

from adapterforge.conversions import (
    ConversionRule,
    ConversionTable,
    DEFAULT_CONFIG,
    MatchConfig,
    TypePort,
    parse_rules_text,
)
from adapterforge.speclang import F64, I32, I64, ParseError, list_of


def test_load_corpus_rules_table(corpus_dir):
    table, config = parse_rules_text((corpus_dir / "conversions.rules").read_text())
    assert len(table.entries) == 6
    rule = table.lookup(TypePort(F64, "ms"), TypePort(F64, "s"))
    assert rule is not None
    assert rule.kind == "UNIT_SCALE" and rule.factor == Fraction(1, 1000)
    assert table.lookup(TypePort(I32), TypePort(I64)).kind == "WIDEN"
    # Directional: no implicit inverse.
    assert table.lookup(TypePort(F64, "s"), TypePort(F64, "ms")) is None
    assert config == DEFAULT_CONFIG


def test_comments_and_blank_lines_ignored():
    table, _ = parse_rules_text("# comment\n\n  \ni32, -, i64, -, widen, 1, 1\n")
    assert len(table.entries) == 1


def test_list_types_in_rules():
    table, _ = parse_rules_text("list<i32>, -, list<i64>, -, widen, 1, 1\n")
    assert table.lookup(TypePort(list_of(I32)), TypePort(list_of(I64))) is not None


def test_penalty_and_threshold_directives():
    text = (
        "penalty default_fill 1/4\n"
        "penalty concept_distance 1/5\n"
        "threshold 3/5\n"
        "i32, -, i64, -, widen, 1, 1\n"
    )
    _, config = parse_rules_text(text)
    assert config.fill_penalty == Fraction(1, 4)
    assert config.concept_hop_penalty == Fraction(1, 5)
    assert config.threshold == Fraction(3, 5)
    assert config.conversion_penalty == DEFAULT_CONFIG.conversion_penalty


@pytest.mark.parametrize(
    "line",
    [
        "i32, -, i32, -, widen, 1, 1",  # identity entry
        "i32, -, i64, -, wat, 1, 1",  # unknown rule
        "i32, -, i64, -, widen, 1",  # wrong field count
        "f64, ms, f64, s, unit_scale, 1, 0",  # zero denominator
        "f64, ms, f64, s, unit_scale, 0, 1",  # zero factor
        "nonsense words here",  # not a directive either
        "penalty bogus 1/2",
    ],
)
def test_bad_rules_rejected(line):
    with pytest.raises(ParseError) as err:
        parse_rules_text(line + "\n")
    assert err.value.code == "E_SYNTAX"
    assert err.value.line == 1


def test_rule_invariants_in_constructor():
    with pytest.raises(ValueError):
        ConversionRule("UNIT_SCALE", Fraction(0))
    with pytest.raises(ValueError):
        ConversionRule("WIDEN", Fraction(1, 2))
    table = ConversionTable()
    with pytest.raises(ValueError):
        table.add(TypePort(I32), TypePort(I32), ConversionRule("WIDEN"))


@pytest.mark.parametrize(
    "directive",
    [
        "penalty rename -1/20",
        "penalty param_permutation -1/20",
        "penalty type_conversion -1",
        "penalty default_fill -3/20",
        "penalty concept_distance -1/10",
        "threshold -1/2",
        "threshold 3/2",
    ],
)
def test_out_of_range_scoring_constants_rejected(directive):
    with pytest.raises(ParseError) as err:
        parse_rules_text("i32, -, i64, -, widen, 1, 1\n# scoring\n" + directive + "\n")
    assert err.value.code == "E_SYNTAX"
    assert err.value.line == 3


def test_scoring_constant_bounds_accepted():
    kinds = ("rename", "param_permutation", "type_conversion", "default_fill", "concept_distance")
    text = "".join(f"penalty {kind} 0\n" for kind in kinds)
    _, config = parse_rules_text(text + "threshold 0\n")
    assert config == MatchConfig(*[Fraction(0)] * 6)
    _, config = parse_rules_text("threshold 1\n")
    assert config.threshold == 1


@pytest.mark.parametrize(
    "overrides",
    [
        {"rename_penalty": Fraction(-1, 20)},
        {"permutation_penalty": Fraction(-1, 20)},
        {"conversion_penalty": Fraction(-1, 10)},
        {"fill_penalty": Fraction(-3, 20)},
        {"concept_hop_penalty": Fraction(-1, 10)},
        {"threshold": Fraction(-1, 2)},
        {"threshold": Fraction(11, 10)},
    ],
)
def test_match_config_range_checked(overrides):
    with pytest.raises(ValueError):
        MatchConfig(**overrides)
