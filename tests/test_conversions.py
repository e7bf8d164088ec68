from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from adapterforge.conversions import (
    ConversionRule,
    ConversionTable,
    DEFAULT_CONFIG,
    MatchConfig,
    TypePort,
    load_rules,
    parse_rules_text,
)
from adapterforge.speclang import F64, I32, I64, STRING, AdapterForgeError, ParseError, list_of


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
        "penalty rename \u0663",  # Unicode digits: int() would read 3
        "threshold 1/\u0663",
        "f64, ms, f64, s, unit_scale, \u0661, 1000",
        "f64, ms, f64, s, unit_scale, 1, \uff11\uff10",
        "threshold +1/2",
        "penalty rename 1_0/20",
    ],
)
def test_bad_rules_rejected(line):
    with pytest.raises(ParseError) as err:
        parse_rules_text(line + "\n")
    assert err.value.code == "E_SYNTAX"
    assert err.value.line == 1


def test_deep_list_nesting_in_rules_rejected():
    deep = "list<" * 1000 + "i32" + ">" * 1000
    with pytest.raises(ParseError) as err:
        parse_rules_text(f"i32, -, i64, -, widen, 1, 1\n{deep}, -, i64, -, widen, 1, 1\n")
    assert (err.value.code, err.value.line) == ("E_SYNTAX", 2)
    assert "list types nest deeper than 32" in err.value.message
    assert err.value.message.count("(line ") == 1  # the rules-file line only


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


_RULE_PIECES = [
    "i32", "i64", "f64", "bool", "string", "bytes", "unit", "list<", ">", "list<i32>",
    "ms", "s", "-", "widen", "narrow_checked", "unit_scale", "parse", "format", "wat",
    "0", "1", "20", "-1", "1/20", "1/0", "0/1", "3/2", "1e3", "1.5",
    "penalty", "threshold", "rename", "param_permutation", "type_conversion",
    "default_fill", "concept_distance", "#", ",", ", ", " ", "\t", "\n", "\r",
    "\u0663", "\u00b2", "\u00bd", "\u00e9", "\x0b", "\ufeff", "\u2028",
]
_rules_lines = st.lists(st.sampled_from(_RULE_PIECES), max_size=16).map("".join)
_rules_texts = st.lists(_rules_lines, max_size=4).map("\n".join) | st.text(max_size=80)


@given(text=_rules_texts)
@settings(max_examples=400, deadline=None)
def test_error_totality_on_arbitrary_rules_text(text: str):
    try:
        table, config = parse_rules_text(text)
    except AdapterForgeError:
        return
    assert isinstance(table, ConversionTable) and isinstance(config, MatchConfig)


@given(data=st.binary(max_size=80) | _rules_texts.map(lambda t: t.encode("utf-8", "surrogatepass")))
@settings(max_examples=200, deadline=None)
def test_error_totality_on_arbitrary_rules_bytes(tmp_path_factory, data: bytes):
    path = tmp_path_factory.mktemp("rules") / "f.rules"
    path.write_bytes(data)
    try:
        load_rules(path)
    except AdapterForgeError:
        pass


_TABLE_PORTS = [
    TypePort(ty, unit) for ty in (I32, I64, F64, list_of(I32)) for unit in (None, "ms", "s")
]
_OUTSIDE_PORTS = [TypePort(STRING), TypePort(F64, "h"), TypePort(list_of(I64), "ms")]
_RULES = [ConversionRule("WIDEN"), ConversionRule("PARSE"), ConversionRule("UNIT_SCALE", Fraction(1, 1000))]
_table_rows = st.lists(
    st.tuples(st.sampled_from(_TABLE_PORTS), st.sampled_from(_TABLE_PORTS), st.sampled_from(_RULES))
    .filter(lambda row: row[0] != row[1]),
    max_size=20,
)


@given(rows=_table_rows)
@settings(max_examples=300, deadline=None)
def test_rules_by_source_agree_with_entries_and_lookup(rows):
    table = ConversionTable()
    for frm, to, rule in rows:
        table.add(frm, to, rule)
    assert dict(table.entries) == {(frm, to): rule for frm, to, rule in rows}
    ports = [frm for frm, _, _ in rows] + [to for _, to, _ in rows] + _OUTSIDE_PORTS
    for frm in ports:
        for to in ports:
            rule = table.lookup(frm, to)
            assert rule == table.entries.get((frm, to))
            bridged = (to.ty, to.unit) in table.rules.get((frm.ty, frm.unit), {})
            assert bridged == (rule is not None)


def test_one_store_of_rules():
    """`rules` is the only store: `entries` is a read-only mapping of
    it, and ports are tuples, so plain `(ty, unit)` pairs are keys."""
    widen, i32, i64 = ConversionRule("WIDEN"), TypePort(I32), TypePort(I64)
    assert TypePort(I32, "ms") == (I32, "ms") and hash(TypePort(I32, "ms")) == hash((I32, "ms"))
    assert str(TypePort(I32, "ms")) == "i32@ms" and str(i32) == "i32"

    table = ConversionTable()
    with pytest.raises(TypeError):
        table.entries[(i32, i64)] = widen  # type: ignore[index]
    assert table.lookup(i32, i64) is None and table.entries == {}
    table.add(i32, i64, widen)
    assert dict(table.entries) == {(i32, i64): widen}
    assert table.rules == {(I32, None): {(I64, None): widen}}
    assert table == ConversionTable(rules={i32: {i64: widen}})
    assert repr(table) == f"ConversionTable(rules={table.rules!r})"
    for copied in (copy.deepcopy(table), pickle.loads(pickle.dumps(table))):
        assert copied == table and copied.lookup(i32, i64) == widen
        assert copied.rules is not table.rules
