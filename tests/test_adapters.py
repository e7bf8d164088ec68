from __future__ import annotations

import dataclasses
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import genspecs
from adapterforge import canonjson
from adapterforge.adapters import (
    CONVERT,
    FILL,
    TAKE,
    AdapterSpec,
    OpMapping,
    ReturnAction,
    SlotAction,
    apply_rule,
    check_adapter,
    emit_descriptor,
    generate_adapter,
    interpret_mapping,
    parse_descriptor,
)
from adapterforge.analyser import ADAPTABLE, EXACT, analyse
from adapterforge.conversions import ConversionRule, ConversionTable, TypePort, load_rules
from adapterforge.speclang import (
    BOOL,
    F64,
    I32,
    I64,
    STRING,
    Literal,
    parse_component,
    parse_project,
    serialize,
    validate,
)
from adapterforge.pool import init_pool, pool_add
from adapterforge.speclang.errors import AdapterForgeError

CORPUS = Path(__file__).parent / "corpus"
GOLDEN = Path(__file__).parent / "golden"


def analyse_case(case: str, components: list[str], project_file: str):
    conv, config = load_rules(CORPUS / "conversions.rules")
    specs = [parse_component((CORPUS / case / n).read_text()) for n in components]
    project = parse_project((CORPUS / case / project_file).read_text())
    report = analyse(project, specs, conv, config)
    return report, specs, project


@pytest.fixture(scope="module")
def figure3_adapter():
    report, (consumer, provider), project = analyse_case(
        "figure3", ["reportgen.cdl", "sortkit.cdl"], "figure3.pdl"
    )
    verdict = report.verdicts[0]
    return generate_adapter(verdict, consumer, provider, project.name), verdict


@pytest.fixture(scope="module")
def units_adapter():
    report, (consumer, provider), project = analyse_case(
        "units", ["uiapp.cdl", "cron.cdl"], "unitsync.pdl"
    )
    return generate_adapter(report.verdicts[0], consumer, provider, project.name)


def test_not_adaptable_rejected():
    report, (consumer, provider), project = analyse_case(
        "exact", ["archiver.cdl", "hashlibx.cdl"], "exactpair.pdl"
    )
    assert report.verdicts[0].status == EXACT
    with pytest.raises(AdapterForgeError) as err:
        generate_adapter(report.verdicts[0], consumer, provider, project.name)
    assert err.value.code == "E_NOT_ADAPTABLE"


def test_rename_only_mapping_is_pure_delegation():
    conv = ConversionTable()
    consumer = parse_component(
        'component "c" version "1.0.0" {\n'
        "  requires interface I {\n"
        "    op fetchAll(limit: i32) -> string @concept data.store.fetch\n"
        "  }\n"
        "}"
    )
    provider = parse_component(
        'component "p" version "1.0.0" {\n'
        "  provides interface J {\n"
        "    op fetch(limit: i32) -> string @concept data.store.fetch\n"
        "  }\n"
        "}"
    )
    project = parse_project(
        'project "x" {\n  uses "c" *\n  uses "p" *\n  connect c.requires.I -> p.provides.J\n}'
    )
    report = analyse(project, [consumer, provider], conv)
    adapter = generate_adapter(report.verdicts[0], consumer, provider, "x")
    assert len(adapter.mappings) == 1
    mapping = adapter.mappings[0]
    assert [a.kind for a in mapping.slots] == [TAKE]
    assert [a.index for a in mapping.slots] == [0]
    assert mapping.return_action.is_pass


def test_figure3_mapping_slots(figure3_adapter):
    adapter, verdict = figure3_adapter
    assert verdict.status == ADAPTABLE
    (mapping,) = adapter.mappings
    assert mapping.from_op == "sortAscending"
    assert mapping.to_op == "sort"
    assert [a.kind for a in mapping.slots] == [TAKE, FILL]
    assert mapping.slots[0].index == 0
    assert mapping.slots[1].fill == Literal("bool", True)
    assert mapping.return_action.is_pass


def test_figure3_mapping_executes_real_sort(figure3_adapter):
    adapter, _ = figure3_adapter
    (mapping,) = adapter.mappings

    def sort_provider(items, ascending):
        return sorted(items, reverse=not ascending)

    assert interpret_mapping(mapping, [[3, 1, 2]], sort_provider) == [1, 2, 3]


def test_units_mapping_slots(units_adapter):
    (mapping,) = units_adapter.mappings
    assert [a.kind for a in mapping.slots] == [TAKE, CONVERT]
    assert mapping.slots[0].index == 1
    assert mapping.slots[1].index == 0
    assert mapping.slots[1].rule.kind == "UNIT_SCALE"
    assert mapping.slots[1].rule.factor == Fraction(1, 1000)


def test_units_mapping_executes(units_adapter):
    (mapping,) = units_adapter.mappings
    calls = []

    def scheduler(repeat, delay_s):
        calls.append((repeat, delay_s))

    interpret_mapping(mapping, [1500.0, True], scheduler)
    assert calls == [(True, 1.5)]


def test_adapter_name_shape(figure3_adapter):
    adapter, _ = figure3_adapter
    assert adapter.name.startswith("adapt_reportgen_sortkit_")
    suffix = adapter.name.rsplit("_", 1)[1]
    assert len(suffix) == 8 and all(c in "0123456789abcdef" for c in suffix)


def test_adapter_component_form_validates(figure3_adapter):
    adapter, _ = figure3_adapter
    component = adapter.to_component_spec()
    assert validate(component) == []
    # And it survives the spec-language round trip.
    from adapterforge.speclang import parse_component as reparse

    assert reparse(serialize(component)) == component


def test_descriptor_deterministic_and_roundtrips(figure3_adapter):
    adapter, _ = figure3_adapter
    first = emit_descriptor(adapter)
    second = emit_descriptor(adapter)
    assert first == second
    assert parse_descriptor(first) == adapter


def test_descriptor_golden(figure3_adapter):
    adapter, _ = figure3_adapter
    expected = (GOLDEN / "figure3.adapter").read_text()
    assert emit_descriptor(adapter) == expected


def test_interpret_identity_echo():
    mapping = OpMapping("f", "g", (SlotAction(TAKE, index=0),))
    assert interpret_mapping(mapping, [7], lambda x: x) == 7


def test_interpret_narrow_out_of_range():
    rule = ConversionRule("NARROW_CHECKED")
    mapping = OpMapping(
        "f",
        "g",
        (SlotAction(CONVERT, index=0, rule=rule, from_port=TypePort(I64), to_port=TypePort(I32)),),
    )
    with pytest.raises(AdapterForgeError) as err:
        interpret_mapping(mapping, [2**40], lambda x: x)
    assert err.value.code == "E_NARROW"
    assert interpret_mapping(mapping, [1234], lambda x: x) == 1234


def test_interpret_return_conversion():
    rule = ConversionRule("FORMAT")
    mapping = OpMapping(
        "f",
        "g",
        (SlotAction(TAKE, index=0),),
        return_action=ReturnAction(rule, TypePort(I64), TypePort(BOOL)),
    )
    assert interpret_mapping(mapping, [41], lambda x: x + 1) == "42"


def test_mapping_rejects_dropped_inputs():
    with pytest.raises(ValueError):
        OpMapping("f", "g", (SlotAction(TAKE, index=1),))
    with pytest.raises(ValueError):
        OpMapping(
            "f",
            "g",
            (SlotAction(TAKE, index=0), SlotAction(TAKE, index=0)),
        )


def test_interpret_parse_failure():
    rule = ConversionRule("PARSE")
    bad = OpMapping(
        "f",
        "g",
        (SlotAction(CONVERT, index=0, rule=rule, from_port=TypePort(STRING), to_port=TypePort(I64)),),
    )
    assert interpret_mapping(bad, ["123"], lambda x: x) == 123
    with pytest.raises(AdapterForgeError) as err:
        interpret_mapping(bad, ["not a number"], lambda x: x)
    assert err.value.code == "E_PARSE"


# docs/formats.md, "Runtime semantics of the rules": (rule, factor,
# value, target port) -> the value delivered, or the error code raised.
_MS_TO_S = Fraction(1, 1000)
_RULE_RESULTS = [
    ("WIDEN", None, 3, TypePort(F64), 3.0),
    ("WIDEN", None, 3, TypePort(I64), 3),
    ("NARROW_CHECKED", None, 3.0, TypePort(I64), 3),
    ("NARROW_CHECKED", None, 7, TypePort(I32), 7),
    ("UNIT_SCALE", _MS_TO_S, 5000, TypePort(I64, "s"), 5),
    ("UNIT_SCALE", _MS_TO_S, 1500, TypePort(F64, "s"), 1.5),
    ("UNIT_SCALE", _MS_TO_S, 1500.0, TypePort(F64, "s"), 1.5),
    ("PARSE", None, "2.5", TypePort(F64), 2.5),
    ("PARSE", None, "42", TypePort(I64), 42),
    ("FORMAT", None, True, TypePort(STRING), "true"),
    ("FORMAT", None, False, TypePort(STRING), "false"),
    ("FORMAT", None, 2.0, TypePort(STRING), "2.0"),
    ("FORMAT", None, 7, TypePort(STRING), "7"),
]
_RULE_ERRORS = [
    ("NARROW_CHECKED", None, 3.5, TypePort(I64), "E_NARROW"),
    ("NARROW_CHECKED", None, 2**40, TypePort(I32), "E_NARROW"),
    ("UNIT_SCALE", _MS_TO_S, 1500, TypePort(I64, "s"), "E_NARROW"),
    ("PARSE", None, "2.5", TypePort(I64), "E_PARSE"),
]


@pytest.mark.parametrize("kind,factor,value,port,expected", _RULE_RESULTS)
def test_rule_runtime_semantics(kind, factor, value, port, expected):
    result = apply_rule(ConversionRule(kind, factor), value, port)
    assert (type(result), result) == (type(expected), expected)


@pytest.mark.parametrize("kind,factor,value,port,code", _RULE_ERRORS)
def test_rule_runtime_errors(kind, factor, value, port, code):
    with pytest.raises(AdapterForgeError) as err:
        apply_rule(ConversionRule(kind, factor), value, port)
    assert err.value.code == code


# --- malformed descriptors ---------------------------------------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


def _paths(doc, prefix=()):
    """Every path to a subtree of a decoded JSON document."""
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _paths(value, prefix + (i,))


_GOLDEN_DOC = canonjson.loads((GOLDEN / "figure3.adapter").read_text())
_GOLDEN_PATHS = list(_paths(_GOLDEN_DOC))[1:]


@st.composite
def descriptor_documents(draw):
    """Arbitrary JSON, or the figure3 golden descriptor with one subtree
    replaced by arbitrary JSON or deleted."""
    if draw(st.booleans()):
        return draw(json_values)
    doc = canonjson.loads(canonjson.dumps(_GOLDEN_DOC))
    *parents, last = draw(st.sampled_from(_GOLDEN_PATHS))
    target = doc
    for key in parents:
        target = target[key]
    if draw(st.booleans()):
        target[last] = draw(json_values)
    else:
        del target[last]
    return doc


@given(doc=descriptor_documents())
@settings(max_examples=400, deadline=None)
def test_error_totality_on_arbitrary_descriptors(tmp_path_factory, doc):
    text = canonjson.dumps(doc)
    try:
        assert isinstance(parse_descriptor(text), AdapterSpec)
    except AdapterForgeError:
        pass
    pool = init_pool(tmp_path_factory.mktemp("pool"))
    try:
        assert len(pool_add(pool, text)) == 64
    except AdapterForgeError:
        pass


MALFORMED_DESCRIPTORS = {
    "implements not an object": lambda d: d.update(implements=5),
    "not an adapter": lambda d: d.update(format="adapter/2"),
    "take without index": lambda d: d["mappings"][0]["slots"][0].pop("index"),
    "index not an integer": lambda d: d["mappings"][0]["slots"][0].update(index=True),
    "huge float fill": lambda d: d["mappings"][0]["slots"][1].update(
        fill={"kind": "float", "value": 10**400}
    ),
    "infinite float fill": lambda d: d["mappings"][0]["slots"][1].update(
        fill={"kind": "float", "value": float("inf")}
    ),
    "nan float fill": lambda d: d["mappings"][0]["slots"][1].update(
        fill={"kind": "float", "value": float("nan")}
    ),
    "unknown slot kind": lambda d: d["mappings"][0]["slots"][0].update(kind="SKIP"),
    "unknown return kind": lambda d: d["mappings"][0]["return"].update(kind="DROP"),
    "score divides by zero": lambda d: d["provenance"].update(score="1/0"),
    "bad version": lambda d: d.update(version="1.0"),
    "malformed concept": lambda d: d["implements"]["operations"][0].update(concept="Data..Sort!"),
    "malformed param concept": lambda d: d["delegates"]["interface"]["operations"][0]["params"][0].update(
        concept="a.B"
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_DESCRIPTORS))
def test_malformed_descriptor_is_coded(case: str):
    doc = canonjson.loads((GOLDEN / "figure3.adapter").read_text())
    MALFORMED_DESCRIPTORS[case](doc)
    with pytest.raises(AdapterForgeError) as err:
        parse_descriptor(canonjson.dumps(doc))
    assert err.value.code == "E_DESCRIPTOR"


@pytest.mark.parametrize(
    "doc",
    [
        {"concept": "Data..Sort!", "origin": "project", "shape": None},
        {
            "concept": "data.sort",
            "origin": "project",
            "shape": {"params": [{"type": "i32", "concept": "data..sort"}], "returns": "unit"},
        },
        {
            "concept": "data.sort",
            "origin": "project",
            "shape": {"params": [{"type": "i32", "concept": "data..sort.arg.Items"}], "returns": "unit"},
        },
        {
            "concept": "data.sort",
            "origin": "project",
            "shape": {"params": [{"type": "i32", "concept": "data.sort.arg.It-ems"}], "returns": "unit"},
        },
    ],
    ids=["demand-concept", "shape-param-concept", "shape-arg-bad-head", "shape-arg-bad-name"],
)
def test_report_decoder_rejects_malformed_concept(doc):
    from adapterforge.report import demand_from_json

    with pytest.raises(AdapterForgeError) as err:
        demand_from_json(doc)
    assert err.value.code == "E_DESCRIPTOR"


@pytest.mark.parametrize(
    "text",
    ["١٧/٢٠", "+17/20", "1_7/20", " 17/20", "17/20\n", "17/", "/20", "1.5/2", "17/+20"],
)
def test_fraction_text_is_ascii_decimal_everywhere(units_adapter, text):
    """Rules files, descriptors and reports decode `n/d` by one rule:
    `-?[0-9]+`, optionally `/-?[0-9]+`."""
    from adapterforge.conversions import parse_rules_text
    from adapterforge.report import match_report_from_json, match_report_to_json
    from adapterforge.speclang import ParseError

    with pytest.raises(ValueError):
        canonjson.fraction_from_text(text)

    descriptor = canonjson.loads(emit_descriptor(units_adapter))
    (factor_slot,) = [s for s in descriptor["mappings"][0]["slots"] if s.get("rule")]
    for field in (descriptor["provenance"], factor_slot["rule"]):
        saved = dict(field)
        field["score" if "score" in field else "factor"] = text
        with pytest.raises(AdapterForgeError) as err:
            parse_descriptor(canonjson.dumps(descriptor))
        assert err.value.code == "E_DESCRIPTOR"
        field.update(saved)
    assert parse_descriptor(canonjson.dumps(descriptor)) == units_adapter

    report, _, _ = analyse_case("units", ["uiapp.cdl", "cron.cdl"], "unitsync.pdl")
    doc = match_report_to_json(report)
    doc["verdicts"][0]["score"] = text
    with pytest.raises(ValueError):
        match_report_from_json(doc)

    if text == text.strip():  # a rules file strips blanks around its fields
        for line in (f"threshold {text}", f"f64, ms, f64, s, unit_scale, {text}, 1000"):
            with pytest.raises(ParseError) as err:
                parse_rules_text(line + "\n")
            assert err.value.code == "E_SYNTAX"


@pytest.mark.parametrize(
    "text, value", [("17/20", Fraction(17, 20)), ("-3/4", Fraction(-3, 4)), ("5", Fraction(5))]
)
def test_fraction_text_decodes_ascii_decimal(text, value):
    assert canonjson.fraction_from_text(text) == value


# --- check_adapter: the static structure an adapter needs to run ----------


def _generated_adapters():
    """Every adapter generated from an ADAPTABLE connection of a
    `tests/corpus` project, then from 300 seeded `genspecs` pairs."""
    conv, config = load_rules(CORPUS / "conversions.rules")
    for directory in sorted(p for p in CORPUS.iterdir() if p.is_dir()):
        specs = {s.name: s for s in map(parse_component, map(Path.read_text, directory.glob("*.cdl")))}
        for path in sorted(directory.glob("*.pdl")):
            project = parse_project(path.read_text())
            for verdict in analyse(project, list(specs.values()), conv, config).verdicts:
                if verdict.status == ADAPTABLE:
                    connection = verdict.connection
                    consumer = specs[connection.consumer_component]
                    provider = specs[connection.provider_component]
                    yield generate_adapter(verdict, consumer, provider, project.name)
    rng = random.Random(0xC4EC)
    for _ in range(300):
        consumer, provider, project = genspecs.adaptable_pair(rng, config)
        (verdict,) = analyse(project, [consumer, provider], conv, config).verdicts
        if verdict.status == ADAPTABLE:
            yield generate_adapter(verdict, consumer, provider, project.name)


def test_generated_adapters_pass_check_adapter():
    adapters = list(_generated_adapters())
    assert len(adapters) >= 200
    assert [(a.name, check_adapter(a)) for a in adapters if check_adapter(a)] == []


def _with_mapping(adapter: AdapterSpec, **changes) -> AdapterSpec:
    return dataclasses.replace(
        adapter, mappings=(dataclasses.replace(adapter.mappings[0], **changes),)
    )


_SCALE = ConversionRule("UNIT_SCALE", Fraction(1, 1000))
BROKEN_ADAPTERS = {
    "to op missing": (
        "figure3",
        lambda a: _with_mapping(a, to_op="no_such_op", slots=()),
        "sortAscending maps to no_such_op, not in BulkSort",
    ),
    "too few slots": (
        "figure3",
        lambda a: _with_mapping(a, slots=a.mappings[0].slots[:1]),
        "sortAscending->sort has 1 slots for 2 params",
    ),
    "param not taken": (
        "figure3",
        lambda a: _with_mapping(a, slots=(a.mappings[0].slots[1],) * 2),
        "sortAscending->sort takes params [] of 1",
    ),
    "op mapped twice": (
        "figure3",
        lambda a: dataclasses.replace(a, mappings=a.mappings * 2),
        "op sortAscending is mapped 2 times",
    ),
    "op not mapped": (
        "figure3",
        lambda a: dataclasses.replace(a, mappings=()),
        "op sortAscending is mapped 0 times",
    ),
    "unknown from op": (
        "figure3",
        lambda a: _with_mapping(a, from_op="elsewhere"),
        "op sortAscending is mapped 0 times; op elsewhere is not in Sorting",
    ),
    "convert port": (
        "units",
        lambda a: _with_mapping(
            a,
            slots=(
                a.mappings[0].slots[0],
                SlotAction(CONVERT, 0, _SCALE, TypePort(F64, "ms"), TypePort(F64, "min")),
            ),
        ),
        "converts f64@ms to f64@min for",
    ),
    "return port": (
        "units",
        lambda a: _with_mapping(
            a, return_action=ReturnAction(ConversionRule("FORMAT"), TypePort(I64), TypePort(BOOL))
        ),
        "converts its return from i64 to bool",
    ),
}


@pytest.mark.parametrize("case", sorted(BROKEN_ADAPTERS))
def test_check_adapter_names_what_cannot_run(figure3_adapter, units_adapter, case, tmp_path):
    base, edit, problem = BROKEN_ADAPTERS[case]
    adapter = edit(figure3_adapter[0] if base == "figure3" else units_adapter)
    problems = "; ".join(check_adapter(adapter))
    assert problem in problems, problems
    pool = init_pool(tmp_path / "pool")
    before = (pool / "index").read_bytes()
    with pytest.raises(AdapterForgeError) as err:
        pool_add(pool, emit_descriptor(adapter))
    assert err.value.code == "E_INVALID_SPEC"
    assert err.value.message == f"adapter {adapter.name} cannot run: {problems}"
    assert (pool / "index").read_bytes() == before
    assert not list((pool / "adapters").iterdir())


def _sort_op(doc: dict) -> dict:
    return doc["delegates"]["interface"]["operations"][0]


def _fill_i32(doc: dict, value: int) -> None:
    _sort_op(doc)["params"][1] = {"name": "ascending", "type": "i32"}
    doc["mappings"][0]["slots"][1]["fill"] = {"kind": "int", "value": value}


# Edits of the committed figure3 descriptor whose slots do not type.
UNTYPED_PROBES = {
    "take into a string param": (
        lambda d: _sort_op(d)["params"][0].update(type="string"),
        "sortAscending->sort takes list<i32> as string for items",
    ),
    "fill a bool with a string": (
        lambda d: d["mappings"][0]["slots"][1].update(fill={"kind": "string", "value": "yes"}),
        'sortAscending->sort fills ascending: bool with "yes"',
    ),
    "fill an i32 out of range": (
        lambda d: _fill_i32(d, 2**31),
        "sortAscending->sort fills ascending: i32 with 2147483648",
    ),
    "pass a string return": (
        lambda d: _sort_op(d).update(returns="string"),
        "sortAscending->sort passes its return string as list<i32>",
    ),
}


@pytest.mark.parametrize("case", sorted(UNTYPED_PROBES))
def test_pool_add_refuses_adapters_whose_slots_do_not_type(case, tmp_path):
    edit, problem = UNTYPED_PROBES[case]
    doc = canonjson.loads((GOLDEN / "figure3.adapter").read_text(encoding="utf-8"))
    edit(doc)
    text = canonjson.dumps(doc)
    assert check_adapter(parse_descriptor(text)) == [problem]
    pool = init_pool(tmp_path / "pool")
    with pytest.raises(AdapterForgeError) as err:
        pool_add(pool, text)
    assert err.value.code == "E_INVALID_SPEC"
    assert err.value.message == f"adapter adapt_reportgen_sortkit_449e7545 cannot run: {problem}"
    assert not list((pool / "adapters").iterdir())
