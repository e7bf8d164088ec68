from __future__ import annotations

import importlib.resources
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adapterforge import canonjson
from adapterforge.adapters import (
    CONVERT,
    FILL,
    TAKE,
    AdapterGenError,
    AdapterSpec,
    InterpretError,
    OpMapping,
    ReturnAction,
    SlotAction,
    emit_descriptor,
    emit_stub,
    generate_adapter,
    interpret_mapping,
    parse_descriptor,
)
from adapterforge.analyser import ADAPTABLE, EXACT, analyse
from adapterforge.conversions import ConversionRule, ConversionTable, TypePort, load_rules
from adapterforge.speclang import (
    BOOL,
    I32,
    I64,
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


def default_template() -> str:
    ref = importlib.resources.files("adapterforge") / "templates" / "adapter_stub.txt"
    return ref.read_text(encoding="utf-8")


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
    with pytest.raises(AdapterGenError) as err:
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


def test_stub_golden(figure3_adapter):
    adapter, _ = figure3_adapter
    stub = emit_stub(adapter, default_template())
    assert stub == (GOLDEN / "figure3_stub.txt").read_text()


def test_stub_empty_interface_header_only():
    report, (consumer, provider), project = analyse_case(
        "figure3", ["reportgen.cdl", "sortkit.cdl"], "figure3.pdl"
    )
    adapter, _ = (
        generate_adapter(report.verdicts[0], consumer, provider, project.name),
        None,
    )
    from dataclasses import replace

    empty = replace(adapter, mappings=())
    stub = emit_stub(empty, default_template())
    assert adapter.name in stub
    assert "forward" not in stub


def test_stub_missing_placeholder():
    report, (consumer, provider), project = analyse_case(
        "figure3", ["reportgen.cdl", "sortkit.cdl"], "figure3.pdl"
    )
    adapter = generate_adapter(report.verdicts[0], consumer, provider, project.name)
    with pytest.raises(AdapterGenError) as err:
        emit_stub(adapter, "no placeholders at all {OP_LIST}")
    assert err.value.code == "E_TEMPLATE"


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
    with pytest.raises(InterpretError) as err:
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
    from adapterforge.speclang import STRING

    bad = OpMapping(
        "f",
        "g",
        (SlotAction(CONVERT, index=0, rule=rule, from_port=TypePort(STRING), to_port=TypePort(I64)),),
    )
    assert interpret_mapping(bad, ["123"], lambda x: x) == 123
    with pytest.raises(InterpretError) as err:
        interpret_mapping(bad, ["not a number"], lambda x: x)
    assert err.value.code == "E_PARSE"


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
    with pytest.raises(AdapterGenError) as err:
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

    with pytest.raises(AdapterGenError) as err:
        demand_from_json(doc)
    assert err.value.code == "E_DESCRIPTOR"
