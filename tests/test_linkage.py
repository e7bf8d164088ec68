from __future__ import annotations

import shutil
from dataclasses import replace
from pathlib import Path

import pytest

from adapterforge.adapters import as_component, generate_adapter
from adapterforge.analyser import analyse, verify
from adapterforge.conversions import load_rules
from adapterforge.linkage import (
    ADAPTED,
    ALREADY_EXACT,
    GENERATED,
    POOL_HIT,
    UNRESOLVABLE,
    WorkflowResult,
    integrate,
    run_workflow,
)
from adapterforge.pool import init_pool, pool_list
from adapterforge.report import (
    match_report_from_json,
    match_report_to_json,
    render_match_report,
    render_workflow,
    workflow_result_from_json,
    workflow_result_to_json,
)
from adapterforge.speclang import AdapterForgeError, parse_component, parse_project, serialize
from adapterforge import canonjson

CORPUS = Path(__file__).parent / "corpus"
GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def rules():
    return load_rules(CORPUS / "conversions.rules")


def _figure3_adapter():
    conv, config = load_rules(CORPUS / "conversions.rules")
    consumer = parse_component((CORPUS / "figure3" / "reportgen.cdl").read_text())
    provider = parse_component((CORPUS / "figure3" / "sortkit.cdl").read_text())
    project = parse_project((CORPUS / "figure3" / "figure3.pdl").read_text())
    analysis = analyse(project, [consumer, provider], conv, config)
    adapter = generate_adapter(analysis.verdicts[0], consumer, provider, project.name)
    return project, consumer, provider, adapter, (conv, config)


def test_integrate_adds_one_connection():
    project, consumer, provider, adapter, _ = _figure3_adapter()
    integrated = integrate(project, project.connections[0], adapter)
    assert len(integrated.connections) == len(project.connections) + 1
    # The project passed in is left as it was read.
    assert project == parse_project((CORPUS / "figure3" / "figure3.pdl").read_text())
    first, second = integrated.connections
    assert first.consumer_component == "reportgen"
    assert first.provider_component == adapter.name
    assert second.consumer_component == adapter.name
    assert second.provider_component == "sortkit"
    # The adapter joined the uses list with an exact version pin.
    use = integrated.use(adapter.name)
    assert use is not None and str(use.constraint) == '= "1.0.0"'


def test_integrate_heals_the_connection(rules):
    conv, config = rules
    project, consumer, provider, adapter, _ = _figure3_adapter()
    integrated = integrate(project, project.connections[0], adapter)
    assert verify(integrated, [consumer, provider, as_component(adapter)], conv, config)


def test_integrate_serializes_to_valid_specs():
    project, consumer, provider, adapter, _ = _figure3_adapter()
    integrated = integrate(project, project.connections[0], adapter)
    assert parse_project(serialize(integrated)) == integrated
    component = as_component(adapter)
    assert parse_component(serialize(component)) == component


def test_integrate_wrong_interface_rejected():
    project, consumer, provider, adapter, _ = _figure3_adapter()
    stranger = parse_component(
        'component "stranger" version "1.0.0" {\n'
        "  provides interface Unrelated {\n"
        "    op nope() -> unit @concept other.thing\n"
        "  }\n"
        "}"
    )
    with pytest.raises(AdapterForgeError) as err:
        integrate(project, project.connections[0], stranger)
    assert err.value.code == "E_INTERFACE_MISMATCH"


def test_integrate_refuses_a_component_that_does_not_delegate():
    project, consumer, provider, adapter, _ = _figure3_adapter()
    connection = project.connections[0]
    cut_off = replace(as_component(adapter), required=())
    with pytest.raises(AdapterForgeError) as err:
        integrate(project, connection, cut_off)
    assert err.value.code == "E_INTERFACE_MISMATCH"
    assert err.value.message == (
        f"{adapter.name} does not delegate to interface {connection.provider_interface!r}"
    )


def test_integrate_refuses_a_connection_the_project_lacks():
    project, consumer, provider, adapter, _ = _figure3_adapter()
    elsewhere = replace(project.connections[0], consumer_component="elsewhere")
    with pytest.raises(AdapterForgeError) as err:
        integrate(project, elsewhere, adapter)
    assert err.value.code == "E_INTERFACE_MISMATCH"
    assert err.value.message == f"project has no connection {elsewhere.label()}"


def _run(case_dir: Path, project_file: str, pool_root: Path, rules) -> WorkflowResult:
    conv, config = rules
    return run_workflow(
        case_dir / project_file, case_dir, pool_root, conv, config
    )


def test_all_exact_project(tmp_path: Path, rules):
    pool_root = tmp_path / "pool"
    result = _run(CORPUS / "exact", "exactpair.pdl", pool_root, rules)
    assert result.outcome == ALREADY_EXACT
    assert result.integrations == ()
    assert result.adapted_project == parse_project(
        (CORPUS / "exact" / "exactpair.pdl").read_text()
    )
    assert pool_list(pool_root) == []  # nothing stored


def test_figure3_generates_then_hits(tmp_path: Path, rules):
    pool_root = tmp_path / "pool"

    first = _run(CORPUS / "figure3", "figure3.pdl", pool_root, rules)
    assert first.outcome == ADAPTED
    assert [i.source for i in first.integrations] == [GENERATED]
    assert first.final_report.all_exact()
    assert len(first.generated_adapters) == 1
    entries = pool_list(pool_root)
    assert len(entries) == 1 and entries[0][1].kind == "adapter"

    second = _run(CORPUS / "figure3", "figure3.pdl", pool_root, rules)
    assert second.outcome == ADAPTED
    assert [i.source for i in second.integrations] == [POOL_HIT]
    assert second.generated_adapters == ()
    # Byte-identical integrated project across the two runs.
    assert serialize(second.adapted_project) == serialize(first.adapted_project)
    # Pool monotonicity: nothing got removed or re-generated.
    assert pool_list(pool_root) == entries


def test_units_workflow(tmp_path: Path, rules):
    result = _run(CORPUS / "units", "unitsync.pdl", tmp_path / "pool", rules)
    assert result.outcome == ADAPTED
    assert result.final_report.all_exact()


def test_unsatisfied_demand(tmp_path: Path, rules):
    result = _run(CORPUS / "missing", "wantsign.pdl", tmp_path / "pool", rules)
    assert result.outcome == UNRESOLVABLE
    assert [str(d.concept) for d in result.unresolved] == ["data.crypto.sign"]


def test_demand_satisfied_from_pool(tmp_path: Path, rules):
    conv, config = rules
    pool_root = init_pool(tmp_path / "pool")
    from adapterforge.pool import pool_add

    signer = (
        'component "signer" version "1.0.0" {\n'
        "  provides interface Signing {\n"
        "    op sign(payload: bytes) -> bytes @concept data.crypto.sign\n"
        "  }\n"
        "}\n"
    )
    fp = pool_add(pool_root, signer)
    result = _run(CORPUS / "missing", "wantsign.pdl", pool_root, rules)
    assert result.outcome == ADAPTED
    assert result.unresolved == ()
    assert [i.source for i in result.integrations] == [POOL_HIT]
    assert result.integrations[0].fingerprint == fp
    assert result.integrations[0].connection == "demand:data.crypto.sign"
    assert result.adapted_project.use("signer") is not None


def _positions(result: WorkflowResult) -> dict[str, list[int]]:
    out: dict[str, list[int]] = {}
    for i, step in enumerate(result.steps):
        out.setdefault(step.action, []).append(i)
    return out


def test_step_trace_order(tmp_path: Path, rules):
    result = _run(CORPUS / "figure3", "figure3.pdl", tmp_path / "pool", rules)
    pos = _positions(result)
    assert pos["read"][0] == 0
    assert pos["compare"][0] == 1
    assert pos["read"][0] < pos["compare"][0] < pos["query"][0]
    assert pos["query"][0] < pos["return"][0] < pos["invite"][0]
    assert pos["invite"][0] < pos["generate"][0] < pos["store"][0]
    assert pos["store"][0] < pos["integrate"][0] < pos["verify"][-1]
    assert result.steps[-1].action == "verify"
    # Numbered actions carry the right step labels.
    numbers = {s.action: s.step for s in result.steps}
    assert (numbers["read"], numbers["compare"], numbers["query"]) == (1, 2, 3)
    assert (numbers["invite"], numbers["generate"], numbers["integrate"]) == (5, 6, 7)


def test_exact_path_trace_has_no_generation(tmp_path: Path, rules):
    result = _run(CORPUS / "exact", "exactpair.pdl", tmp_path / "pool", rules)
    actions = [s.action for s in result.steps]
    assert actions == ["read", "compare", "verify"]


def test_workflow_result_roundtrip(tmp_path: Path, rules):
    result = _run(CORPUS / "figure3", "figure3.pdl", tmp_path / "pool", rules)
    doc = canonjson.loads(canonjson.dumps(workflow_result_to_json(result)))
    assert workflow_result_from_json(doc) == result


def test_match_report_roundtrip(tmp_path: Path, rules):
    result = _run(CORPUS / "units", "unitsync.pdl", tmp_path / "pool", rules)
    doc = canonjson.loads(canonjson.dumps(match_report_to_json(result.final_report)))
    assert match_report_from_json(doc) == result.final_report


def test_human_report_contains_verdict_tokens(tmp_path: Path, rules):
    conv, config = rules
    consumer = parse_component((CORPUS / "exact" / "archiver.cdl").read_text())
    provider = parse_component((CORPUS / "exact" / "hashlibx.cdl").read_text())
    project = parse_project((CORPUS / "exact" / "exactpair.pdl").read_text())
    analysis = analyse(project, [consumer, provider], conv, config)
    text = render_match_report(analysis)
    assert "EXACT" in text
    assert text.count("connection ") == 1


def test_golden_workflow_report(tmp_path: Path, rules):
    result = _run(CORPUS / "figure3", "figure3.pdl", tmp_path / "pool", rules)
    assert render_workflow(result, "human") == (GOLDEN / "figure3_report.txt").read_text()


def test_parse_error_carries_file_context(tmp_path: Path, rules):
    conv, config = rules
    bad = tmp_path / "bad.pdl"
    bad.write_text("project oops {")
    with pytest.raises(AdapterForgeError) as err:
        run_workflow(bad, tmp_path, tmp_path / "pool", conv, config)
    assert err.value.code == "E_PARSE"
    assert "bad.pdl" in err.value.message


def _write_case(tmp_path: Path, *specs, project) -> Path:
    case = tmp_path / "case"
    case.mkdir()
    for spec in specs:
        (case / f"{spec.name}.cdl").write_text(serialize(spec))
    project_file = case / f"{project.name}.pdl"
    project_file.write_text(serialize(project))
    return project_file


def test_incompatible_connection_does_not_block_other_heals(tmp_path: Path, rules):
    conv, config = rules
    consumer = parse_component(
        'component "app" version "1.0.0" {\n'
        "  requires interface Sorting {\n"
        "    op sortAscending(items: list<i32>) -> list<i32> @concept data.sorting.sort\n"
        "  }\n"
        "  requires interface Signing {\n"
        "    op sign(payload: bytes) -> bytes @concept data.crypto.sign\n"
        "  }\n"
        "}"
    )
    sorter = parse_component((CORPUS / "figure3" / "sortkit.cdl").read_text())
    mute = parse_component(
        'component "mute" version "1.0.0" {\n'
        "  provides interface Noop {\n"
        "    op ping() -> unit @concept infra.noop.ping\n"
        "  }\n"
        "}"
    )
    project = parse_project(
        'project "mixed" {\n'
        '  uses "app" *\n'
        '  uses "sortkit" *\n'
        '  uses "mute" *\n'
        "  connect app.requires.Sorting -> sortkit.provides.BulkSort\n"
        "  connect app.requires.Signing -> mute.provides.Noop\n"
        "}"
    )
    project_file = _write_case(tmp_path, consumer, sorter, mute, project=project)
    result = run_workflow(project_file, project_file.parent, tmp_path / "pool", conv, config)
    # Partial progress: the adaptable edge healed, the incompatible one
    # surfaced as unresolved demand without aborting the run.
    assert result.outcome == UNRESOLVABLE
    assert [i.source for i in result.integrations] == [GENERATED]
    assert [str(d.concept) for d in result.unresolved] == ["data.crypto.sign"]
    healed = [
        v for v in result.final_report.verdicts
        if v.connection.consumer_interface == "Sorting"
        or v.connection.provider_interface == "Sorting"
    ]
    assert healed and all(v.status == "EXACT" for v in healed)
    assert result.diagnostics


def test_duplicate_connections_integrate_cleanly(tmp_path: Path, rules):
    conv, config = rules
    consumer = parse_component((CORPUS / "figure3" / "reportgen.cdl").read_text())
    provider = parse_component((CORPUS / "figure3" / "sortkit.cdl").read_text())
    project = parse_project(
        'project "dup" {\n'
        '  uses "reportgen" *\n'
        '  uses "sortkit" *\n'
        "  connect reportgen.requires.Sorting -> sortkit.provides.BulkSort\n"
        "  connect reportgen.requires.Sorting -> sortkit.provides.BulkSort\n"
        "}"
    )
    project_file = _write_case(tmp_path, consumer, provider, project=project)
    result = run_workflow(project_file, project_file.parent, tmp_path / "pool", conv, config)
    assert result.outcome == ADAPTED
    # First edge generates; the identical second edge hits the store.
    assert [i.source for i in result.integrations] == [GENERATED, POOL_HIT]
    # One adapter, listed once in uses, and the output parses cleanly.
    names = [u.name for u in result.adapted_project.uses]
    assert len(names) == len(set(names))
    assert parse_project(serialize(result.adapted_project)) == result.adapted_project
    assert len(result.adapted_project.connections) == 4
    # The adapter that heals both edges is added, and written, once.
    assert len(result.added_components) == 1


def test_incompatible_connection_healed_by_stored_adapter(tmp_path: Path, rules):
    # Generation only serves adaptable connections; a hand-stored
    # adapter in the pool can still heal an incompatible one.
    conv, config = rules
    consumer = parse_component(
        'component "client" version "1.0.0" {\n'
        "  requires interface Signing {\n"
        "    op sign(payload: bytes) -> bytes @concept data.crypto.sign\n"
        "  }\n"
        "}"
    )
    provider = parse_component(
        'component "vault" version "1.0.0" {\n'
        "  provides interface Sealing {\n"
        "    op seal(blob: string) -> string @concept data.crypto.seal\n"
        "  }\n"
        "}"
    )
    bridge = parse_component(
        'component "bridge" version "1.0.0" {\n'
        "  provides interface Signing {\n"
        "    op sign(payload: bytes) -> bytes @concept data.crypto.sign\n"
        "  }\n"
        "  requires interface Sealing {\n"
        "    op seal(blob: string) -> string @concept data.crypto.seal\n"
        "  }\n"
        "}"
    )
    project = parse_project(
        'project "sealed" {\n'
        '  uses "client" *\n'
        '  uses "vault" *\n'
        "  connect client.requires.Signing -> vault.provides.Sealing\n"
        "}"
    )
    project_file = _write_case(tmp_path, consumer, provider, project=project)
    pool_root = init_pool(tmp_path / "pool")
    from adapterforge.pool import pool_add

    fp = pool_add(pool_root, serialize(bridge))

    result = run_workflow(project_file, project_file.parent, pool_root, conv, config)
    assert result.outcome == ADAPTED
    assert [(i.source, i.fingerprint) for i in result.integrations] == [("POOL_HIT", fp)]
    assert result.generated_adapters == ()
    assert result.final_report.all_exact()


def test_reports_are_byte_identical_across_runs(tmp_path: Path, rules):
    conv, config = rules
    from adapterforge.report import render_match_report

    def analyse_bytes() -> str:
        consumer = parse_component((CORPUS / "figure3" / "reportgen.cdl").read_text())
        provider = parse_component((CORPUS / "figure3" / "sortkit.cdl").read_text())
        project = parse_project((CORPUS / "figure3" / "figure3.pdl").read_text())
        return render_match_report(
            analyse(project, [consumer, provider], conv, config), "structured"
        )

    assert analyse_bytes() == analyse_bytes()


def test_workflow_result_carries_one_descriptor_per_adapter(tmp_path: Path, rules):
    from dataclasses import replace

    from adapterforge.adapters import emit_descriptor

    result = _run(CORPUS / "figure3", "figure3.pdl", tmp_path / "pool", rules)
    (adapter,) = result.generated_adapters
    assert result.descriptors == (emit_descriptor(adapter),)
    with pytest.raises(ValueError):
        replace(result, descriptors=())


_HEALER = (
    'component "healer" version "1.0.0" {\n'
    "  provides interface Sorting {\n"
    "    op sortAscending(items: list<i32>) -> list<i32> @concept data.sorting.sort\n"
    "  }\n"
    "  requires interface BulkSort {\n"
    "    op sort(items: list<i32>, ascending: bool = true) -> list<i32> @concept data.sorting.sort\n"
    "  }\n"
    "}\n"
)
# Provides the consumer's interface name and concept, so its index line
# lists every op concept of that interface, but its op is named after
# the concept's last segment, so it cannot heal.
_DECOY = _HEALER.replace('"healer"', '"decoy"').replace(
    "op sortAscending(", "op sort(", 1
)


def _rename_penalized_rules(tmp_path: Path, penalty: str = "1/10"):
    path = tmp_path / "rename.rules"
    path.write_text((CORPUS / "conversions.rules").read_text() + f"penalty rename {penalty}\n")
    return load_rules(path)


def _figure3_query(pool_root: Path, config):
    from adapterforge.pool import PoolQuery, pool_query

    consumer = parse_component((CORPUS / "figure3" / "reportgen.cdl").read_text())
    (op,) = consumer.interface("required", "Sorting").operations
    return pool_query(pool_root, PoolQuery(op.concept), config)


def _decoy_sorting(before: bool, than: str) -> str:
    """A decoy whose fingerprint sorts before (or after) `than`."""
    from adapterforge.pool import fingerprint_of

    for i in range(100):
        text = _DECOY.replace('"decoy"', f'"decoy{i}"')
        if (fingerprint_of(serialize(parse_component(text)).encode()) < than) == before:
            return text
    raise AssertionError("no decoy name sorts on that side")


def test_pool_hit_skips_a_higher_ranked_candidate_that_does_not_heal(tmp_path: Path):
    from adapterforge.pool import pool_add

    conv, config = _rename_penalized_rules(tmp_path)
    pool_root = init_pool(tmp_path / "pool")
    healer_fp = pool_add(pool_root, _HEALER)
    decoy_fp = pool_add(pool_root, _decoy_sorting(before=True, than=healer_fp))
    ranked = _figure3_query(pool_root, config)
    # Both list the consumer's concept and score 1: the fingerprint decides.
    assert ranked == [(decoy_fp, 1), (healer_fp, 1)]

    result = _run(CORPUS / "figure3", "figure3.pdl", pool_root, (conv, config))
    assert result.outcome == ADAPTED
    assert [(i.source, i.fingerprint, i.component) for i in result.integrations] == [
        (POOL_HIT, healer_fp, "healer")
    ]
    assert result.generated_adapters == ()
    assert result.final_report.all_exact()


def test_candidates_that_do_not_heal_leave_an_adaptable_connection_to_generation(
    tmp_path: Path,
):
    from adapterforge.pool import pool_add

    conv, config = _rename_penalized_rules(tmp_path)
    pool_root = init_pool(tmp_path / "pool")
    pool_add(pool_root, _DECOY)
    # Related to the consumer's concept, but its index line lacks it.
    pool_add(pool_root, _sorter("ancestor", op_name="sort", concept="data.sorting"))
    assert len(_figure3_query(pool_root, config)) == 2

    result = _run(CORPUS / "figure3", "figure3.pdl", pool_root, (conv, config))
    assert result.outcome == ADAPTED
    assert [i.source for i in result.integrations] == [GENERATED]
    # The return step counts the entries whose index line lists every op
    # concept of the consumer's interface: the decoy alone.
    assert [(s.action, s.detail) for s in result.steps[2:4]] == [
        ("query", "data.sorting.sort for reportgen.requires.Sorting -> sortkit.provides.BulkSort"),
        ("return", "1 candidate(s)"),
    ]
    assert result.steps[4].action == "invite"


def _sorter(
    name: str, version: str = "1.0.0", op_name: str = "sortAscending",
    concept: str = "data.sorting.sort", ascending: str = "true",
) -> str:
    """A component shaped like `_HEALER`, varied one part at a time."""
    return (
        f'component "{name}" version "{version}" {{\n'
        "  provides interface Sorting {\n"
        f"    op {op_name}(items: list<i32>) -> list<i32> @concept {concept}\n"
        "  }\n"
        "  requires interface BulkSort {\n"
        f"    op sort(items: list<i32>, ascending: bool = {ascending}) -> list<i32>"
        " @concept data.sorting.sort\n"
        "  }\n"
        "}\n"
    )


def test_consult_picks_the_oracle_hit_on_mixed_pools(tmp_path: Path):
    """On pools that mix healers, decoys that list the consumer's concept
    but cannot heal, and related entries that do not list it, the hit
    `run_workflow` takes is the one found by ranking every related entry
    with no concept filter."""
    import random

    from adapterforge.pool import pool_add
    from oracles import oracle_consult

    assert _sorter("healer") == _HEALER and _sorter("decoy", op_name="sort") == _DECOY
    consumer = parse_component((CORPUS / "figure3" / "reportgen.cdl").read_text())
    provider = parse_component((CORPUS / "figure3" / "sortkit.cdl").read_text())
    consumer_iface = consumer.interface("required", "Sorting")
    provider_iface = provider.interface("provided", "BulkSort")
    (op,) = consumer_iface.operations
    kinds = {
        "healer": lambda name, version: _sorter(name, version),
        "decoy": lambda name, version: _sorter(name, version, op_name="sort"),
        "near": lambda name, version: _sorter(name, version, ascending="false"),
        "ancestor": lambda name, version: _sorter(name, version, "sort", "data.sorting"),
        "descendant": lambda name, version: _sorter(name, version, "sort", "data.sorting.sort.stable"),
    }
    covering = {"healer", "decoy", "near"}
    seen = {"hit": 0, "generated": 0, "non-healing first": 0, "non-covering first": 0}
    for seed in range(16):
        rng = random.Random(seed)
        rules = tmp_path / f"rules{seed}"
        rules.write_text(
            (CORPUS / "conversions.rules").read_text()
            + f"penalty rename {rng.choice(['0', '1/20', '1/5'])}\n"
        )
        conv, config = load_rules(rules)
        pool_root = init_pool(tmp_path / f"pool{seed}")
        kind_of = {}
        for i in range(rng.randint(1, 7)):
            kind = rng.choice(sorted(kinds))
            kind_of[pool_add(pool_root, kinds[kind](f"{kind}{i}", f"1.{rng.randint(0, 3)}.0"))] = kind
        expected = oracle_consult(pool_root, op.concept, consumer_iface, provider_iface, config)
        ranked = _figure3_query(pool_root, config)
        if ranked and kind_of[ranked[0].fingerprint] != "healer":
            seen["non-healing first"] += 1
            seen["non-covering first"] += kind_of[ranked[0].fingerprint] not in covering
        result = _run(CORPUS / "figure3", "figure3.pdl", pool_root, (conv, config))
        assert result.outcome == ADAPTED
        if expected is None:
            seen["generated"] += 1
            assert [i.source for i in result.integrations] == [GENERATED]
        else:
            seen["hit"] += 1
            assert [(i.source, i.fingerprint) for i in result.integrations] == [(POOL_HIT, expected)]
        # The return step counts only the entries that list the concept.
        listing = [c for c in ranked if kind_of[c.fingerprint] in covering]
        assert result.steps[3].action == "return"
        assert result.steps[3].detail == f"{len(listing)} candidate(s)"
    assert all(seen.values()), seen


def test_repeat_adapt_hits_its_own_adapter_under_a_rename_penalty(tmp_path: Path):
    """Consumer and provider share the op name `sortAscending`, so the
    connection pays no rename; the stored adapter provides that name,
    and no rename penalty keeps the second run from finding it."""
    case = tmp_path / "case"
    case.mkdir()
    for name in ("reportgen.cdl", "figure3.pdl"):
        (case / name).write_text((CORPUS / "figure3" / name).read_text())
    sortkit = (CORPUS / "figure3" / "sortkit.cdl").read_text()
    (case / "sortkit.cdl").write_text(sortkit.replace("op sort(", "op sortAscending("))
    rules = _rename_penalized_rules(tmp_path, "6/10")
    pool_root = tmp_path / "pool"

    first = _run(case, "figure3.pdl", pool_root, rules)
    assert first.outcome == ADAPTED
    ((source, fp),) = [(i.source, i.fingerprint) for i in first.integrations]
    assert source == GENERATED

    second = _run(case, "figure3.pdl", pool_root, rules)
    assert second.outcome == ADAPTED
    assert [(i.source, i.fingerprint) for i in second.integrations] == [(POOL_HIT, fp)]
    assert second.generated_adapters == ()
    assert len(pool_list(pool_root)) == 1


def _adapt_with_a_damaged_decoy(tmp_path: Path, capsys, monkeypatch, before: bool):
    """`adapt` of figure3 against a pool holding the healer and a decoy
    that lists the consumer's concept, ranks `before` or after the
    healer, and whose artifact no longer re-hashes. Returns the exit
    code, stderr, the fingerprints and the artifacts read."""
    from adapterforge import pool as pool_module
    from adapterforge.cli import main
    from adapterforge.pool import pool_add

    pool_root = init_pool(tmp_path / "pool")
    healer_fp = pool_add(pool_root, _HEALER)
    decoy_fp = pool_add(pool_root, _decoy_sorting(before, than=healer_fp))
    damaged = pool_root / "components" / f"{decoy_fp}.cdl"
    damaged.write_bytes(damaged.read_bytes().replace(b"decoy", b"decoi"))
    read: list[str] = []
    artifact_bytes = pool_module._artifact_bytes
    monkeypatch.setattr(
        pool_module, "_artifact_bytes", lambda root, rel: read.append(rel) or artifact_bytes(root, rel)
    )
    code = main([
        "adapt", str(CORPUS / "figure3" / "figure3.pdl"), "--conversions",
        str(CORPUS / "conversions.rules"), "--pool", str(pool_root), "--emit", str(tmp_path / "out"),
    ])
    return code, capsys.readouterr().err, healer_fp, decoy_fp, read


def test_a_damaged_candidate_ranked_before_the_hit_fails_adapt(tmp_path, capsys, monkeypatch):
    code, err, healer_fp, decoy_fp, read = _adapt_with_a_damaged_decoy(
        tmp_path, capsys, monkeypatch, before=True
    )
    assert code == 3
    assert err.count("\n") == 1 and err.startswith("error: E_CORRUPT: ")
    assert decoy_fp in err
    assert read == [f"components/{decoy_fp}.cdl"]


def test_a_damaged_candidate_ranked_after_the_hit_is_never_read(tmp_path, capsys, monkeypatch):
    code, err, healer_fp, decoy_fp, read = _adapt_with_a_damaged_decoy(
        tmp_path, capsys, monkeypatch, before=False
    )
    assert (code, err) == (1, "")
    assert read == [f"components/{healer_fp}.cdl"]
    assert (tmp_path / "out" / "healer.cdl").is_file()


def test_project_demand_below_threshold_stays_unresolved(tmp_path: Path, rules):
    from adapterforge.pool import pool_add

    pool_root = init_pool(tmp_path / "pool")
    fp = pool_add(
        pool_root,
        'component "crypt" version "1.0.0" {\n'
        "  provides interface Crypto {\n"
        "    op crypt(payload: bytes) -> bytes @concept data.crypto\n"
        "  }\n"
        "}\n",
    )
    strict = tmp_path / "strict.rules"
    strict.write_text("threshold 19/20\n")
    result = _run(CORPUS / "missing", "wantsign.pdl", pool_root, load_rules(strict))
    assert result.outcome == UNRESOLVABLE
    assert [str(d.concept) for d in result.unresolved] == ["data.crypto.sign"]
    assert result.integrations == ()
    assert [(s.action, s.detail) for s in result.steps] == [
        ("read", "wantsign: 1 component spec(s)"),
        ("compare", "0 connection(s), 1 demand(s)"),
        ("query", "data.crypto.sign (project demand)"),
        ("return", "0 candidate(s)"),
        ("verify", "not exact"),
    ]
    # One hop away scores 9/10: the same pool serves the demand at the
    # default threshold.
    lenient = _run(CORPUS / "missing", "wantsign.pdl", pool_root, rules)
    assert [(i.source, i.fingerprint) for i in lenient.integrations] == [(POOL_HIT, fp)]


def _util(name: str, version: str, render: bool) -> str:
    op = "    op render(x: string) -> string @concept text.render\n" if render else ""
    return (
        f'component "{name}" version "{version}" {{\n'
        "  provides interface Text {\n"
        f"{op}"
        "    op trim(x: string) -> string @concept text.trim\n"
        "  }\n"
        "}\n"
    )


def _adapt_demand(tmp_path: Path, capsys, project: str, *pooled: str) -> tuple[int, str, Path]:
    """`adapt` of `project` beside util 1.0.0, which provides no
    `text.render`, against a pool holding `pooled`; returns the exit
    code, stdout and the emit directory."""
    from adapterforge.cli import main
    from adapterforge.pool import pool_add

    case = tmp_path / "case"
    case.mkdir()
    (case / "util.cdl").write_text(_util("util", "1.0.0", render=False))
    (case / "p.pdl").write_text(project)
    pool_root = init_pool(tmp_path / "pool")
    for document in pooled:
        pool_add(pool_root, document)
    out = tmp_path / "out"
    code = main(["adapt", str(case / "p.pdl"), "--pool", str(pool_root), "--emit", str(out)])
    captured = capsys.readouterr()
    assert captured.err == ""
    return code, captured.out, out


_USES_UTIL = 'project "p" {\n  uses "util" *\n  demand text.render\n}\n'


def test_a_demand_passes_over_a_provider_whose_name_the_project_uses(tmp_path, capsys):
    """Pinning util 2.0.0 would be skipped, since the project already
    uses util, so that candidate cannot serve the demand."""
    code, out, emitted = _adapt_demand(
        tmp_path, capsys, _USES_UTIL, _util("util", "2.0.0", render=True)
    )
    assert code == 2
    assert "unresolved demand text.render (project)" in out
    assert "integrated" not in out
    assert not (emitted / "p.adapted.pdl").exists()


def test_a_demand_takes_a_differently_named_provider(tmp_path, capsys):
    code, out, emitted = _adapt_demand(
        tmp_path, capsys, _USES_UTIL,
        _util("util", "2.0.0", render=True), _util("textkit", "1.0.0", render=True),
    )
    assert code == 1
    assert "unresolved" not in out
    assert "integrated textkit (POOL_HIT" in out
    adapted = parse_project((emitted / "p.adapted.pdl").read_text())
    assert [(u.name, str(u.constraint)) for u in adapted.uses] == [
        ("util", "*"), ("textkit", '= "1.0.0"')
    ]


def test_two_demands_served_by_one_pooled_component(tmp_path, capsys):
    """The second demand takes the component the first one pinned."""
    project = 'project "p" {\n  uses "util" *\n  demand text.render\n  demand text.wrap\n}\n'
    both = _util("textkit", "1.0.0", render=True).replace(
        "  }\n}", "    op wrap(x: string) -> string @concept text.wrap\n  }\n}"
    )
    code, out, emitted = _adapt_demand(tmp_path, capsys, project, both)
    assert code == 1
    assert out.count("integrated textkit (POOL_HIT") == 2
    adapted = parse_project((emitted / "p.adapted.pdl").read_text())
    assert [u.name for u in adapted.uses] == ["util", "textkit"]


# A `helper` with no `Sorting`, and one that heals figure3: it provides
# reportgen's `Sorting` and requires sortkit's `BulkSort` verbatim.
_HELPER_MISC = """component "helper" version "1.0.0" {
  provides interface Misc {
    op noop(x: i32) -> i32 @concept util.misc.noop
  }
}
"""
_HELPER_HEALS = """component "helper" version "2.0.0" {
  provides interface Sorting {
    op sortAscending(items: list<i32>) -> list<i32> @concept data.sorting.sort
  }
  requires interface BulkSort {
    op sort(items: list<i32>, ascending: bool = true) -> list<i32> @concept data.sorting.sort
  }
}
"""


@pytest.mark.parametrize("in_specs", ["1.0.0 without Sorting", "the pooled one"])
def test_a_connection_takes_a_used_name_only_for_the_component_it_resolves_to(
    tmp_path, capsys, in_specs
):
    """figure3 also using `helper`: a pooled `helper` that heals the
    connection is taken only when it is the project's own `helper`;
    another version would be pinned under the project's `uses` line and
    resolve to the wrong component, so an adapter is generated."""
    from adapterforge.cli import main
    from adapterforge.pool import pool_add

    case = tmp_path / "case"
    shutil.copytree(CORPUS / "figure3", case)
    project = (case / "figure3.pdl").read_text()
    (case / "figure3.pdl").write_text(project.replace("  connect", '  uses "helper" *\n  connect'))
    own = _HELPER_HEALS if in_specs == "the pooled one" else _HELPER_MISC
    (case / "helper.cdl").write_text(own)
    pool_root = init_pool(tmp_path / "pool")
    pool_add(pool_root, _HELPER_HEALS)
    out = tmp_path / "out"
    code = main(["adapt", str(case / "figure3.pdl"), "--pool", str(pool_root), "--emit", str(out)])
    captured = capsys.readouterr()
    assert (code, captured.err) == (1, "")
    source = POOL_HIT if own == _HELPER_HEALS else GENERATED
    assert f"({source} " in captured.out and "outcome ADAPTED" in captured.out
