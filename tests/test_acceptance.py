"""Acceptance criteria, one test per criterion.

Each test prints a PASS/FAIL line with its measured scale; run with
`pytest tests/test_acceptance.py -v -s` to watch them. Budgets are
asserted where the criterion states one.
"""

from __future__ import annotations

import itertools
import random
import time
import zlib
from pathlib import Path

import genspecs
from oracles import (
    fold_conservation_holds,
    oracle_best_score,
    oracle_provider_call,
)
from adapterforge import canonjson
from adapterforge.adapters import (
    emit_descriptor,
    generate_adapter,
    interpret_mapping,
    parse_descriptor,
)
from adapterforge.analyser import ADAPTABLE, analyse, match_operation
from adapterforge.aslt import FoldPattern, build_component_aslt
from adapterforge.cli import main
from adapterforge.conversions import load_rules
from adapterforge.linkage import run_workflow
from adapterforge.pool import (
    init_pool,
    pool_add,
    pool_get,
    pool_list,
    pool_verify,
)
from adapterforge.report import (
    match_report_from_json,
    match_report_to_json,
    workflow_result_from_json,
    workflow_result_to_json,
)
from adapterforge.speclang import parse_any, parse_component, serialize

CORPUS = Path(__file__).parent / "corpus"
RULES = CORPUS / "conversions.rules"


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


# --- 1. Healing loop -------------------------------------------------


def test_criterion_1_healing_loop(tmp_path: Path):
    rng = random.Random(0xA1)
    conv, config = load_rules(RULES)
    cases = 200
    started = time.monotonic()
    failures = []
    for i in range(cases):
        case_dir = tmp_path / f"case{i:03d}"
        case_dir.mkdir()
        consumer, provider, project = genspecs.adaptable_pair(rng, config)
        (case_dir / f"{consumer.name}.cdl").write_text(serialize(consumer))
        (case_dir / f"{provider.name}.cdl").write_text(serialize(provider))
        project_file = case_dir / f"{project.name}.pdl"
        project_file.write_text(serialize(project))

        pool_dir = case_dir / "pool"
        adapt_code = main(
            [
                "adapt",
                str(project_file),
                "--conversions",
                str(RULES),
                "--pool",
                str(pool_dir),
            ]
        )
        if adapt_code not in (0, 1):
            failures.append((i, f"adapt exited {adapt_code}"))
            continue
        adapted = case_dir / f"{project.name}.adapted.pdl"
        target = adapted if adapted.exists() else project_file
        check_code = main(
            ["check", str(target), "--conversions", str(RULES), "--specs", str(case_dir)]
        )
        if check_code != 0:
            failures.append((i, f"check exited {check_code}"))
    elapsed = time.monotonic() - started
    ok = not failures and elapsed < 60.0
    detail = f"{cases - len(failures)}/{cases} healed, {elapsed:.1f}s"
    if failures:
        detail += f"; first failure: {failures[0]}"
    _report("1 healing-loop", ok, detail)


# --- 2. Oracle equivalence -------------------------------------------


def test_criterion_2_oracle_equivalence():
    conv, config = load_rules(RULES)
    sigs = genspecs.enumerated_signatures()
    pairs = 0
    disagreements = []
    started = time.monotonic()
    for required, provided in itertools.product(sigs, sigs):
        pairs += 1
        fast = match_operation(required, provided, conv, config)
        slow = oracle_best_score(required, provided, conv, config)
        if (fast is None) != (slow is None):
            disagreements.append((required, provided, fast, slow))
        elif fast is not None and fast.score != slow:
            disagreements.append((required, provided, fast.score, slow))
    elapsed = time.monotonic() - started
    ok = pairs >= 10_000 and not disagreements and elapsed < 120.0
    _report(
        "2 oracle-equivalence",
        ok,
        f"{pairs} pairs, {len(disagreements)} disagreements, {elapsed:.1f}s",
    )


# --- 3. Pool determinism and hit path --------------------------------


def test_criterion_3_pool_hit_determinism(tmp_path: Path):
    pool_dir = tmp_path / "pool"
    runs = []
    for run in (1, 2):
        emit = tmp_path / f"run{run}"
        code = main(
            [
                "adapt",
                str(CORPUS / "figure3" / "figure3.pdl"),
                "--conversions",
                str(RULES),
                "--pool",
                str(pool_dir),
                "--emit",
                str(emit),
                "--format",
                "structured",
            ]
        )
        assert code == 1
        report = workflow_result_from_json(
            canonjson.loads((emit / "figure3.report.json").read_text())
        )
        runs.append((emit, report))

    first_report = runs[0][1]
    second_report = runs[1][1]
    sources_first = [i.source for i in first_report.integrations]
    sources_second = [i.source for i in second_report.integrations]
    first_bytes = (runs[0][0] / "figure3.adapted.pdl").read_bytes()
    second_bytes = (runs[1][0] / "figure3.adapted.pdl").read_bytes()
    generations_second = len(second_report.generated_adapters)
    ok = (
        sources_first == ["GENERATED"]
        and sources_second == ["POOL_HIT"]
        and generations_second == 0
        and first_bytes == second_bytes
    )
    _report(
        "3 pool-hit-determinism",
        ok,
        f"run1={sources_first}, run2={sources_second}, "
        f"identical_bytes={first_bytes == second_bytes}",
    )


# --- 4. Content addressing -------------------------------------------


def test_criterion_4_content_addressing(tmp_path: Path):
    rng = random.Random(0xA4)
    pool_dir = init_pool(tmp_path / "pool")
    cycles = 1000
    for _ in range(cycles):
        spec = genspecs.random_component(rng)
        fp = pool_add(pool_dir, serialize(spec))
        stored = pool_get(pool_dir, fp)
        assert stored == spec or serialize(stored) == serialize(spec)
    clean = pool_verify(pool_dir)

    entries = pool_list(pool_dir)
    tamper_trials = 100
    detected = 0
    for _ in range(tamper_trials):
        fp, entry = rng.choice(entries)
        path = pool_dir / entry.path
        original = path.read_bytes()
        offset = rng.randrange(len(original))
        corrupted = bytearray(original)
        corrupted[offset] ^= 1 << rng.randrange(8)
        path.write_bytes(bytes(corrupted))
        findings = pool_verify(pool_dir)
        if any(f.fingerprint == fp for f in findings):
            detected += 1
        path.write_bytes(original)
    ok = clean == [] and detected == tamper_trials
    _report(
        "4 content-addressing",
        ok,
        f"{cycles} add/get cycles clean={not clean}, "
        f"{detected}/{tamper_trials} tampers detected",
    )


# --- 5. Round-trips ---------------------------------------------------


def test_criterion_5_round_trips(tmp_path: Path):
    rng = random.Random(0xA5)
    conv, config = load_rules(RULES)
    failures = 0

    corpus_files = sorted(CORPUS.rglob("*.cdl")) + sorted(CORPUS.rglob("*.pdl"))
    for path in corpus_files:
        spec = parse_any(path.read_text())
        if parse_any(serialize(spec)) != spec:
            failures += 1

    generated = 1000
    for _ in range(generated):
        spec = genspecs.random_component(rng)
        if parse_component(serialize(spec)) != spec:
            failures += 1

    descriptor_trips = 0
    report_trips = 0
    for i in range(30):
        case_dir = tmp_path / f"w{i}"
        case_dir.mkdir()
        consumer, provider, project = genspecs.adaptable_pair(rng, config)
        (case_dir / f"{consumer.name}.cdl").write_text(serialize(consumer))
        (case_dir / f"{provider.name}.cdl").write_text(serialize(provider))
        project_file = case_dir / f"{project.name}.pdl"
        project_file.write_text(serialize(project))
        result = run_workflow(project_file, case_dir, case_dir / "pool", conv, config)
        for adapter in result.generated_adapters:
            descriptor_trips += 1
            if parse_descriptor(emit_descriptor(adapter)) != adapter:
                failures += 1
        doc = canonjson.loads(canonjson.dumps(workflow_result_to_json(result)))
        report_trips += 1
        if workflow_result_from_json(doc) != result:
            failures += 1
        match_doc = canonjson.loads(
            canonjson.dumps(match_report_to_json(result.final_report))
        )
        if match_report_from_json(match_doc) != result.final_report:
            failures += 1

    ok = failures == 0 and descriptor_trips > 0
    _report(
        "5 round-trips",
        ok,
        f"{len(corpus_files)} corpus + {generated} generated specs, "
        f"{descriptor_trips} descriptors, {report_trips} reports, {failures} failures",
    )


# --- 6. Folding conservation ------------------------------------------


def test_criterion_6_folding_conservation():
    rng = random.Random(0xA6)
    trials = 500
    kinds = [None, "project", "component", "interface", "operation", "parameter", "meta"]
    labels = [None, "*", "a*", "?b*", "p0*", "op*"]
    held = 0
    for _ in range(trials):
        tree = build_component_aslt(genspecs.random_component(rng))
        pattern = FoldPattern(kind=rng.choice(kinds), label=rng.choice(labels))
        if fold_conservation_holds(tree, pattern):
            held += 1
    ok = held == trials
    _report("6 folding-conservation", ok, f"{held}/{trials} trials conserved")


# --- 7. Executable adapter semantics ----------------------------------


def _value_for(rng: random.Random, ty, parse_safe: bool):
    if ty.kind == "list":
        return [_value_for(rng, ty.elem, parse_safe) for _ in range(rng.randint(0, 3))]
    if ty.kind in ("i32", "i64"):
        return rng.randint(-(10**6), 10**6)
    if ty.kind == "f64":
        return round(rng.uniform(-1000.0, 1000.0), 6)
    if ty.kind == "bool":
        return rng.random() < 0.5
    if ty.kind == "string":
        # Digit strings keep PARSE conversions total.
        return str(rng.randint(0, 10**6)) if parse_safe else f"s{rng.randint(0, 999)}"
    if ty.kind == "bytes":
        return bytes([rng.randrange(256) for _ in range(4)])
    return None


def _typed_result(ty, material) -> object:
    seed = zlib.crc32(repr(material).encode("utf-8"))
    if ty.kind == "i32":
        return seed % 1000
    if ty.kind == "i64":
        return seed % (10**9)
    if ty.kind == "f64":
        return (seed % (10**6)) / 64.0
    if ty.kind == "bool":
        return seed % 2 == 0
    if ty.kind == "string":
        return str(seed % (10**6))
    if ty.kind == "bytes":
        return seed.to_bytes(4, "big")
    if ty.kind == "list":
        return [_typed_result(ty.elem, material)]
    return None


def _mapping_cases(rng: random.Random, conv, config):
    """Corpus cases plus generated ones, as (match, required, provided) ops."""
    cases = []

    def from_dir(case: str, components: list[str], project_file: str):
        specs = [
            parse_component((CORPUS / case / n).read_text()) for n in components
        ]
        from adapterforge.speclang import parse_project

        project = parse_project((CORPUS / case / project_file).read_text())
        report = analyse(project, specs, conv, config)
        for verdict in report.verdicts:
            if verdict.status != ADAPTABLE:
                continue
            consumer = next(s for s in specs if s.name == verdict.connection.consumer_component)
            provider = next(s for s in specs if s.name == verdict.connection.provider_component)
            adapter = generate_adapter(verdict, consumer, provider, project.name)
            provider_iface = provider.interface("provided", verdict.connection.provider_interface)
            consumer_iface = consumer.interface("required", verdict.connection.consumer_interface)
            for om, mapping in zip(verdict.op_matches, adapter.mappings):
                cases.append(
                    (
                        om,
                        mapping,
                        consumer_iface.operation(om.required_name),
                        provider_iface.operation(om.provided_name),
                    )
                )

    from_dir("figure3", ["reportgen.cdl", "sortkit.cdl"], "figure3.pdl")
    from_dir("units", ["uiapp.cdl", "cron.cdl"], "unitsync.pdl")

    while len(cases) < 40:
        consumer, provider, project = genspecs.adaptable_pair(rng, config)
        report = analyse(project, [consumer, provider], conv, config)
        verdict = report.verdicts[0]
        if verdict.status != ADAPTABLE:
            continue
        adapter = generate_adapter(verdict, consumer, provider, project.name)
        consumer_iface = consumer.interface("required", "Wanted")
        provider_iface = provider.interface("provided", "Offered")
        for om, mapping in zip(verdict.op_matches, adapter.mappings):
            cases.append(
                (
                    om,
                    mapping,
                    consumer_iface.operation(om.required_name),
                    provider_iface.operation(om.provided_name),
                )
            )
    return [c for c in cases if len(c[2].params) <= 3]


def test_criterion_7_executable_adapter_semantics():
    rng = random.Random(0xA7)
    conv, config = load_rules(RULES)
    cases = _mapping_cases(rng, conv, config)
    vectors_per_case = 100
    mismatched = 0
    checked = 0
    for om, mapping, required_op, provided_op in cases:
        parse_slots = {
            m.slot
            for m in om.mismatches
            if m.kind == "TYPE_CONVERSION" and m.rule.kind == "PARSE"
        }

        def provider_fn(*provider_args):
            return _typed_result(provided_op.returns, provider_args)

        for _ in range(vectors_per_case):
            args = [
                _value_for(rng, p.ty, parse_safe=True) for p in required_op.params
            ]
            checked += 1
            via_mapping = interpret_mapping(mapping, args, provider_fn)
            via_oracle = oracle_provider_call(om, provided_op, args, provider_fn)
            if via_mapping != via_oracle:
                mismatched += 1
    ok = mismatched == 0 and checked >= vectors_per_case * len(cases)
    _report(
        "7 executable-adapter-semantics",
        ok,
        f"{len(cases)} mappings x {vectors_per_case} vectors, {mismatched} mismatches",
    )
