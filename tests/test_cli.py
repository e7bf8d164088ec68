from __future__ import annotations

import fcntl
import hashlib
import json
import os
import re
import shutil
import sys
from pathlib import Path

import pytest

from adapterforge import canonjson
from adapterforge.cli import main
from adapterforge.report import (
    match_report_from_json,
    match_report_to_json,
    render_match_report,
    workflow_result_from_json,
)

CORPUS = Path(__file__).parent / "corpus"
RULES = str(CORPUS / "conversions.rules")


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _dir_state(root: Path) -> dict[str, str]:
    state = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            state[str(path.relative_to(root))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return state


def test_check_exact_exit_0(capsys):
    code, out, err = run(
        capsys, "check", str(CORPUS / "exact" / "exactpair.pdl"), "--conversions", RULES
    )
    assert code == 0
    assert "EXACT" in out
    assert err == ""


def test_check_figure3_exit_1(capsys):
    code, out, _ = run(
        capsys, "check", str(CORPUS / "figure3" / "figure3.pdl"), "--conversions", RULES
    )
    assert code == 1
    assert "ADAPTABLE" in out


def test_check_missing_demand_exit_2(capsys):
    code, out, _ = run(capsys, "check", str(CORPUS / "missing" / "wantsign.pdl"))
    assert code == 2
    assert "demand data.crypto.sign" in out


def test_check_malformed_spec_exit_3(capsys, tmp_path):
    bad = tmp_path / "broken.cdl"
    bad.write_text('component "A" version "1.0.0" {\n  provides interface X {\n    op f() -> unit\n  }\n}\n')
    project = tmp_path / "p.pdl"
    project.write_text('project "p" { uses "A" * }\n')
    code, out, err = run(capsys, "check", str(project), "--specs", str(tmp_path))
    assert code == 3
    assert "broken.cdl" in err
    assert "line 3" in err


def test_check_out_of_range_rules_exit_3(capsys, tmp_path):
    bad = tmp_path / "bad.rules"
    bad.write_text("i32, -, i64, -, widen, 1, 1\npenalty param_permutation -1/20\n")
    code, out, err = run(
        capsys, "check", str(CORPUS / "exact" / "exactpair.pdl"), "--conversions", str(bad)
    )
    assert code == 3
    assert out == ""
    assert "E_SYNTAX" in err and "line 2" in err


def test_check_structured_roundtrips(capsys):
    code, out, _ = run(
        capsys,
        "check",
        str(CORPUS / "figure3" / "figure3.pdl"),
        "--conversions",
        RULES,
        "--format",
        "structured",
    )
    assert code == 1
    report = match_report_from_json(canonjson.loads(out))
    assert report.project == "figure3"


def test_ancestry_report_roundtrips_its_concept_distance(capsys):
    """A consumer concept one segment below the provider's is one
    CONCEPT_DISTANCE hop: the structured report carries the hop count,
    reads back to the same bytes, and renders as `check` prints it."""
    argv = ("check", str(CORPUS / "ancestry" / "stablesort.pdl"), "--conversions", RULES)
    code, human, _ = run(capsys, *argv)
    assert code == 1
    code, out, _ = run(capsys, *argv, "--format", "structured")
    assert code == 1
    report = match_report_from_json(canonjson.loads(out))
    (verdict,) = report.verdicts
    (mismatch,) = verdict.mismatches
    assert (mismatch.kind, mismatch.hops, str(mismatch.concept)) == (
        "CONCEPT_DISTANCE", 1, "data.sorting.sort"
    )
    assert canonjson.dumps(match_report_to_json(report)) == out
    assert render_match_report(report) == human
    assert "  CONCEPT_DISTANCE 1 hop(s) to data.sorting.sort\n" in human


def test_adapt_already_exact_writes_only_report(capsys, tmp_path):
    emit = tmp_path / "out"
    code, out, _ = run(
        capsys,
        "adapt",
        str(CORPUS / "exact" / "exactpair.pdl"),
        "--conversions",
        RULES,
        "--pool",
        str(tmp_path / "pool"),
        "--emit",
        str(emit),
    )
    assert code == 0
    assert "outcome ALREADY_EXACT" in out
    assert [p.name for p in emit.iterdir()] == ["exactpair.report.txt"]


def test_adapt_figure3_end_to_end(capsys, tmp_path):
    emit = tmp_path / "out"
    pool = tmp_path / "pool"
    code, out, _ = run(
        capsys,
        "adapt",
        str(CORPUS / "figure3" / "figure3.pdl"),
        "--conversions",
        RULES,
        "--pool",
        str(pool),
        "--emit",
        str(emit),
    )
    assert code == 1
    assert "outcome ADAPTED" in out
    names = sorted(p.name for p in emit.iterdir())
    adapters = [n for n in names if n.endswith(".adapter")]
    assert len(adapters) == 1
    assert "figure3.adapted.pdl" in names
    # The emitted artifacts are a checkable project on their own once
    # the original component specs sit beside them.
    for cdl in (CORPUS / "figure3").glob("*.cdl"):
        shutil.copy(cdl, emit / cdl.name)
    code2, out2, _ = run(
        capsys, "check", str(emit / "figure3.adapted.pdl"), "--conversions", RULES
    )
    assert code2 == 0


@pytest.mark.parametrize("param", ["Items", "_n"])
def test_structured_reports_roundtrip_non_lowercase_param_names(capsys, tmp_path, param):
    # An unannotated param's effective concept ends in `arg.<param name>`,
    # and a param name is any identifier, not a lowercase concept segment.
    for spec in (CORPUS / "figure3").iterdir():
        text = spec.read_text()
        if spec.name == "reportgen.cdl":
            text = text.replace("(items:", f"({param}:")
        (tmp_path / spec.name).write_text(text)
    project = str(tmp_path / "figure3.pdl")
    structured = ("--conversions", RULES, "--format", "structured")
    code, out, _ = run(capsys, "check", project, *structured)
    assert code == 2
    report = match_report_from_json(canonjson.loads(out))
    assert str(report.demand[0].shape.params[0][2]) == f"data.sorting.sort.arg.{param}"
    code, out, _ = run(
        capsys, "adapt", project, "--pool", str(tmp_path / "pool"),
        "--emit", str(tmp_path / "out"), *structured,
    )
    assert code == 2
    assert workflow_result_from_json(canonjson.loads(out)).final_report == report


def test_adapt_unresolvable_exit_2(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        "adapt",
        str(CORPUS / "missing" / "wantsign.pdl"),
        "--pool",
        str(tmp_path / "pool"),
        "--emit",
        str(tmp_path / "out"),
    )
    assert code == 2
    assert "unresolved demand data.crypto.sign" in out
    assert "outcome UNRESOLVABLE" in out


def test_adapt_structured_report_roundtrips(capsys, tmp_path):
    emit = tmp_path / "out"
    code, out, _ = run(
        capsys,
        "adapt",
        str(CORPUS / "units" / "unitsync.pdl"),
        "--conversions",
        RULES,
        "--pool",
        str(tmp_path / "pool"),
        "--emit",
        str(emit),
        "--format",
        "structured",
    )
    assert code == 1
    result = workflow_result_from_json(canonjson.loads(out))
    assert result.outcome == "ADAPTED"
    on_disk = (emit / "unitsync.report.json").read_text()
    assert workflow_result_from_json(canonjson.loads(on_disk)) == result


def test_adapt_pool_env_var(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("ADAPTERFORGE_POOL", str(tmp_path / "envpool"))
    code, _, _ = run(
        capsys,
        "adapt",
        str(CORPUS / "figure3" / "figure3.pdl"),
        "--conversions",
        RULES,
        "--emit",
        str(tmp_path / "out"),
    )
    assert code == 1
    assert (tmp_path / "envpool" / "index").exists()


def test_pool_flag_beats_env(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("ADAPTERFORGE_POOL", str(tmp_path / "envpool"))
    code, _, _ = run(
        capsys,
        "adapt",
        str(CORPUS / "figure3" / "figure3.pdl"),
        "--conversions",
        RULES,
        "--pool",
        str(tmp_path / "flagpool"),
        "--emit",
        str(tmp_path / "out"),
    )
    assert code == 1
    assert (tmp_path / "flagpool" / "index").exists()
    assert not (tmp_path / "envpool").exists()


def test_pool_requires_some_location(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("ADAPTERFORGE_POOL", raising=False)
    code, _, err = run(capsys, "pool", "list")
    assert code == 3
    assert "ADAPTERFORGE_POOL" in err


def test_pool_add_list_query_verify(capsys, tmp_path):
    pool = str(tmp_path / "pool")
    spec = tmp_path / "sorter.cdl"
    spec.write_text(
        'component "sorter" version "1.0.0" {\n'
        "  provides interface I {\n"
        "    op sort(xs: list<i32>) -> list<i32> @concept data.sorting.sort\n"
        "  }\n"
        "}\n"
    )
    code, out, _ = run(capsys, "pool", "add", str(spec), "--pool", pool)
    assert code == 0
    fp = out.strip()
    assert len(fp) == 64

    code, out, _ = run(capsys, "pool", "list", "--pool", pool)
    assert code == 0
    assert out == f"{fp} component sorter 1.0.0\n"

    code, out, _ = run(capsys, "pool", "query", "data.sorting.sort", "--pool", pool)
    assert code == 0
    assert out == f"{fp} 1.000 sorter\n"

    code, out, _ = run(capsys, "pool", "query", "data.sorting.sort", ">=2.0.0", "--pool", pool)
    assert code == 0
    assert out == ""

    code, out, _ = run(capsys, "pool", "verify", "--pool", pool)
    assert code == 0
    assert out == ""

    stored = next((Path(pool) / "components").glob("*.cdl"))
    data = bytearray(stored.read_bytes())
    data[5] ^= 0x20
    stored.write_bytes(bytes(data))
    code, out, _ = run(capsys, "pool", "verify", "--pool", pool)
    assert code == 1
    assert len(out.splitlines()) == 1
    assert "hash_mismatch" in out


def test_pool_list_empty(capsys, tmp_path):
    from adapterforge.pool import init_pool

    pool = init_pool(tmp_path / "pool")
    code, out, _ = run(capsys, "pool", "list", "--pool", str(pool))
    assert code == 0
    assert out == ""


def test_fmt_prints_canonical_and_never_writes(capsys, tmp_path):
    messy = tmp_path / "messy.cdl"
    messy.write_text(
        'component   "m" version "1.0.0" {  requires interface Z { }\n'
        "provides interface A { } }"
    )
    before = messy.read_text()
    code, out, _ = run(capsys, "fmt", str(messy))
    assert code == 0
    assert out.index("provides interface A") < out.index("requires interface Z")
    assert messy.read_text() == before


def test_fmt_parse_error_exit_3(capsys, tmp_path):
    bad = tmp_path / "bad.cdl"
    bad.write_text("component !!!")
    code, _, err = run(capsys, "fmt", str(bad))
    assert code == 3
    assert "bad.cdl" in err


def test_aslt_dump_component(capsys):
    code, out, _ = run(capsys, "aslt", "dump", str(CORPUS / "figure3" / "sortkit.cdl"))
    assert code == 0
    assert out.splitlines()[0] == "component sortkit"
    assert "operation sort" in out


def test_aslt_dump_project_with_fold(capsys):
    path = str(CORPUS / "figure3" / "figure3.pdl")
    code, full, _ = run(capsys, "aslt", "dump", path)
    assert code == 0
    assert "meta " in full
    code, folded, _ = run(capsys, "aslt", "dump", path, "--fold", "meta")
    assert code == 0
    assert "meta " not in folded
    assert folded.splitlines()[0] == "project figure3"


def test_aslt_dump_takes_no_conversions(capsys):
    path = str(CORPUS / "figure3" / "figure3.pdl")
    code, out, err = run(capsys, "aslt", "dump", path, "--conversions", "x")
    assert code == 3 and out == ""
    assert err == "error: unrecognized arguments: --conversions x\n"


def test_unknown_flag_is_an_error(capsys):
    code, _, err = run(capsys, "check", "whatever.pdl", "--bogus")
    assert code == 3
    assert err.startswith("error:")


def test_readonly_subcommands_do_not_mutate(capsys, tmp_path):
    workdir = tmp_path / "case"
    shutil.copytree(CORPUS / "figure3", workdir)
    shutil.copy(CORPUS / "conversions.rules", workdir / "conversions.rules")
    pool = tmp_path / "pool"
    from adapterforge.pool import init_pool, pool_add

    init_pool(pool)
    pool_add(pool, (workdir / "sortkit.cdl").read_text())

    before_case = _dir_state(workdir)
    before_pool = _dir_state(pool)
    rules = str(workdir / "conversions.rules")
    run(capsys, "check", str(workdir / "figure3.pdl"), "--conversions", rules)
    run(capsys, "fmt", str(workdir / "sortkit.cdl"))
    run(capsys, "aslt", "dump", str(workdir / "figure3.pdl"), "--fold", "meta")
    run(capsys, "pool", "list", "--pool", str(pool))
    run(capsys, "pool", "query", "data.sorting.sort", "--pool", str(pool))
    run(capsys, "pool", "verify", "--pool", str(pool))
    assert _dir_state(workdir) == before_case
    assert _dir_state(pool) == before_pool


@pytest.mark.parametrize(
    "case,project,check_exit,adapt_exit",
    [
        ("exact", "exactpair.pdl", 0, 0),
        ("figure3", "figure3.pdl", 1, 1),
        ("units", "unitsync.pdl", 1, 1),
        ("missing", "wantsign.pdl", 2, 2),
        ("golden", "shopfront.pdl", 0, 0),
        ("incompatible", "checkout.pdl", 2, 2),
    ],
)
def test_exit_code_contract_over_corpus(capsys, tmp_path, case, project, check_exit, adapt_exit):
    path = CORPUS / case / project
    code, _, _ = run(capsys, "check", str(path), "--conversions", RULES)
    assert code == check_exit
    code, _, _ = run(
        capsys,
        "adapt",
        str(path),
        "--conversions",
        RULES,
        "--pool",
        str(tmp_path / "pool"),
        "--emit",
        str(tmp_path / "emit"),
    )
    assert code == adapt_exit


def test_pool_add_accepts_adapter_descriptors(capsys, tmp_path):
    pool = tmp_path / "pool"
    emit = tmp_path / "emit"
    code, _, _ = run(
        capsys,
        "adapt",
        str(CORPUS / "figure3" / "figure3.pdl"),
        "--conversions",
        RULES,
        "--pool",
        str(pool),
        "--emit",
        str(emit),
    )
    assert code == 1
    descriptor = next(emit.glob("*.adapter"))
    other_pool = tmp_path / "pool2"
    code, out, _ = run(capsys, "pool", "add", str(descriptor), "--pool", str(other_pool))
    assert code == 0
    fp = out.strip()
    code, out, _ = run(capsys, "pool", "list", "--pool", str(other_pool))
    assert code == 0
    assert out.startswith(fp) and " adapter adapt_" in out


def test_pool_subcommands_on_malformed_index_exit_3(capsys, tmp_path):
    """An index that is not a `pool/2` journal (a `pool/1` document, an
    empty file, garbage) is refused by every `pool` subcommand and by
    `adapt`: exit 3, one E_CORRUPT line, no file written, no lock held."""
    from adapterforge.pool import init_pool, pool_add

    figure3 = CORPUS / "figure3"
    pool = init_pool(tmp_path / "pool")
    for document in (*figure3.glob("*.cdl"), Path(__file__).parent / "golden" / "figure3.adapter"):
        pool_add(pool, document.read_text())
    rows = [json.loads(line) for line in (pool / "index").read_bytes().splitlines()[1:]]
    pool1 = {"entries": {row.pop("fingerprint"): row for row in rows}, "format": "pool/1"}
    for index in (canonjson.dump_bytes(pool1), b"", b"garbage\n"):
        (pool / "index").write_bytes(index)
        before = _dir_state(pool)
        for argv in (
            ["pool", "add", str(figure3 / "sortkit.cdl")],
            ["pool", "query", "data.sorting.sort", "--conversions", RULES],
            ["pool", "list"],
            ["pool", "verify"],
            ["adapt", str(figure3 / "figure3.pdl"), "--conversions", RULES, "--emit", str(tmp_path)],
        ):
            code, out, err = run(capsys, *argv, "--pool", str(pool))
            assert (code, out) == (3, ""), argv
            assert err == "error: E_CORRUPT: pool index is not a pool/2 journal: its header is missing\n"
            lock = os.open(pool / "index.lock", os.O_RDONLY)
            try:
                fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)  # BlockingIOError if still held
            finally:
                os.close(lock)
        assert _dir_state(pool) == before


@pytest.mark.parametrize("damage", ["deleted", "flipped"])
def test_pool_add_mends_a_damaged_artifact(capsys, tmp_path, damage):
    pool = tmp_path / "pool"
    figure3 = str(CORPUS / "figure3" / "figure3.pdl")
    adapt = ("adapt", figure3, "--conversions", RULES, "--pool", str(pool), "--emit")
    assert run(capsys, *adapt, str(tmp_path / "first"))[0] == 1
    (artifact,) = (pool / "adapters").glob("*.adapter")
    if damage == "deleted":
        artifact.unlink()
    else:
        artifact.write_bytes(artifact.read_bytes().replace(b"sortkit", b"sortkiT", 1))
    assert run(capsys, *adapt, str(tmp_path / "broken"))[0] == 3
    index, seal = (pool / "index").read_bytes(), (pool / "index.lock").read_bytes()
    descriptor = Path(__file__).parent / "golden" / "figure3.adapter"
    code, out, err = run(capsys, "pool", "add", str(descriptor), "--pool", str(pool))
    assert (code, out, err) == (0, f"{artifact.name.partition('.')[0]}\n", "")
    assert artifact.read_bytes() == descriptor.read_bytes()
    assert (pool / "index").read_bytes() == index and (pool / "index.lock").read_bytes() == seal
    assert run(capsys, "pool", "verify", "--pool", str(pool)) == (0, "", "")
    code, out, _ = run(capsys, *adapt, str(tmp_path / "mended"))
    assert code == 1 and "(POOL_HIT " in out


def test_pool_add_malformed_descriptor_exit_3(capsys, tmp_path):
    doc = canonjson.loads((Path(__file__).parent / "golden" / "figure3.adapter").read_text())
    doc["implements"] = 5
    bad = tmp_path / "bad.adapter"
    bad.write_text(canonjson.dumps(doc))
    code, out, err = run(capsys, "pool", "add", str(bad), "--pool", str(tmp_path / "pool"))
    assert code == 3
    assert out == ""
    assert err.startswith("error: E_INVALID_SPEC: ") and err.count("\n") == 1


def test_pool_add_malformed_concept_exit_3(capsys, tmp_path):
    doc = canonjson.loads((Path(__file__).parent / "golden" / "figure3.adapter").read_text())
    doc["implements"]["operations"][0]["concept"] = "Data..Sort!"
    bad = tmp_path / "bad.adapter"
    bad.write_text(canonjson.dumps(doc))
    pool = tmp_path / "pool"
    code, out, err = run(capsys, "pool", "add", str(bad), "--pool", str(pool))
    assert (code, out) == (3, "")
    assert err == (
        f"error: E_INVALID_SPEC: {bad}: not a valid adapter descriptor: "
        "malformed concept 'Data..Sort!': bad concept segment 'Data'\n"
    )
    assert run(capsys, "pool", "list", "--pool", str(pool))[:2] == (0, "")


def test_pool_add_non_json_descriptor_exit_3(capsys, tmp_path):
    bad = tmp_path / "bad.adapter"
    bad.write_text("{not json\n")
    pool = tmp_path / "pool"
    code, out, err = run(capsys, "pool", "add", str(bad), "--pool", str(pool))
    assert (code, out) == (3, "")
    assert err.startswith(
        f"error: E_INVALID_SPEC: {bad}: not a valid adapter descriptor: descriptor is not JSON: "
    )
    assert err.count("\n") == 1


# `pool query data.sorting.sort` on the pool `adapt` leaves on figure3,
# which holds only the figure3 adapter, version 1.0.0.
_FIGURE3_HIT = (
    "91b3e19442ba42d787b8bdd4b2bbaace31e2f20bad7aeda005a93afca73ac940 1.000"
    " adapt_reportgen_sortkit_449e7545\n"
)


@pytest.mark.parametrize(
    "constraint,result",
    [
        ("*", (0, _FIGURE3_HIT, "")),
        ("=1.0.0", (0, _FIGURE3_HIT, "")),
        (">=1.0.0", (0, _FIGURE3_HIT, "")),
        (">=2.0.0", (0, "", "")),
        ("~1.0.0", (3, "", "error: bad constraint '~1.0.0': use *, =x.y.z or >=x.y.z\n")),
        ("=1.0", (3, "", "error: version '1.0' is not MAJOR.MINOR.PATCH\n")),
    ],
)
def test_pool_query_constraints(capsys, tmp_path, constraint, result):
    assert _adapt_figure3(capsys, tmp_path)[0] == 1
    argv = ("pool", "query", "data.sorting.sort", constraint, "--pool", str(tmp_path / "pool"))
    assert run(capsys, *argv) == result


def test_pool_query_bad_concept_exit_3(capsys, tmp_path):
    argv = ("pool", "query", "Data.x", "--pool", str(tmp_path / "pool"))
    assert run(capsys, *argv) == (3, "", "error: bad concept segment 'Data'\n")


def test_pool_add_refuses_an_adapter_that_cannot_run(capsys, tmp_path):
    doc = canonjson.loads((Path(__file__).parent / "golden" / "figure3.adapter").read_text())
    doc["mappings"][0]["to"] = "no_such_op"
    doc["mappings"][0]["slots"] = []
    bad = tmp_path / "bad.adapter"
    bad.write_text(canonjson.dumps(doc))
    pool = tmp_path / "pool"
    assert run(capsys, "pool", "add", str(CORPUS / "figure3" / "sortkit.cdl"), "--pool", str(pool))[0] == 0
    before = _dir_state(pool)
    code, out, err = run(capsys, "pool", "add", str(bad), "--pool", str(pool))
    assert (code, out) == (3, "")
    assert err == (
        f"error: E_INVALID_SPEC: {bad}: adapter adapt_reportgen_sortkit_449e7545 cannot run: "
        "sortAscending maps to no_such_op, not in BulkSort\n"
    )
    assert _dir_state(pool) == before
    assert run(capsys, "pool", "verify", "--pool", str(pool)) == (0, "", "")


def test_pool_verify_reports_orphan_exit_1(capsys, tmp_path):
    from adapterforge.pool import init_pool

    pool = init_pool(tmp_path / "pool")
    orphan = pool / "components" / f"{'c' * 64}.cdl"
    shutil.copy(CORPUS / "figure3" / "sortkit.cdl", orphan)
    (pool / "components" / ".tmp-1-2-3-partial").write_bytes(b"half")
    code, out, _ = run(capsys, "pool", "verify", "--pool", str(pool))
    assert code == 1
    assert out == f"orphan {'c' * 64} components/{'c' * 64}.cdl: artifact has no index entry\n"


def test_repeated_main_calls_match_a_fresh_parser(capsys, tmp_path):
    from adapterforge import cli

    spec = tmp_path / "sortkit.cdl"
    shutil.copy(CORPUS / "figure3" / "sortkit.cdl", spec)
    pool = str(tmp_path / "pool")
    figure3 = str(CORPUS / "figure3" / "figure3.pdl")
    calls = [
        ("check", figure3, "--conversions", RULES, "--format", "structured"),
        ("check", figure3, "--conversions", RULES),
        ("pool", "add", str(spec), "--pool", pool),
        ("pool", "list", "--pool", pool),
        ("--version",),
        ("check", figure3, "--bogus"),
    ]
    cli._build_parser.cache_clear()
    in_one_parser = [run(capsys, *argv) for argv in calls]
    assert cli._build_parser.cache_info().misses == 1
    for argv, result in zip(calls, in_one_parser):
        cli._build_parser.cache_clear()
        assert run(capsys, *argv) == result
    assert [code for code, _, _ in in_one_parser] == [1, 1, 0, 0, 0, 3]
    assert in_one_parser[0][1].startswith("{") and not in_one_parser[1][1].startswith("{")


_UNICODE_DIGIT_SPEC = (
    'component "A" version "1.0.0" {\n'
    "  provides interface I {\n"
    "    op f(x: i32 = ²) -> i32 @concept a\n"
    "  }\n"
    "}\n"
)


def test_unicode_digit_spec_exit_3(capsys, tmp_path):
    bad = tmp_path / "digits.cdl"
    bad.write_text(_UNICODE_DIGIT_SPEC, encoding="utf-8")
    project = tmp_path / "p.pdl"
    project.write_text('project "p" { uses "A" * }\n')
    for argv in (("fmt", str(bad)), ("check", str(project), "--specs", str(tmp_path))):
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1
        assert "digits.cdl: unexpected character '²' (line 3, column 19)" in err


def test_non_utf8_rules_exit_3(capsys, tmp_path):
    bad = tmp_path / "bad.rules"
    bad.write_bytes(b"i32, -, i64, -, widen, 1, 1\n\xff\xfe\n")
    figure3 = str(CORPUS / "figure3" / "figure3.pdl")
    for argv in (
        ("check", figure3, "--conversions", str(bad)),
        ("adapt", figure3, "--conversions", str(bad), "--pool", str(tmp_path / "pool"),
         "--emit", str(tmp_path / "out")),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1
        assert "E_SYNTAX" in err and "bad.rules" in err and "at byte 28" in err


def test_unexpected_exception_exit_3(capsys, monkeypatch):
    from adapterforge import cli

    def broken(args):
        raise TypeError("unsupported operand\nsecond line")

    monkeypatch.setattr(cli, "_cmd_check", broken)
    code, out, err = run(capsys, "check", str(CORPUS / "exact" / "exactpair.pdl"))
    assert code == 3
    assert out == ""
    assert err == "error: E_INTERNAL: TypeError: unsupported operand second line\n"


def _adapt_figure3(capsys, tmp_path, *extra: str) -> tuple[int, str, str]:
    return run(
        capsys,
        "adapt",
        str(CORPUS / "figure3" / "figure3.pdl"),
        "--conversions",
        RULES,
        "--pool",
        str(tmp_path / "pool"),
        "--emit",
        str(tmp_path / "emit"),
        *extra,
    )


def test_check_and_adapt_build_no_aslt(capsys, monkeypatch, tmp_path):
    # `tests/test_import_layers.py` also shows that neither command imports `aslt`.
    from adapterforge import aslt

    figure3 = str(CORPUS / "figure3" / "figure3.pdl")
    expected_check = run(capsys, "check", figure3, "--conversions", RULES)

    def refuse(*args, **kwargs):
        raise AssertionError("build_aslt called")

    monkeypatch.setattr(aslt, "build_aslt", refuse)
    assert run(capsys, "check", figure3, "--conversions", RULES) == expected_check
    assert expected_check[0] == 1 and expected_check[2] == ""
    code, out, err = _adapt_figure3(capsys, tmp_path)
    assert (code, err) == (1, "")
    golden = Path(__file__).parent / "golden"
    assert out == (golden / "figure3_report.txt").read_text()
    (emitted,) = (tmp_path / "emit").glob("*.adapter")
    assert emitted.read_bytes() == (golden / "figure3.adapter").read_bytes()


def test_unresolved_uses_without_aslt_exit_3(capsys, tmp_path):
    project = tmp_path / "p.pdl"
    project.write_text('project "p" { uses "ghost" * }\n')
    code, out, err = run(capsys, "check", str(project), "--specs", str(tmp_path))
    assert (code, out) == (3, "")
    assert err == "error: E_UNRESOLVED: no component satisfies uses 'ghost' *\n"


@pytest.mark.parametrize("fmt", ["human", "structured"])
def test_adapt_emits_each_descriptor_once(capsys, monkeypatch, tmp_path, fmt):
    from adapterforge import adapters
    from adapterforge.pool import pool_get, pool_list

    original = adapters.emit_descriptor
    calls = []

    def counted(adapter):
        calls.append(adapter.name)
        return original(adapter)

    for name, module in list(sys.modules.items()):
        if name.startswith("adapterforge") and getattr(module, "emit_descriptor", None) is original:
            monkeypatch.setattr(module, "emit_descriptor", counted)
    code, out, _ = _adapt_figure3(capsys, tmp_path, "--format", fmt)
    assert code == 1
    (adapter_fp, entry), = [(fp, e) for fp, e in pool_list(tmp_path / "pool") if e.kind == "adapter"]
    assert calls == [entry.name]
    golden = (Path(__file__).parent / "golden" / "figure3.adapter").read_bytes()
    assert (tmp_path / "pool" / entry.path).read_bytes() == golden
    assert original(pool_get(tmp_path / "pool", adapter_fp)).encode() == golden
    if fmt == "structured":
        result = workflow_result_from_json(canonjson.loads(out))
        assert result.descriptors == (golden.decode(),)
        assert result.generated_adapters[0].name == entry.name


def _spec_with_param(fragment: str) -> str:
    return (
        'component "A" version "1.0.0" {\n'
        "  provides interface I {\n"
        f"    op f({fragment}) -> i32 @concept a\n"
        "  }\n"
        "}\n"
    )


@pytest.mark.parametrize("literal", ["1e999", "-1e999"])
def test_non_finite_float_literal_exit_3(capsys, tmp_path, literal):
    # It used to parse as inf, print as `inf.0`, and be stored by
    # `pool add` as an artifact that `pool_get` could not read back.
    spec = tmp_path / "inf.cdl"
    spec.write_text(_spec_with_param(f"x: f64 = {literal}"))
    pool = tmp_path / "pool"
    for argv in (("fmt", str(spec)), ("pool", "add", str(spec), "--pool", str(pool))):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, ""), argv
        assert "float literal out of range (line 3, column 19)" in err
        assert "E_INTERNAL" not in err and err.count("\n") == 1
    code, out, _ = run(capsys, "pool", "list", "--pool", str(pool))
    assert (code, out) == (0, "")


def test_overlong_int_literal_exit_3(capsys, tmp_path):
    spec = tmp_path / "long.cdl"
    spec.write_text(_spec_with_param("x: i64 = " + "1" * 5000))
    code, out, err = run(capsys, "fmt", str(spec))
    assert (code, out) == (3, "")
    assert err == f"error: E_PARSE: {spec}: int literal too long (line 3, column 19)\n"


def test_deep_list_nesting_exit_3(capsys, tmp_path):
    deep = "list<" * 1000 + "i32" + ">" * 1000
    spec = tmp_path / "deep.cdl"
    spec.write_text(_spec_with_param(f"x: {deep}"))
    project = tmp_path / "p.pdl"
    project.write_text('project "p" { uses "A" * }\n')
    rules = tmp_path / "deep.rules"
    rules.write_text(f"i32, -, i64, -, widen, 1, 1\n{deep}, -, i64, -, widen, 1, 1\n")
    figure3 = str(CORPUS / "figure3" / "figure3.pdl")
    for argv in (
        ("fmt", str(spec)),
        ("check", str(project), "--specs", str(tmp_path)),
        ("check", figure3, "--conversions", str(rules)),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, ""), argv
        assert "list types nest deeper than 32" in err
        assert "E_INTERNAL" not in err and err.count("\n") == 1


@pytest.mark.parametrize("command", ["check", "adapt", "fmt"])
def test_non_utf8_spec_names_its_path_once(capsys, tmp_path, command):
    bad = tmp_path / "bad.pdl"
    bad.write_bytes(b'project "p" {\xff}\n')
    extra = {
        "adapt": ("--pool", str(tmp_path / "pool"), "--emit", str(tmp_path / "out")),
    }.get(command, ())
    code, out, err = run(capsys, command, str(bad), *extra)
    assert (code, out) == (3, "")
    assert err.startswith("error: E_PARSE: ") and err.count("\n") == 1
    assert err.count(str(bad)) == 1
    assert "is not UTF-8 (invalid start byte at byte 13)" in err


def test_unreadable_spec_names_its_path_once(capsys, tmp_path):
    missing = tmp_path / "nonexistent.pdl"
    (tmp_path / "x.cdl").mkdir()
    project = tmp_path / "p.pdl"
    project.write_text('project "p" { }\n')
    for argv, path, reason in (
        (("check", str(missing)), missing, "No such file or directory"),
        (("check", str(project), "--specs", str(tmp_path)), tmp_path / "x.cdl", "Is a directory"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, ""), argv
        assert err == f"error: E_PARSE: {path}: {reason}\n"


def test_generated_adapter_passes_the_pool_admission_check(capsys, tmp_path):
    """A generated adapter is validated as an added artifact is: one
    that breaks a rule fails the store with that rule's code."""
    specs = tmp_path / "figure3"
    shutil.copytree(CORPUS / "figure3", specs)
    for cdl in specs.glob("*.cdl"):
        cdl.write_text(cdl.read_text().replace("list<i32>", "list<list<list<list<i32>>>>"))
    project = str(specs / "figure3.pdl")
    pool = str(tmp_path / "pool")
    assert run(capsys, "check", project, "--conversions", RULES)[0] == 1
    argv = ["adapt", project, "--conversions", RULES, "--pool", pool, "--emit", str(tmp_path / "o")]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith(
        "error: E_INVALID_SPEC: spec adapt_reportgen_sortkit_449e7545 has violations: V_LIST_DEPTH"
    ), err
    assert err.count("\n") == 1
    assert run(capsys, "pool", "list", "--pool", pool)[:2] == (0, "")


def test_adapt_resolves_uses_once_before_final_verification(capsys, monkeypatch, tmp_path):
    from adapterforge import aslt

    original = aslt.resolve_components
    calls = []

    def counted(project, components):
        calls.append(project.name)
        return original(project, components)

    patched = set()
    for name, module in list(sys.modules.items()):
        if name.startswith("adapterforge") and getattr(module, "resolve_components", None) is original:
            monkeypatch.setattr(module, "resolve_components", counted)
            patched.add(name)
    assert {"adapterforge.aslt", "adapterforge.analyser", "adapterforge.linkage"} <= patched
    code, _, err = _adapt_figure3(capsys, tmp_path)
    assert (code, err) == (1, "")
    # One resolution for the analysis, one for the final verification.
    assert calls == ["figure3", "figure3"]


def _golden_descriptor(tmp_path: Path, name: str, **edits) -> Path:
    doc = canonjson.loads((Path(__file__).parent / "golden" / "figure3.adapter").read_text())
    if "concept" in edits:
        doc["implements"]["operations"][0]["concept"] = edits["concept"]
    if "score" in edits:
        doc["provenance"]["score"] = edits["score"]
    if "adapter_name" in edits:
        doc["name"] = edits["adapter_name"]
    if "param" in edits:
        doc["implements"]["operations"][0]["params"][0]["name"] = edits["param"]
    if edits.get("dup_op"):
        doc["implements"]["operations"] *= 2
    path = tmp_path / name
    path.write_text(canonjson.dumps(doc))
    return path


def _planted_directory(tmp_path: Path) -> tuple[Path, Path]:
    """A pool holding figure3's adapter, with a directory in its place."""
    pool = tmp_path / "pool"
    figure3 = str(CORPUS / "figure3" / "figure3.pdl")
    argv = ["adapt", figure3, "--conversions", RULES, "--pool", str(pool), "--emit", str(tmp_path / "o")]
    assert main(argv) == 1
    (artifact,) = (pool / "adapters").iterdir()
    artifact.unlink()
    artifact.mkdir()
    return pool, artifact


def _planted_non_utf8(tmp_path: Path) -> tuple[Path, Path]:
    """A pool whose one adapter, indexed under figure3's concept,
    hashes to its fingerprint but is not UTF-8."""
    pool = tmp_path / "binary_pool"
    data = b"\xff not UTF-8\n"
    fp = hashlib.sha256(data).hexdigest()
    for directory in ("components", "adapters"):
        (pool / directory).mkdir(parents=True)
    artifact = pool / "adapters" / f"{fp}.adapter"
    artifact.write_bytes(data)
    line = {
        "fingerprint": fp,
        "kind": "adapter",
        "name": "binary",
        "path": f"adapters/{fp}.adapter",
        "provided_concepts": ["data.sorting.sort"],
        "stored_at": "2024-01-01T00:00:00+00:00",
        "version": "1.0.0",
    }
    (pool / "index").write_bytes(b'{"format":"pool/2"}\n' + canonjson.dump_line(line))
    return pool, artifact


def _error_rows(tmp_path: Path) -> dict[str, tuple[list[str], str, Path, bool]]:
    """name -> (argv, error code, offending path, path named on the command line)."""
    exactpair = str(CORPUS / "exact" / "exactpair.pdl")
    sortkit = str(CORPUS / "figure3" / "sortkit.cdl")
    pool = str(tmp_path / "pool")
    bad_spec = tmp_path / "bad.pdl"
    bad_spec.write_text('project "p" { uses }\n')
    bad_rules = tmp_path / "bad.rules"
    bad_rules.write_text("i32, -, i64\n")
    binary_rules = tmp_path / "binary.rules"
    binary_rules.write_bytes(b"\xff\n")
    bad_cdl = tmp_path / "bad.cdl"
    bad_cdl.write_text('component "A" version "1.0.0" { provides interface X { op f() -> unit } }\n')
    bad_descriptor = _golden_descriptor(tmp_path, "bad.adapter", score="+17/20")
    bad_concept = _golden_descriptor(tmp_path, "concept.adapter", concept="Data..Sort!")
    bad_name = _golden_descriptor(tmp_path, "name.adapter", adapter_name="bad name")
    dup_op = _golden_descriptor(tmp_path, "dup.adapter", dup_op=True)
    bad_param = _golden_descriptor(tmp_path, "param.adapter", param="not an ident")
    corrupt = tmp_path / "corrupt"
    shutil.copytree(CORPUS / "figure3", corrupt / "specs")
    assert main(["pool", "add", sortkit, "--pool", str(corrupt)]) == 0
    with open(corrupt / "index", "ab") as index:
        index.write(b"{not json}\n")
    planted_pool, planted = _planted_directory(tmp_path)
    binary_pool, binary_artifact = _planted_non_utf8(tmp_path)
    pool_file = tmp_path / "pool_file"
    pool_file.write_text("not a directory\n")
    lock_dir_pool = tmp_path / "lock_dir_pool"
    (lock_dir_pool / "index.lock").mkdir(parents=True)
    figure3 = str(CORPUS / "figure3" / "figure3.pdl")
    return {
        "bad spec": (["check", str(bad_spec)], "E_PARSE", bad_spec, True),
        "missing spec": (["check", str(tmp_path / "no.pdl")], "E_PARSE", tmp_path / "no.pdl", True),
        "bad rules": (["check", exactpair, "--conversions", str(bad_rules)], "E_SYNTAX", bad_rules, True),
        "non-UTF-8 rules": (
            ["check", exactpair, "--conversions", str(binary_rules)], "E_SYNTAX", binary_rules, True
        ),
        "missing rules": (
            ["check", exactpair, "--conversions", str(tmp_path / "no.rules")],
            "E_PARSE", tmp_path / "no.rules", True,
        ),
        "missing pool add input": (
            ["pool", "add", str(tmp_path / "no.cdl"), "--pool", pool],
            "E_PARSE", tmp_path / "no.cdl", True,
        ),
        "bad cdl": (["pool", "add", str(bad_cdl), "--pool", pool], "E_INVALID_SPEC", bad_cdl, True),
        "second file bad descriptor": (
            ["pool", "add", sortkit, str(bad_descriptor), "--pool", pool],
            "E_INVALID_SPEC", bad_descriptor, True,
        ),
        "malformed concept": (
            ["pool", "add", str(bad_concept), "--pool", pool], "E_INVALID_SPEC", bad_concept, True
        ),
        "descriptor name not an identifier": (
            ["pool", "add", str(bad_name), "--pool", pool], "E_INVALID_SPEC", bad_name, True
        ),
        "descriptor op listed twice": (
            ["pool", "add", str(dup_op), "--pool", pool], "E_INVALID_SPEC", dup_op, True
        ),
        "descriptor param not an identifier": (
            ["pool", "add", str(bad_param), "--pool", pool], "E_INVALID_SPEC", bad_param, True
        ),
        "missing specs directory": (
            ["check", figure3, "--specs", str(tmp_path / "nope")], "E_PARSE", tmp_path / "nope", True
        ),
        "planted directory, verify": (
            ["pool", "verify", "--pool", str(planted_pool)], "E_IO", planted, False
        ),
        "planted directory, adapt": (
            ["adapt", figure3, "--conversions", RULES, "--pool", str(planted_pool),
             "--emit", str(tmp_path / "o2")],
            "E_IO", planted, False,
        ),
        "corrupt index line": (["pool", "list", "--pool", str(corrupt)], "E_CORRUPT", corrupt / "index", False),
        "non-UTF-8 artifact, adapt": (
            ["adapt", figure3, "--conversions", RULES, "--pool", str(binary_pool),
             "--emit", str(tmp_path / "o3")],
            "E_CORRUPT", binary_artifact, False,
        ),
        "pool root is a file": (
            ["pool", "add", sortkit, "--pool", str(pool_file)], "E_IO", pool_file, True
        ),
        "index.lock is a directory": (
            ["pool", "add", sortkit, "--pool", str(lock_dir_pool)],
            "E_IO", lock_dir_pool / "index.lock", False,
        ),
    }


_ERROR_ROWS = [
    "bad spec",
    "missing spec",
    "bad rules",
    "non-UTF-8 rules",
    "missing rules",
    "missing pool add input",
    "bad cdl",
    "second file bad descriptor",
    "malformed concept",
    "descriptor name not an identifier",
    "descriptor op listed twice",
    "descriptor param not an identifier",
    "missing specs directory",
    "planted directory, verify",
    "planted directory, adapt",
    "corrupt index line",
    "non-UTF-8 artifact, adapt",
    "pool root is a file",
    "index.lock is a directory",
]


@pytest.mark.parametrize("row", _ERROR_ROWS)
def test_error_shape(capsys, tmp_path, row):
    """Every broken input: exit 3, one stderr line, its code once, and
    the offending path at most once (exactly once when it was named on
    the command line)."""
    rows = _error_rows(tmp_path)
    assert list(rows) == _ERROR_ROWS
    argv, code_name, path, named = rows[row]
    index = tmp_path / "pool" / "index"
    before = index.read_bytes()
    capsys.readouterr()
    code, _, err = run(capsys, *argv)
    assert code == 3
    if row.startswith("descriptor "):
        assert index.read_bytes() == before
    assert err.startswith(f"error: {code_name}: ") and err.count("\n") == 1, err
    assert re.findall(r"\bE_[A-Z_]+", err) == [code_name], err
    assert err.count(str(path)) == 1 if named else err.count(str(path)) <= 1, err
