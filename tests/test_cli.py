from __future__ import annotations

import hashlib
import shutil
from pathlib import Path

import pytest

from adapterforge import canonjson
from adapterforge.cli import main
from adapterforge.report import match_report_from_json, workflow_result_from_json

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
