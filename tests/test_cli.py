from __future__ import annotations

import hashlib
import shutil
import sys
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


def test_pool_subcommands_on_malformed_index_exit_3(capsys, tmp_path):
    from adapterforge.pool import init_pool

    pool = init_pool(tmp_path / "pool")
    (pool / "index").write_text('{"entries": {"abc": {"kind": "component"}}, "format": "pool/1"}')
    spec = CORPUS / "figure3" / "sortkit.cdl"
    for argv in (
        ["list"],
        ["query", "data.sorting.sort"],
        ["verify"],
        ["add", str(spec)],
    ):
        code, out, err = run(capsys, "pool", *argv, "--pool", str(pool))
        assert code == 3, argv
        assert out == ""
        assert err.startswith("error: E_CORRUPT: ") and err.count("\n") == 1


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
    assert "E_DESCRIPTOR: malformed concept 'Data..Sort!'" in err and err.count("\n") == 1
    assert run(capsys, "pool", "list", "--pool", str(pool))[:2] == (0, "")


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
    from adapterforge import aslt, cli

    figure3 = str(CORPUS / "figure3" / "figure3.pdl")
    expected_check = run(capsys, "check", figure3, "--conversions", RULES)

    def refuse(*args, **kwargs):
        raise AssertionError("build_aslt called")

    monkeypatch.setattr(aslt, "build_aslt", refuse)
    monkeypatch.setattr(cli, "build_aslt", refuse)
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
