"""Self-test of the benchmark (not part of the tier-1 suite).

    python3 bench/selftest.py

Runs every workload at a tiny size with tracing off and on, and asserts
that each metric named in BENCHMARK.json is reported and no operation
failed. Then injects faults and asserts each one is counted as a failed
operation rather than passing silently, and checks that the benchmark
refuses to run in a directory holding only itself.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=900,
    )


def with_score(project, score: Fraction):
    """A copy of a generated project whose expected score is wrong."""
    return replace(project, connections=tuple(replace(c, score=score) for c in project.connections))


def check_metrics() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            done = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                             "--trace", str(trace), "--tiny")
            assert done.returncode == 0, done.stderr
            result = json.loads(done.stdout.splitlines()[-1])
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == wanted, (workload, trace, set(got) ^ set(wanted))
            assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()), result
            assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, result
            print(f"ok {workload} trace={trace}: {result['attempted']} ops, {len(got)} metrics")


def check_faults() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import specgen
    import workloads

    run_dir = ROOT / ".bench_runs" / "selftest"
    shutil.rmtree(run_dir, ignore_errors=True)
    runner = workloads.Runner(ROOT, run_dir)
    project = specgen.adaptable_project(random.Random(5), "f")

    # A flipped byte in a stored adapter: the repeat adapt must fail.
    d = runner.materialize(project, run_dir / "flip")
    first = runner.adapt_new(project, d, d / "pool")
    assert first is not None and runner.failed == 0, runner.failures
    artifact = next((d / "pool" / "adapters").iterdir())
    data = bytearray(artifact.read_bytes())
    data[len(data) // 2] ^= 0x01
    artifact.write_bytes(bytes(data))
    runner.adapt_repeat(project, d, d / "pool", first)
    assert runner.failed == 1, "flipped pool byte passed"

    # A wrong expected score on adapt, and on check of a wide project.
    wrong = with_score(project, project.connections[0].score - Fraction(1, 20))
    d = runner.materialize(wrong, run_dir / "score")
    runner.adapt_new(wrong, d, d / "pool")
    assert runner.failed == 2, "wrong adapt score passed"
    wide = specgen.wide_project(random.Random(6), 1)
    d = runner.materialize(wide, run_dir / "wide")
    runner.check_project(wide, d)
    assert runner.failed == 2, runner.failures
    runner.check_project(with_score(wide, Fraction(1, 3)), d)
    assert runner.failed == 3, "wrong check score passed"

    # A pool query whose reference lists an entry the pool lacks.
    runner.pool_query("hot.h0", run_dir / "flip" / "pool", [("0" * 64, "ghost", ("hot.h0.act",))])
    assert runner.failed == 4, "wrong query expectation passed"
    assert runner.attempted == 6
    shutil.rmtree(run_dir)
    print(f"ok faults: {runner.failed} injected faults counted as failed operations")


def check_bare_directory() -> None:
    bare = ROOT / ".bench_runs" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copyfile(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(bare, "--workload", "heal", "--seed", "1", "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    assert done.returncode != 0 and '"metrics"' not in done.stdout, done
    print(f"ok bare directory: exit {done.returncode}, no result")


if __name__ == "__main__":
    check_metrics()
    check_faults()
    check_bare_directory()
