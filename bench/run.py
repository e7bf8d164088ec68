"""adapterforge benchmark.

    python3 bench/run.py --workload heal|reuse|wide --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the toolchain is imported from
`src/` and driven through `adapterforge.cli.main` in this process. With
`--trace 0` the run measures the end-to-end metrics for S seconds; with
`--trace 1` it runs the workload's fixed trace set untraced once and
traced twice and reports per-layer metrics. The last line of stdout is
one JSON object: correct, attempted, failed, metrics. Run trees live in
`.bench_runs/` and are deleted afterwards; results and Chrome traces go
to `.bench_out/`. See bench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("heal", "reuse", "wide")
SETUP_SPAWNS = 9

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import adapterforge.cli
from adapterforge.conversions import load_rules
from adapterforge.pool import init_pool
load_rules(sys.argv[1])
init_pool(sys.argv[2])
print(time.perf_counter() - t0)
"""


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def tail_level(n: int) -> float | None:
    """The highest percentile with at least ten samples beyond it."""
    for q in (0.999, 0.99, 0.95, 0.9, 0.75, 0.5):
        if n * (1 - q) >= 10:
            return q
    return None


def setup_seconds(run_dir: Path) -> float:
    """Median, over fresh interpreters, of importing the CLI, loading
    the rules file and initialising a pool. The first spawn is
    discarded."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    rules = str(ROOT / "tests" / "corpus" / "conversions.rules")
    times = []
    for i in range(SETUP_SPAWNS + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, rules, str(run_dir / f"setup{i}")],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(done.stdout))
    return statistics.median(times[1:])


def remove_stale_runs(runs: Path) -> None:
    """Delete run trees left by runs that are no longer alive (the tree
    name ends in the owner's pid), outside any timed phase."""
    for tree in runs.glob("*-*"):
        try:
            os.kill(int(tree.name.rsplit("-", 1)[1]), 0)
        except ValueError:
            pass
        except ProcessLookupError:
            shutil.rmtree(tree, ignore_errors=True)
        except PermissionError:
            pass  # alive, owned by someone else


def commit() -> str:
    """The checked-out commit, or `unknown` without git metadata (then
    `src_sha256` names the code measured)."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return "unknown"


def src_digest() -> str:
    """SHA-256 over the paths and bytes of `src/`, naming the code
    measured where the checkout carries no git metadata."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_workload(runner, workload: str, seed: int, stream: str, sizes, deadline: float | None,
                 count: int | None) -> None:
    """One stream of work: heal or wide projects, or reuse passes."""
    import workloads as w

    if workload == "heal":
        if stream != "t":  # the shipped scenario runs once per run, untimed
            runner.figure3()
        w.heal_stream(runner, seed, stream, count, deadline)
    elif workload == "wide":
        w.wide_stream(runner, seed, stream, count, deadline)
    else:
        k = 0
        while True:
            steps = count if count is not None else sizes.reuse_pass
            w.reuse_pass(runner, seed, f"{stream}{k}", steps)
            k += 1
            if deadline is None or time.perf_counter() >= deadline:
                break


def timed_run(workload: str, seed: int, seconds: float, run_dir: Path, sizes) -> tuple[object, dict[str, float], dict]:
    import workloads as w

    setup = setup_seconds(run_dir)
    runner = w.Runner(ROOT, run_dir)
    warm = sizes.reuse_warmup_pass if workload == "reuse" else sizes.warmup_projects
    run_workload(runner, workload, seed, "w", sizes, None, warm)
    runner.timing = True
    run_workload(runner, workload, seed, "t", sizes, time.perf_counter() + seconds, None)
    runner.timing = False

    kinds = runner.samples
    checks = kinds.get("check")
    # With no timed check (every first adapt failed) the latencies read
    # null; the failures already make the result incorrect.
    metrics = {
        "setup_s": setup,
        "ops_per_s": runner.ops_per_s(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "check_p50_ms": statistics.median(checks) if checks else None,
        "check_p95_ms": percentile(checks, 0.95) if checks else None,
    }
    # Every operation kind, including those not on every workload.
    per_kind = {}
    for kind, vals in sorted(kinds.items()):
        q = tail_level(len(vals))
        per_kind[kind] = {
            "n": len(vals),
            f"{kind}_p50_ms": statistics.median(vals),
            f"{kind}_p95_ms": percentile(vals, 0.95),
            "tail": f"p{q * 100:g}" if q else None,
            "tail_ms": percentile(vals, q) if q else None,
        }
    extra = {"op_kinds": per_kind, "timed_ops": len(runner.timeline), "op_seconds": sum(runner.timeline)}
    if workload == "reuse":
        extra["hot_share"] = runner.hot_adapts / runner.adapts
    return runner, metrics, extra


def trace_run(workload: str, seed: int, run_dir: Path, sizes) -> tuple[object, dict[str, float], dict]:
    """The fixed trace set untraced, then traced twice. Outputs must be
    byte-identical across all three, and counts equal across the two
    traced runs."""
    import tracer as tr
    import workloads as w

    count = {"heal": sizes.trace_heal, "wide": sizes.trace_wide, "reuse": sizes.trace_reuse_pass}[workload]
    warm = w.Runner(ROOT, run_dir / "warm")
    run_workload(warm, workload, seed, "w", sizes, None, 2 if workload != "reuse" else sizes.reuse_warmup_pass)

    def once(label: str, traced: bool):
        t = tr.Tracer() if traced else None
        runner = w.Runner(ROOT, run_dir / label, t, keep_outputs=True)
        runner.timing = True
        if t:
            t.install()
        try:
            run_workload(runner, workload, seed, "x", sizes, None, count)
        finally:
            if t:
                t.uninstall()
        indexes = [p.stat().st_size for p in (run_dir / label).rglob("index") if p.parent.name == "pool"]
        layer = None
        if t:
            layer = tr.layer_metrics(
                t.spans, runner.ops, runner.hit_ops, runner.pool_hits,
                runner.repeat_integrations, statistics.mean(indexes) if indexes else 0.0,
            )
        return runner, t, layer

    plain, _, _ = once("plain", False)
    runner, t, layer = once("traced", True)
    again, _, layer2 = once("again", True)

    problems = []
    if not (plain.outputs == runner.outputs == again.outputs):
        problems.append("traced and untraced outputs differ")
    for name in tr.COUNT_METRICS:
        if layer[name] != layer2[name]:
            problems.append(f"{name} differs across traced runs: {layer[name]} vs {layer2[name]}")

    metrics = dict(layer)
    metrics["cli.ops_per_s_untraced"] = plain.ops_per_s()
    metrics["cli.ops_per_s_traced"] = runner.ops_per_s()

    # Structure the code implies (reported, not enforced: later changes
    # are meant to move these).
    builds = tr.ops_with(t.spans, "aslt.build_aslt")
    gets = tr.ops_with(t.spans, "pool.pool_get")
    adapt_ids = [i for i, k in enumerate(runner.ops) if k in ("adapt", "adapt_hit")]
    structure = {
        "aslt.build_calls_per_adapt": statistics.mean(builds[i] for i in adapt_ids) if adapt_ids else None,
        "adapters.emit_per_generated": layer["adapters.emit_per_generated"],
        "linkage.pool_hit_ratio": layer["linkage.pool_hit_ratio"],
    }
    if workload == "reuse":
        hot = [gets[i] for i in runner.hot_adapt_ops]
        quarter = max(len(hot) // 4, 1)
        structure["pool.get_calls_per_hot_adapt_first_quarter"] = statistics.mean(hot[:quarter])
        structure["pool.get_calls_per_hot_adapt_last_quarter"] = statistics.mean(hot[-quarter:])
    match = [s for s in t.spans if s[tr.NAME] == "analyser.match_operation"]
    if match:
        slowest = max(match, key=lambda s: s[tr.END] - s[tr.START])
        structure["analyser.match_max_group_size"] = slowest[tr.ARGS]["group"]

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    trace_path = out_dir / f"trace-{workload}-seed{seed}.json"
    trace_path.write_text(json.dumps(t.chrome_trace(layer, {"workload": workload, "seed": seed})))

    for runner_ in (warm, plain, again):
        runner.attempted += runner_.attempted
        runner.failed += runner_.failed
        runner.failures.extend(runner_.failures)
    for problem in problems:
        runner.failed += 1
        runner.failures.append(problem)
    extra = {
        "structure": structure,
        "trace_file": str(trace_path.relative_to(ROOT)),
        "spans": len(t.spans),
        "trace_ops": len(runner.ops),
    }
    return runner, metrics, extra


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "adapterforge" / "cli.py").is_file() or not (
        ROOT / "tests" / "corpus" / "conversions.rules"
    ).is_file():
        sys.stderr.write(f"error: {ROOT} is not an adapterforge source checkout (no src/adapterforge)\n")
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import workloads as w

    sizes = w.TINY if args.tiny else w.Sizes()
    runs = ROOT / ".bench_runs"
    remove_stale_runs(runs)
    run_dir = runs / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        if args.trace:
            runner, metrics, extra = trace_run(args.workload, args.seed, run_dir, sizes)
        else:
            runner, metrics, extra = timed_run(args.workload, args.seed, args.seconds, run_dir, sizes)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit(),
        "src_sha256": src_digest(),
    }
    # Names and units come from BENCHMARK.json, in its order.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in spec["per_layer" if args.trace else "end_to_end"]
        },
    }
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    record = dict(env, result=result, failures=runner.failures, **extra)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    print(json.dumps(dict(env, failures=runner.failures, **extra), sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
