"""The three workloads and the checks that judge every CLI operation.

Each operation runs `adapterforge.cli.main([...])` in this process on
one thread, with stdout captured. It counts as attempted, and as failed
when its exit code or any output check disagrees with the reference
fixed by construction in `specgen` (or by the shipped figure3 golden).

Why each workload exists is recorded on its function below: `heal_stream`,
`reuse_pass` and `wide_stream`.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import shutil
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import specgen
from specgen import Project
from tracer import ROOT_SPAN

HOT_FAMILIES = ("hot.h0", "hot.h1", "hot.h2")
WIDE_ADAPT_EVERY = 16
# Adapt a project without the size-7 op: adapting re-runs the matcher
# three times over, and the heavy op would let adapts set wide's length.
WIDE_ADAPT_AT = 2


@dataclass(frozen=True)
class Sizes:
    """Work per run. The timed phase repeats whole units (a heal or
    wide project, a reuse pass) until the time is up."""

    warmup_projects: int = 12  # heal and wide
    reuse_pass: int = 80  # reuse steps on one fresh pool
    reuse_warmup_pass: int = 12
    trace_heal: int = 60
    trace_wide: int = 32
    trace_reuse_pass: int = 80


TINY = Sizes(
    warmup_projects=2, reuse_pass=6, reuse_warmup_pass=3,
    trace_heal=3, trace_wide=WIDE_ADAPT_AT + 1, trace_reuse_pass=6,
)


def _fraction(text: str) -> Fraction:
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den or "1"))


def _label(conn: specgen.Connection) -> str:
    return (
        f"{conn.consumer}.requires.{conn.consumer_iface}"
        f" -> {conn.provider}.provides.{conn.provider_iface}"
    )


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _hops(a: str, b: str) -> int | None:
    sa, sb = a.split("."), b.split(".")
    short, long_ = (sa, sb) if len(sa) <= len(sb) else (sb, sa)
    return len(long_) - len(short) if long_[: len(short)] == short else None


class CheckFailed(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass
class Adapted:
    """What a first `adapt` of a project produced."""

    adapted_pdl: bytes
    adapters: dict[str, tuple[str, str]]  # connection label -> (name, full fingerprint)


class Runner:
    """Runs CLI operations, times them, checks them and keeps tallies."""

    def __init__(self, root: Path, run_dir: Path, tracer=None, keep_outputs: bool = False) -> None:
        from adapterforge.cli import main

        self._main = main
        self.root = root
        self.rules = str(root / "tests" / "corpus" / "conversions.rules")
        self.run_dir = run_dir
        self.tracer = tracer
        self.timing = False  # record samples only in the timed phase
        self.samples: dict[str, list[float]] = {}  # ms per timed operation, by kind
        self.timeline: list[float] = []  # seconds per timed operation, in order
        self.attempted = 0
        self.failed = 0
        self.timed_failed = 0
        self.failures: list[str] = []
        self.ops: list[str] = []  # kind per operation id (trace runs)
        # Deterministic outputs in order, kept only where runs are
        # compared, so the timed phase's memory does not grow with it.
        self.outputs: list[tuple[str, bytes]] | None = [] if keep_outputs else None
        self.hit_ops: set[int] = set()  # ids of repeat-adapt operations
        self.repeat_integrations = 0
        self.pool_hits = 0
        self.hot_adapts = 0
        self.adapts = 0
        self.hot_adapt_ops: list[int] = []  # ids of first adapts of hot projects

    # --- one operation ------------------------------------------------

    def _invoke(self, kind: str, argv: list[str]) -> tuple[int | None, str]:
        out, err = io.StringIO(), io.StringIO()
        op_id = len(self.ops)
        self.ops.append(kind)
        tracer = self.tracer
        span = None
        if tracer is not None:
            tracer.op = op_id
            span = tracer.begin(ROOT_SPAN)
        t0 = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = self._main(argv)
        except Exception as exc:  # a traceback is a failed operation
            code = None
            err.write(f"uncaught {exc!r}")
        finally:
            dt = time.perf_counter() - t0
            if span is not None:
                tracer.end(span)
        if self.timing:
            self.samples.setdefault(kind, []).append(dt * 1000)
            self.timeline.append(dt)
        self.attempted += 1
        if code is None or code == 3:
            self._fail(kind, f"exit {code}: {err.getvalue().strip()[:200]}")
        return code, out.getvalue()

    def ops_per_s(self) -> float | None:
        """Timed CLI operations that passed their checks, per second of
        CLI time (the benchmark's own generating and checking excluded)."""
        if not self.timeline:
            return None
        return (len(self.timeline) - self.timed_failed) / sum(self.timeline)

    def _keep(self, kind: str, data: bytes) -> None:
        if self.outputs is not None:
            self.outputs.append((kind, data))

    def _fail(self, kind: str, message: str) -> None:
        self.failed += 1
        self.timed_failed += self.timing
        if len(self.failures) < 20:
            self.failures.append(f"{kind}: {message}")

    def _checked(self, kind: str, argv: list[str], check) -> object:
        failed_before = self.failed
        code, out = self._invoke(kind, argv)
        if self.failed != failed_before:
            return None
        try:
            return check(code, out)
        except (CheckFailed, KeyError, ValueError, IndexError, OSError) as exc:
            self._fail(kind, f"{type(exc).__name__}: {exc}")
            return None

    # --- operations with their checks --------------------------------

    def adapt_new(self, project: Project, d: Path, pool: Path) -> Adapted | None:
        """First adapt: every adaptable connection gets a GENERATED
        adapter carrying the constructed score, stored under the
        SHA-256 of its descriptor bytes."""
        argv = ["adapt", str(d / project.pdl), "--conversions", self.rules, "--pool", str(pool)]

        def check(code, out):
            _require(code == 1, f"exit {code}, expected 1")
            integrations = self._parse_adapt(project, out)
            expected = {_label(c): c for c in project.adaptable()}
            _require(set(integrations) == set(expected), "integrated connections differ")
            adapters = {}
            for label, (name, source, fp12) in integrations.items():
                _require(source == "GENERATED", f"{label}: {source}, expected GENERATED")
                path = d / f"{name}.adapter"
                fp = _sha256(path)
                _require(fp[:12] == fp12, f"{name}: fingerprint {fp12} != sha256 {fp[:12]}")
                doc = json.loads(path.read_bytes())
                score = _fraction(doc["provenance"]["score"])
                _require(score == expected[label].score, f"{name}: score {score} != {expected[label].score}")
                adapters[label] = (name, fp)
            adapted = (d / f"{project.name}.adapted.pdl").read_bytes()
            self._keep("adapted", adapted)
            for name, _ in adapters.values():
                self._keep(name, (d / f"{name}.adapter").read_bytes())
            return Adapted(adapted, adapters)

        self._count_adapt(project)
        if project.hot:
            self.hot_adapt_ops.append(len(self.ops))
        return self._checked("adapt", argv, check)

    def adapt_repeat(self, project: Project, d: Path, pool: Path, first: Adapted) -> None:
        """Repeat adapt: every adaptable connection is a POOL_HIT of the
        adapter stored first, nothing is generated, and the adapted
        project is byte-identical."""
        argv = ["adapt", str(d / project.pdl), "--conversions", self.rules, "--pool", str(pool)]
        self.hit_ops.add(len(self.ops))

        def check(code, out):
            _require(code == 1, f"exit {code}, expected 1")
            integrations = self._parse_adapt(project, out)
            self.repeat_integrations += len(integrations)
            self.pool_hits += sum(source == "POOL_HIT" for _, source, _ in integrations.values())
            _require(set(integrations) == set(first.adapters), "integrated connections differ")
            for label, (name, source, fp12) in integrations.items():
                _require(source == "POOL_HIT", f"{label}: {source}, expected POOL_HIT")
                _require((name, fp12) == (first.adapters[label][0], first.adapters[label][1][:12]),
                         f"{label}: hit {name} {fp12} is not the stored adapter")
            adapted = (d / f"{project.name}.adapted.pdl").read_bytes()
            _require(adapted == first.adapted_pdl, "adapted project differs from the first adapt")

        self._count_adapt(project)
        self._checked("adapt_hit", argv, check)

    def check_adapted(self, project: Project, d: Path) -> None:
        """The adapted project checks clean: exit 0, every connection
        (two per adapter plus the untouched exact ones) EXACT 1/1."""
        argv = ["check", str(d / f"{project.name}.adapted.pdl"), "--conversions", self.rules,
                "--format", "structured"]
        n_conns = len(project.connections) + len(project.adaptable())

        def check(code, out):
            _require(code == 0, f"exit {code}, expected 0")
            doc = json.loads(out)
            _require(len(doc["verdicts"]) == n_conns, "connection count differs")
            for v in doc["verdicts"]:
                _require(v["status"] == "EXACT" and _fraction(v["score"]) == 1, f"verdict {v['status']}")
            _require(doc["demand"] == [], "unexpected demand")
            self._keep("check", out.encode())

        self._checked("check", argv, check)

    def check_project(self, project: Project, d: Path) -> None:
        """`check` of an unadapted project: the constructed verdict and
        exact score per connection, exit 1 when any is ADAPTABLE."""
        argv = ["check", str(d / project.pdl), "--conversions", self.rules, "--format", "structured"]
        expected = {_label(c): c for c in project.connections}

        def check(code, out):
            want = 1 if project.adaptable() else 0
            _require(code == want, f"exit {code}, expected {want}")
            doc = json.loads(out)
            _require(len(doc["verdicts"]) == len(expected), "connection count differs")
            for v in doc["verdicts"]:
                c = v["connection"]
                label = f"{c['consumer'][0]}.requires.{c['consumer'][1]} -> {c['provider'][0]}.provides.{c['provider'][1]}"
                conn = expected[label]
                _require(v["status"] == conn.status, f"{label}: {v['status']} != {conn.status}")
                _require(_fraction(v["score"]) == conn.score, f"{label}: score {v['score']} != {conn.score}")
            _require(doc["demand"] == [], "unexpected demand")
            self._keep("check", out.encode())

        self._checked("check", argv, check)

    def pool_add(self, project: Project, d: Path, pool: Path) -> list[str] | None:
        """`pool add` prints, per file, the SHA-256 of its canonical
        bytes; the generated files are already canonical."""
        files = [d / f for f in project.component_files]

        def check(code, out):
            _require(code == 0, f"exit {code}, expected 0")
            printed = out.split()
            expected = [_sha256(f) for f in files]
            _require(printed == expected, "fingerprints differ from sha256 of the submitted bytes")
            self._keep("pool_add", out.encode())
            return printed

        return self._checked("pool_add", ["pool", "add", *map(str, files), "--pool", str(pool)], check)

    def pool_query(self, concept: str, pool: Path, stored: list[tuple[str, str, tuple[str, ...]]]) -> None:
        """Bare-concept query: every stored artifact providing a related
        concept within the threshold, scored 1 - hops/10, best first."""
        expected = []
        for fp, name, concepts in stored:
            hops = [h for c in concepts if (h := _hops(concept, c)) is not None]
            if hops and 1 - specgen.HOP * min(hops) >= specgen.THRESHOLD:
                expected.append((-(1 - specgen.HOP * min(hops)), fp, name))
        expected.sort(key=lambda t: (t[0], t[1]))
        want = "".join(f"{fp} {float(-neg):.3f} {name}\n" for neg, fp, name in expected)

        def check(code, out):
            _require(code == 0, f"exit {code}, expected 0")
            _require(out == want, f"query {concept}: {len(out.splitlines())} lines, expected {len(expected)}")
            self._keep("pool_query", out.encode())

        self._checked("pool_query", ["pool", "query", concept, "--pool", str(pool)], check)

    def _parse_adapt(self, project: Project, out: str) -> dict[str, tuple[str, str, str]]:
        lines = out.splitlines()
        _require(lines[-1] == "outcome ADAPTED", f"{lines[-1]!r}, expected 'outcome ADAPTED'")
        verdicts = [ln for ln in lines if ln.startswith("connection ")]
        _require(len(verdicts) == len(project.connections) + len(project.adaptable()),
                 "final connection count differs")
        _require(all(ln.endswith(": EXACT score 1.000") for ln in verdicts), "final report not all EXACT")
        integrations = {}
        for ln in lines:
            if ln.startswith("integrated "):
                # integrated NAME (SOURCE FP12) for LABEL
                head, _, label = ln.partition(") for ")
                _, name, source, fp12 = head.replace("(", "").split(" ")
                integrations[label] = (name, source, fp12)
        return integrations

    def _count_adapt(self, project: Project) -> None:
        self.adapts += 1
        self.hot_adapts += project.hot

    # --- project helpers ------------------------------------------------

    def materialize(self, project: Project, d: Path) -> Path:
        d.mkdir(parents=True)
        for name, text in project.files.items():
            (d / name).write_text(text, encoding="utf-8")
        return d

    def heal_project(self, project: Project, d: Path) -> None:
        pool = d / "pool"
        first = self.adapt_new(project, d, pool)
        if first is None:
            return
        self.adapt_repeat(project, d, pool, first)
        self.check_adapted(project, d)

    def figure3(self) -> None:
        """The shipped figure3 scenario; its descriptor must equal the
        golden byte for byte."""
        src = self.root / "tests" / "corpus" / "figure3"
        d = self.run_dir / "figure3"
        d.mkdir(parents=True)
        for f in src.iterdir():
            if f.suffix in (".cdl", ".pdl"):
                shutil.copyfile(f, d / f.name)
        conn = specgen.Connection(
            "reportgen", "Sorting", "sortkit", "BulkSort", "ADAPTABLE", Fraction(17, 20), ()
        )
        project = Project("figure3", {}, (conn,))
        first = self.adapt_new(project, d, d / "pool")
        if first is None:
            return
        golden = (self.root / "tests" / "golden" / "figure3.adapter").read_bytes()
        name = first.adapters[_label(conn)][0]
        if (d / f"{name}.adapter").read_bytes() != golden:
            self._fail("adapt", "figure3 descriptor differs from tests/golden/figure3.adapter")
            return
        self.adapt_repeat(project, d, d / "pool", first)
        self.check_adapted(project, d)


# --- workloads -----------------------------------------------------------


def _rng(seed: int, *parts: object) -> random.Random:
    return random.Random(":".join(map(str, (seed, *parts))))


def heal_stream(runner: Runner, seed: int, stream: str, count: int | None, deadline: float | None) -> int:
    """Heal projects one after another until `count` or the deadline.

    Why: the paper's per-project healing loop (adapt, adapt again from
    the pool, check the adapted project) on many small projects, each
    with its own fresh pool. Fixed per-project cost (parse, ASLT,
    analyse, generate, descriptor emit, report) dominates; pool and
    matcher stay tiny, so heal is the control that pool and matcher
    changes must not move."""
    i = 0
    while (count is None or i < count) and (deadline is None or time.perf_counter() < deadline):
        project = specgen.adaptable_project(_rng(seed, "heal", stream, i), f"p{i}")
        d = runner.materialize(project, runner.run_dir / stream / f"p{i}")
        runner.heal_project(project, d)
        i += 1
    return i


def wide_stream(runner: Runner, seed: int, stream: str, count: int | None, deadline: float | None) -> int:
    """Check wide projects one after another until `count` or the deadline.

    Why: 8 connections of 1-3 ops of arity 0-7 whose params fall into
    1-2 permuted concept groups (a fixed mix, `specgen.WIDE_DECK`); the
    matcher, factorial in group size, dominates. Every 16th project is
    also adapted and re-adapted in a fresh pool, so the pool, adapter
    and linkage layers are measured (and checked) here too."""
    i = 0
    while (count is None or i < count) and (deadline is None or time.perf_counter() < deadline):
        project = specgen.wide_project(_rng(seed, "wide", stream, i), i)
        d = runner.materialize(project, runner.run_dir / stream / f"p{i}")
        runner.check_project(project, d)
        if i % WIDE_ADAPT_EVERY == WIDE_ADAPT_AT:
            pool = d / "pool"
            first = runner.adapt_new(project, d, pool)
            if first is not None:
                runner.adapt_repeat(project, d, pool, first)
        i += 1
    return i


def reuse_pass(runner: Runner, seed: int, stream: str, steps: int) -> None:
    """One pass on a fresh shared pool. Step i: `pool add` project i's
    components, `adapt` it, `check` the result, repeat-`adapt` a
    seeded earlier project and `check` that again, and `pool query` a
    seeded earlier project's op-0 concept.

    Why: half the projects draw op 0 from one of three hot concepts, so
    shaped queries price many candidates. Index rewrites (writes) and
    per-candidate index parses (reads) both grow with pool size, so a
    pool change that trades one for the other shows here."""
    base = runner.run_dir / stream
    pool = base / "pool"
    mix = _rng(seed, "reuse", stream, "mix")
    projects: list[tuple[Project, Path, Adapted]] = []
    stored: list[tuple[str, str, tuple[str, ...]]] = []  # (fp, name, provided concepts)
    # Exactly half the projects are hot, spread evenly over the hot
    # families; the seed decides which.
    hot = [i % 2 == 0 for i in range(steps)]
    mix.shuffle(hot)
    for i in range(steps):
        rng = _rng(seed, "reuse", stream, i)
        family = HOT_FAMILIES[sum(hot[:i]) % len(HOT_FAMILIES)] if hot[i] else None
        project = specgen.adaptable_project(rng, f"s{i}", family)
        d = runner.materialize(project, base / f"p{i}")
        fps = runner.pool_add(project, d, pool)
        if fps:
            provider = project.connections[0].provider
            stored.append((fps[1], provider, project.provider_concepts))
        first = runner.adapt_new(project, d, pool)
        if first is not None:
            runner.check_adapted(project, d)
            conn = project.connections[0]
            name, fp = first.adapters[_label(conn)]
            stored.append((fp, name, tuple(sorted({op.concept for op in conn.ops}))))
            projects.append((project, d, first))
        if projects:
            earlier, ed, efirst = projects[mix.randrange(len(projects))]
            runner.adapt_repeat(earlier, ed, pool, efirst)
            runner.check_adapted(earlier, ed)
            target = projects[mix.randrange(len(projects))][0]
            runner.pool_query(target.connections[0].ops[0].concept, pool, stored)

