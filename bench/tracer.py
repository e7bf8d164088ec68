"""Benchmark-side tracing: timing wrappers around each layer's public
functions, installed at every module attribute that binds them.

Nothing under `src/` changes. While installed, a call through any
binding (`linkage.pool_add`, `pool.pool_get`, `analyser.match_operation`,
...) records a span with name, start, end, parent span and CLI
operation id. Spans stay in memory; `chrome_trace` writes them out at
the end, and `uninstall` puts the original functions back.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# Layer entry points: module -> public functions wrapped. Inner
# per-candidate helpers (score_mismatches, tokenize, model helpers) are
# left alone so the trace does not dominate the run it measures.
ENTRY_POINTS = {
    "adapterforge.speclang.parser": ("parse_component", "parse_project", "parse_any", "read_spec_text"),
    "adapterforge.speclang.serializer": ("serialize", "serialize_with_positions"),
    "adapterforge.speclang.validate": ("validate",),
    "adapterforge.aslt": ("build_aslt", "build_component_aslt", "resolve_components"),
    "adapterforge.analyser": ("analyse", "match_operation", "verify"),
    "adapterforge.conversions": ("load_rules", "parse_rules_text"),
    "adapterforge.adapters": (
        "generate_adapter", "emit_descriptor", "parse_descriptor", "emit_stub", "interpret_mapping",
    ),
    "adapterforge.pool": ("init_pool", "pool_add", "pool_get", "pool_list", "pool_query", "pool_verify"),
    "adapterforge.linkage": ("run_workflow", "load_specs_dir", "parse_spec_file", "integrate"),
    "adapterforge.report": ("render_match_report", "render_workflow"),
}

ROOT_SPAN = "cli.main"
# Spans whose process I/O counters are sampled around the call.
IO_SPANS = frozenset({"pool.pool_add", "pool.pool_query"})

# Span fields.
NAME, START, END, PARENT, OP, ARGS = range(6)


def _layer(module: str) -> str:
    return module.split(".")[1]


def _proc_io() -> tuple[int, int, int]:
    """(rchar, wchar, bytes this read added to rchar)."""
    try:
        with open("/proc/self/io", "rb") as f:
            data = f.read()
    except OSError:
        return 0, 0, 0
    fields = dict(line.split(b": ") for line in data.splitlines() if b": " in line)
    return int(fields[b"rchar"]), int(fields[b"wchar"]), len(data)


def _largest_group(op) -> int:
    counts: dict = defaultdict(int)
    for concept in op.param_concepts():
        counts[concept] += 1
    return max(counts.values(), default=0)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.op = -1

    # --- recording ------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op, None])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        io = name in IO_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = _proc_io() if io else None
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if io:
                r1, w1, _ = _proc_io()
                r0, w0, own = before
                self.spans[idx][ARGS] = {"rchar": r1 - r0 - own, "wchar": w1 - w0}
            if name == "pool.pool_query":
                self.spans[idx][ARGS]["results"] = len(result)
            elif name == "analyser.match_operation":
                self.spans[idx][ARGS] = {"group": _largest_group(args[0])}
            return result

        return traced

    # --- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of every entry point in loaded
        `adapterforge` modules, the defining module included."""
        wrappers = {}
        for module_name, names in ENTRY_POINTS.items():
            # An entry point a later change removes is skipped; its
            # metrics then read 0.
            module = sys.modules.get(module_name)
            for fname in names:
                fn = getattr(module, fname, None)
                if fn is not None:
                    wrappers[id(fn)] = (fn, self._wrap(fn, f"{_layer(module_name)}.{fname}"))
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "adapterforge" or module_name.startswith("adapterforge.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._restore.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    # --- output ---------------------------------------------------------

    def chrome_trace(self, counters: dict, meta: dict) -> dict:
        """Chrome trace-event JSON (opens in Perfetto / chrome://tracing)."""
        base = self.spans[0][START] if self.spans else 0
        events = []
        for i, s in enumerate(self.spans):
            args = {"op": s[OP], "span": i, "parent": s[PARENT]}
            if s[ARGS]:
                args.update(s[ARGS])
            events.append(
                {
                    "name": s[NAME],
                    "cat": s[NAME].split(".")[0],
                    "ph": "X",
                    "ts": (s[START] - base) / 1000,
                    "dur": (s[END] - s[START]) / 1000,
                    "pid": 1,
                    "tid": 1,
                    "args": args,
                }
            )
        end_ts = (self.spans[-1][END] - base) / 1000 if self.spans else 0
        for name, value in sorted(counters.items()):
            events.append(
                {"name": name, "ph": "C", "ts": end_ts, "pid": 1, "args": {"value": value}}
            )
        return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": meta}


# --- per-layer metrics from spans -------------------------------------------

PARSE = frozenset({"speclang.parse_component", "speclang.parse_project", "speclang.parse_any"})
SERIALIZE = frozenset({"speclang.serialize", "speclang.serialize_with_positions"})
BUILD = frozenset({"aslt.build_aslt", "aslt.build_component_aslt"})
RENDER = frozenset({"report.render_match_report", "report.render_workflow"})


def layer_metrics(spans: list[list], ops: list[str], hit_ops: set[int], pool_hits: int,
                  repeat_integrations: int, index_bytes: float) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    Times are milliseconds per CLI operation: inclusive for a group of
    functions (a call nested inside another of the same group counts
    once), self time (duration minus direct children) where marked.
    Counts are totals over the run. `hit_ops` are the ids of repeat
    `adapt` operations, which reported `repeat_integrations`
    integrations, `pool_hits` of them POOL_HIT.
    """
    n_ops = max(len(ops), 1)
    child = [0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]

    def dur(i: int) -> int:
        return spans[i][END] - spans[i][START]

    def outermost(group: frozenset) -> list[int]:
        out = []
        for i, s in enumerate(spans):
            if s[NAME] not in group:
                continue
            p = s[PARENT]
            while p >= 0 and spans[p][NAME] not in group:
                p = spans[p][PARENT]
            if p < 0:
                out.append(i)
        return out

    def per_op_ms(ns: int) -> float:
        return ns / 1e6 / n_ops

    def named(name: str) -> list[int]:
        return [i for i, s in enumerate(spans) if s[NAME] == name]

    parse = outermost(PARSE)
    ser = outermost(SERIALIZE)
    build = outermost(BUILD)
    match = named("analyser.match_operation")
    emit = named("adapters.emit_descriptor")
    generate = named("adapters.generate_adapter")
    adds = named("pool.pool_add")
    queries = named("pool.pool_query")
    gets = named("pool.pool_get")
    priced = [i for i in match if spans[i][PARENT] >= 0 and spans[spans[i][PARENT]][NAME] == "pool.pool_query"]
    hit_gets = [i for i in gets if spans[i][OP] in hit_ops]

    def self_ms(name: str) -> float:
        return per_op_ms(sum(dur(i) - child[i] for i in named(name)))

    def mean(values: list, default: float = 0.0) -> float:
        return sum(values) / len(values) if values else default

    return {
        "speclang.parse_ms": per_op_ms(sum(dur(i) for i in parse)),
        "speclang.parse_calls": len(parse),
        "speclang.serialize_ms": per_op_ms(sum(dur(i) for i in ser)),
        "speclang.serialize_calls": len(ser),
        "aslt.build_ms": per_op_ms(sum(dur(i) for i in build)),
        "aslt.build_calls": len(build),
        "analyser.analyse_ms": self_ms("analyser.analyse"),
        "analyser.match_ms": per_op_ms(sum(dur(i) for i in match)),
        "analyser.match_calls": len(match),
        "analyser.match_max_ms": max((dur(i) for i in match), default=0) / 1e6,
        "conversions.load_rules_ms": per_op_ms(sum(dur(i) for i in named("conversions.load_rules"))),
        "adapters.generate_ms": per_op_ms(sum(dur(i) for i in generate)),
        "adapters.emit_ms": per_op_ms(sum(dur(i) for i in emit)),
        "adapters.emit_calls": len(emit),
        "adapters.emit_per_generated": len(emit) / len(generate) if generate else 0.0,
        "adapters.parse_descriptor_calls": len(named("adapters.parse_descriptor")),
        "pool.add_ms": per_op_ms(sum(dur(i) for i in adds)),
        "pool.write_bytes_per_add": mean([a["wchar"] for i in adds if (a := spans[i][ARGS])]),
        "pool.index_bytes": index_bytes,
        "pool.query_ms": self_ms("pool.pool_query"),
        "pool.get_calls": len(gets),
        "pool.priced_per_query": len(priced) / len(queries) if queries else 0.0,
        "pool.candidates_per_query": mean([a["results"] for i in queries if (a := spans[i][ARGS])]),
        "pool.read_bytes_per_query": mean([a["rchar"] for i in queries if (a := spans[i][ARGS])]),
        "linkage.workflow_ms": self_ms("linkage.run_workflow"),
        "linkage.integrate_calls": len(named("linkage.integrate")),
        "linkage.pool_hit_ratio": pool_hits / repeat_integrations if repeat_integrations else 0.0,
        "linkage.gets_per_hit": len(hit_gets) / pool_hits if pool_hits else 0.0,
        "report.render_ms": per_op_ms(sum(dur(i) for i in outermost(RENDER))),
        "cli.self_ms": self_ms(ROOT_SPAN),
    }


# Metrics that must repeat exactly across two traced runs of one seed.
COUNT_METRICS = (
    "speclang.parse_calls",
    "speclang.serialize_calls",
    "aslt.build_calls",
    "analyser.match_calls",
    "adapters.emit_calls",
    "adapters.emit_per_generated",
    "adapters.parse_descriptor_calls",
    "pool.write_bytes_per_add",
    "pool.index_bytes",
    "pool.get_calls",
    "pool.priced_per_query",
    "pool.candidates_per_query",
    "pool.read_bytes_per_query",
    "linkage.integrate_calls",
    "linkage.pool_hit_ratio",
    "linkage.gets_per_hit",
)


def ops_with(spans: list[list], name: str) -> dict[int, int]:
    """Calls of `name` per CLI operation id."""
    counts: dict[int, int] = defaultdict(int)
    for s in spans:
        if s[NAME] == name:
            counts[s[OP]] += 1
    return counts
