from __future__ import annotations

import concurrent.futures
import json
import os
import random
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest

import adapterforge
from oracles import oracle_pool_query
from testutil import component, concept, op, param
from adapterforge import canonjson
from adapterforge.adapters import generate_adapter, emit_descriptor
from adapterforge.analyser import Demand, analyse, match_operation, shape_as_operation, shape_of
from adapterforge.conversions import ConversionTable, load_rules
from adapterforge.pool import (
    PoolError,
    PoolQuery,
    fingerprint_of,
    init_pool,
    pool_add,
    pool_get,
    pool_list,
    pool_query,
    pool_verify,
    _write_atomic,
)
from adapterforge.speclang import (
    ComponentSpec,
    F64,
    I32,
    I64,
    STRING,
    InterfaceSpec,
    Literal,
    VersionConstraint,
    parse_component,
    serialize,
)

CORPUS = Path(__file__).parent / "corpus"
GOLDEN = Path(__file__).parent / "golden"
HEADER = b'{"format":"pool/2"}\n'


def spec_text(name: str, version: str = "1.0.0", concept_text: str = "data.k.x") -> str:
    return (
        f'component "{name}" version "{version}" {{\n'
        "  provides interface I {\n"
        f"    op f(x: i32) -> i32 @concept {concept_text}\n"
        "  }\n"
        "}\n"
    )


@pytest.fixture()
def pool(tmp_path: Path) -> Path:
    return init_pool(tmp_path / "pool")


def test_add_is_idempotent(pool: Path):
    first = pool_add(pool, spec_text("alpha"))
    second = pool_add(pool, spec_text("alpha"))
    assert first == second
    assert len(pool_list(pool)) == 1


def test_add_canonicalizes_before_hashing(pool: Path):
    # Same spec, different formatting: one entry.
    messy = 'component "alpha"    version "1.0.0" {provides interface I{op f(x: i32) -> i32 @concept data.k.x}}'
    assert pool_add(pool, messy) == pool_add(pool, spec_text("alpha"))


def test_stored_file_rehashes_to_fingerprint(pool: Path):
    fp = pool_add(pool, spec_text("alpha"))
    stored = pool / "components" / f"{fp}.cdl"
    assert stored.exists()
    assert fingerprint_of(stored.read_bytes()) == fp


def test_get_roundtrip(pool: Path):
    fp = pool_add(pool, spec_text("alpha"))
    spec = pool_get(pool, fp)
    assert isinstance(spec, ComponentSpec)
    assert spec == parse_component(spec_text("alpha"))


def test_get_unknown_fingerprint(pool: Path):
    with pytest.raises(PoolError) as err:
        pool_get(pool, "0" * 64)
    assert err.value.code == "E_NO_ENTRY"


def test_get_detects_tampering(pool: Path):
    fp = pool_add(pool, spec_text("alpha"))
    stored = pool / "components" / f"{fp}.cdl"
    data = bytearray(stored.read_bytes())
    data[10] ^= 0xFF
    stored.write_bytes(bytes(data))
    with pytest.raises(PoolError) as err:
        pool_get(pool, fp)
    assert err.value.code == "E_CORRUPT"


def test_invalid_spec_rejected(pool: Path):
    with pytest.raises(PoolError) as err:
        pool_add(pool, "component oops {")
    assert err.value.code == "E_INVALID_SPEC"
    assert pool_list(pool) == []


def test_adapter_descriptor_roundtrip(pool: Path):
    conv, config = load_rules(CORPUS / "conversions.rules")
    consumer = parse_component((CORPUS / "figure3" / "reportgen.cdl").read_text())
    provider = parse_component((CORPUS / "figure3" / "sortkit.cdl").read_text())
    from adapterforge.speclang import parse_project

    project = parse_project((CORPUS / "figure3" / "figure3.pdl").read_text())
    report = analyse(project, [consumer, provider], conv, config)
    adapter = generate_adapter(report.verdicts[0], consumer, provider, project.name)

    fp = pool_add(pool, emit_descriptor(adapter))
    assert pool_get(pool, fp) == adapter
    ((stored_fp, entry),) = pool_list(pool)
    assert stored_fp == fp
    assert entry.kind == "adapter"
    assert entry.provided_concepts == ("data.sorting.sort",)


def test_query_empty_pool(pool: Path):
    demand = Demand(concept=concept("data.k.x"), shape=None, origin="project")
    assert pool_query(pool, PoolQuery(demand)) == []


def _shaped_demand() -> Demand:
    wanted = op("f", (param("x", I32, "data.k.x.arg.x"),), I32, "data.k.x")
    return Demand(concept=wanted.concept, shape=shape_of(wanted), origin="conn")


def test_query_exact_spec_scores_one(pool: Path):
    fp = pool_add(pool, spec_text("alpha"))
    results = pool_query(pool, PoolQuery(_shaped_demand()))
    assert results == [(fp, Fraction(1))]


def test_query_ranks_exact_above_ancestor(pool: Path):
    exact_fp = pool_add(pool, spec_text("alpha", concept_text="data.k.x"))
    ancestor_fp = pool_add(pool, spec_text("beta", concept_text="data.k"))
    results = pool_query(pool, PoolQuery(_shaped_demand()))
    assert [fp for fp, _ in results] == [exact_fp, ancestor_fp]
    # Scores are exactly what the matcher reports for the same pairs.
    demand = _shaped_demand()
    wanted = shape_as_operation(demand.concept, demand.shape)
    for fp, score in results:
        stored = pool_get(pool, fp)
        best = max(
            match_operation(wanted, op_, ConversionTable()).score
            for iface in stored.provided
            for op_ in iface.operations
            if match_operation(wanted, op_, ConversionTable()) is not None
        )
        assert score == best


def test_query_version_constraint(pool: Path):
    old = pool_add(pool, spec_text("alpha", version="1.0.0"))
    new = pool_add(pool, spec_text("alpha", version="2.0.0"))
    results = pool_query(
        pool, PoolQuery(_shaped_demand(), constraint=VersionConstraint(">=", (2, 0, 0)))
    )
    assert [fp for fp, _ in results] == [new]


def test_query_unrelated_concept_is_missed(pool: Path):
    pool_add(pool, spec_text("alpha", concept_text="data.k.x"))
    demand = Demand(concept=concept("net.http.get"), shape=None, origin="project")
    assert pool_query(pool, PoolQuery(demand)) == []


def test_verify_healthy(pool: Path):
    pool_add(pool, spec_text("alpha"))
    pool_add(pool, spec_text("beta"))
    assert pool_verify(pool) == []


def test_verify_detects_single_flip(pool: Path):
    fp = pool_add(pool, spec_text("alpha"))
    stored = pool / "components" / f"{fp}.cdl"
    data = bytearray(stored.read_bytes())
    data[0] ^= 0x01
    stored.write_bytes(bytes(data))
    findings = pool_verify(pool)
    assert len(findings) == 1
    assert findings[0].kind == "hash_mismatch"
    assert findings[0].fingerprint == fp


def test_verify_detects_dangling_entry(pool: Path):
    fp = pool_add(pool, spec_text("alpha"))
    (pool / "components" / f"{fp}.cdl").unlink()
    findings = pool_verify(pool)
    assert len(findings) == 1
    assert findings[0].kind == "dangling"


def test_temp_files_are_ignored(pool: Path):
    pool_add(pool, spec_text("alpha"))
    (pool / "components" / ".tmp-999-junk").write_bytes(b"partial write")
    assert pool_verify(pool) == []
    assert len(pool_list(pool)) == 1


def test_lock_timeout(pool: Path):
    (pool / "index.lock").write_text("held")
    with pytest.raises(PoolError) as err:
        pool_add(pool, spec_text("alpha"), timeout=0.05)
    assert err.value.code == "E_LOCK"
    (pool / "index.lock").unlink()
    pool_add(pool, spec_text("alpha"), timeout=0.05)


def _concurrent_add(args: tuple[str, str]) -> str:
    root, text = args
    return pool_add(root, text)


def test_concurrent_adds_from_processes(pool: Path):
    texts = [spec_text(f"comp{i}") for i in range(24)]
    with concurrent.futures.ProcessPoolExecutor(max_workers=4) as pool_exec:
        fps = list(pool_exec.map(_concurrent_add, [(str(pool), t) for t in texts]))
    assert len(set(fps)) == 24
    entries = pool_list(pool)
    assert len(entries) == 24
    assert pool_verify(pool) == []
    for fp, _ in entries:
        pool_get(pool, fp)


# --- journal format ----------------------------------------------------


def _lines(pool: Path) -> list[bytes]:
    return (pool / "index").read_bytes().splitlines(keepends=True)


def test_fresh_index_is_a_journal_header(pool: Path):
    assert (pool / "index").read_bytes() == HEADER


def test_new_add_appends_exactly_one_line(pool: Path):
    pool_add(pool, spec_text("alpha"))
    before = (pool / "index").read_bytes()
    fp = pool_add(pool, spec_text("beta"))
    after = (pool / "index").read_bytes()
    assert after.startswith(before)
    appended = after[len(before) :]
    assert appended.count(b"\n") == 1 and appended.endswith(b"\n")
    line = json.loads(appended)
    assert line["fingerprint"] == fp
    assert appended == canonjson.dump_line(line)  # compact canonical form


def test_readd_leaves_index_byte_identical(pool: Path):
    pool_add(pool, spec_text("alpha"))
    pool_add(pool, spec_text("beta"))
    before = (pool / "index").read_bytes()
    pool_add(pool, spec_text("alpha"))
    pool_add(pool, spec_text("beta"))
    assert (pool / "index").read_bytes() == before


def test_torn_last_line_ignored_then_truncated(pool: Path):
    alpha = pool_add(pool, spec_text("alpha"))
    whole = (pool / "index").read_bytes()
    with open(pool / "index", "ab") as f:
        f.write(b'{"fingerprint":"' + b"ab" * 10)  # a writer killed mid-append
    assert [fp for fp, _ in pool_list(pool)] == [alpha]
    assert pool_verify(pool) == []
    beta = pool_add(pool, spec_text("beta"))
    lines = _lines(pool)
    assert b"".join(lines[:2]) == whole
    assert len(lines) == 3 and json.loads(lines[2])["fingerprint"] == beta
    assert sorted(fp for fp, _ in pool_list(pool)) == sorted([alpha, beta])


def _as_pool1(pool: Path) -> None:
    """Rewrite the index in the `pool/1` format: one document."""
    entries = {
        fp: {
            "kind": e.kind,
            "name": e.name,
            "version": e.version,
            "provided_concepts": list(e.provided_concepts),
            "path": e.path,
            "stored_at": e.stored_at,
        }
        for fp, e in pool_list(pool)
    }
    (pool / "index").write_bytes(canonjson.dump_bytes({"entries": entries, "format": "pool/1"}))


def test_pool1_index_lists_the_same_entries_after_conversion(pool: Path):
    for name in ("alpha", "beta", "gamma"):
        pool_add(pool, spec_text(name))
    listed = pool_list(pool)
    _as_pool1(pool)
    pool1 = (pool / "index").read_bytes()
    assert pool_list(pool) == listed
    pool_add(pool, spec_text("alpha"))  # nothing new: the pool/1 file is left alone
    assert (pool / "index").read_bytes() == pool1
    delta = pool_add(pool, spec_text("delta"))
    lines = _lines(pool)
    assert lines[0] == HEADER and len(lines) == 5
    assert [(fp, e) for fp, e in pool_list(pool) if fp != delta] == listed
    assert pool_verify(pool) == []


_PATH = "components/" + "a" * 64 + ".cdl"
_GOOD_LINE = {
    "fingerprint": "a" * 64,
    "kind": "component",
    "name": "alpha",
    "version": "1.0.0",
    "provided_concepts": ["data.k.x"],
    "path": _PATH,
    "stored_at": "2024-01-01T00:00:00+00:00",
}


def _journal(*docs) -> bytes:
    return HEADER + b"".join(
        d if isinstance(d, bytes) else canonjson.dump_line(d) for d in docs
    )


MALFORMED_INDEXES = {
    "pool1 entry missing fields": (
        b'{"entries": {"abc": {"kind": "component"}}, "format": "pool/1"}'
    ),
    "pool1 entries not an object": b'{"entries": [], "format": "pool/1"}',
    "unknown format": b'{"entries": {}, "format": "pool/9"}',
    "not json": b"garbage\n",
    "empty file": b"",
    "line not json": _journal(b"{oops\n"),
    "blank line": _journal(_GOOD_LINE, b"\n"),
    "two values on a line": _journal(b"1,2\n"),
    "line not an object": _journal(b"[]\n"),
    "missing fingerprint": _journal({k: v for k, v in _GOOD_LINE.items() if k != "fingerprint"}),
    "extra key": _journal({**_GOOD_LINE, "extra": 1}),
    "bad fingerprint": _journal({**_GOOD_LINE, "fingerprint": "xyz"}),
    "unknown kind": _journal({**_GOOD_LINE, "kind": "blob"}),
    "path elsewhere": _journal({**_GOOD_LINE, "path": "../outside.cdl"}),
    "bad version": _journal({**_GOOD_LINE, "version": "1.0"}),
    "leading-zero version": _journal({**_GOOD_LINE, "version": "1.01.0"}),
    "fingerprint with a slash": _journal(
        {**_GOOD_LINE, "fingerprint": "a" * 62 + "/.", "path": "components/" + "a" * 62 + "/..cdl"}
    ),
    "name not a string": _journal({**_GOOD_LINE, "name": 5}),
    "concepts not strings": _journal({**_GOOD_LINE, "provided_concepts": [1]}),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INDEXES))
def test_malformed_index_is_corrupt(pool: Path, case: str):
    (pool / "index").write_bytes(MALFORMED_INDEXES[case])
    demand = Demand(concept=concept("data.k.x"), shape=None, origin="project")
    for action in (
        lambda: pool_list(pool),
        lambda: pool_get(pool, "a" * 64),
        lambda: pool_query(pool, PoolQuery(demand)),
        lambda: pool_query(pool, PoolQuery(_shaped_demand())),
        lambda: pool_verify(pool),
        lambda: pool_add(pool, spec_text("alpha")),
    ):
        with pytest.raises(PoolError) as err:
            action()
        assert err.value.code == "E_CORRUPT"
    assert not (pool / "index.lock").exists()


# --- pool_query against its oracle ---------------------------------------

_CONCEPTS = ("data", "data.k", "data.k.x", "data.k.y", "data.m", "data.m.z")
_TYPES = (I32, I64, F64, STRING)
_DEFAULTS = {
    "i32": Literal("int", 7),
    "i64": Literal("int", 7),
    "f64": Literal("float", 1.5),
    "string": Literal("string", "s"),
}


def _random_op(rng: random.Random, name: str):
    params = []
    for j in range(rng.randint(0, 3)):
        ty = rng.choice(_TYPES)
        default = _DEFAULTS[ty.kind] if rng.random() < 0.3 else None
        params.append(param(f"p{j}", ty, default=default))
    return op(name, tuple(params), rng.choice(_TYPES), rng.choice(_CONCEPTS))


def _random_pool(root: Path, rng: random.Random, size: int) -> list:
    """Components on a small concept vocabulary (so candidates relate,
    match and tie), plus the figure3 adapter; returns the ops drawn."""
    ops = []
    for i in range(size):
        n_ops = rng.randint(1, 3)
        iface_ops = tuple(_random_op(rng, rng.choice("fgh") + str(k)) for k in range(n_ops))
        ops.extend(iface_ops)
        spec = component(
            f"c{i}",
            provided=(InterfaceSpec("I", "provided", iface_ops),),
            version=(rng.randint(0, 2), rng.randint(0, 2), 0),
        )
        pool_add(root, serialize(spec))
    pool_add(root, (GOLDEN / "figure3.adapter").read_text())
    return ops


@pytest.mark.parametrize("index_format", ["pool/2", "pool/1"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_query_matches_oracle(tmp_path: Path, index_format: str, seed: int):
    rng = random.Random(seed)
    root = init_pool(tmp_path / "pool")
    ops = _random_pool(root, rng, 40)
    if index_format == "pool/1":
        _as_pool1(root)
    conv, config = load_rules(CORPUS / "conversions.rules")
    demands = [Demand(concept(c), None, "project") for c in _CONCEPTS + ("data.sorting", "net")]
    demands += [Demand(o.concept, shape_of(o), "conn") for o in rng.sample(ops, 8)]
    demands += [
        Demand(concept("data.k"), shape_of(_random_op(rng, "f0")), "conn") for _ in range(4)
    ]
    constraints = [None, VersionConstraint(">=", (1, 0, 0)), VersionConstraint("=", (1, 1, 0))]
    nonempty = 0
    for demand in demands:
        for constraint in constraints:
            query = PoolQuery(demand, constraint)
            expected = oracle_pool_query(root, query, conv, config)
            found = pool_query(root, query, conv, config)
            assert found == expected
            assert all(candidate.score >= config.threshold for candidate in found)
            nonempty += len(expected) > 1
    assert nonempty >= len(demands)  # the pools exercise ranking, not just misses


def test_query_candidates_carry_entry_and_verified_value(pool: Path):
    fp = pool_add(pool, spec_text("alpha"))
    (shaped,) = pool_query(pool, PoolQuery(_shaped_demand()))
    bare_demand = Demand(concept=concept("data.k"), shape=None, origin="project")
    (bare,) = pool_query(pool, PoolQuery(bare_demand))
    for candidate in (shaped, bare):
        assert candidate.fingerprint == fp and candidate.entry.name == "alpha"
        assert candidate.load() == parse_component(spec_text("alpha"))
    stored = pool / "components" / f"{fp}.cdl"
    stored.write_bytes(stored.read_bytes().replace(b"alpha", b"alphb"))
    (bare,) = pool_query(pool, PoolQuery(bare_demand))
    with pytest.raises(PoolError) as err:
        bare.load()  # a bare candidate is read, and re-hashed, on demand
    assert err.value.code == "E_CORRUPT"


# --- orphans ------------------------------------------------------------


def test_verify_reports_orphan_artifact(pool: Path):
    pool_add(pool, spec_text("alpha"))
    orphan = pool / "components" / f"{'b' * 64}.cdl"
    orphan.write_text(spec_text("beta"))
    findings = pool_verify(pool)
    assert [(f.kind, f.fingerprint, f.path) for f in findings] == [
        ("orphan", "b" * 64, f"components/{'b' * 64}.cdl")
    ]


# --- crashed writers and concurrent writers -----------------------------

_CHILD_WRITER = """
import sys, time
from adapterforge import pool

root, stage = sys.argv[1], sys.argv[2]
real_write = pool._write_atomic

def write_then_hold(path, data):
    if stage == "after-artifact":
        real_write(path, data)
    print("holding", flush=True)
    time.sleep(60)

pool._write_atomic = write_then_hold
pool.pool_add(root, sys.stdin.read())
"""


def _kill_writer_while_holding_lock(pool: Path, document: str, stage: str) -> None:
    """Start a writer in a child process, SIGKILL it while it holds the
    index lock, and reap it so its pid is gone."""
    env = dict(os.environ, PYTHONPATH=str(Path(adapterforge.__file__).resolve().parents[1]))
    child = subprocess.Popen(
        [sys.executable, "-c", _CHILD_WRITER, str(pool), stage],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        env=env,
    )
    try:
        child.stdin.write(document.encode())
        child.stdin.close()
        assert child.stdout.readline() == b"holding\n"
        assert (pool / "index.lock").read_text() == str(child.pid)
    finally:
        child.kill()
        child.wait(timeout=30)
        child.stdout.close()


def test_lock_of_a_killed_writer_is_broken(pool: Path):
    _kill_writer_while_holding_lock(pool, spec_text("alpha"), "before-artifact")
    assert (pool / "index.lock").exists()
    fp = pool_add(pool, spec_text("beta"), timeout=2.0)
    assert [f for f, _ in pool_list(pool)] == [fp]
    assert not (pool / "index.lock").exists()
    assert pool_verify(pool) == []


def test_writer_killed_after_rename_leaves_an_orphan_that_readd_heals(pool: Path):
    _kill_writer_while_holding_lock(pool, spec_text("alpha"), "after-artifact")
    (finding,) = pool_verify(pool)
    assert finding.kind == "orphan"
    assert pool_list(pool) == []
    fp = pool_add(pool, spec_text("alpha"), timeout=2.0)
    assert finding.fingerprint == fp
    assert pool_verify(pool) == []


def test_lock_held_by_a_live_process_times_out(pool: Path):
    (pool / "index.lock").write_text(str(os.getpid()))
    with pytest.raises(PoolError) as err:
        pool_add(pool, spec_text("alpha"), timeout=0.05)
    assert err.value.code == "E_LOCK"
    assert (pool / "index.lock").exists()


def test_threaded_adds_with_duplicates(pool: Path):
    texts = [spec_text(f"comp{i % 6}") for i in range(36)]
    start = threading.Barrier(6, timeout=30)  # each round of six adds starts together

    def add(text: str) -> str:
        start.wait()
        return pool_add(pool, text)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=6) as executor:
            fps = list(executor.map(add, texts, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert len(set(fps)) == 6
    assert len(_lines(pool)) == 7  # header + one line per distinct artifact
    assert sorted(fp for fp, _ in pool_list(pool)) == sorted(set(fps))
    assert pool_verify(pool) == []
    assert not [p for p in pool.rglob(".tmp-*")]


def test_atomic_writes_from_threads_use_distinct_temp_files(tmp_path: Path):
    target = tmp_path / "target"
    start = threading.Barrier(8, timeout=30)

    def write(i: int) -> None:
        start.wait()
        for k in range(50):
            _write_atomic(target, b"%d-%d" % (i, k))

    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as executor:
        list(executor.map(write, range(8), timeout=60))
    assert target.read_bytes().endswith(b"-49")
    assert [p.name for p in tmp_path.iterdir()] == ["target"]


def test_concurrent_init_pool_on_a_fresh_root(tmp_path: Path):
    root = tmp_path / "fresh"
    start = threading.Barrier(8, timeout=30)

    def init_and_add(i: int) -> str:
        start.wait()
        init_pool(root)
        return pool_add(root, spec_text(f"comp{i}"))

    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as executor:
        fps = list(executor.map(init_and_add, range(8), timeout=60))
    assert sorted(fp for fp, _ in pool_list(root)) == sorted(fps)
    assert _lines(root)[0] == HEADER and len(_lines(root)) == 9
    assert not [p for p in root.rglob(".tmp-*")]
