from __future__ import annotations

import concurrent.futures
import contextlib
import fcntl
import hashlib
import json
import os
import random
import stat
import subprocess
import sys
import tempfile
import threading
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from typing import Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adapterforge
from oracles import oracle_fold, oracle_pool_query
from testutil import component, concept, op, param
from adapterforge import canonjson
from adapterforge import pool as pool_module
from adapterforge.adapters import generate_adapter, emit_descriptor
from adapterforge.analyser import analyse
from adapterforge.conversions import DEFAULT_CONFIG, load_rules
from adapterforge.pool import (
    E_CORRUPT,
    E_INVALID_SPEC,
    E_IO,
    E_LOCK,
    E_NO_ENTRY,
    IndexEntry,
    PoolQuery,
    fingerprint_of,
    init_pool,
    pool_add,
    pool_get,
    pool_list,
    pool_query,
    pool_verify,
    _artifact_path,
    _entry,
    _open_journal,
    _read_artifact,
    _write_atomic,
)
from adapterforge.speclang import (
    AdapterForgeError,
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
    with pytest.raises(AdapterForgeError) as err:
        pool_get(pool, "0" * 64)
    assert err.value.code == "E_NO_ENTRY"


def test_get_detects_tampering(pool: Path):
    fp = pool_add(pool, spec_text("alpha"))
    stored = pool / "components" / f"{fp}.cdl"
    data = bytearray(stored.read_bytes())
    data[10] ^= 0xFF
    stored.write_bytes(bytes(data))
    with pytest.raises(AdapterForgeError) as err:
        pool_get(pool, fp)
    assert err.value.code == "E_CORRUPT"


def test_invalid_spec_rejected(pool: Path):
    with pytest.raises(AdapterForgeError) as err:
        pool_add(pool, "component oops {")
    assert err.value.code == "E_INVALID_SPEC"
    assert pool_list(pool) == []


def _golden_adapter_doc() -> dict:
    return canonjson.loads((Path(__file__).parent / "golden" / "figure3.adapter").read_text())


def test_components_and_adapters_share_one_admission_message(pool: Path):
    """A component and an adapter that break a rule get the same message."""
    deep = "list<list<list<list<i32>>>>"
    doc = _golden_adapter_doc()
    doc["implements"]["operations"][0]["returns"] = deep
    spec = (CORPUS / "figure3" / "sortkit.cdl").read_text().replace("list<i32>", deep, 1)
    for document, name in ((canonjson.dumps(doc), doc["name"]), (spec, "sortkit")):
        with pytest.raises(AdapterForgeError) as err:
            pool_add(pool, document)
        assert err.value.code == "E_INVALID_SPEC"
        assert err.value.message.startswith(f"spec {name} has violations: V_LIST_DEPTH")
    assert pool_list(pool) == []


def test_descriptor_must_read_back_as_its_component_spec(pool: Path):
    """A unit that parses as a shorter one does not survive `.cdl` text."""
    doc = _golden_adapter_doc()
    doc["implements"]["operations"][0]["params"][0]["unit"] = "ms // gone"
    with pytest.raises(AdapterForgeError) as err:
        pool_add(pool, canonjson.dumps(doc))
    assert err.value.code == "E_INVALID_SPEC"
    assert err.value.message == (
        "not a valid adapter descriptor: its component spec reads back changed"
    )
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
    assert pool_query(pool, PoolQuery(concept("data.k.x"))) == []


def test_query_exact_spec_scores_one(pool: Path):
    fp = pool_add(pool, spec_text("alpha"))
    results = pool_query(pool, PoolQuery(concept("data.k.x")))
    assert results == [(fp, Fraction(1))]


def test_query_ranks_exact_above_ancestor(pool: Path):
    exact_fp = pool_add(pool, spec_text("alpha", concept_text="data.k.x"))
    ancestor_fp = pool_add(pool, spec_text("beta", concept_text="data.k"))
    results = pool_query(pool, PoolQuery(concept("data.k.x")))
    # One concept_distance penalty per ancestry hop.
    assert results == [(exact_fp, Fraction(1)), (ancestor_fp, Fraction(9, 10))]
    strict = replace(DEFAULT_CONFIG, threshold=Fraction(19, 20))
    assert pool_query(pool, PoolQuery(concept("data.k.x")), strict) == [(exact_fp, Fraction(1))]


def test_query_version_constraint(pool: Path):
    old = pool_add(pool, spec_text("alpha", version="1.0.0"))
    new = pool_add(pool, spec_text("alpha", version="2.0.0"))
    results = pool_query(
        pool, PoolQuery(concept("data.k.x"), constraint=VersionConstraint(">=", (2, 0, 0)))
    )
    assert [fp for fp, _ in results] == [new]


def test_query_unrelated_concept_is_missed(pool: Path):
    pool_add(pool, spec_text("alpha", concept_text="data.k.x"))
    assert pool_query(pool, PoolQuery(concept("net.http.get"))) == []


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


_CHILD_HOLDER = """
import fcntl, os, sys
fcntl.flock(os.open(sys.argv[1], os.O_RDWR | os.O_CREAT), fcntl.LOCK_EX)
print("holding", flush=True)
sys.stdin.read()
"""


@contextlib.contextmanager
def _lock_held_by_a_child(pool: Path) -> Iterator[subprocess.Popen]:
    """A child process holding the pool's index lock until its stdin
    closes or it is killed; it is gone when the block ends."""
    child = subprocess.Popen(
        [sys.executable, "-c", _CHILD_HOLDER, str(pool / "index.lock")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
    )
    try:
        assert child.stdout.readline() == b"holding\n"
        yield child
    finally:
        child.kill()
        child.wait(timeout=30)
        child.stdin.close()
        child.stdout.close()


def _lock_is_held(pool: Path) -> bool:
    """Whether some open of `index.lock` holds its flock, probed without waiting."""
    fd = os.open(pool / "index.lock", os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        return False
    except BlockingIOError:
        return True
    finally:
        os.close(fd)


def test_lock_timeout(pool: Path):
    with _lock_held_by_a_child(pool) as holder:
        with pytest.raises(AdapterForgeError) as err:
            pool_add(pool, spec_text("alpha"), timeout=0.05)
        assert err.value.code == "E_LOCK"
        holder.stdin.close()  # the holder exits and its lock goes with it
        assert holder.wait(timeout=30) == 0
    pool_add(pool, spec_text("alpha"), timeout=0.05)


def _reaped_pid() -> int:
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait(timeout=30)
    return child.pid


_LEFTOVER_LOCKS = {
    "empty": lambda: "",
    "held": lambda: "held",
    "live pid": lambda: str(os.getpid()),
    "reaped pid": lambda: str(_reaped_pid()),
}


@pytest.mark.parametrize("body", sorted(_LEFTOVER_LOCKS))
def test_leftover_lock_file_does_not_block_writers(pool: Path, body: str):
    (pool / "index.lock").write_text(_LEFTOVER_LOCKS[body]())
    fp = pool_add(pool, spec_text("alpha"), timeout=0.3)
    assert [f for f, _ in pool_list(pool)] == [fp]


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


def test_pool1_index_is_refused_and_its_artifacts_move_to_a_fresh_pool(pool: Path, tmp_path: Path):
    """A `pool/1` index is refused, not converted, and left byte for byte;
    `pool add` of its artifacts builds a fresh pool with the same entries."""
    for name in ("alpha", "beta", "gamma"):
        pool_add(pool, spec_text(name))
    listed = pool_list(pool)
    entries = {
        fp: {
            "kind": e.kind,
            "name": e.name,
            "version": e.version,
            "provided_concepts": list(e.provided_concepts),
            "path": e.path,
            "stored_at": e.stored_at,
        }
        for fp, e in listed
    }
    pool1 = canonjson.dump_bytes({"entries": entries, "format": "pool/1"})
    (pool / "index").write_bytes(pool1)
    for action in (
        lambda: pool_list(pool),
        lambda: pool_add(pool, spec_text("alpha")),
        lambda: pool_add(pool, spec_text("delta")),
        lambda: pool_verify(pool),
    ):
        with pytest.raises(AdapterForgeError) as err:
            action()
        assert (err.value.code, err.value.message) == (
            "E_CORRUPT",
            "pool index is not a pool/2 journal: its header is missing",
        )
        assert (pool / "index").read_bytes() == pool1
    assert not _lock_is_held(pool)

    fresh = init_pool(tmp_path / "fresh")
    for _, e in listed:
        pool_add(fresh, (pool / e.path).read_text())
    moved = pool_list(fresh)
    assert [(fp, replace(e, stored_at="")) for fp, e in moved] == [
        (fp, replace(e, stored_at="")) for fp, e in listed
    ]
    assert pool_verify(fresh) == []


_PATH ="components/" + "a" * 64 + ".cdl"
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
    for action in (
        lambda: pool_list(pool),
        lambda: pool_get(pool, "a" * 64),
        lambda: pool_query(pool, PoolQuery(concept("data.k.x"))),
        lambda: pool_query(pool, PoolQuery(concept("net"), provides=frozenset({concept("net")}))),
        lambda: pool_verify(pool),
        lambda: pool_add(pool, spec_text("alpha")),
    ):
        with pytest.raises(AdapterForgeError) as err:
            action()
        assert err.value.code == "E_CORRUPT"
    assert not _lock_is_held(pool)


def test_corrupt_journal_line_names_its_file_line(pool: Path):
    pool_add(pool, spec_text("alpha"))
    pool_add(pool, spec_text("beta"))
    lines = _lines(pool)
    with open(pool / "index", "ab") as f:
        f.write(b"{not json}\n")
    with pytest.raises(AdapterForgeError) as err:
        pool_list(pool)
    assert err.value.code == "E_CORRUPT"
    assert err.value.message == (
        "index line 4: not one JSON value: "
        "Expecting property name enclosed in double quotes (column 2)"
    )
    # A line that is JSON but not an entry is named by its line too.
    bad = json.loads(lines[2])
    bad["version"] = "1.0"
    (pool / "index").write_bytes(b"".join(lines[:2]) + canonjson.dump_line(bad) + lines[1])
    with pytest.raises(AdapterForgeError) as err:
        pool_get(pool, bad["fingerprint"])
    assert err.value.code == "E_CORRUPT"
    assert err.value.message == "index line 3: malformed pool index entry"


def test_artifact_that_is_not_utf8_is_corrupt(pool: Path):
    data = b"\xff not text\n"
    fp = fingerprint_of(data)
    artifact = pool / "adapters" / f"{fp}.adapter"
    artifact.write_bytes(data)
    line = {**_GOOD_LINE, "fingerprint": fp, "kind": "adapter", "path": f"adapters/{fp}.adapter"}
    (pool / "index").write_bytes(_journal(line))
    with pytest.raises(AdapterForgeError) as err:
        pool_get(pool, fp)
    assert err.value.code == "E_CORRUPT"
    assert err.value.message.count(str(artifact)) == 1
    (candidate,) = pool_query(pool, PoolQuery(concept("data.k.x")))  # reads no artifact
    with pytest.raises(AdapterForgeError) as err:
        candidate.load()
    assert err.value.code == "E_CORRUPT"


# --- the journal check against its oracle ---------------------------------


def _assert_fold_agrees(data: bytes) -> None:
    """The unsealed journal check and the line-at-a-time oracle give the
    same verdict, the same line, and equal entries."""
    expected = oracle_fold(data)
    try:
        journal = _open_journal(data, b"")
    except AdapterForgeError as err:
        assert err.code == "E_CORRUPT"
        assert isinstance(expected, str), err
        if expected:
            assert err.message.startswith(f"{expected}: "), (err.message, expected)
        else:
            assert not err.message.startswith("index "), err.message
        return
    assert not isinstance(expected, str), expected
    assert ({fp: _entry(row) for fp, row in journal.tail.items()}, journal.end) == expected


@pytest.mark.parametrize("case", sorted(MALFORMED_INDEXES))
def test_fold_matches_oracle_on_malformed_indexes(case: str):
    _assert_fold_agrees(MALFORMED_INDEXES[case])


_FPS = ("a" * 64, "b" * 64, "0123456789abcdef" * 4)
# Replacement values per field, valid ones among them.
_FIELD_VALUES = {
    "fingerprint": ("a" * 64, "b" * 64, "A" * 64, "a" * 63, "a" * 65, "a" * 62 + "/.", "g" * 64, 7),
    "kind": ("component", "adapter", "blob", "Component", None, ["adapter"]),
    "name": ("alpha", "", "\u00e9", 5, None, ["alpha"]),
    "version": (
        "1.0.0", "10.20.30", "1.0", "01.0.0", "1.0.0 ", "1.0.0\n", "1.0.0-rc", "\u0663.0.0", 1, None,
    ),
    "provided_concepts": ([], ["data.k"], ["data.k", "data.k"], [""], [1], [None], "data.k", {}),
    "path": ("components/" + "a" * 64 + ".cdl", "adapters/" + "a" * 64 + ".adapter", "../x.cdl", 3),
    "stored_at": ("2024-01-01T00:00:00+00:00", "", 0, None),
}
_RAW_LINES = (b"{oops", b"", b"1,2", b"[]", b"null", b'"\xff"', b"\xed\xa0\x80", b" {} ", b"{}")


@st.composite
def _index_rows(draw) -> list:
    """A few index rows, up to two of them mutated: a field replaced (a
    new fingerprint or kind may carry its path along), a key dropped or
    added, or the whole row not an object."""
    rows: list = []
    for _ in range(draw(st.integers(0, 4))):
        fp = draw(st.sampled_from(_FPS))
        kind = draw(st.sampled_from(("component", "adapter")))
        rows.append({
            "fingerprint": fp,
            "kind": kind,
            "name": draw(st.sampled_from(("alpha", "beta"))),
            "version": draw(st.sampled_from(("1.0.0", "0.2.10"))),
            "provided_concepts": draw(st.lists(st.sampled_from(("data.k.x", "data.m")), max_size=2)),
            "path": _artifact_path(kind, fp),
            "stored_at": "2024-01-01T00:00:00+00:00",
        })
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        at = draw(st.integers(0, len(rows) - 1))
        row = rows[at]
        if not isinstance(row, dict):
            continue
        mutation = draw(st.sampled_from(("field", "field", "field", "drop", "add", "scalar")))
        if mutation == "field":
            key = draw(st.sampled_from(sorted(_FIELD_VALUES)))
            row[key] = draw(st.sampled_from(_FIELD_VALUES[key]))
            fp, kind = row.get("fingerprint"), row.get("kind")
            if key in ("fingerprint", "kind") and type(fp) is str and kind in ("component", "adapter"):
                if draw(st.booleans()):
                    row["path"] = _artifact_path(kind, fp)
        elif mutation == "drop":
            del row[draw(st.sampled_from(sorted(row)))]
        elif mutation == "add":
            row[draw(st.sampled_from(("extra", "Kind")))] = 1
        else:
            rows[at] = draw(st.sampled_from((None, 1, "row", [row])))
    return rows


@st.composite
def _mutated_indexes(draw) -> bytes:
    lines = [canonjson.dump_line(row) for row in draw(_index_rows())]
    if draw(st.integers(0, 3)) == 0:
        raw = draw(st.sampled_from(_RAW_LINES)) + b"\n"
        lines.insert(draw(st.integers(0, len(lines))), raw)
    torn = draw(st.sampled_from((b"", b'{"fingerprint":"ab', b"{oops")))
    return HEADER + b"".join(lines) + torn


@given(data=_mutated_indexes())
@settings(max_examples=600, deadline=None)
def test_fold_matches_oracle_on_mutated_indexes(data: bytes):
    _assert_fold_agrees(data)


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


@pytest.mark.parametrize("journal", ["pool/2", "pool/2 unsealed"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_query_matches_oracle(tmp_path: Path, journal: str, seed: int):
    rng = random.Random(seed)
    root = init_pool(tmp_path / "pool")
    _random_pool(root, rng, 40)
    if journal == "pool/2 unsealed":
        (root / "index.lock").write_bytes(b"")  # every line is checked
    _, config = load_rules(CORPUS / "conversions.rules")
    configs = [
        config,
        replace(config, threshold=Fraction(19, 20)),  # exact concepts only
        replace(config, concept_hop_penalty=Fraction(1, 4)),  # one hop, not two
    ]
    queried = [concept(c) for c in _CONCEPTS + ("data.sorting", "data.k.x.deep", "net")]
    constraints = [None, VersionConstraint(">=", (1, 0, 0)), VersionConstraint("=", (1, 1, 0))]
    nonempty = 0
    for wanted in queried:
        for constraint in constraints:
            for config in configs:
                query = PoolQuery(wanted, constraint)
                expected = oracle_pool_query(root, query, config)
                found = pool_query(root, query, config)
                assert found == expected
                assert all(candidate.score >= config.threshold for candidate in found)
                nonempty += len(expected) > 1
    assert nonempty >= 2 * len(queried)  # the pools exercise ranking, not just misses


@pytest.mark.parametrize("journal", ["pool/2", "pool/2 unsealed"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_query_with_provides_matches_oracle(tmp_path: Path, journal: str, seed: int):
    rng = random.Random(seed)
    root = init_pool(tmp_path / "pool")
    ops = _random_pool(root, rng, 40)
    if journal == "pool/2 unsealed":
        (root / "index.lock").write_bytes(b"")  # every line is checked
    _, config = load_rules(CORPUS / "conversions.rules")
    queried = [concept(c) for c in ("data", "data.k", "data.sorting")]
    queried += [o.concept for o in rng.sample(ops, 6)]
    vocabulary = _CONCEPTS + ("data.sorting.sort", "net")
    filtered = 0
    for wanted in queried:
        for _ in range(4):
            provides = frozenset(concept(c) for c in rng.sample(vocabulary, rng.randint(0, 3)))
            query = PoolQuery(wanted, rng.choice([None, VersionConstraint(">=", (1, 0, 0))]), provides)
            expected = oracle_pool_query(root, query, config)
            assert pool_query(root, query, config) == expected
            unfiltered = oracle_pool_query(root, PoolQuery(wanted, query.constraint), config)
            assert set(expected) <= set(unfiltered)
            filtered += len(expected) < len(unfiltered)
    assert filtered >= len(queried)  # the concept sets do cut candidates


def test_provides_passes_over_an_entry_before_reading_it(pool: Path):
    kept = pool_add(pool, spec_text("alpha", concept_text="data.k.x"))
    passed_over = pool_add(pool, spec_text("beta", concept_text="data.k"))
    for fp in (kept, passed_over):
        (pool / "components" / f"{fp}.cdl").unlink()  # a query reads no artifact
    query = PoolQuery(concept("data.k.x"), provides=frozenset({concept("data.k.x")}))
    assert [c.fingerprint for c in pool_query(pool, query)] == [kept]
    assert [c.fingerprint for c in pool_query(pool, PoolQuery(concept("data.k.x")))] == [
        kept, passed_over
    ]


def test_query_candidates_carry_entry_and_verified_value(pool: Path):
    fp = pool_add(pool, spec_text("alpha"))
    for wanted in ("data.k.x", "data.k"):
        (candidate,) = pool_query(pool, PoolQuery(concept(wanted)))
        assert candidate.fingerprint == fp and candidate.entry.name == "alpha"
        assert candidate.load() == parse_component(spec_text("alpha"))
    stored = pool / "components" / f"{fp}.cdl"
    stored.write_bytes(stored.read_bytes().replace(b"alpha", b"alphb"))
    (candidate,) = pool_query(pool, PoolQuery(concept("data.k")))
    with pytest.raises(AdapterForgeError) as err:
        candidate.load()  # a candidate is read, and re-hashed, on demand
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
    index lock, and reap it."""
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
        assert _lock_is_held(pool)
    finally:
        child.kill()
        child.wait(timeout=30)
        child.stdout.close()


def test_lock_of_a_killed_writer_is_broken(pool: Path):
    _kill_writer_while_holding_lock(pool, spec_text("alpha"), "before-artifact")
    assert (pool / "index.lock").exists()
    fp = pool_add(pool, spec_text("beta"), timeout=2.0)
    assert [f for f, _ in pool_list(pool)] == [fp]
    assert not _lock_is_held(pool)
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
    with _lock_held_by_a_child(pool):
        with pytest.raises(AdapterForgeError) as err:
            pool_add(pool, spec_text("alpha"), timeout=0.05)
        assert err.value.code == "E_LOCK"
        assert _lock_is_held(pool)
    assert (pool / "index.lock").exists()
    pool_add(pool, spec_text("alpha"), timeout=0.05)


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


# --- the sealed journal ---------------------------------------------------


def _assert_seal_verifies(root: Path) -> int:
    """The seal in `index.lock` covers a prefix of `index` that ends on
    a line and matches its digest, and that prefix holds canonical
    lines only, one per fingerprint; returns the sealed length."""
    data = (root / "index").read_bytes()
    length, digest = (root / "index.lock").read_bytes().split(b" ")
    sealed = int(length)
    assert data[sealed - 1 : sealed] == b"\n" and digest.endswith(b"\n")
    assert hashlib.sha256(data[:sealed]).hexdigest().encode() == digest[:-1]
    lines = data[len(HEADER) : sealed].splitlines(keepends=True)
    rows = [json.loads(line) for line in lines]
    assert [canonjson.dump_line(row) for row in rows] == lines
    assert len({row["fingerprint"] for row in rows}) == len(rows)
    return sealed


def test_index_lock_is_not_executable(pool: Path):
    pool_add(pool, spec_text("alpha"))
    assert stat.S_IMODE((pool / "index.lock").stat().st_mode) & 0o111 == 0


def test_each_add_seals_the_whole_journal(pool: Path):
    for name in ("alpha", "beta", "gamma"):
        pool_add(pool, spec_text(name))
        assert _assert_seal_verifies(pool) == len((pool / "index").read_bytes())


_SEAL_DOCUMENTS = (
    spec_text("alpha", "1.0.0", "data.k.x"),
    spec_text("beta", "1.1.0", "data.k"),
    spec_text("gamma", "2.0.0", "data.m.z"),
    (GOLDEN / "figure3.adapter").read_text(),
    spec_text("delta", "1.0.0", "data.k.x.deep"),
    spec_text("eps", "0.1.0", "data"),
)
_SEAL_QUERIES = (
    PoolQuery(concept("data.k.x")),
    PoolQuery(concept("data.k"), VersionConstraint(">=", (1, 0, 0))),
    PoolQuery(concept("data.m")),
    PoolQuery(concept("data.sorting.sort")),
    PoolQuery(concept("net")),
    PoolQuery(concept("data.k.x.deep"), provides=frozenset({concept("data.k.x")})),
    PoolQuery(concept("data.k"), provides=frozenset({concept("data.k.x.deep")})),
)


def _second_line(row: dict, how: str) -> bytes:
    """Another line for `row`'s entry: canonical but for another name,
    or with the same fields not in canonical form."""
    if how == "renamed":
        return canonjson.dump_line({**row, "name": "renamed"})
    if how == "keys reversed":
        return json.dumps(dict(reversed(row.items())), separators=(",", ":")).encode() + b"\n"
    return json.dumps(row, sort_keys=True).encode() + b"\n"  # a space after each separator


_MUTATIONS = st.one_of(
    st.tuples(st.just("older writer appends"), st.integers(0, len(_SEAL_DOCUMENTS) - 1)),
    st.tuples(st.just("flip"), st.integers(0, 10**6), st.integers(1, 255)),
    st.tuples(st.just("cut"), st.integers(0, 10**6)),
    st.tuples(
        st.just("second line"),
        st.integers(0, 10**6),
        st.sampled_from(("renamed", "keys reversed", "spaces")),
        st.booleans(),
    ),
    st.tuples(st.just("seal"), st.sampled_from(("garble", "shorten", "lengthen")), st.integers(1, 10**6)),
    st.tuples(st.just("reseal shorter"), st.integers(0, 10**6)),
    st.tuples(st.just("old lock body")),
    st.tuples(st.just("no lock file")),
)


def _mutate(root: Path, mutation: tuple) -> None:
    index, lock = root / "index", root / "index.lock"
    data = index.read_bytes()
    kind, *args = mutation
    if kind == "older writer appends":  # appends a line and leaves the seal as it was
        seal = lock.read_bytes() if lock.exists() else None
        try:
            pool_add(root, _SEAL_DOCUMENTS[args[0]])
        except AdapterForgeError as err:  # a journal an earlier mutation broke
            assert err.code == "E_CORRUPT", err
        if seal is None:
            lock.unlink()
        else:
            lock.write_bytes(seal)
    elif kind == "flip" and data:
        at = args[0] % len(data)
        index.write_bytes(data[:at] + bytes([data[at] ^ args[1]]) + data[at + 1 :])
    elif kind == "cut":
        index.write_bytes(data[: args[0] % (len(data) + 1)])
    elif kind == "second line":
        lines = data[len(HEADER) :].splitlines(keepends=True)
        complete = [line for line in lines if line.endswith(b"\n")]
        try:
            row = json.loads(complete[args[0] % len(complete)])
        except (ValueError, ZeroDivisionError):  # no line, or one an earlier flip broke
            return
        if not (data.startswith(HEADER) and isinstance(row, dict)):
            return
        if args[2] and row.get("kind") in ("component", "adapter"):
            row["fingerprint"] = "c" * 64  # a fresh entry, not a second line for one
            row["path"] = _artifact_path(row["kind"], "c" * 64)
        index.write_bytes(data[: data.rfind(b"\n") + 1] + _second_line(row, args[1]))
    elif kind == "seal" and lock.exists():
        body = lock.read_bytes()
        if args[0] == "garble" and body:
            at = args[1] % len(body)
            lock.write_bytes(body[:at] + bytes([body[at] ^ 0x01]) + body[at + 1 :])
        elif (parts := body.partition(b" "))[0].isdigit():
            length, _, rest = parts
            step = args[1] % 400 + 1
            length = int(length) - step if args[0] == "shorten" else int(length) + step
            lock.write_bytes(b"%d %s" % (max(length, 1), rest))
    elif kind == "reseal shorter" and lock.exists():  # the seal of a shorter prefix
        try:
            sealed = _assert_seal_verifies(root)
        except (AssertionError, ValueError):
            return
        ends = [i + 1 for i in range(len(HEADER) - 1, sealed) if data[i : i + 1] == b"\n"]
        length = ends[args[0] % len(ends)]
        digest = hashlib.sha256(data[:length]).hexdigest().encode()
        lock.write_bytes(b"%d %s\n" % (length, digest))
    elif kind == "old lock body":
        lock.write_text(str(os.getpid()))
    elif kind == "no lock file" and lock.exists():
        lock.unlink()


_POOL_CODES = {E_CORRUPT, E_INVALID_SPEC, E_IO, E_LOCK, E_NO_ENTRY}


def _outcome(action) -> tuple:
    try:
        return ("ok", action())
    except AdapterForgeError as err:
        if err.code not in _POOL_CODES:
            raise
        return ("error", err.code, err.message)


def _assert_as_oracle(outcome: tuple, expected, oracle_outcome) -> None:
    """`outcome` is what the oracle's fold allows: E_CORRUPT at the same
    line or entry when the index is corrupt, else `oracle_outcome()`."""
    if isinstance(expected, str):
        assert outcome[:2] == ("error", "E_CORRUPT"), outcome
        if expected:
            assert outcome[2].startswith(f"{expected}: "), (outcome, expected)
        else:
            assert not outcome[2].startswith("index "), outcome
    else:
        assert outcome == oracle_outcome(), outcome


@given(
    adds=st.integers(1, len(_SEAL_DOCUMENTS)),
    mutations=st.lists(_MUTATIONS, min_size=1, max_size=3),
)
@settings(max_examples=150, deadline=None)
def test_sealed_reads_match_the_oracle_on_mutated_pools(adds: int, mutations: list):
    _, config = load_rules(CORPUS / "conversions.rules")
    with tempfile.TemporaryDirectory() as tmp:
        root = init_pool(Path(tmp) / "pool")
        fps = [pool_add(root, document) for document in _SEAL_DOCUMENTS[:adds]]
        for mutation in mutations:
            _mutate(root, mutation)
        expected = oracle_fold((root / "index").read_bytes())
        entries = {} if isinstance(expected, str) else expected[0]
        listed = sorted(entries.items())

        def load(fp: str, entry: IndexEntry):
            return _read_artifact(root, fp, entry.kind, entry.path)

        def expected_get(fp: str) -> tuple:
            if fp not in entries:
                return ("error", "E_NO_ENTRY", f"no pool entry {fp}")
            return _outcome(lambda: load(fp, entries[fp]))

        _assert_as_oracle(_outcome(lambda: pool_list(root)), expected, lambda: ("ok", listed))
        for fp in sorted({*fps, *entries, "c" * 64}):
            _assert_as_oracle(_outcome(lambda: pool_get(root, fp)), expected, lambda: expected_get(fp))
        for query in _SEAL_QUERIES:
            _assert_as_oracle(
                _outcome(lambda: pool_query(root, query, config)),
                expected,
                lambda: _outcome(lambda: oracle_pool_query(root, query, config, listed)),
            )
        # Re-adding decides "already stored" by the same fold, and every
        # write leaves a seal that verifies.
        for document in _SEAL_DOCUMENTS:
            before = (root / "index").read_bytes()
            expected = oracle_fold(before)
            outcome = _outcome(lambda: pool_add(root, document))
            after = (root / "index").read_bytes()
            if isinstance(expected, str):
                _assert_as_oracle(outcome, expected, None)
                assert after == before
                continue
            assert outcome[0] == "ok", outcome
            if outcome[1] in expected[0]:
                assert after == before
            else:
                assert after.startswith(before[: expected[1]])
                assert json.loads(after[expected[1] :])["fingerprint"] == outcome[1]
                _assert_seal_verifies(root)


def test_sealed_lookups_decode_only_the_lines_they_use(pool: Path, monkeypatch):
    lines = []
    for i in range(10_000):
        fp = hashlib.sha256(b"%d" % i).hexdigest()
        row = {**_GOOD_LINE, "fingerprint": fp, "path": _artifact_path("component", fp)}
        row["provided_concepts"] = sorted({f"dom{i % 100}.op{i % 7}", f"dom{i % 100}"})
        lines.append(canonjson.dump_line(row))
    with open(pool / "index", "ab") as f:
        f.write(b"".join(lines))
    alpha = pool_add(pool, spec_text("alpha", concept_text="dom3.op3.x"))  # checks all, seals all
    assert _assert_seal_verifies(pool) == len((pool / "index").read_bytes())
    related = sum(b'"dom3"' in line or b'"dom3.op3' in line for line in lines) + 1

    decoded, checked = [], []
    real_decode, real_valid_row = pool_module._decode, pool_module._valid_row
    monkeypatch.setattr(pool_module, "_decode", lambda b: decoded.append(b.count(b"\n")) or real_decode(b))
    monkeypatch.setattr(pool_module, "_valid_row", lambda r: checked.append(1) or real_valid_row(r))

    def spied(action) -> tuple[int, int]:
        decoded.clear(), checked.clear()
        action()
        return sum(decoded), sum(checked)

    bare = PoolQuery(concept("dom3.op3"))
    found = []
    assert spied(lambda: found.extend(pool_query(pool, bare))) == (related, 0)
    assert len(found) == related and alpha in {c.fingerprint for c in found}
    assert spied(lambda: pool_get(pool, alpha)) == (1, 0)
    index, seal = (pool / "index").read_bytes(), (pool / "index.lock").read_bytes()
    assert spied(lambda: pool_add(pool, spec_text("alpha", concept_text="dom3.op3.x"))) == (0, 0)
    assert (pool / "index").read_bytes() == index and (pool / "index.lock").read_bytes() == seal
    monkeypatch.undo()
    assert found == oracle_pool_query(pool, bare, DEFAULT_CONFIG)
