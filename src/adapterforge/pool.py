"""Content-addressed store for component specs and adapter descriptors.

Artifacts live under `components/` and `adapters/`, named by the
SHA-256 of their canonical bytes, so equal canonical content always
lands on the same path and identity is the hash. The `index` is an
append-only journal (`pool/2`): a header line, then one compact
canonical JSON line per entry. A writer holds `flock` on the
persistent `index.lock` (released by the kernel if the writer dies),
renames the artifact into place and appends one line, so an add costs
the same at any pool size. Readers never lock and read the journal
once per pool call, ignoring an unterminated last line; a killed
writer leaves at most that torn line (cut by the next writer) or an
artifact with no line (reported by `pool_verify`). An artifact file is
only ever written with its canonical bytes, and every artifact read
re-hashes them so tampering cannot go unnoticed. Every artifact, added
or generated, is validated once, as its component view, by the one
write path `_store`; re-adding indexed content rewrites its artifact
if that is missing or damaged. An `index` that does not start with the
`pool/2` header is E_CORRUPT.

A writer seals what it has checked: it records in `index.lock` the
length and SHA-256 of the journal prefix whose lines it checked, the
line it appended included. Every pool call verifies that digest and
then decodes and checks the lines after the seal one at a time, so a
corrupt line still fails every call; without a seal that verifies,
every line is checked. The sealed prefix holds only canonical lines,
one per fingerprint, so lookups read it by byte search: `_store` and
`pool_get` find one fingerprint's line, and `pool_query` decodes only
the lines that hold a concept string related to the queried one. An
`IndexEntry` is built only for an entry a call hands out.

The pool never loads the analyser. Listing, verifying, querying and
storing a component spec need no adapter layer either: it loads inside
the calls that read or store an adapter (`_canonicalize`, `_store`,
`_read_artifact`).
"""

from __future__ import annotations

import fcntl
import hashlib
import itertools
import json
import operator
import os
import re
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, NamedTuple

from . import canonjson
from .conversions import DEFAULT_CONFIG, MatchConfig
from .speclang import (
    ComponentSpec,
    ConceptId,
    ParseError,
    VersionConstraint,
    format_version,
    parse_component,
    parse_version,
    serialize,
    validate,
)
from .speclang.errors import AdapterForgeError

if TYPE_CHECKING:
    from .adapters import AdapterSpec

E_IO = "E_IO"
E_INVALID_SPEC = "E_INVALID_SPEC"
E_LOCK = "E_LOCK"
E_NO_ENTRY = "E_NO_ENTRY"
E_CORRUPT = "E_CORRUPT"

LOCK_TIMEOUT = 5.0
_LOCK_POLL = 0.01

KIND_COMPONENT = "component"
KIND_ADAPTER = "adapter"

INDEX_HEADER = canonjson.dump_line({"format": "pool/2"})
_ARTIFACT_DIRS = {KIND_COMPONENT: ("components", ".cdl"), KIND_ADAPTER: ("adapters", ".adapter")}
_PATH_FORMATS = {
    kind: f"{directory}/{{}}{suffix}" for kind, (directory, suffix) in _ARTIFACT_DIRS.items()
}
_LINE_KEYS = frozenset(
    {"fingerprint", "kind", "name", "version", "provided_concepts", "path", "stored_at"}
)
_FIELDS = operator.itemgetter(
    "fingerprint", "kind", "name", "path", "provided_concepts", "stored_at", "version"
)
_NOT_HEX = str.maketrans("", "", "0123456789abcdef")  # deletes the lowercase hex digits
_VERSION_RE = re.compile(r"(0|[1-9][0-9]*)\.(0|[1-9][0-9]*)\.(0|[1-9][0-9]*)\Z")  # as parse_version
# `index.lock`'s body once a writer has sealed: `<length> <sha256>\n`.
_SEAL_RE = re.compile(rb"([1-9][0-9]{0,18}) ([0-9a-f]{64})\n\Z")
_SEAL_READ = 128  # more than the longest seal, so a longer body never parses
_temp_counter = itertools.count()


def fingerprint_of(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass(frozen=True)
class IndexEntry:
    kind: str  # component | adapter
    name: str
    version: str
    provided_concepts: tuple[str, ...]
    path: str  # relative to the pool root
    stored_at: str


@dataclass(frozen=True)
class PoolQuery:
    concept: ConceptId
    constraint: VersionConstraint | None = None
    provides: frozenset[ConceptId] = frozenset()  # concepts a candidate's entry must all list


def init_pool(root: str | Path) -> Path:
    """Create the pool layout if absent; idempotent and safe to race.
    The index is created last, so once it exists the layout is complete
    and one `stat` is all a call costs."""
    root = Path(root)
    index = root / "index"
    try:
        if index.exists():
            return root
        (root / "components").mkdir(parents=True, exist_ok=True)
        (root / "adapters").mkdir(parents=True, exist_ok=True)
        tmp = _temp_path(index)
        tmp.write_bytes(INDEX_HEADER)
        try:
            # A link, unlike a rename, never replaces an index that
            # another process created (and appended to) meanwhile.
            os.link(tmp, index)
        except FileExistsError:
            pass
        finally:
            tmp.unlink()
    except OSError as err:
        raise AdapterForgeError(E_IO, f"cannot initialize pool at {root}: {err.strerror or err}") from None
    return root


def _artifact_path(kind: str, fp: str) -> str:
    return _PATH_FORMATS[kind].format(fp)


def _entry(row: dict) -> IndexEntry:
    """The entry a call hands out for one checked index row."""
    return IndexEntry(
        row["kind"],
        row["name"],
        row["version"],
        tuple(row["provided_concepts"]),
        row["path"],
        row["stored_at"],
    )


def _valid_row(row: object) -> bool:
    """Whether one decoded journal line is an entry as `docs/formats.md`
    describes it, its keys checked in their order there."""
    if type(row) is not dict or row.keys() != _LINE_KEYS:
        return False
    fp, kind, name, path, concepts, stored_at, version = _FIELDS(row)
    return (
        type(fp) is str
        and len(fp) == 64
        and not fp.translate(_NOT_HEX)
        and type(kind) is str
        and kind in _PATH_FORMATS
        and type(name) is str
        and path == _PATH_FORMATS[kind].format(fp)
        and type(concepts) is list
        and all(type(c) is str and c for c in concepts)
        and type(stored_at) is str
        and type(version) is str
        and _VERSION_RE.match(version) is not None
    )


def _decode(lines: bytes) -> list:
    """The values of newline-terminated JSON lines, in one `json.loads`."""
    return json.loads("[" + lines[:-1].decode("utf-8").replace("\n", ",") + "]")


def _checked_lines(data: bytes, start: int, end: int) -> list:
    """The rows of the complete journal lines in `data[start:end]`, each
    checked as an entry. E_CORRUPT names the first line that is not one
    JSON value, else the first that is not an entry."""
    rows, bad = [], None
    for n, line in enumerate(data[start:end].split(b"\n")[:-1]):
        try:
            row = json.loads(line.decode("utf-8"))
        except (ValueError, RecursionError) as err:
            detail = f"{err.msg} (column {err.colno})" if isinstance(err, json.JSONDecodeError) else err
            bad = n, f"not one JSON value: {detail}"
            break
        if bad is None and not _valid_row(row):
            bad = n, "malformed pool index entry"
        rows.append(row)
    if bad is not None:
        n, problem = bad
        number = data.count(b"\n", 0, start) + n + 1  # the header is line 1
        raise AdapterForgeError(E_CORRUPT, f"index line {number}: {problem}")
    return rows


def _read_index(root: Path) -> bytes:
    index_path = root / "index"
    try:
        return index_path.read_bytes()
    except FileNotFoundError:
        raise AdapterForgeError(E_IO, f"{index_path} does not exist (pool not initialized?)") from None
    except OSError as err:
        raise AdapterForgeError(E_IO, f"cannot read {index_path}: {err.strerror or err}") from None


class _Journal(NamedTuple):
    """One read of `index`. A verified seal covers its first `sealed`
    bytes (`digest` holds their SHA-256, None without a seal); `rows`
    are the checked lines after them, in file order, and `tail` maps
    each fingerprint the sealed prefix lacks to its first row there.
    Bytes after `end`, the end of the last complete line, are torn."""

    data: bytes
    sealed: int
    digest: hashlib._Hash | None
    rows: list
    tail: dict[str, dict]
    end: int


def _read_seal(root: Path) -> bytes:
    """The body of `index.lock`; empty when it cannot be read, which
    only means that the whole journal is checked."""
    try:
        with open(root / "index.lock", "rb") as f:
            return f.read(_SEAL_READ)
    except OSError:
        return b""


def _open_journal(data: bytes, seal: bytes) -> _Journal:
    """Check `data` against the seal body read before it: a seal that
    parses, ends on a complete line and matches its digest spares its
    prefix the line check; anything else leaves every line checked."""
    if not data.startswith(INDEX_HEADER):
        raise AdapterForgeError(E_CORRUPT, "pool index is not a pool/2 journal: its header is missing")
    end = data.rfind(b"\n") + 1
    sealed, digest = len(INDEX_HEADER), None
    match = _SEAL_RE.match(seal)
    if match and (length := int(match[1])) <= end and data[length - 1] == ord("\n"):
        hashed = hashlib.sha256(memoryview(data)[:length])
        if hashed.hexdigest().encode() == match[2]:
            sealed, digest = length, hashed
    rows = _checked_lines(data, sealed, end)
    tail: dict[str, dict] = {}
    for row in rows:
        fp = row["fingerprint"]
        if fp not in tail and _sealed_line(data, sealed, fp) < 0:
            tail[fp] = row
    return _Journal(data, sealed, digest, rows, tail, end)


def _load(root: Path) -> _Journal:
    # The seal first: the journal only grows, so the index read after
    # it holds every line it covers.
    seal = _read_seal(root)
    return _open_journal(_read_index(root), seal)


def _sealed_line(data: bytes, sealed: int, fp: str) -> int:
    """Where `fp`'s line starts in the first `sealed` bytes, or -1.
    Sealed lines are canonical, so each starts with its fingerprint."""
    if len(fp) != 64 or fp.translate(_NOT_HEX):
        return -1
    at = data.find(b'\n{"fingerprint":"%s"' % fp.encode(), 0, sealed)
    return at + 1 if at >= 0 else -1


def _row_of(journal: _Journal, fp: str) -> dict | None:
    """The row of `fp`'s first line, decoding no other line."""
    start = _sealed_line(journal.data, journal.sealed, fp)
    if start < 0:
        return journal.tail.get(fp)
    return _decode(journal.data[start : journal.data.index(b"\n", start) + 1])[0]


def _load_index(root: Path) -> dict[str, dict]:
    """Every entry's row: the sealed lines decoded without a second
    check, then the checked tail."""
    journal = _load(root)
    rows = _decode(journal.data[len(INDEX_HEADER) : journal.sealed])
    return {**dict(zip(map(operator.itemgetter("fingerprint"), rows), rows)), **journal.tail}


def _sealable_end(journal: _Journal) -> int:
    """Where a new seal may end: after the leading tail lines that are
    canonical and their fingerprint's first line, so that a byte search
    finds every sealed entry."""
    data, at = journal.data, journal.sealed
    for row in journal.rows:
        line = canonjson.dump_line(row)
        if journal.tail.get(row["fingerprint"]) is not row or not data.startswith(line, at):
            break
        at += len(line)
    return at


def _write_seal(lock: int, length: int, digest: hashlib._Hash) -> None:
    """Record `<length> <sha256>` in `index.lock` through the writer's
    own descriptor. A reader that catches it half-written sees a seal
    that does not parse or verify, and checks every line."""
    body = b"%d %s\n" % (length, digest.hexdigest().encode())
    os.pwrite(lock, body, 0)
    os.ftruncate(lock, len(body))


def _temp_path(path: Path) -> Path:
    """A name no other writer uses, Maildir style: pid, thread, counter."""
    unique = f"{os.getpid()}-{threading.get_ident()}-{next(_temp_counter)}"
    return path.parent / f".tmp-{unique}-{path.name}"


def _write_atomic(path: Path, data: bytes) -> None:
    tmp = _temp_path(path)
    tmp.write_bytes(data)
    os.replace(tmp, path)


@contextmanager
def _index_lock(root: Path, timeout: float) -> Iterator[int]:
    """Hold the pool's write lock; yields the lock file's descriptor,
    through which the holder reads and writes the seal."""
    # The kernel drops a flock when its holder closes the file or dies,
    # so no lock outlives its writer. Never unlink the file: a waiter on
    # the old inode and a newcomer on a new one could both hold "the
    # lock". Open it once per acquisition: a flock belongs to the open
    # file description, so only separate opens exclude threads of one
    # process from each other.
    lock_path = root / "index.lock"
    deadline = time.monotonic() + timeout
    try:
        fd = os.open(lock_path, os.O_RDWR | os.O_CREAT, 0o666)
    except OSError as err:
        raise AdapterForgeError(E_IO, f"cannot open {lock_path}: {err.strerror or err}") from None
    try:
        while True:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                break
            except BlockingIOError:
                if time.monotonic() >= deadline:
                    raise AdapterForgeError(
                        E_LOCK, f"could not acquire {lock_path} within {timeout:.1f}s"
                    ) from None
                time.sleep(_LOCK_POLL)
        yield fd
    finally:
        os.close(fd)


def _canonicalize(document: str) -> tuple[bytes, ComponentSpec | AdapterSpec, ComponentSpec]:
    """Parse a document into (canonical bytes, value, component view).
    A descriptor must read back as the component spec it stands for."""
    stripped = document.lstrip()
    if stripped.startswith("{"):
        from .adapters import emit_descriptor, parse_descriptor

        bad = "not a valid adapter descriptor"
        try:
            adapter = parse_descriptor(document)
        except AdapterForgeError as err:
            raise AdapterForgeError(E_INVALID_SPEC, f"{bad}: {err.message}") from None
        view = adapter.to_component_spec()
        try:
            same = parse_component(serialize(view)) == view
        except ParseError as err:
            raise AdapterForgeError(E_INVALID_SPEC, f"{bad}: {err.reason}") from None
        if not same:
            raise AdapterForgeError(E_INVALID_SPEC, f"{bad}: its component spec reads back changed")
        return emit_descriptor(adapter).encode("utf-8"), adapter, view
    try:
        spec = parse_component(document)
    except ParseError as err:
        raise AdapterForgeError(E_INVALID_SPEC, err.message) from None
    return serialize(spec).encode("utf-8"), spec, spec


def _row_for(kind: str, fp: str, component: ComponentSpec) -> dict:
    """The index line of a new artifact."""
    return {
        "fingerprint": fp,
        "kind": kind,
        "name": component.name,
        "version": format_version(component.version),
        "provided_concepts": [str(c) for c in component.provided_concepts()],
        "path": _artifact_path(kind, fp),
        "stored_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def pool_add(root: str | Path, document: str, timeout: float = LOCK_TIMEOUT) -> str:
    """Store one document; returns its fingerprint. Re-adding indexed
    content leaves index and seal alone and rewrites its artifact only
    if that is missing or no longer re-hashes to the fingerprint."""
    return _store(Path(root), *_canonicalize(document), timeout)


def pool_add_generated(
    root: str | Path, adapter: AdapterSpec, descriptor: str, timeout: float = LOCK_TIMEOUT
) -> str:
    """Store a generated adapter; `descriptor` must be its
    `emit_descriptor` text, which is already canonical. The same store
    and validation as `pool_add`, without parsing the text back."""
    view = adapter.to_component_spec()
    return _store(Path(root), descriptor.encode("utf-8"), adapter, view, timeout)


def _store(
    root: Path,
    data: bytes,
    value: ComponentSpec | AdapterSpec,
    component: ComponentSpec,
    timeout: float,
) -> str:
    """The one admission check and the one write path: `component` is
    the artifact's component view, validated here before any write, and
    an adapter must also pass `check_adapter`."""
    violations = validate(component)
    if violations:
        codes = "; ".join(v.code for v in violations)
        raise AdapterForgeError(E_INVALID_SPEC, f"spec {component.name} has violations: {codes}")
    kind = KIND_COMPONENT
    if not isinstance(value, ComponentSpec):
        from .adapters import check_adapter

        kind = KIND_ADAPTER
        problems = "; ".join(check_adapter(value))
        if problems:
            raise AdapterForgeError(E_INVALID_SPEC, f"adapter {value.name} cannot run: {problems}")
    fp = fingerprint_of(data)
    row = _row_for(kind, fp, component)
    artifact = root / row["path"]
    with _index_lock(root, timeout) as lock:
        seal = os.pread(lock, _SEAL_READ, 0)
        journal = _open_journal(_read_index(root), seal)
        try:
            if fp in journal.tail or _sealed_line(journal.data, journal.sealed, fp) >= 0:
                if _artifact_bytes(root, row["path"]) != data:
                    _write_atomic(artifact, data)
                return fp
            _write_atomic(artifact, data)
            line, end = canonjson.dump_line(row), journal.end
            with open(root / "index", "ab") as f:
                if end < len(journal.data):
                    f.truncate(end)  # a torn line from a killed writer
                f.write(line)
            sealed = _sealable_end(journal)
            digest = journal.digest or hashlib.sha256(INDEX_HEADER)
            digest.update(memoryview(journal.data)[journal.sealed : sealed])
            if sealed == end:
                digest.update(line)
                sealed += len(line)
            _write_seal(lock, sealed, digest)
        except OSError as err:
            raise AdapterForgeError(E_IO, f"cannot write to pool {root}: {err.strerror or err}") from None
    return fp


def pool_get(root: str | Path, fp: str) -> ComponentSpec | AdapterSpec:
    """Load and re-verify one stored artifact."""
    root = Path(root)
    row = _row_of(_load(root), fp)
    if row is None:
        raise AdapterForgeError(E_NO_ENTRY, f"no pool entry {fp}")
    return _read_artifact(root, fp, row["kind"], row["path"])


def _artifact_bytes(root: Path, relpath: str) -> bytes | None:
    """The bytes of one artifact file, or None when it is missing."""
    path = root / relpath
    try:
        return path.read_bytes()
    except FileNotFoundError:
        return None
    except OSError as err:
        raise AdapterForgeError(E_IO, f"cannot read {path}: {err.strerror or err}") from None


def _read_artifact(root: Path, fp: str, kind: str, relpath: str) -> ComponentSpec | AdapterSpec:
    data = _artifact_bytes(root, relpath)
    if data is None:
        raise AdapterForgeError(E_CORRUPT, f"index entry {fp} points at missing {relpath}")
    actual = fingerprint_of(data)
    if actual != fp:
        raise AdapterForgeError(E_CORRUPT, f"{relpath} re-hashes to {actual}, expected {fp}")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        path = root / relpath
        raise AdapterForgeError(E_CORRUPT, f"{path} is not UTF-8: byte {err.start} is invalid") from None
    if kind == KIND_ADAPTER:
        from .adapters import parse_descriptor

        return parse_descriptor(text)
    return parse_component(text)


def pool_list(root: str | Path) -> list[tuple[str, IndexEntry]]:
    rows = _load_index(Path(root))
    return [(fp, _entry(rows[fp])) for fp in sorted(rows)]


class Candidate(tuple):
    """One `pool_query` result: a `(fingerprint, score)` pair that also
    carries the index entry it was ranked from, so reading its artifact
    needs no second index read."""

    entry: IndexEntry

    def __new__(cls, root: Path, fp: str, score: Fraction, entry: IndexEntry) -> Candidate:
        self = super().__new__(cls, (fp, score))
        self._root, self.entry = root, entry
        return self

    @property
    def fingerprint(self) -> str:
        return self[0]

    @property
    def score(self) -> Fraction:
        return self[1]

    def load(self) -> ComponentSpec | AdapterSpec:
        """The artifact, read and re-hashed on each call."""
        return _read_artifact(self._root, self.fingerprint, self.entry.kind, self.entry.path)


def _related_lines(journal: _Journal, concept: str) -> bytes:
    """The sealed lines holding a JSON string that is `concept` or one
    of its ancestors, or that starts with `concept + "."`: every sealed
    entry that provides a related concept, and maybe a few that do not.
    Each of those strings starts with `"<first segment>`, so one scan
    for that finds them all."""
    data, stop = journal.data, journal.sealed
    parts = concept.split(".")
    needles = tuple(json.dumps(".".join(parts[:k])).encode() for k in range(1, len(parts) + 1))
    needles += (json.dumps(concept + ".")[:-1].encode(),)
    first = needles[0][:-1]
    lines = []
    at = data.find(first, len(INDEX_HEADER), stop)
    while at >= 0:
        after = at + 1
        if data.startswith(needles, at):
            after = data.index(b"\n", at) + 1
            lines.append(data[data.rfind(b"\n", 0, at) + 1 : after])
        at = data.find(first, after, stop)
    return b"".join(lines)


def _hops(demanded: str, concept: str) -> int | None:
    """`ConceptId.hops_to` on concept texts: 0 when equal, the
    difference in segment count when one extends the other by whole
    segments, None when they are unrelated."""
    if concept == demanded:
        return 0
    if demanded.startswith(concept + ".") or concept.startswith(demanded + "."):
        return abs(demanded.count(".") - concept.count("."))
    return None


def pool_query(
    root: str | Path, query: PoolQuery, config: MatchConfig = DEFAULT_CONFIG
) -> list[Candidate]:
    """Entries able to serve the queried concept, best first.

    Candidates provide a concept equal to or related by ancestry to the
    queried one, and their index entry lists every concept in
    `query.provides`; an entry that does not is passed over before its
    version is parsed. Of the sealed journal lines only those holding a
    related concept string are decoded, and no artifact is read. Each
    result is a `(fingerprint, score)` pair scored by concept distance,
    `1 - config.concept_hop_penalty` per hop to its nearest related
    concept, cut at `config.threshold` and ordered by descending score,
    then fingerprint. An empty result is the miss answer: nothing
    stored can serve the concept.
    """
    root = Path(root)
    provides = frozenset(map(str, query.provides))
    demanded = str(query.concept)
    journal = _load(root)
    rows = _decode(_related_lines(journal, demanded)) + list(journal.tail.values())
    results: list[Candidate] = []
    for row in rows:
        concepts = row["provided_concepts"]
        if provides and not provides.issubset(concepts):
            continue
        if query.constraint is not None and not query.constraint.satisfies(
            parse_version(row["version"])
        ):
            continue
        related_hops = [hops for text in concepts if (hops := _hops(demanded, text)) is not None]
        if not related_hops:
            continue
        score = 1 - config.concept_hop_penalty * min(related_hops)
        if score >= config.threshold:
            results.append(Candidate(root, row["fingerprint"], score, _entry(row)))
    results.sort(key=lambda c: (-c.score, c.fingerprint))
    return results


@dataclass(frozen=True)
class Finding:
    kind: str  # hash_mismatch | dangling | orphan
    fingerprint: str
    path: str
    detail: str


def pool_verify(root: str | Path) -> list[Finding]:
    """Re-hash every stored artifact and look for artifacts the index
    does not name; empty result means healthy."""
    root = Path(root)
    findings: list[Finding] = []
    rows = _load_index(root)
    for fp in sorted(rows):
        relpath = rows[fp]["path"]
        data = _artifact_bytes(root, relpath)
        if data is None:
            findings.append(
                Finding("dangling", fp, relpath, "index entry points at a missing file")
            )
        elif (actual := fingerprint_of(data)) != fp:
            findings.append(
                Finding("hash_mismatch", fp, relpath, f"content re-hashes to {actual}")
            )
    indexed = {row["path"] for row in rows.values()}
    for directory, _ in sorted(_ARTIFACT_DIRS.values()):
        try:
            names = sorted(os.listdir(root / directory))
        except OSError as err:
            raise AdapterForgeError(E_IO, f"cannot list {root / directory}: {err.strerror or err}") from None
        for name in names:
            path = f"{directory}/{name}"
            if not name.startswith(".tmp-") and path not in indexed:
                findings.append(
                    Finding("orphan", name.partition(".")[0], path, "artifact has no index entry")
                )
    return findings
