"""Content-addressed store for component specs and adapter descriptors.

Artifacts live under `components/` and `adapters/`, named by the
SHA-256 of their canonical bytes, so equal canonical content always
lands on the same path and identity is the hash. The `index` is an
append-only journal (`pool/2`): a header line, then one compact
canonical JSON line per entry. A writer holds `flock` on the
persistent `index.lock` (released by the kernel if the writer dies),
renames the artifact into place and appends one line, so an add costs
the same at any pool size. Readers never lock and fold the journal
once per pool call, ignoring an unterminated last line; a killed
writer leaves at most that torn line (cut by the next writer) or an
artifact with no line (reported by `pool_verify`). Files are immutable
once named, and every artifact read re-hashes its bytes so tampering
cannot go unnoticed. Every artifact, added or generated, is validated
once, as its component view, by the one write path `_store`. A
`pool/1` index (one JSON document) stays readable and is rewritten as
a journal by the first add.

Every pool call reads the journal once and checks every complete line,
so a corrupt line fails every call. The check runs a column at a time
over the decoded lines; an `IndexEntry` is built only for an entry a
call hands out.
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
from typing import Iterator

from . import canonjson
from .adapters import AdapterSpec, as_component, emit_descriptor, parse_descriptor
from .analyser import Demand, match_operation, shape_as_operation
from .conversions import DEFAULT_CONFIG, ConversionTable, MatchConfig
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
_COLUMNS = operator.itemgetter(
    "fingerprint", "kind", "name", "version", "stored_at", "path", "provided_concepts"
)
_NOT_HEX = str.maketrans("", "", "0123456789abcdef")  # deletes the lowercase hex digits
_VERSION_RE = re.compile(r"(0|[1-9][0-9]*)\.(0|[1-9][0-9]*)\.(0|[1-9][0-9]*)\Z")  # as parse_version
_temp_counter = itertools.count()


class PoolError(AdapterForgeError):
    pass


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
    demand: Demand
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
        raise PoolError(E_IO, f"cannot initialize pool at {root}: {err.strerror or err}") from None
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


def _valid_rows(rows: list) -> bool:
    """Whether every decoded row is an index line as `docs/formats.md`
    describes it, checked a column at a time."""
    if not (set(map(type, rows)) <= {dict} and set(map(frozenset, rows)) <= {_LINE_KEYS}):
        return False
    if not rows:
        return True
    fps, kinds, names, versions, stored_at, paths, concepts = zip(*map(_COLUMNS, rows))
    return (
        set(map(type, itertools.chain(fps, kinds, names, versions, stored_at))) <= {str}
        and set(map(len, fps)) <= {64}
        and not "".join(fps).translate(_NOT_HEX)
        and set(kinds) <= _PATH_FORMATS.keys()
        and tuple(map(str.format, map(_PATH_FORMATS.__getitem__, kinds), fps)) == paths
        and all(map(_VERSION_RE.match, versions))
        and set(map(type, concepts)) <= {list}
        and set(map(type, flat := list(itertools.chain.from_iterable(concepts)))) <= {str}
        and "" not in flat
    )


def _check(rows: list, wheres: Iterator[str]) -> None:
    """E_CORRUPT naming the first bad row by its `wheres` item, if any."""
    if not _valid_rows(rows):
        where = next(w for w, row in zip(wheres, rows) if not _valid_rows([row]))
        raise PoolError(E_CORRUPT, f"{where}: malformed pool index entry")


def _bad_line(body: bytes) -> PoolError:
    """The error for the first journal line that is not one JSON value."""
    for number, line in enumerate(body.split(b"\n")[:-1], 2):
        try:
            json.loads(line.decode("utf-8"))
        except (ValueError, RecursionError) as err:
            detail = err
            if isinstance(err, json.JSONDecodeError):
                detail = f"{err.msg} (column {err.colno})"
            return PoolError(E_CORRUPT, f"index line {number}: not one JSON value: {detail}")
    return PoolError(E_CORRUPT, "malformed pool index: its lines nest too deeply")


def _read_index(root: Path) -> bytes:
    index_path = root / "index"
    try:
        return index_path.read_bytes()
    except FileNotFoundError:
        raise PoolError(E_IO, f"{index_path} does not exist (pool not initialized?)") from None
    except OSError as err:
        raise PoolError(E_IO, f"cannot read {index_path}: {err.strerror or err}") from None


def _fold(data: bytes) -> tuple[dict[str, dict], int | None]:
    """Fold index bytes into fingerprint -> checked row, the first line
    of a fingerprint winning.

    Also returns where the journal's complete lines end, or None for a
    `pool/1` document. An unterminated last line is a torn append and
    is not part of the index.
    """
    if data.startswith(INDEX_HEADER):
        end = data.rfind(b"\n") + 1
        body = data[len(INDEX_HEADER) : end]
        try:
            rows = json.loads("[" + body[:-1].decode("utf-8").replace("\n", ",") + "]")
        except (ValueError, RecursionError):
            raise _bad_line(body) from None
        if len(rows) != body.count(b"\n"):
            raise _bad_line(body)
        _check(rows, (f"index line {n}" for n in itertools.count(2)))
        rows.reverse()
        return dict(zip(map(operator.itemgetter("fingerprint"), rows), rows)), end
    try:
        doc = json.loads(data)
    except (ValueError, RecursionError) as err:
        raise PoolError(E_CORRUPT, f"unreadable pool index: {err}") from None
    if not (
        isinstance(doc, dict)
        and doc.get("format") == "pool/1"
        and isinstance(doc.get("entries"), dict)
    ):
        raise PoolError(E_CORRUPT, "pool index is neither pool/2 nor pool/1")
    entries = doc["entries"]
    # One rule for both formats: a pool/1 entry is checked as the line
    # it would be, with its key as its fingerprint.
    rows = [
        {**entry, "fingerprint": fp} if type(entry) is dict and "fingerprint" not in entry else None
        for fp, entry in entries.items()
    ]
    _check(rows, (f"index entry {fp}" for fp in entries))
    return dict(zip(entries, rows)), None


def _load_index(root: Path) -> dict[str, dict]:
    return _fold(_read_index(root))[0]


def _temp_path(path: Path) -> Path:
    """A name no other writer uses, Maildir style: pid, thread, counter."""
    unique = f"{os.getpid()}-{threading.get_ident()}-{next(_temp_counter)}"
    return path.parent / f".tmp-{unique}-{path.name}"


def _write_atomic(path: Path, data: bytes) -> None:
    tmp = _temp_path(path)
    tmp.write_bytes(data)
    os.replace(tmp, path)


@contextmanager
def _index_lock(root: Path, timeout: float) -> Iterator[None]:
    # The kernel drops a flock when its holder closes the file or dies,
    # so no lock outlives its writer. Never unlink the file: a waiter on
    # the old inode and a newcomer on a new one could both hold "the
    # lock". Open it once per acquisition: a flock belongs to the open
    # file description, so only separate opens exclude threads of one
    # process from each other.
    lock_path = root / "index.lock"
    deadline = time.monotonic() + timeout
    try:
        fd = os.open(lock_path, os.O_RDWR | os.O_CREAT)
    except OSError as err:
        raise PoolError(E_IO, f"cannot open {lock_path}: {err.strerror or err}") from None
    try:
        while True:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                break
            except BlockingIOError:
                if time.monotonic() >= deadline:
                    raise PoolError(
                        E_LOCK, f"could not acquire {lock_path} within {timeout:.1f}s"
                    ) from None
                time.sleep(_LOCK_POLL)
        yield
    finally:
        os.close(fd)


def _canonicalize(document: str) -> tuple[str, bytes, ComponentSpec]:
    """Parse a document into (kind, canonical bytes, component view).
    A descriptor must read back as the component spec it stands for."""
    stripped = document.lstrip()
    if stripped.startswith("{"):
        bad = "not a valid adapter descriptor"
        try:
            adapter = parse_descriptor(document)
        except AdapterForgeError as err:
            raise PoolError(E_INVALID_SPEC, f"{bad}: {err.message}") from None
        view = adapter.to_component_spec()
        try:
            same = parse_component(serialize(view)) == view
        except ParseError as err:
            raise PoolError(E_INVALID_SPEC, f"{bad}: {err.reason}") from None
        if not same:
            raise PoolError(E_INVALID_SPEC, f"{bad}: its component spec reads back changed")
        return KIND_ADAPTER, emit_descriptor(adapter).encode("utf-8"), view
    try:
        spec = parse_component(document)
    except ParseError as err:
        raise PoolError(E_INVALID_SPEC, err.message) from None
    return KIND_COMPONENT, serialize(spec).encode("utf-8"), spec


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
    """Store one document; returns its fingerprint. Re-adding existing
    content is a no-op that writes nothing."""
    return _store(Path(root), *_canonicalize(document), timeout)


def pool_add_generated(
    root: str | Path, adapter: AdapterSpec, descriptor: str, timeout: float = LOCK_TIMEOUT
) -> str:
    """Store a generated adapter; `descriptor` must be its
    `emit_descriptor` text, which is already canonical. The same store
    and validation as `pool_add`, without parsing the text back."""
    view = adapter.to_component_spec()
    return _store(Path(root), KIND_ADAPTER, descriptor.encode("utf-8"), view, timeout)


def _store(root: Path, kind: str, data: bytes, component: ComponentSpec, timeout: float) -> str:
    """The one admission check and the one write path: `component` is
    the artifact's component view, validated here before any write."""
    violations = validate(component)
    if violations:
        codes = "; ".join(v.code for v in violations)
        raise PoolError(E_INVALID_SPEC, f"spec {component.name} has violations: {codes}")
    fp = fingerprint_of(data)
    row = _row_for(kind, fp, component)
    index = root / "index"
    with _index_lock(root, timeout):
        journal = _read_index(root)
        rows, end = _fold(journal)
        if fp in rows:
            return fp
        try:
            _write_atomic(root / row["path"], data)
            if end is None:
                rows[fp] = row
                lines = (canonjson.dump_line(rows[f]) for f in sorted(rows))
                _write_atomic(index, INDEX_HEADER + b"".join(lines))
            else:
                with open(index, "ab") as f:
                    if end < len(journal):
                        f.truncate(end)  # a torn line from a killed writer
                    f.write(canonjson.dump_line(row))
        except OSError as err:
            raise PoolError(E_IO, f"cannot write to pool {root}: {err.strerror or err}") from None
    return fp


def pool_get(root: str | Path, fp: str) -> ComponentSpec | AdapterSpec:
    """Load and re-verify one stored artifact."""
    root = Path(root)
    row = _load_index(root).get(fp)
    if row is None:
        raise PoolError(E_NO_ENTRY, f"no pool entry {fp}")
    return _read_artifact(root, fp, row["kind"], row["path"])


def _artifact_bytes(root: Path, relpath: str) -> bytes | None:
    """The bytes of one artifact file, or None when it is missing."""
    path = root / relpath
    try:
        return path.read_bytes()
    except FileNotFoundError:
        return None
    except OSError as err:
        raise PoolError(E_IO, f"cannot read {path}: {err.strerror or err}") from None


def _read_artifact(root: Path, fp: str, kind: str, relpath: str) -> ComponentSpec | AdapterSpec:
    data = _artifact_bytes(root, relpath)
    if data is None:
        raise PoolError(E_CORRUPT, f"index entry {fp} points at missing {relpath}")
    actual = fingerprint_of(data)
    if actual != fp:
        raise PoolError(E_CORRUPT, f"{relpath} re-hashes to {actual}, expected {fp}")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        path = root / relpath
        raise PoolError(E_CORRUPT, f"{path} is not UTF-8: byte {err.start} is invalid") from None
    if kind == KIND_ADAPTER:
        return parse_descriptor(text)
    return parse_component(text)


def pool_list(root: str | Path) -> list[tuple[str, IndexEntry]]:
    rows = _load_index(Path(root))
    return [(fp, _entry(rows[fp])) for fp in sorted(rows)]


class Candidate(tuple):
    """One `pool_query` result: a `(fingerprint, score)` pair that also
    carries the index entry it was priced from and, once read, the
    verified artifact, so callers need no second index read."""

    entry: IndexEntry

    def __new__(
        cls,
        root: Path,
        fp: str,
        score: Fraction,
        entry: IndexEntry,
        value: ComponentSpec | AdapterSpec | None = None,
    ) -> Candidate:
        self = super().__new__(cls, (fp, score))
        self._root, self.entry, self._value = root, entry, value
        return self

    @property
    def fingerprint(self) -> str:
        return self[0]

    @property
    def score(self) -> Fraction:
        return self[1]

    def load(self) -> ComponentSpec | AdapterSpec:
        """The artifact, re-hashed when read: a shaped query read every
        candidate while pricing it, a bare one reads it here."""
        if self._value is None:
            entry = self.entry
            self._value = _read_artifact(self._root, self.fingerprint, entry.kind, entry.path)
        return self._value


def pool_query(
    root: str | Path,
    query: PoolQuery,
    conv: ConversionTable | None = None,
    config: MatchConfig = DEFAULT_CONFIG,
) -> list[Candidate]:
    """Fingerprints able to serve the demand, best first.

    Candidates provide a concept equal to or related by ancestry to the
    demanded one, and their index entry lists every concept in
    `query.provides`; an entry that does not is passed over before its
    version is parsed or its artifact read. With a shaped demand each
    candidate is read from the one index fold and priced by its best
    provided operation through the regular matcher; a bare concept
    demand is priced by concept distance alone. An empty result is the
    miss answer: nothing stored can serve the demand. Each result is a
    `(fingerprint, score)` pair, and every score is at least
    `config.threshold`: a bare demand is cut at the threshold here, a
    shaped one by `match_operation`.
    """
    root = Path(root)
    conv = conv if conv is not None else ConversionTable()
    demand = query.demand
    wanted = shape_as_operation(demand.concept, demand.shape) if demand.shape is not None else None
    provides = frozenset(map(str, query.provides))
    results: list[Candidate] = []
    for fp, row in sorted(_load_index(root).items()):
        concepts = row["provided_concepts"]
        if provides and not provides.issubset(concepts):
            continue
        if query.constraint is not None and not query.constraint.satisfies(
            parse_version(row["version"])
        ):
            continue
        # Index concepts were checked when their artifact was added, so
        # they are split here without a second check.
        related_hops = [
            hops
            for concept_text in concepts
            if (hops := demand.concept.hops_to(ConceptId(tuple(concept_text.split("."))))) is not None
        ]
        if not related_hops:
            continue
        if wanted is None:
            score = 1 - config.concept_hop_penalty * min(related_hops)
            if score >= config.threshold:
                results.append(Candidate(root, fp, score, _entry(row)))
            continue
        value = _read_artifact(root, fp, row["kind"], row["path"])
        best: Fraction | None = None
        for iface in as_component(value).provided:
            for op in iface.operations:
                match = match_operation(wanted, op, conv, config)
                if match is not None and (best is None or match.score > best):
                    best = match.score
        if best is not None:
            results.append(Candidate(root, fp, best, _entry(row), value))
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
            raise PoolError(E_IO, f"cannot list {root / directory}: {err.strerror or err}") from None
        for name in names:
            path = f"{directory}/{name}"
            if not name.startswith(".tmp-") and path not in indexed:
                findings.append(
                    Finding("orphan", name.partition(".")[0], path, "artifact has no index entry")
                )
    return findings
