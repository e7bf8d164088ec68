"""Content-addressed store for component specs and adapter descriptors.

Artifacts live under `components/` and `adapters/`, named by the
SHA-256 of their canonical bytes, so equal canonical content always
lands on the same path and identity is the hash. The `index` is an
append-only journal (`pool/2`): a header line, then one compact
canonical JSON line per entry. A writer takes an advisory lockfile,
renames the artifact into place and appends one line, so an add costs
the same at any pool size. Readers never lock and fold the journal
once per operation, ignoring an unterminated last line; a killed
writer leaves at most that torn line (cut by the next writer) or an
artifact with no line (reported by `pool_verify`). Files are immutable
once named, and every artifact read re-hashes its bytes so tampering
cannot go unnoticed. A `pool/1` index (one JSON document) stays
readable and is rewritten as a journal by the first add.
"""

from __future__ import annotations

import hashlib
import itertools
import json
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
_ENTRY_KEYS = frozenset({"kind", "name", "version", "provided_concepts", "path", "stored_at"})
_LINE_KEYS = _ENTRY_KEYS | {"fingerprint"}
_HEX_DIGITS = "0123456789abcdef"
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


def init_pool(root: str | Path) -> Path:
    """Create the pool layout if absent; idempotent and safe to race."""
    root = Path(root)
    try:
        (root / "components").mkdir(parents=True, exist_ok=True)
        (root / "adapters").mkdir(parents=True, exist_ok=True)
        index = root / "index"
        if not index.exists():
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
        raise PoolError(E_IO, f"cannot initialize pool at {root}: {err}") from None
    return root


def _artifact_path(kind: str, fp: str) -> str:
    directory, suffix = _ARTIFACT_DIRS[kind]
    return f"{directory}/{fp}{suffix}"


def _entry_json(fp: str, entry: IndexEntry) -> dict:
    return {
        "fingerprint": fp,
        "kind": entry.kind,
        "name": entry.name,
        "version": entry.version,
        "provided_concepts": list(entry.provided_concepts),
        "path": entry.path,
        "stored_at": entry.stored_at,
    }


def _entry_from_json(fp: object, doc: object, keys: frozenset[str], where: str) -> IndexEntry:
    """Check one decoded entry; any defect is E_CORRUPT."""
    if not (
        type(fp) is str
        and len(fp) == 64
        and not fp.strip(_HEX_DIGITS)
        and type(doc) is dict
        and doc.keys() == keys
    ):
        raise PoolError(E_CORRUPT, f"{where}: malformed pool index entry")
    kind, name, version = doc["kind"], doc["name"], doc["version"]
    path, stored_at, concepts = doc["path"], doc["stored_at"], doc["provided_concepts"]
    if not (
        type(kind) is str
        and kind in _ARTIFACT_DIRS
        and path == _artifact_path(kind, fp)
        and type(name) is str
        and type(version) is str
        and _VERSION_RE.match(version)
        and type(stored_at) is str
        and type(concepts) is list
        and all(type(c) is str for c in concepts)
        and "" not in concepts
    ):
        raise PoolError(E_CORRUPT, f"{where}: malformed pool index entry {fp}")
    return IndexEntry(kind, name, version, tuple(concepts), path, stored_at)


def _read_index(root: Path) -> bytes:
    index_path = root / "index"
    try:
        return index_path.read_bytes()
    except FileNotFoundError:
        raise PoolError(E_IO, f"{index_path} does not exist (pool not initialized?)") from None
    except OSError as err:
        raise PoolError(E_IO, f"cannot read pool index: {err}") from None


def _fold(data: bytes) -> tuple[dict[str, IndexEntry], int | None]:
    """Fold index bytes into fingerprint -> entry.

    Also returns where the journal's complete lines end, or None for a
    `pool/1` document. An unterminated last line is a torn append and
    is not part of the index.
    """
    if data.startswith(INDEX_HEADER):
        end = data.rfind(b"\n") + 1
        body = data[len(INDEX_HEADER) : end]
        try:
            docs = json.loads(b"[" + body[:-1].replace(b"\n", b",") + b"]")
        except (ValueError, RecursionError) as err:
            raise PoolError(E_CORRUPT, f"malformed pool index line: {err}") from None
        if len(docs) != body.count(b"\n"):
            raise PoolError(E_CORRUPT, "malformed pool index line: more than one value")
        entries: dict[str, IndexEntry] = {}
        for line, doc in enumerate(docs, 2):
            fp = doc.get("fingerprint") if isinstance(doc, dict) else None
            entry = _entry_from_json(fp, doc, _LINE_KEYS, f"index line {line}")
            entries.setdefault(doc["fingerprint"], entry)
        return entries, end
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
    entries = {
        fp: _entry_from_json(fp, entry, _ENTRY_KEYS, f"index entry {fp}")
        for fp, entry in doc["entries"].items()
    }
    return entries, None


def _load_index(root: Path) -> dict[str, IndexEntry]:
    return _fold(_read_index(root))[0]


def _temp_path(path: Path) -> Path:
    """A name no other writer uses, Maildir style: pid, thread, counter."""
    unique = f"{os.getpid()}-{threading.get_ident()}-{next(_temp_counter)}"
    return path.parent / f".tmp-{unique}-{path.name}"


def _write_atomic(path: Path, data: bytes) -> None:
    tmp = _temp_path(path)
    tmp.write_bytes(data)
    os.replace(tmp, path)


def _break_stale_lock(lock_path: Path) -> bool:
    """Remove a lock whose holder is a process that no longer exists on
    this host; True when the lock is gone."""
    try:
        with open(lock_path, "rb") as f:
            body = f.read(32)
            inode = os.fstat(f.fileno()).st_ino
    except FileNotFoundError:
        return True
    except OSError:
        return False
    if not body.isdigit():
        return False  # not a pid (or not written yet): wait for the timeout
    try:
        os.kill(int(body), 0)
        return False
    except ProcessLookupError:
        pass
    except (OSError, OverflowError):
        return False
    stale = _temp_path(lock_path)
    try:
        os.rename(lock_path, stale)
    except OSError:
        return False
    try:
        if os.stat(stale).st_ino != inode:
            # A live writer took the lock after it was read: hand it back.
            os.link(stale, lock_path)
    except OSError:
        pass
    finally:
        os.unlink(stale)
    return True


@contextmanager
def _index_lock(root: Path, timeout: float) -> Iterator[None]:
    lock_path = root / "index.lock"
    deadline = time.monotonic() + timeout
    while True:
        try:
            fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            break
        except FileExistsError:
            if _break_stale_lock(lock_path):
                continue
            if time.monotonic() >= deadline:
                raise PoolError(
                    E_LOCK, f"could not acquire {lock_path} within {timeout:.1f}s"
                ) from None
            time.sleep(_LOCK_POLL)
        except OSError as err:
            raise PoolError(E_IO, f"cannot create lock file: {err}") from None
    try:
        os.write(fd, str(os.getpid()).encode("ascii"))
        os.close(fd)
        yield
    finally:
        try:
            os.unlink(lock_path)
        except OSError:
            pass


def _canonicalize(document: str) -> tuple[str, bytes, ComponentSpec | AdapterSpec]:
    """Validate a document and produce (kind, canonical bytes, value)."""
    stripped = document.lstrip()
    if stripped.startswith("{"):
        try:
            adapter = parse_descriptor(document)
        except AdapterForgeError as err:
            raise PoolError(E_INVALID_SPEC, f"not a valid adapter descriptor: {err.message}") from None
        _validate_adapter(adapter)
        return KIND_ADAPTER, emit_descriptor(adapter).encode("utf-8"), adapter
    try:
        spec = parse_component(document)
    except ParseError as err:
        raise PoolError(E_INVALID_SPEC, err.message) from None
    violations = validate(spec)
    if violations:
        raise PoolError(
            E_INVALID_SPEC,
            f"spec {spec.name} has violations: " + "; ".join(v.code for v in violations),
        )
    return KIND_COMPONENT, serialize(spec).encode("utf-8"), spec


def _validate_adapter(adapter: AdapterSpec) -> None:
    """The check every stored adapter passes, read or generated."""
    if validate(adapter.to_component_spec()):
        raise PoolError(E_INVALID_SPEC, f"adapter {adapter.name} fails validation")


def _entry_for(kind: str, fp: str, value: ComponentSpec | AdapterSpec) -> IndexEntry:
    component = as_component(value)
    return IndexEntry(
        kind=kind,
        name=component.name,
        version=format_version(component.version),
        provided_concepts=tuple(str(c) for c in component.provided_concepts()),
        path=_artifact_path(kind, fp),
        stored_at=datetime.now(timezone.utc).isoformat(timespec="seconds"),
    )


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
    _validate_adapter(adapter)
    return _store(Path(root), KIND_ADAPTER, descriptor.encode("utf-8"), adapter, timeout)


def _store(
    root: Path, kind: str, data: bytes, value: ComponentSpec | AdapterSpec, timeout: float
) -> str:
    fp = fingerprint_of(data)
    entry = _entry_for(kind, fp, value)
    index = root / "index"
    with _index_lock(root, timeout):
        journal = _read_index(root)
        entries, end = _fold(journal)
        if fp in entries:
            return fp
        try:
            _write_atomic(root / entry.path, data)
            if end is None:
                entries[fp] = entry
                lines = (canonjson.dump_line(_entry_json(f, e)) for f, e in sorted(entries.items()))
                _write_atomic(index, INDEX_HEADER + b"".join(lines))
            else:
                with open(index, "ab") as f:
                    if end < len(journal):
                        f.truncate(end)  # a torn line from a killed writer
                    f.write(canonjson.dump_line(_entry_json(fp, entry)))
        except OSError as err:
            raise PoolError(E_IO, f"cannot write to pool {root}: {err}") from None
    return fp


def pool_get(root: str | Path, fp: str) -> ComponentSpec | AdapterSpec:
    """Load and re-verify one stored artifact."""
    root = Path(root)
    entry = _load_index(root).get(fp)
    if entry is None:
        raise PoolError(E_NO_ENTRY, f"no pool entry {fp}")
    return _read_artifact(root, fp, entry)


def _read_artifact(root: Path, fp: str, entry: IndexEntry) -> ComponentSpec | AdapterSpec:
    path = root / entry.path
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        raise PoolError(E_CORRUPT, f"index entry {fp} points at missing {entry.path}") from None
    except OSError as err:
        raise PoolError(E_IO, f"cannot read {path}: {err.strerror or err}") from None
    actual = fingerprint_of(data)
    if actual != fp:
        raise PoolError(E_CORRUPT, f"{entry.path} re-hashes to {actual}, expected {fp}")
    text = data.decode("utf-8")
    if entry.kind == KIND_ADAPTER:
        return parse_descriptor(text)
    return parse_component(text)


def pool_list(root: str | Path) -> list[tuple[str, IndexEntry]]:
    entries = _load_index(Path(root))
    return sorted(entries.items())


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
            self._value = _read_artifact(self._root, self.fingerprint, self.entry)
        return self._value


def pool_query(
    root: str | Path,
    query: PoolQuery,
    conv: ConversionTable | None = None,
    config: MatchConfig = DEFAULT_CONFIG,
) -> list[Candidate]:
    """Fingerprints able to serve the demand, best first.

    Candidates provide a concept equal to or related by ancestry to the
    demanded one. With a shaped demand each candidate is read from the
    one index fold and priced by its best provided operation through
    the regular matcher; a bare concept demand is priced by concept
    distance alone. An empty result is the miss answer: nothing stored
    can serve the demand. Each result is a `(fingerprint, score)` pair,
    and every score is at least `config.threshold`: a bare demand is cut
    at the threshold here, a shaped one by `match_operation`.
    """
    root = Path(root)
    conv = conv if conv is not None else ConversionTable()
    demand = query.demand
    wanted = shape_as_operation(demand.concept, demand.shape) if demand.shape is not None else None
    results: list[Candidate] = []
    for fp, entry in sorted(_load_index(root).items()):
        if query.constraint is not None and not query.constraint.satisfies(
            parse_version(entry.version)
        ):
            continue
        # Index concepts were checked when their artifact was added, so
        # they are split here without a second check.
        related_hops = [
            hops
            for concept_text in entry.provided_concepts
            if (hops := demand.concept.hops_to(ConceptId(tuple(concept_text.split("."))))) is not None
        ]
        if not related_hops:
            continue
        if wanted is None:
            score = 1 - config.concept_hop_penalty * min(related_hops)
            if score >= config.threshold:
                results.append(Candidate(root, fp, score, entry))
            continue
        value = _read_artifact(root, fp, entry)
        best: Fraction | None = None
        for iface in as_component(value).provided:
            for op in iface.operations:
                match = match_operation(wanted, op, conv, config)
                if match is not None and (best is None or match.score > best):
                    best = match.score
        if best is not None:
            results.append(Candidate(root, fp, best, entry, value))
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
    entries = _load_index(root)
    for fp, entry in sorted(entries.items()):
        path = root / entry.path
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            findings.append(
                Finding("dangling", fp, entry.path, "index entry points at a missing file")
            )
            continue
        except OSError as err:
            raise PoolError(E_IO, f"cannot read {path}: {err.strerror or err}") from None
        actual = fingerprint_of(data)
        if actual != fp:
            findings.append(
                Finding("hash_mismatch", fp, entry.path, f"content re-hashes to {actual}")
            )
    indexed = {entry.path for entry in entries.values()}
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
