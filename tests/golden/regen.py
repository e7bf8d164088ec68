"""Rewrite every golden file in this directory from the current program.

    PYTHONPATH=src python tests/golden/regen.py [OUTDIR]

Without OUTDIR the goldens beside this script are overwritten; with it
they are written there instead, which is how `tests/test_goldens.py`
checks that the committed bytes are what the program produces. A change
that rewrites a golden must say so, and why, in CHANGES.md.

The goldens:
- `figure3_report.txt`, `figure3.adapter`: stdout and the one emitted
  descriptor of `adapt` on the figure3 corpus case against a fresh pool;
- `figure3_aslt.txt`: `aslt dump` of the figure3 project;
- `check_<case>_<format>.txt`: stdout of `check` on each corpus case,
  figure3 last, for both `--format` values, and `check_exit_codes.txt`:
  one `<case> <format> <exit code>` line per run;
- `adapt_transcripts.txt`: `adapt` run twice on each of those cases,
  figure3 last, against one fresh pool per case: each command as a `$ `
  line, its stdout, `[exit <code>]`, then an `emitted <base name>
  <sha256>` line per file the run wrote; then, per case in a scratch
  copy, `adapt` without `--emit` and, when it wrote an adapted
  project, `check` of that project (no `emitted` lines);
- `figure3_pool.txt`: a transcript of `pool add` (the figure3 specs and
  descriptor), `pool list`, `pool query` with and without
  `--conversions`, and `pool verify` on a fresh pool: each command as a
  `$ ` line, its stdout, then `[exit <code>]`. No command prints a store
  time, so the bytes do not depend on when they were made;
- `spec_transcripts.txt`: for each corpus case, `fmt` of all its `.cdl`
  and `.pdl` files, then `aslt dump` of its project with and without
  `--fold operation`, then an `aslt dump` of the figure3
  `sortkit.cdl`, and last the fold edge cases: figure3 with `--fold`
  `project` (an empty line), `meta` and `nosuchkind` (the unfolded
  dump), and `sortkit.cdl` with `--fold` `parameter` and `component`
  (an empty line); in the layout of `adapt_transcripts.txt` (no
  `emitted` lines: these commands write no files);
- `consult_transcripts.txt`, in the layout of `figure3_pool.txt`:
  `pool add` of a `signer` that provides `data.crypto.sign`, then
  `adapt` of the missing case, whose demand takes it as a `POOL_HIT`;
  then `pool add` of a `helper` 2.0.0 that would heal the figure3
  connection, and `adapt` of figure3 extended to use its own `helper`
  1.0.0, which passes over the pooled one and generates an adapter.
  Each pair runs against its own fresh pool, with relative paths from
  a scratch directory;
- `error_transcripts.txt`: each command as a `$ ` line, its stderr,
  then `[exit <code>]`, for
  - `check`, `adapt`, `fmt` and `aslt dump` on each way reading a spec
    fails (a missing file, a directory named like a spec, a file that
    is not UTF-8, a project that does not parse, a specs directory
    holding a spec that does not parse, and a missing `--specs`
    directory);
  - `check` with a rules file that is missing, not UTF-8, has 6
    fields, names an unknown rule or penalty kind, sets the threshold
    out of range, or declares an identity conversion;
  - `pool add` of a missing file, a file that is not UTF-8, a spec with
    a validator violation, a descriptor that is not JSON, and one whose
    mappings cannot run;
  - `pool list`, `pool query` and `adapt` on an `index` with no header
    and on one whose second line is not JSON, and `adapt` against a
    planted artifact that re-hashes to its index line but is not a
    descriptor;
  - `aslt dump` of a project whose `uses` nothing satisfies, and `check`
    of a connection to an interface its component lacks;
  - `pool query` with a bad concept and with a bad constraint;
  - `pool list` on an `index` whose second line is JSON but not an
    entry, on one whose second line is not an entry and whose third is
    not JSON (the third is named), and on one whose two sealed entries
    are followed by a line that is not JSON;
  - `pool add` of three edits of the figure3 descriptor whose slots do
    not type: a TAKE into a provider param retyped `string`, a FILL of
    `"yes"` for a `bool`, and a PASS of a provider return retyped
    `string`.

  The inputs are made in a scratch directory, which is the working
  directory of every command, and every path is relative, so the bytes
  do not depend on where they were made.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shutil
import sys
import tempfile
from pathlib import Path

from adapterforge import canonjson
from adapterforge.cli import main
from adapterforge.pool import init_pool, pool_add

GOLDEN = Path(__file__).resolve().parent
CORPUS = GOLDEN.parent / "corpus"
RULES = CORPUS / "conversions.rules"
CHECK_CASES = {
    "ancestry": "stablesort.pdl",
    "exact": "exactpair.pdl",
    "golden": "shopfront.pdl",
    "incompatible": "checkout.pdl",
    "missing": "wantsign.pdl",
    "units": "unitsync.pdl",
    "figure3": "figure3.pdl",
}
FORMATS = ("human", "structured")


def _capture(argv: tuple[str | Path, ...]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def _run(*argv: str | Path) -> tuple[int, str]:
    code, out, err = _capture(argv)
    if err:
        raise RuntimeError(f"{argv}: unexpected stderr {err!r}")
    return code, out


def render_goldens() -> dict[str, str]:
    """File name -> contents of every golden."""
    files: dict[str, str] = {}
    figure3 = CORPUS / "figure3" / "figure3.pdl"
    with tempfile.TemporaryDirectory() as tmp:
        emit = Path(tmp) / "emit"
        _, files["figure3_report.txt"] = _run(
            "adapt", figure3, "--conversions", RULES, "--pool", Path(tmp) / "pool", "--emit", emit
        )
        (descriptor,) = emit.glob("*.adapter")
        files["figure3.adapter"] = descriptor.read_text(encoding="utf-8")
    _, files["figure3_aslt.txt"] = _run("aslt", "dump", figure3)

    exits = []
    for case, project in CHECK_CASES.items():
        for fmt in FORMATS:
            code, out = _run(
                "check", CORPUS / case / project, "--conversions", RULES, "--format", fmt
            )
            files[f"check_{case}_{fmt}.txt"] = out
            exits.append(f"{case} {fmt} {code}\n")
    files["check_exit_codes.txt"] = "".join(exits)
    files["figure3_pool.txt"] = _pool_transcript(files["figure3.adapter"])
    files["adapt_transcripts.txt"] = _adapt_transcripts() + _adapted_checks()
    files["spec_transcripts.txt"] = _spec_transcripts()
    files["error_transcripts.txt"] = _error_transcripts(files["figure3.adapter"])
    files["consult_transcripts.txt"] = _consult_transcripts()
    return files


def _transcript(commands: list[tuple[str | Path, ...]], *hidden: str | Path) -> str:
    """Each command as a `$ ` line with paths shown by base name, its
    stdout, then `[exit <code>]`; `hidden` arguments are passed to every
    command but not shown."""
    lines = []
    for argv in commands:
        code, out = _run(*argv, *hidden)
        shown = " ".join(a.name if isinstance(a, Path) else a for a in argv)
        lines.append(f"$ {shown}\n{out}[exit {code}]\n")
    return "".join(lines)


def _spec_transcripts() -> str:
    """`fmt` of each corpus case's specs, then `aslt dump` of its
    project, unfolded and with operations folded; then the figure3
    `sortkit.cdl` dump and the fold edge cases: the root folded away,
    meta nodes, parameters and a kind no node has."""
    commands: list[tuple[str | Path, ...]] = []
    for case in sorted(p for p in CORPUS.iterdir() if p.is_dir()):
        (project,) = case.glob("*.pdl")
        commands.append(("fmt", *sorted(case.glob("*.cdl")), project))
        commands.append(("aslt", "dump", project))
        commands.append(("aslt", "dump", project, "--fold", "operation"))
    figure3, sortkit = CORPUS / "figure3" / "figure3.pdl", CORPUS / "figure3" / "sortkit.cdl"
    commands += [
        ("aslt", "dump", sortkit),
        ("aslt", "dump", figure3, "--fold", "project"),
        ("aslt", "dump", figure3, "--fold", "meta"),
        ("aslt", "dump", sortkit, "--fold", "parameter"),
        ("aslt", "dump", sortkit, "--fold", "component"),
        ("aslt", "dump", figure3, "--fold", "nosuchkind"),
    ]
    return _transcript(commands)


# A signer for the missing case's demand, and a `helper` that heals the
# figure3 connection, under a name the project uses for a `helper`
# without `Sorting`.
_SIGNER = """component "signer" version "1.0.0" {
  provides interface Signing {
    op sign(payload: bytes) -> bytes @concept data.crypto.sign
  }
}
"""
_HELPER_MISC = """component "helper" version "1.0.0" {
  provides interface Misc {
    op noop(x: i32) -> i32 @concept util.misc.noop
  }
}
"""
_HELPER_HEALS = """component "helper" version "2.0.0" {
  provides interface Sorting {
    op sortAscending(items: list<i32>) -> list<i32> @concept data.sorting.sort
  }
  requires interface BulkSort {
    op sort(items: list<i32>, ascending: bool = true) -> list<i32> @concept data.sorting.sort
  }
}
"""


def _consult_transcripts() -> str:
    """A project demand served by a pooled component, then a connection
    that passes over a pooled healer whose name the project uses for
    another component; one fresh pool each, run with relative paths
    from a scratch directory."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        shutil.copytree(CORPUS / "missing", "missing")
        Path("signer.cdl").write_text(_SIGNER, encoding="utf-8")
        shutil.copytree(CORPUS / "figure3", "figure3")
        project = Path("figure3/figure3.pdl")
        text = project.read_text(encoding="utf-8")
        project.write_text(text.replace("  connect", '  uses "helper" *\n  connect'), encoding="utf-8")
        Path("figure3/helper.cdl").write_text(_HELPER_MISC, encoding="utf-8")
        Path("helper.cdl").write_text(_HELPER_HEALS, encoding="utf-8")
        return _transcript([
            ("pool", "add", "signer.cdl", "--pool", "signpool"),
            ("adapt", "missing/wantsign.pdl", "--pool", "signpool", "--emit", "signout"),
            ("pool", "add", "helper.cdl", "--pool", "helperpool"),
            ("adapt", "figure3/figure3.pdl", "--pool", "helperpool", "--emit", "helperout"),
        ])


def _error_transcripts(descriptor: str) -> str:
    """Each spec-reading failure of `check`, `adapt`, `fmt` and
    `aslt dump`, then each failure past spec reading, run with relative
    paths from a scratch directory."""
    # form -> (project, spec file read alone or None, --specs or None)
    forms = {
        "missing file": ("missing.pdl", "missing.cdl", None),
        "directory named like a spec": ("figure3/figure3.pdl", "x.cdl", "withdir"),
        "not UTF-8": ("latin1.pdl", "latin1.cdl", None),
        "project syntax error": ("syntax.pdl", "syntax.pdl", None),
        "broken spec in the specs directory": ("figure3/figure3.pdl", "broken/zz.cdl", "broken"),
        "missing specs directory": ("figure3/figure3.pdl", None, "nospecs"),
    }
    commands: list[tuple[str, ...]] = []
    for project, spec, specs in forms.values():
        where = ("--specs", specs) if specs else ()
        commands.append(("check", project, *where))
        commands.append(("adapt", project, *where, "--pool", "pool"))
        commands.append(("aslt", "dump", project, *where))
        if spec is not None:
            commands.append(("fmt", spec))
        if spec not in (None, project):
            commands.append(("aslt", "dump", spec))
    figure3 = "figure3/figure3.pdl"
    for rules in _BAD_RULES:
        commands.append(("check", figure3, "--conversions", rules))
    for document in _BAD_DOCUMENTS:
        commands.append(("pool", "add", document, "--pool", "pool"))
    for pool in ("noheader", "badline"):
        commands.append(("pool", "list", "--pool", pool))
        commands.append(("pool", "query", "data.sorting.sort", "--pool", pool))
        commands.append(("adapt", figure3, "--pool", pool))
    commands += [
        ("adapt", figure3, "--pool", "planted"),
        ("aslt", "dump", "unresolved.pdl", "--specs", "figure3"),
        ("check", "badconn.pdl", "--specs", "figure3"),
        ("pool", "query", "Data..Sort!", "--pool", "pool"),
        ("pool", "query", "data.sorting.sort", "1.2", "--pool", "pool"),
        *(("pool", "list", "--pool", pool) for pool in ("badentry", "badorder", "sealedbad")),
        *(("pool", "add", f"{probe}.adapter", "--pool", "pool") for probe in _UNTYPED_PROBES),
    ]
    lines = []
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        _write_error_inputs(Path(tmp), descriptor)
        for argv in commands:
            code, out, err = _capture(argv)
            if out:
                raise RuntimeError(f"{argv}: unexpected stdout {out!r}")
            lines.append(f"$ {' '.join(argv)}\n{err}[exit {code}]\n")
    return "".join(lines)


# Rules files that `check` refuses (`missing.rules` is never written).
_BAD_RULES = {
    "missing.rules": None,
    "latin1.rules": b"i32, -, i64, -, widen, 1, 1\n# caf\xe9\n",
    "sixfields.rules": b"i32, -, i64, -, widen, 1\n",
    "unknownrule.rules": b"i32, -, i64, -, stretch, 1, 1\n",
    "unknownpenalty.rules": b"penalty sideways 1/10\n",
    "threshold.rules": b"threshold 3/2\n",
    "identity.rules": b"i32, -, i32, -, widen, 1, 1\n",
}
# Documents that `pool add` refuses; the two descriptors are written
# from the figure3 one.
_BAD_DOCUMENTS = (
    "missing.cdl",
    "latin1.cdl",
    "deep.cdl",
    "notjson.adapter",
    "unmapped.adapter",
)


# Edits of the figure3 descriptor whose slots do not type: the provider
# param that a TAKE feeds, the literal of the FILL for `ascending: bool`,
# and the provider return under a PASS.
_UNTYPED_PROBES = {
    "takestring": lambda d: d["delegates"]["interface"]["operations"][0]["params"][0].update(type="string"),
    "fillstring": lambda d: d["mappings"][0]["slots"][1].update(fill={"kind": "string", "value": "yes"}),
    "returnstring": lambda d: d["delegates"]["interface"]["operations"][0].update(returns="string"),
}


def _write_error_inputs(root: Path, descriptor: str) -> None:
    """The figure3 case, and beside it each broken input the error
    transcripts read."""
    shutil.copytree(CORPUS / "figure3", root / "figure3")
    for specs in ("withdir", "broken"):
        (root / specs).mkdir()
        for cdl in (CORPUS / "figure3").glob("*.cdl"):
            shutil.copy(cdl, root / specs)
    (root / "withdir" / "x.cdl").mkdir()
    (root / "x.cdl").mkdir()
    (root / "broken" / "zz.cdl").write_text(
        'component "Z" version "1.0.0" { provides interface X { op f() -> unit } }\n',
        encoding="utf-8",
    )
    (root / "latin1.pdl").write_bytes(b'project "caf\xe9" { }\n')
    (root / "latin1.cdl").write_bytes(b'component "caf\xe9" version "1.0.0" { }\n')
    (root / "syntax.pdl").write_text('project "p" { uses }\n', encoding="utf-8")
    for name, data in _BAD_RULES.items():
        if data is not None:
            (root / name).write_bytes(data)
    (root / "deep.cdl").write_text(
        'component "deep" version "1.0.0" { provides interface X {\n'
        "  op f(x: list<list<list<list<i32>>>>) -> unit @concept a.b\n} }\n",
        encoding="utf-8",
    )
    (root / "notjson.adapter").write_text("{ not json\n", encoding="utf-8")
    unmapped = canonjson.loads(descriptor)
    unmapped["mappings"] = []
    (root / "unmapped.adapter").write_text(canonjson.dumps(unmapped), encoding="utf-8")
    for probe, edit in _UNTYPED_PROBES.items():
        doc = canonjson.loads(descriptor)
        edit(doc)
        (root / f"{probe}.adapter").write_text(canonjson.dumps(doc), encoding="utf-8")
    planted = b'{"format":"adapter/0"}\n'  # JSON, but no adapter descriptor
    fp = hashlib.sha256(planted).hexdigest()
    line = canonjson.dump_line({
        "fingerprint": fp,
        "kind": "adapter",
        "name": "planted",
        "path": f"adapters/{fp}.adapter",
        "provided_concepts": ["data.sorting.sort"],
        "stored_at": "2024-01-01T00:00:00+00:00",
        "version": "1.0.0",
    })
    header = b'{"format":"pool/2"}\n'
    notentry = b'{"version":"1.0"}\n'  # JSON, but no index entry
    pools = {
        "noheader": line,
        "badline": header + b"{not json}\n" + line,
        "planted": header + line,
        "badentry": header + notentry + line,
        "badorder": header + notentry + b"{not json}\n" + line,
    }
    for pool, index in pools.items():
        for directory in ("components", "adapters"):
            (root / pool / directory).mkdir(parents=True)
        (root / pool / "index").write_bytes(index)
    (root / "planted" / "adapters" / f"{fp}.adapter").write_bytes(planted)
    sealed = init_pool(root / "sealedbad")
    for cdl in sorted((root / "figure3").glob("*.cdl")):  # two sealed lines
        pool_add(sealed, cdl.read_text(encoding="utf-8"))
    with open(root / "sealedbad" / "index", "ab") as f:
        f.write(b"{not json}\n")
    (root / "unresolved.pdl").write_text(
        'project "lonely" {\n  uses "nothing" *\n}\n', encoding="utf-8"
    )
    (root / "badconn.pdl").write_text(
        'project "badconn" {\n  uses "reportgen" *\n  uses "sortkit" *\n'
        "  connect reportgen.requires.Sorting -> sortkit.provides.Missing\n}\n",
        encoding="utf-8",
    )


def _adapt_transcripts() -> str:
    """Two `adapt` runs per `check` case, the second finding the pool
    the first left behind; each run emits into its own directory."""
    lines = []
    for case, project in CHECK_CASES.items():
        argv = ("adapt", CORPUS / case / project, "--conversions", RULES)
        shown = " ".join(a.name if isinstance(a, Path) else a for a in argv)
        with tempfile.TemporaryDirectory() as tmp:
            for run in ("first", "second"):
                emit = Path(tmp) / run
                code, out = _run(*argv, "--pool", Path(tmp) / "pool", "--emit", emit)
                lines.append(f"$ {shown}\n{out}[exit {code}]\n")
                for path in sorted(emit.iterdir()):
                    digest = hashlib.sha256(path.read_bytes()).hexdigest()
                    lines.append(f"emitted {path.name} {digest}\n")
    return "".join(lines)


def _adapted_checks() -> str:
    """`adapt` of each `check` case copied into a scratch directory,
    without `--emit`, so the adapted project lands beside its specs;
    then `check` of that adapted project, when the run wrote one."""
    lines = []
    for case, project in CHECK_CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            specs = Path(tmp) / case
            shutil.copytree(CORPUS / case, specs)
            lines.append(_transcript([
                ("adapt", specs / project, "--conversions", RULES, "--pool", Path(tmp) / "pool")
            ]))
            adapted = specs / f"{Path(project).stem}.adapted.pdl"
            if adapted.exists():
                lines.append(_transcript([("check", adapted, "--conversions", RULES)]))
    return "".join(lines)


def _pool_transcript(descriptor: str) -> str:
    """The figure3 pool transcript; files and the pool are named by
    their base names, so the text does not depend on where it ran."""
    with tempfile.TemporaryDirectory() as tmp:
        adapter = Path(tmp) / "figure3.adapter"
        adapter.write_text(descriptor, encoding="utf-8")
        specs = sorted((CORPUS / "figure3").glob("*.cdl"))
        commands = [
            ("pool", "add", *specs, adapter),
            ("pool", "list"),
            ("pool", "query", "data.sorting.sort", "--conversions", RULES),
            ("pool", "query", "data.sorting"),
            ("pool", "verify"),
        ]
        return _transcript(commands, "--pool", Path(tmp) / "pool")


def write_goldens(outdir: Path) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    for name, text in render_goldens().items():
        (outdir / name).write_bytes(text.encode("utf-8"))


if __name__ == "__main__":
    write_goldens(Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN)
