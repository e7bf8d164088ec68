"""A mutation sweep over `cli.main`: a few byte edits to any input the
CLI reads never end in a traceback or in an exit code CI misreads.

Each example takes one input (a corpus spec, the rules file, the golden
figure3 descriptor, or the `index` or `index.lock` of a figure3 pool),
applies one to four byte edits to it (flip a byte, delete a run, insert
a token, duplicate a run), and runs every command that reads it. Each
run exits 0-3; its stderr is empty, or exactly one `error: ` line and
exit 3; it never reports `E_INTERNAL`; and nothing escapes `main`.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adapterforge.cli import main
from conftest import corpus_spec_paths

CORPUS = Path(__file__).parent / "corpus"
FIGURE3 = CORPUS / "figure3"
RULES = CORPUS / "conversions.rules"
DESCRIPTOR = Path(__file__).parent / "golden" / "figure3.adapter"

# Byte strings the spec, rules and JSON grammars give meaning to, and a
# few that no grammar accepts.
TOKENS = (
    b"{", b"}", b"(", b")", b"[", b"]", b"<", b">", b",", b":", b"=", b"*", b"-", b".",
    b'"', b"\\", b"\n", b"//", b"->", b"@concept", b"@unit", b"op ", b"uses ", b"list<",
    b"null", b"true", b"1e999", b"9" * 40, b"\x00", b"\xff",
)


@st.composite
def edited(draw, data: bytes) -> bytes:
    out = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(out)))
        run = draw(st.integers(1, 16))
        kind = draw(st.sampled_from(("flip", "delete", "insert", "duplicate")))
        if kind == "flip" and at < len(out):
            out[at] ^= draw(st.integers(1, 255))
        elif kind == "delete":
            del out[at : at + run]
        elif kind == "insert":
            out[at:at] = draw(st.sampled_from(TOKENS))
        else:
            out[at:at] = out[at : at + run]
    return bytes(out)


@pytest.fixture(scope="module")
def figure3_pool(tmp_path_factory) -> Path:
    """A pool holding what `adapt` stores for figure3."""
    root = tmp_path_factory.mktemp("figure3")
    argv = ["adapt", FIGURE3 / "figure3.pdl", "--conversions", RULES,
            "--pool", root / "pool", "--emit", root / "emit"]
    assert main([str(a) for a in argv]) == 1
    return root / "pool"


def _commands(target: str, root: Path, figure3_pool: Path) -> tuple[Path, Path, list[tuple]]:
    """(original input, its copy under `root` to edit, the commands that
    read it); every other input the commands read is an intact copy."""
    pool = root / "pool"

    def adapt(project: Path, rules: Path = RULES) -> tuple:
        return ("adapt", project, "--conversions", rules, "--pool", pool, "--emit", root / "emit")

    if target in ("index", "index.lock"):
        shutil.copytree(figure3_pool, pool)
        commands = [
            ("pool", "list", "--pool", pool),
            ("pool", "verify", "--pool", pool),
            ("pool", "query", "data.sorting.sort", "--pool", pool),
            ("pool", "add", FIGURE3 / "sortkit.cdl", "--pool", pool),
            adapt(FIGURE3 / "figure3.pdl"),
        ]
        return figure3_pool / target, pool / target, commands
    if target == "rules":
        rules = root / RULES.name
        project = FIGURE3 / "figure3.pdl"
        commands = [
            ("check", project, "--conversions", rules),
            ("pool", "query", "data.sorting.sort", "--conversions", rules, "--pool", pool),
            adapt(project, rules),
        ]
        return RULES, rules, commands
    if target == "descriptor":
        descriptor = root / DESCRIPTOR.name
        commands = [
            ("pool", "add", descriptor, "--pool", pool),
            ("pool", "verify", "--pool", pool),
            adapt(FIGURE3 / "figure3.pdl"),
        ]
        return DESCRIPTOR, descriptor, commands
    spec = Path(target)
    case = root / spec.parent.name
    shutil.copytree(spec.parent, case)
    (project,) = case.glob("*.pdl")
    commands = [
        ("fmt", case / spec.name),
        ("aslt", "dump", project),
        ("check", project, "--conversions", RULES),
        ("pool", "add", case / spec.name, "--pool", pool),
        adapt(project),
    ]
    return spec, case / spec.name, commands


def _run(argv: tuple) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


@settings(max_examples=300, deadline=None)
@given(
    target=st.sampled_from(
        [str(p) for p in corpus_spec_paths()] + ["rules", "descriptor", "index", "index.lock"]
    ),
    data=st.data(),
)
def test_edited_inputs_fail_cleanly(figure3_pool, target, data):
    with tempfile.TemporaryDirectory() as tmp:
        original, copy, commands = _commands(target, Path(tmp), figure3_pool)
        copy.write_bytes(data.draw(edited(original.read_bytes()), label="bytes"))
        for argv in commands:
            code, err = _run(argv)
            assert code in (0, 1, 2, 3), (argv, code, err)
            assert (code == 3) == bool(err), (argv, code, err)
            assert err == "" or (err.startswith("error: ") and err.find("\n") == len(err) - 1), err
            assert "E_INTERNAL" not in err, err
