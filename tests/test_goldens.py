"""Every committed golden is exactly what `tests/golden/regen.py` writes.

This pins the `check` reports (both formats) and exit codes of every
corpus case, two `adapt` runs of each against one pool, `check` of each
project that an `adapt` without `--emit` writes, `fmt` and `aslt dump`
of each case, the `aslt dump --fold` edge cases (the root folded away,
a kind no node has), the pool consults of `consult_transcripts.txt`,
and the stderr and exit code of each way reading a spec, a rules file,
a `pool add` input or a pool fails, byte for byte, and checks that the
regeneration script reproduces the figure3 goldens that other tests
compare against. A mismatch fails with a unified diff of the text.
"""

from __future__ import annotations

import difflib
import importlib.util
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"


def _load_regen():
    spec = importlib.util.spec_from_file_location("golden_regen", GOLDEN / "regen.py")
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def regenerated(tmp_path_factory) -> Path:
    outdir = tmp_path_factory.mktemp("golden")
    _load_regen().write_goldens(outdir)
    return outdir


def test_regeneration_writes_every_committed_golden(regenerated):
    committed = {p.name for p in GOLDEN.iterdir() if p.is_file() and p.suffix != ".py"}
    assert {p.name for p in regenerated.iterdir()} == committed


@pytest.mark.parametrize(
    "name", sorted(p.name for p in GOLDEN.iterdir() if p.is_file() and p.suffix != ".py")
)
def test_golden_is_byte_identical(regenerated, name):
    produced, committed = (regenerated / name).read_bytes(), (GOLDEN / name).read_bytes()
    if produced != committed:
        diff = difflib.unified_diff(
            committed.decode("utf-8", "replace").splitlines(keepends=True),
            produced.decode("utf-8", "replace").splitlines(keepends=True),
            f"committed/{name}",
            f"regenerated/{name}",
        )
        pytest.fail("".join(diff) or "the bytes differ, but not in their decoded text", pytrace=False)

