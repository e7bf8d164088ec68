"""Each CLI command imports only the layers it runs.

Every case runs one command on the figure3 corpus in a fresh
interpreter and reads `sys.modules` when `main` returns, so a
module-level import that drags a layer into a command that does not
use it fails here, whatever it costs on a given machine.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import adapterforge

CORPUS = Path(__file__).parent / "corpus"
FIGURE3 = str(CORPUS / "figure3" / "figure3.pdl")
RULES = str(CORPUS / "conversions.rules")
GOLDEN = Path(__file__).parent / "golden"

# argv[1] receives the loaded modules; argv[2:] is the command, if any.
_PROBE = """\
import sys
from adapterforge.cli import main
code = main(sys.argv[2:]) if sys.argv[2:] else None
loaded = sorted(m for m in sys.modules if m == "adapterforge" or m.startswith("adapterforge."))
import json
with open(sys.argv[1], "w") as f:
    json.dump({"code": code, "modules": loaded}, f)
"""


def _fresh(out_dir: Path, *argv: str) -> tuple[int | None, set[str]]:
    """Exit code and loaded `adapterforge` modules of one command run
    in a new interpreter."""
    record = out_dir / "modules.json"
    env = dict(os.environ, PYTHONPATH=str(Path(adapterforge.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, str(record), *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    doc = json.loads(record.read_text())
    return doc["code"], set(doc["modules"])


def _layers(*names: str) -> set[str]:
    return {f"adapterforge.{name}" for name in names}


@pytest.fixture(scope="module")
def adapted(tmp_path_factory) -> tuple[int | None, set[str], Path]:
    root = tmp_path_factory.mktemp("adapt")
    code, loaded = _fresh(
        root, "adapt", FIGURE3, "--conversions", RULES,
        "--pool", str(root / "pool"), "--emit", str(root / "emit"),
    )
    return code, loaded, root


def test_importing_the_cli_loads_only_the_spec_language(tmp_path):
    code, loaded = _fresh(tmp_path)
    assert code is None
    assert {m for m in loaded if not m.startswith("adapterforge.speclang")} == {
        "adapterforge",
        "adapterforge.cli",
    }


@pytest.mark.parametrize("fmt", ["human", "structured"])
def test_check_loads_no_pool_adapters_or_aslt(tmp_path, fmt):
    code, loaded = _fresh(tmp_path, "check", FIGURE3, "--conversions", RULES, "--format", fmt)
    assert code == 1
    assert _layers("analyser", "report") <= loaded
    assert loaded & _layers("pool", "adapters", "aslt") == set()


def test_fmt_loads_no_analysis_pool_adapters_or_report(tmp_path):
    code, loaded = _fresh(tmp_path, "fmt", str(CORPUS / "figure3" / "sortkit.cdl"))
    assert code == 0
    assert loaded & _layers("analyser", "pool", "adapters", "report") == set()


def _spec_language_only(loaded: set[str]) -> bool:
    return {m for m in loaded if not m.startswith("adapterforge.speclang")} <= {
        "adapterforge",
        "adapterforge.cli",
    }


@pytest.mark.parametrize("fmt", ["human", "structured"])
def test_check_loads_no_workflow(tmp_path, fmt):
    """Spec files are read by the spec language, not the adapt workflow."""
    code, loaded = _fresh(tmp_path, "check", FIGURE3, "--conversions", RULES, "--format", fmt)
    assert code == 1
    assert "adapterforge.linkage" not in loaded


def test_fmt_loads_only_the_spec_language(tmp_path):
    code, loaded = _fresh(tmp_path, "fmt", str(CORPUS / "figure3" / "sortkit.cdl"), FIGURE3)
    assert code == 0
    assert _spec_language_only(loaded)


def test_aslt_dump_loads_the_aslt_and_no_other_layer(tmp_path):
    code, loaded = _fresh(tmp_path, "aslt", "dump", FIGURE3)
    assert code == 0
    assert "adapterforge.aslt" in loaded
    assert _spec_language_only(loaded - {"adapterforge.aslt"})


def test_adapt_writes_the_golden_descriptor(adapted):
    code, loaded, root = adapted
    assert code == 1
    assert _layers("analyser", "adapters", "pool", "linkage", "report") <= loaded
    assert "adapterforge.aslt" not in loaded
    (emitted,) = (root / "emit").glob("*.adapter")
    assert emitted.read_bytes() == (GOLDEN / "figure3.adapter").read_bytes()


@pytest.mark.parametrize(
    "command",
    [["list"], ["verify"], ["query", "data.sorting.sort"]],
    ids=["list", "verify", "query"],
)
def test_pool_list_and_verify_load_no_analyser_or_adapters(adapted, tmp_path, command):
    """So do `pool query` and its `--conversions`: a concept query reads
    the index alone."""
    _, _, root = adapted
    rules = ["--conversions", RULES] if command[0] == "query" else []
    code, loaded = _fresh(tmp_path, "pool", *command, "--pool", str(root / "pool"), *rules)
    assert code == 0
    assert "adapterforge.pool" in loaded
    assert loaded & _layers("analyser", "adapters") == set()
