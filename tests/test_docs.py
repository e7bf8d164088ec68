"""README's Layout block names every module and directory directly
under `src/adapterforge/`, and nothing else, so the map of the package
cannot drift from the package in either direction."""

from __future__ import annotations

from pathlib import Path

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src" / "adapterforge"
EXEMPT = {"__init__.py", "__pycache__"}


def _layout_entries() -> set[str]:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Layout", 1)[1].split("```")[1]
    lines = block.splitlines()
    start = lines.index("src/adapterforge/") + 1
    entries = set()
    for line in lines[start:]:
        if not line.startswith("  "):
            break
        entries.add(line.partition("#")[0].strip())
    return entries


def test_readme_layout_names_every_package_entry():
    expected = {
        path.name + ("/" if path.is_dir() else "")
        for path in SRC.iterdir()
        if path.name not in EXEMPT and (path.is_dir() or path.suffix == ".py")
    }
    assert len(expected) > 5
    assert _layout_entries() == expected
