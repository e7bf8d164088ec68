"""The `[tool.setuptools.package-data]` globs in pyproject.toml and the
non-Python files under `src/adapterforge/` agree: every such file is
matched by a glob, so a wheel ships it, and every glob matches a file,
so no glob names data that is gone."""

from __future__ import annotations

import tomllib
from pathlib import Path

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src"


def _package_data_globs() -> dict[str, list[str]]:
    with (ROOT / "pyproject.toml").open("rb") as f:
        config = tomllib.load(f)
    return config.get("tool", {}).get("setuptools", {}).get("package-data", {})


def _data_files() -> set[Path]:
    return {
        path
        for path in (SRC / "adapterforge").rglob("*")
        if path.is_file() and path.suffix != ".py" and "__pycache__" not in path.parts
    }


def test_package_data_globs_match_the_data_files():
    globs = _package_data_globs()
    matched: set[Path] = set()
    for package, patterns in globs.items():
        base = SRC.joinpath(*package.split("."))
        assert base.is_dir(), f"package-data names a missing package {package!r}"
        for pattern in patterns:
            hits = {p for p in base.glob(pattern) if p.is_file()}
            assert hits, f"package-data glob {package}:{pattern} matches no file"
            matched |= hits
    assert sorted(_data_files() - matched) == []
