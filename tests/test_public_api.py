"""The public API lists in `adapterforge.__all__` and
`adapterforge.speclang.__all__` match what the two `__init__.py` files
import: every listed name resolves, and every public class or function
imported there is listed, so removing a name from one place and not the
other fails here."""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "adapterforge"
PACKAGES = {"adapterforge": SRC, "adapterforge.speclang": SRC / "speclang"}


def _imported_names(package_dir: Path) -> list[str]:
    path = package_dir / "__init__.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
    ]


@pytest.mark.parametrize("name", sorted(PACKAGES))
def test_every_listed_name_resolves(name):
    module = importlib.import_module(name)
    assert len(module.__all__) == len(set(module.__all__))
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", sorted(PACKAGES))
def test_every_imported_class_and_function_is_listed(name):
    module = importlib.import_module(name)
    imported = _imported_names(PACKAGES[name])
    assert len(imported) > 10
    public = [
        n
        for n in imported
        if not n.startswith("_")
        and (inspect.isclass(getattr(module, n)) or inspect.isfunction(getattr(module, n)))
    ]
    assert [n for n in public if n not in module.__all__] == []
