"""The public API lists in `adapterforge.__all__` and
`adapterforge.speclang.__all__` match what the two `__init__.py` files
export: `adapterforge`'s name -> module table (its names load on first
access) and `adapterforge.speclang`'s imports. Every listed name
resolves, and every public class or function exported there is listed,
so removing a name from one place and not the other fails here."""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "adapterforge"
PACKAGES = {"adapterforge": SRC, "adapterforge.speclang": SRC / "speclang"}


def _exported_names(name: str) -> list[str]:
    if name == "adapterforge":
        return list(importlib.import_module(name)._MODULE_OF)
    path = PACKAGES[name] / "__init__.py"
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
    exported = _exported_names(name)
    assert len(exported) > 10
    public = [
        n
        for n in exported
        if not n.startswith("_")
        and (inspect.isclass(getattr(module, n)) or inspect.isfunction(getattr(module, n)))
    ]
    assert [n for n in public if n not in module.__all__] == []
