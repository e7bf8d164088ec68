"""Tool errors are told apart by their code, not their class: the only
exception types are `AdapterForgeError` and `ParseError`, which adds a
position, both in `speclang/errors.py`. No other module in the package
derives a class from them, directly or through another class, and both
import from `adapterforge` itself."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "adapterforge"
ERRORS = Path("speclang") / "errors.py"


def _base_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _classes() -> list[tuple[str, str, set[str]]]:
    """(file, class name, base names) of every class in the package."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases = {name for base in node.bases if (name := _base_name(base))}
                found.append((str(path.relative_to(SRC)), node.name, bases))
    return found


def test_only_the_errors_module_defines_tool_errors():
    classes = _classes()
    tool_errors = {"AdapterForgeError"}
    while True:  # close over subclasses of subclasses
        grown = tool_errors | {name for _, name, bases in classes if bases & tool_errors}
        if grown == tool_errors:
            break
        tool_errors = grown
    defined = {(file, name) for file, name, _ in classes if name in tool_errors}
    assert defined == {(str(ERRORS), "AdapterForgeError"), (str(ERRORS), "ParseError")}


def test_both_error_types_import_from_the_package():
    import adapterforge
    from adapterforge.speclang import errors

    assert adapterforge.AdapterForgeError is errors.AdapterForgeError
    assert adapterforge.ParseError is errors.ParseError
