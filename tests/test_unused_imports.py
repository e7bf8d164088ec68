"""No module of the package imports a name that it never reads.

An `__init__.py` may import a name only to re-export it, so packages
are exempt. Elsewhere each name an `import` binds must be read in the
scope that imports it (the module, or the function holding a lazy
import), annotations included, so that an import left behind by a
removal fails here rather than costing every cold start.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "adapterforge"
_SCOPES = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)


def _bound_names(node: ast.Import | ast.ImportFrom):
    for alias in node.names:
        yield alias.asname or alias.name.partition(".")[0]


def _unread_imports(tree: ast.Module):
    """(line, name) for each imported name its scope never loads."""
    for scope in ast.walk(tree):
        if not isinstance(scope, _SCOPES):
            continue
        nodes = list(ast.walk(scope))
        read = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        nested = {
            id(inner)
            for n in nodes
            if n is not scope and isinstance(n, _SCOPES)
            for inner in ast.walk(n)
            if inner is not n
        }
        for node in nodes:
            if id(node) in nested or not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for name in _bound_names(node):
                if name not in read:
                    yield node.lineno, name


def test_no_module_imports_a_name_it_never_reads():
    files = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
    assert len(files) > 10
    unread = [
        f"{path.relative_to(SRC)}:{lineno}: {name}"
        for path in files
        for lineno, name in _unread_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert unread == []
