"""adapterforge depends on the standard library alone
(`dependencies = []` in pyproject.toml): every absolute import in the
package names a standard-library module or the package itself."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "adapterforge"
ALLOWED = set(sys.stdlib_module_names) | {"__future__", "adapterforge"}


def _absolute_imports(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_package_imports_only_the_standard_library():
    files = sorted(SRC.rglob("*.py"))
    assert len(files) > 10
    violations = [
        f"{path.relative_to(SRC)}:{lineno}: {name}"
        for path in files
        for lineno, name in _absolute_imports(path)
        if name.partition(".")[0] not in ALLOWED
    ]
    assert violations == []
