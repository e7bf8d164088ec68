"""The public API lists in `adapterforge.__all__` and
`adapterforge.speclang.__all__` match what the two `__init__.py` files
export: `adapterforge`'s name -> module table (its names load on first
access) and `adapterforge.speclang`'s imports. Every listed name
resolves, and every public class or function exported there is listed,
so removing a name from one place and not the other fails here. Both
lists are also spelled out below, so every change to the public API is
an edit to this file."""

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


# The public API, spelled out: a name added to or removed from either
# package shows up as an edit here.
PUBLIC_API = {
    "adapterforge": [
        "AdapterForgeError",
        "AdapterSpec",
        "AsltNode",
        "ComponentSpec",
        "ConceptId",
        "Connection",
        "ConnectionVerdict",
        "ConversionRule",
        "ConversionTable",
        "Demand",
        "FoldPattern",
        "InterfaceSpec",
        "MatchConfig",
        "MatchReport",
        "Mismatch",
        "OpMapping",
        "OperationMatch",
        "OperationSig",
        "ParamSig",
        "ParseError",
        "PoolQuery",
        "ProjectSpec",
        "SemType",
        "TypePort",
        "Violation",
        "WorkflowResult",
        "__version__",
        "analyse",
        "build_aslt",
        "build_component_aslt",
        "dump",
        "emit_descriptor",
        "fold",
        "generate_adapter",
        "init_pool",
        "integrate",
        "interpret_mapping",
        "load_rules",
        "match_operation",
        "parse_any",
        "parse_component",
        "parse_descriptor",
        "parse_project",
        "pool_add",
        "pool_get",
        "pool_list",
        "pool_query",
        "pool_verify",
        "run_workflow",
        "serialize",
        "traverse",
        "validate",
        "verify",
    ],
    "adapterforge.speclang": [
        "ANY_VERSION",
        "AdapterForgeError",
        "BOOL",
        "BYTES",
        "ComponentSpec",
        "ConceptId",
        "Connection",
        "E_BAD_CONSTRAINT",
        "E_BAD_VERSION",
        "E_DUP_NAME",
        "E_DUP_USE",
        "E_NO_CONCEPT",
        "E_SYNTAX",
        "F64",
        "I32",
        "I64",
        "InterfaceSpec",
        "Literal",
        "MetaEntry",
        "OperationSig",
        "PROVIDED",
        "ParamSig",
        "ParseError",
        "ProjectSpec",
        "REQUIRED",
        "STRING",
        "SemType",
        "UNIT",
        "UseDecl",
        "VersionConstraint",
        "Violation",
        "format_float",
        "format_version",
        "list_of",
        "parse_any",
        "parse_component",
        "parse_project",
        "parse_version",
        "serialize",
        "validate",
    ],
}


@pytest.mark.parametrize("name", sorted(PACKAGES))
def test_public_api_is_the_pinned_list(name):
    assert PUBLIC_API[name] == sorted(PUBLIC_API[name])
    assert importlib.import_module(name).__all__ == PUBLIC_API[name]
