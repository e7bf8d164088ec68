"""adapterforge: mismatch detection and adapter generation for black-box components.

Parse component (`.cdl`) and project (`.pdl`) specifications, compare
required against provided interfaces by semantic concept, classify the
mismatches, retrieve or generate bridging adapters from a
content-addressed pool, integrate them, and re-verify the result.

The public names below load on first access (PEP 562): `import
adapterforge` loads no layer, and `adapterforge.analyse` or `from
adapterforge import analyse` imports the analyser, and only it. Each
access reads the defining module's current binding.
"""

from importlib import import_module

__version__ = "0.1.0"

# Public name -> the module that defines it.
_MODULE_OF = {
    name: module
    for module, names in (
        (
            "adapters",
            (
                "AdapterSpec",
                "OpMapping",
                "emit_descriptor",
                "generate_adapter",
                "interpret_mapping",
                "parse_descriptor",
            ),
        ),
        (
            "analyser",
            (
                "ConnectionVerdict",
                "Demand",
                "MatchReport",
                "Mismatch",
                "OperationMatch",
                "analyse",
                "match_operation",
                "verify",
            ),
        ),
        (
            "aslt",
            (
                "AsltNode",
                "FoldPattern",
                "build_aslt",
                "build_component_aslt",
                "dump",
                "fold",
                "traverse",
            ),
        ),
        ("conversions", ("ConversionRule", "ConversionTable", "MatchConfig", "TypePort", "load_rules")),
        ("linkage", ("WorkflowResult", "integrate", "run_workflow")),
        (
            "pool",
            ("PoolQuery", "init_pool", "pool_add", "pool_get", "pool_list", "pool_query", "pool_verify"),
        ),
        (
            "speclang",
            (
                "AdapterForgeError",
                "ComponentSpec",
                "ConceptId",
                "Connection",
                "InterfaceSpec",
                "OperationSig",
                "ParamSig",
                "ParseError",
                "ProjectSpec",
                "SemType",
                "Violation",
                "parse_any",
                "parse_component",
                "parse_project",
                "serialize",
                "validate",
            ),
        ),
    )
    for name in names
}


def __getattr__(name: str) -> object:
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})


__all__ = sorted([*_MODULE_OF, "__version__"])
