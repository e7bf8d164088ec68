"""adapterforge: mismatch detection and adapter generation for black-box components.

Parse component (`.cdl`) and project (`.pdl`) specifications, compare
required against provided interfaces by semantic concept, classify the
mismatches, retrieve or generate bridging adapters from a
content-addressed pool, integrate them, and re-verify the result.
"""

__version__ = "0.1.0"

from .adapters import (
    AdapterSpec,
    OpMapping,
    emit_descriptor,
    emit_stub,
    generate_adapter,
    interpret_mapping,
    parse_descriptor,
)
from .analyser import (
    ConnectionVerdict,
    Demand,
    MatchReport,
    Mismatch,
    OperationMatch,
    analyse,
    match_operation,
    verify,
)
from .aslt import (
    Aslt,
    AsltNode,
    FoldPattern,
    FoldView,
    attach_meta,
    build_aslt,
    build_component_aslt,
    dump,
    fold,
    traverse,
)
from .conversions import ConversionRule, ConversionTable, MatchConfig, TypePort, load_rules
from .linkage import (
    WorkflowResult,
    integrate,
    run_workflow,
)
from .pool import (
    PoolQuery,
    init_pool,
    pool_add,
    pool_get,
    pool_list,
    pool_query,
    pool_verify,
)
from .speclang import (
    ComponentSpec,
    ConceptId,
    Connection,
    InterfaceSpec,
    OperationSig,
    ParamSig,
    ParseError,
    ProjectSpec,
    SemType,
    Violation,
    parse_any,
    parse_component,
    parse_project,
    serialize,
    validate,
)

__all__ = [
    "AdapterSpec",
    "Aslt",
    "AsltNode",
    "ComponentSpec",
    "ConceptId",
    "Connection",
    "ConnectionVerdict",
    "ConversionRule",
    "ConversionTable",
    "Demand",
    "FoldPattern",
    "FoldView",
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
    "attach_meta",
    "build_aslt",
    "build_component_aslt",
    "dump",
    "emit_descriptor",
    "emit_stub",
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
]
