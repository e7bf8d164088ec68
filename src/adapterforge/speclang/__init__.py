"""Specification language: model, parser, canonical serializer, validator."""

from types import ModuleType as _ModuleType

from .errors import (
    E_BAD_CONSTRAINT,
    E_BAD_VERSION,
    E_DUP_NAME,
    E_DUP_USE,
    E_NO_CONCEPT,
    E_SYNTAX,
    AdapterForgeError,
    ParseError,
    Violation,
)
from .model import (
    ANY_VERSION,
    BOOL,
    BYTES,
    F64,
    I32,
    I64,
    PROVIDED,
    REQUIRED,
    STRING,
    UNIT,
    ComponentSpec,
    ConceptId,
    Connection,
    InterfaceSpec,
    Literal,
    MetaEntry,
    OperationSig,
    ParamSig,
    ProjectSpec,
    SemType,
    UseDecl,
    VersionConstraint,
    format_float,
    format_version,
    list_of,
    parse_version,
)
from .parser import parse_any, parse_component, parse_project
from .serializer import serialize
from .validate import validate

# Every public name bound above; the submodules are not API.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
