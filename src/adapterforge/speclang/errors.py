"""Error and violation types shared across the toolchain, and the
typed field access that stored JSON documents are decoded through."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


class AdapterForgeError(Exception):
    """Base class: every tool error carries a stable code."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


class ParseError(AdapterForgeError):
    """Syntax or parse-level invariant violation, with 1-based position."""

    def __init__(self, code: str, message: str, line: int, col: int):
        super().__init__(code, f"{message} (line {line}, column {col})")
        self.reason = message  # the message without its position
        self.line = line
        self.col = col


# Parse error codes.
E_SYNTAX = "E_SYNTAX"
E_DUP_NAME = "E_DUP_NAME"
E_NO_CONCEPT = "E_NO_CONCEPT"
E_BAD_VERSION = "E_BAD_VERSION"
E_DUP_USE = "E_DUP_USE"
E_BAD_CONSTRAINT = "E_BAD_CONSTRAINT"

# A spec, rules or `pool add` input file that cannot be read, or a spec
# file that does not parse, named by its path; the mapping interpreter
# reuses it for a value that does not parse.
E_PARSE = "E_PARSE"

# A project `uses` entry that no component satisfies.
E_UNRESOLVED = "E_UNRESOLVED"

# A stored descriptor or report that does not decode.
E_DESCRIPTOR = "E_DESCRIPTOR"


def json_field(doc: dict, key: str, kind: type | tuple[type, ...], optional: bool = False) -> Any:
    """`doc[key]`, which must hold the given JSON type (a bool is never
    a number); a missing or mistyped field is E_DESCRIPTOR."""
    if key not in doc:
        if optional:
            return None
        raise AdapterForgeError(E_DESCRIPTOR, f"descriptor field {key!r} is missing")
    value = doc[key]
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise AdapterForgeError(
            E_DESCRIPTOR, f"descriptor field {key!r} has type {type(value).__name__}"
        )
    return value


def json_objects(doc: dict, key: str) -> list[dict]:
    """`doc[key]` as a list of JSON objects, else E_DESCRIPTOR."""
    items = json_field(doc, key, list)
    if not all(isinstance(item, dict) for item in items):
        raise AdapterForgeError(E_DESCRIPTOR, f"descriptor field {key!r} holds a non-object")
    return items


@dataclass(frozen=True)
class Violation:
    """A semantic defect found by the validator; data, not an exception."""

    code: str
    location: str
    message: str


# Validator violation codes.
V_CONCEPT_DEPTH = "V_CONCEPT_DEPTH"
V_LIST_DEPTH = "V_LIST_DEPTH"
V_DEFAULT_TYPE = "V_DEFAULT_TYPE"
V_DEFAULT_RANGE = "V_DEFAULT_RANGE"
V_UNIT_TYPE = "V_UNIT_TYPE"
