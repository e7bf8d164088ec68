"""Error and violation types shared across the toolchain."""

from __future__ import annotations

from dataclasses import dataclass


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
