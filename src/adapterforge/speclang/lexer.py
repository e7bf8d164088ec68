"""Tokenizer for the spec language.

One compiled pattern scans the source in one pass: each match is a run
of whitespace and `//` comments, a token, or an error. Lexical classes
are ASCII (docs/spec-language.md); a non-ASCII character outside a
string literal or comment is an unexpected character. Every token
carries its 1-based line and column for error reporting, taken from
the offset of the last newline skipped.
"""

from __future__ import annotations

import re

from .errors import E_SYNTAX, ParseError

# Token kinds.
IDENT = "IDENT"
STRING = "STRING"
INT = "INT"
FLOAT = "FLOAT"
PUNCT = "PUNCT"  # one of { } ( ) < > , : = . @ * -> >=
EOF = "EOF"

_UNESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t", "r": "\r"}
_ESCAPE_RE = re.compile(r"\\(.)")

# Alternatives are tried in order, so each error alternative sits
# before the token it would otherwise be cut short into.
_TOKEN_RE = re.compile(
    r"""
    (?P<SKIP>(?:[ \t\r\n]|//[^\n]*)+)
    | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<PUNCT>->|>=|[{}()<>,:=.@*])
    | (?P<STRING>"(?:[^"\\\n]|\\[\\"ntr])*")
    | (?P<BAD_NUMBER>-?[0-9]+\.(?![0-9]))
    | (?P<BAD_EXPONENT>-?[0-9]+(?:\.[0-9]+)?[eE](?![+-]?[0-9]))
    | (?P<FLOAT>-?[0-9]+(?:\.[0-9]+(?:[eE][+-]?[0-9]+)?|[eE][+-]?[0-9]+))
    | (?P<INT>-?[0-9]+)
    | (?P<STRAY_MINUS>-)
    | (?P<BAD_STRING>")
    | (?P<BAD_CHAR>.)
    """,
    re.VERBOSE | re.DOTALL,
)

_PLAIN = frozenset({IDENT, PUNCT, INT, FLOAT})
_ERRORS = {
    "BAD_NUMBER": "malformed number",
    "BAD_EXPONENT": "malformed exponent",
    "STRAY_MINUS": "stray '-'",
}


class Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col

    def is_punct(self, text: str) -> bool:
        return self.kind == PUNCT and self.text == text

    def is_ident(self, text: str | None = None) -> bool:
        return self.kind == IDENT and (text is None or self.text == text)


def tokenize(text: str) -> list[Token]:
    """Turn source text into tokens, raising E_SYNTAX on stray bytes."""
    if text.startswith("﻿"):
        text = text[1:]
    tokens: list[Token] = []
    append = tokens.append
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "SKIP":
            newlines = text.count("\n", m.start(), m.end())
            if newlines:
                line += newlines
                line_start = text.rindex("\n", m.start(), m.end()) + 1
            continue
        col = m.start() - line_start + 1
        if kind in _PLAIN:
            append(Token(kind, m.group(), line, col))
        elif kind == STRING:
            body = m.group()[1:-1]
            if "\\" in body:
                body = _ESCAPE_RE.sub(lambda e: _UNESCAPES[e.group(1)], body)
            append(Token(STRING, body, line, col))
        elif kind == "BAD_STRING":
            raise _string_error(text, m.start(), line, col)
        else:
            message = _ERRORS.get(kind) or f"unexpected character {m.group()!r}"
            raise ParseError(E_SYNTAX, message, line, col)
    append(Token(EOF, "", line, len(text) - line_start + 1))
    return tokens


def _string_error(text: str, start: int, line: int, col: int) -> ParseError:
    """The error for a `"` at `start` that opens no well-formed string."""
    i = start + 1
    while i < len(text) and text[i] != "\n":
        if text[i] == "\\":
            if text[i + 1 : i + 2] not in _UNESCAPES:
                return ParseError(E_SYNTAX, "bad string escape", line, col)
            i += 2
        else:
            i += 1
    return ParseError(E_SYNTAX, "unterminated string", line, col)
