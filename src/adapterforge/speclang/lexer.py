"""Tokenizer for the spec language.

One compiled pattern, run once over the source by `findall`, yields the
token texts. Each match is a run of whitespace and `//` comments
followed by one token, one error character, or the end of the text,
which gives a final `""`. A string token keeps its quotes, so it never
equals a keyword, a punctuator or the end. Lexical classes are ASCII
(docs/spec-language.md); a non-ASCII character outside a string literal
or comment is an unexpected character.

Tokens carry no positions. `position` re-scans the text to turn a token
index into its line and column, and is called only to report an error.
"""

from __future__ import annotations

import itertools
import re

from .errors import E_SYNTAX, ParseError

_UNESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t", "r": "\r"}
_ESCAPE_RE = re.compile(r"\\(.)")

# Number prefixes that are errors rather than a shorter token.
_BAD_NUMBER = r"-?[0-9]+\.(?![0-9])"
_BAD_EXPONENT = r"-?[0-9]+(?:\.[0-9]+)?[eE](?![+-]?[0-9])"
_MALFORMED_RE = re.compile(f"({_BAD_NUMBER})|{_BAD_EXPONENT}")
# A `"` that opens no string, up to an escape that is not one.
_BAD_ESCAPE_RE = re.compile(r'"(?:[^"\\\n]|\\[\\"ntr])*\\(?![\\"ntr])')

# Group 1 is a token: identifier, punctuator, string or number. Group 2
# is an error character. The malformed-number guard sits on the number
# alternative alone: its shapes start with a digit or `-` and a digit,
# where no other token can start. Something matches after every skip
# (a character or the end), so the skip never backtracks.
_TOKEN_RE = re.compile(
    r"""
    [ \t\r\n]*(?://[^\n]*[ \t\r\n]*)*
    (?:
        ( [A-Za-z_][A-Za-z0-9_]*
        | ->|>=|[{}()<>,:=.@*]
        | "(?:[^"\\\n]|\\[\\"ntr])*"
        | (?!""" + _BAD_NUMBER + "|" + _BAD_EXPONENT + r""")
          -?[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?
        )
      | (.)
      | \Z
    )
    """,
    re.VERBOSE | re.DOTALL,
)


def _strip_bom(text: str) -> str:
    return text[1:] if text.startswith("\ufeff") else text


def tokenize(text: str) -> list[str]:
    """Token texts of `text`, ending in one `""`; E_SYNTAX at the first
    stray character or malformed literal."""
    text = _strip_bom(text)
    matches = _TOKEN_RE.findall(text)
    tokens = [token for token, error in matches if not error]
    if len(tokens) < len(matches):
        raise _lexical_error(text)
    # After a trailing skip the end matches once more, empty.
    if len(tokens) > 1 and not tokens[-2]:
        tokens.pop()
    return tokens


def position(text: str, index: int) -> tuple[int, int]:
    """1-based `(line, column)` of token `index` of `text`; the end of
    the text for the final `""`."""
    text = _strip_bom(text)
    m = next(itertools.islice(_TOKEN_RE.finditer(text), index, None))
    return _line_col(text, m.start(1) if m.group(1) else m.end())


def end_position(text: str) -> tuple[int, int]:
    """1-based `(line, column)` just past the end of `text`, counted as
    `position` counts."""
    text = _strip_bom(text)
    return _line_col(text, len(text))


def unquote(token: str) -> str:
    """The value of a string token."""
    body = token[1:-1]
    if "\\" in body:
        body = _ESCAPE_RE.sub(lambda e: _UNESCAPES[e.group(1)], body)
    return body


def _line_col(text: str, offset: int) -> tuple[int, int]:
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _lexical_error(text: str) -> ParseError:
    """The error for the first error character of `text`."""
    start = next(m for m in _TOKEN_RE.finditer(text) if m.group(2)).start(2)
    malformed = _MALFORMED_RE.match(text, start)
    if malformed:
        message = "malformed number" if malformed.group(1) else "malformed exponent"
    elif text[start] == "-":
        message = "stray '-'"
    elif text[start] == '"':
        message = "bad string escape" if _BAD_ESCAPE_RE.match(text, start) else "unterminated string"
    else:
        message = f"unexpected character {text[start]!r}"
    return ParseError(E_SYNTAX, message, *_line_col(text, start))
