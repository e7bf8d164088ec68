"""Canonical JSON rendering for descriptors, indexes, and reports.

One fixed encoding (sorted keys, ASCII, 2-space indent, trailing
newline) so equal values always produce identical bytes; fingerprints
and golden files depend on that. Journal lines use the same keys and
escaping with no whitespace, one value per line.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Callable


def dumps(obj: Any) -> str:
    """`json.dumps(obj, sort_keys=True, ensure_ascii=True, indent=2)` and
    a newline. `json` indents through nested Python generators; this
    walk appends to one list and quotes strings with the same C escaper."""
    out: list[str] = []
    _encode(obj, out.append, "\n")
    out.append("\n")
    return "".join(out)


def _encode(obj: Any, emit: Callable[[str], Any], newline: str) -> None:
    if isinstance(obj, str):
        emit(_quote(obj))
    elif isinstance(obj, dict):
        if not obj:
            emit("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            if not isinstance(key, str):
                text = _scalar(key)
                if text is None:
                    raise TypeError(
                        f"keys must be str, int, float, bool or None, not {type(key).__name__}"
                    )
                key = text
            emit(sep)
            emit(_quote(key))
            emit(": ")
            _encode(value, emit, inner)
            sep = "," + inner
        emit(newline + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            emit("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for value in obj:
            emit(sep)
            _encode(value, emit, inner)
            sep = "," + inner
        emit(newline + "]")
    else:
        text = _scalar(obj)
        if text is None:
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        emit(text)


def _scalar(value: Any) -> str | None:
    """The text `json` gives None, a bool, an int or a float; None for
    any other value."""
    if value is None:
        return "null"
    if value is True or value is False:
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if math.isinf(value):
            return "Infinity" if value > 0 else "-Infinity"
        return float.__repr__(value)
    return None


def dump_bytes(obj: Any) -> bytes:
    return dumps(obj).encode("utf-8")


def dump_line(obj: Any) -> bytes:
    text = json.dumps(obj, sort_keys=True, ensure_ascii=True, separators=(",", ":"))
    return (text + "\n").encode("ascii")


def loads(text: str | bytes) -> Any:
    return json.loads(text)


def fraction_to_text(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


_FRACTION_RE = re.compile(r"(-?[0-9]+)(?:/(-?[0-9]+))?")


def fraction_from_text(text: str) -> Fraction:
    """`n` or `n/d` in ASCII decimal, as in rules files, descriptors and
    reports; `int()` alone would also take Unicode digits, underscores,
    a `+` sign and surrounding blanks."""
    match = _FRACTION_RE.fullmatch(text)
    if match is None:
        raise ValueError(f"{text!r} is not a decimal fraction")
    num, den = match.groups()
    return Fraction(int(num), int(den or "1"))
