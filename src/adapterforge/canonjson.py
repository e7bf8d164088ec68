"""Canonical JSON rendering for descriptors, indexes, and reports.

One fixed encoding (sorted keys, ASCII, 2-space indent, trailing
newline) so equal values always produce identical bytes; fingerprints
and golden files depend on that. Journal lines use the same keys and
escaping with no whitespace, one value per line.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Any


def dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, ensure_ascii=True, indent=2) + "\n"


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
