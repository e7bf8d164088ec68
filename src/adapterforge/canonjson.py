"""Canonical JSON rendering for descriptors, indexes, and reports.

One fixed encoding (sorted keys, ASCII, 2-space indent, trailing
newline) so equal values always produce identical bytes; fingerprints
and golden files depend on that. Journal lines use the same keys and
escaping with no whitespace, one value per line.
"""

from __future__ import annotations

import json
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


def fraction_from_text(text: str) -> Fraction:
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den or "1"))
