"""`canonjson.dumps` against `json.dumps` with the canonical settings,
the encoder it replaces, on values of every JSON kind and on values
`json` refuses."""

from __future__ import annotations

import json

import hypothesis.strategies as st
from hypothesis import example, given, settings

from adapterforge import canonjson

# Any code point, lone surrogates included.
_TEXT = st.text(
    st.characters(min_codepoint=0, max_codepoint=0x7F)
    | st.characters()
    | st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF),
    max_size=8,
)
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(10**400), 10**400)
    | st.floats()
    | _TEXT
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=24,
)


def _outcome(dumps, value):
    try:
        return dumps(value)
    except (TypeError, ValueError) as err:
        return type(err), str(err)


def _json(value) -> str:
    return json.dumps(value, sort_keys=True, ensure_ascii=True, indent=2) + "\n"


@given(value=_VALUES)
@example(value=[True, 1, False, 0, 1.0, -0.0, 1e300, float("nan"), float("inf"), float("-inf")])
@example(value={"café \ud800": ["", [], {}, ()], "": {"a": [[[()]]]}, "\x00\n": None})
@example(value=[10**4300])  # past int's decimal string limit
@example(value={"a": {1, 2}})
@settings(max_examples=600)
def test_dumps_matches_json(value):
    assert _outcome(canonjson.dumps, value) == _outcome(_json, value)


@given(value=st.dictionaries(_TEXT | st.integers() | st.floats() | st.booleans() | st.none(), _SCALARS, max_size=4))
@example(value={b"k": 1})
@example(value={(1,): 1})
def test_dumps_matches_json_on_keys_of_every_kind(value):
    assert _outcome(canonjson.dumps, value) == _outcome(_json, value)
