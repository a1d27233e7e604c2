"""Artifact text against json.dumps, and exact [re, im] pair round trips.

``problems.artifact_text`` must give ``json.dumps(obj, indent=2,
sort_keys=True) + "\\n"`` byte for byte over any JSON tree, and the same
TypeError with the same message wherever ``json.dumps`` raises one.
``linalg.vector_to_json`` and ``vector_from_json`` must round-trip every
complex entry bit for bit, signed zeros and subnormals included.
These are hypothesis property tests; the module is skipped where
hypothesis is not installed.
"""

import json
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qfit.linalg import vector_from_json, vector_to_json  # noqa: E402
from qfit.problems import artifact_text  # noqa: E402

SPECIAL_FLOATS = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1.7976931348623157e308,
     math.inf, -math.inf, math.nan]
)
FLOATS = st.floats() | SPECIAL_FLOATS
# Entries of a pair: exact floats, which take the template path, and
# np.float64, a float subclass that json.dumps renders as float.__repr__.
PAIR_ENTRIES = FLOATS | FLOATS.map(np.float64)
PAIRS = st.lists(
    st.tuples(PAIR_ENTRIES, PAIR_ENTRIES).flatmap(lambda p: st.sampled_from([list(p), p])),
    max_size=5,
)
# Values json.dumps refuses with a TypeError.
NOT_JSON = st.sampled_from([np.int64(3), np.bool_(True), 1j, b"x", frozenset()])
KEYS = st.text(max_size=4) | st.sampled_from(["é", "ключ", "☃", "a\nb", '"'])
LEAVES = (
    st.none() | st.booleans() | st.integers() | FLOATS | st.text(max_size=4) | PAIRS
)


def _trees(leaves):
    return st.recursive(
        leaves,
        lambda inner: st.lists(inner, max_size=3)
        | st.lists(inner, max_size=3).map(tuple)
        | st.dictionaries(KEYS, inner, max_size=3)
        # Dicts whose keys json.dumps converts: ints, floats, bools and None.
        | st.dictionaries(st.integers(), inner, max_size=2)
        | st.dictionaries(FLOATS, inner, max_size=2)
        | st.dictionaries(st.booleans(), inner, max_size=2)
        | st.dictionaries(st.none(), inner, max_size=1),
        max_leaves=8,
    )


def _reference(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


@settings(max_examples=400, deadline=None)
@given(_trees(LEAVES))
def test_artifact_text_is_json_dumps_byte_for_byte(obj):
    assert artifact_text(obj) == _reference(obj)


@settings(max_examples=200, deadline=None)
@given(
    _trees(LEAVES | NOT_JSON)
    | st.dictionaries(KEYS | st.integers() | st.tuples(st.integers()), LEAVES, max_size=3)
)
def test_artifact_text_raises_where_json_dumps_does(obj):
    try:
        expected = _reference(obj)
    except TypeError as exc:
        with pytest.raises(TypeError) as caught:
            artifact_text(obj)
        assert str(caught.value) == str(exc)
    else:
        assert artifact_text(obj) == expected


def test_empty_containers_and_non_ascii_keys():
    obj = {"": [], "é": {}, "ключ": (), "x": [[-0.0, 5e-324]], "y": [(math.nan, -math.inf)]}
    assert artifact_text(obj) == _reference(obj)


FINITE = st.floats(allow_nan=False, allow_infinity=False) | SPECIAL_FLOATS.filter(math.isfinite)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.builds(complex, FINITE, FINITE), min_size=1, max_size=8))
def test_vector_round_trip_is_bit_exact(values):
    v = np.array(values, dtype=complex)
    for vec in (v, v[::-1]):  # a reversed view is not contiguous
        direct = vector_from_json(vector_to_json(vec))
        via_text = vector_from_json(json.loads(artifact_text(vector_to_json(vec))))
        for back in (direct, via_text):
            np.testing.assert_array_equal(back.view(np.uint64), vec.copy().view(np.uint64))
