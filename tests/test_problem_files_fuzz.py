"""Fuzzed problem files: a damaged file is a QfitError, never a crash.

Each example starts from a valid problem dict and damages it the ways a
hand-edited or cut-off file can be damaged: a key dropped, a value
swapped for JSON of another type, a list truncated, a scale made zero,
negative or non-finite, one element of an [re, im] pair replaced by a
bool, a string, null, a nested list, an integer too large for a float or
NaN.  ``problem_from_json`` must then either return a problem whose row
count matches its y vector, or raise a QfitError.  Arbitrary JSON values,
given to the matrix, vector and problem loaders directly, must each give
a result or a QfitError.
These are hypothesis property tests; the module is skipped where
hypothesis is not installed.
"""

import copy
import math
from collections.abc import Hashable

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qfit.exceptions import QfitError  # noqa: E402
from qfit.linalg import matrix_from_json, vector_from_json  # noqa: E402
from qfit.problems import (  # noqa: E402
    ProblemSpec,
    generate_problem,
    problem_from_json,
    problem_to_json,
)

# One file per basis record: "random" stores a custom basis, "poly" and
# "fourier" a functional one with its m.
VALID = [
    problem_to_json(generate_problem(ProblemSpec(n=4, m=2, kind=kind), seed=3))
    for kind in ("random", "poly", "fourier")
]

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
BAD_SCALES = st.sampled_from([0.0, -0.0, -1.0, math.inf, -math.inf, math.nan])
# The nested list is held as a tuple and built anew on every draw: damage edits
# the file in place, so a list held here would be shared by every draw and
# changed by later damage, and data generation would depend on earlier examples.
PAIR_ELEMENTS = st.sampled_from([True, False, "1", None, (1.0, 0.0), 10**400, math.nan]).map(
    lambda value: list(value) if isinstance(value, tuple) else value
)


def _paths(node, prefix=()):
    """Every key path below ``node``."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _damage(obj, data):
    """Apply one drawn damage to ``obj`` in place."""
    paths = list(_paths(obj))
    kind = data.draw(st.sampled_from(["drop", "swap", "truncate", "scale", "element"]))
    if kind == "element":
        # An [re, im] pair is a two-element list inside a list.
        paths = [
            p for p in paths
            if isinstance(_get(obj, p[:-1]), list)
            and isinstance(_get(obj, p), list) and len(_get(obj, p)) == 2
        ]
        if paths:
            pair = _get(obj, data.draw(st.sampled_from(paths)))
            pair[data.draw(st.integers(0, 1))] = data.draw(PAIR_ELEMENTS)
        return
    if kind == "scale":
        scales = obj.get("normScale")
        if isinstance(scales, list) and scales:
            slot = data.draw(st.integers(0, len(scales) - 1))
            scales[slot] = data.draw(BAD_SCALES)
        return
    if kind == "truncate":
        paths = [p for p in paths if isinstance(_get(obj, p), list) and _get(obj, p)]
    if not paths:
        return
    path = data.draw(st.sampled_from(paths))
    parent, key = _get(obj, path[:-1]), path[-1]
    if kind == "drop":
        del parent[key]
    elif kind == "swap":
        old = parent[key]
        parent[key] = data.draw(JSON_VALUES.filter(lambda v: type(v) is not type(old)))
    else:
        parent[key] = parent[key][: data.draw(st.integers(0, len(parent[key]) - 1))]


def _get(obj, path):
    for key in path:
        obj = obj[key]
    return obj


# A loaded host can trip the too_slow health check; print_blob prints a
# failing example's reproduce_failure blob, so a failure can be replayed.
@settings(max_examples=300, deadline=None, print_blob=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(range(len(VALID))), st.integers(1, 3), st.data())
def test_damaged_problem_file_loads_consistently_or_raises_qfit_error(which, count, data):
    obj = copy.deepcopy(VALID[which])
    for _ in range(count):
        _damage(obj, data)
    try:
        problem = problem_from_json(obj)
    except QfitError:
        return
    assert problem.n == problem.y.size
    assert all(math.isfinite(c) and c > 0 for c in (problem.scale_f, problem.scale_y))


# Objects take the keys of matrix and problem objects often, or a matrix's
# counts with any payload, so that draws get past the loaders' first
# lookups.  Integers are small or large: a pair of large counts must be
# refused by the loaders' size bound before anything is allocated.
KEYS = ("rows", "cols", "entries", "triplets", "schemaVersion", "dataSet", "x", "y",
        "basis", "kind", "m", "designMatrix", "yVector", "normScale", "seed")
INTEGERS = st.integers(-2, 4) | st.sampled_from([30000, 2**31, 2**62, 10**400])
ANY_JSON = st.recursive(
    st.none() | st.booleans() | INTEGERS | st.floats() | st.text(max_size=4)
    | st.sampled_from(KEYS),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=4), inner, max_size=5)
    | st.fixed_dictionaries({"rows": INTEGERS, "cols": INTEGERS},
                            optional={"entries": inner, "triplets": inner}),
    max_leaves=12,
)


def _matrix(**payload):
    return {"rows": 1, "cols": 1, **payload}


@settings(max_examples=300, deadline=None, print_blob=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(ANY_JSON)
@example(_matrix(triplets=[[0, 0, "1", 0.0]]))
@example(_matrix(triplets=[[0, 0, None, 0.0]]))
@example(_matrix(triplets=5))
@example(_matrix(entries=5))
@example(_matrix(entries=[None]))
@example(_matrix(entries=[[1]]))
def test_loaders_return_or_raise_qfit_error_on_any_json(value):
    for load in (matrix_from_json, vector_from_json, problem_from_json):
        try:
            load(value)
        except QfitError:
            pass


def test_strategy_constants_hold_no_mutable_value():
    # A sampled value is handed out by reference on every draw.
    held = [
        (name, element)
        for name, strategy in sorted(globals().items())
        if isinstance(strategy, st.SearchStrategy)
        for element in getattr(strategy, "elements", ())
        if not isinstance(element, Hashable)
    ]
    assert held == []


@pytest.mark.parametrize("which", range(len(VALID)))
def test_undamaged_files_load(which):
    problem = problem_from_json(copy.deepcopy(VALID[which]))
    assert problem.n == problem.y.size == 4
