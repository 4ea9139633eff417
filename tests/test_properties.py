"""Property-based tests, deterministic: ``derandomize=True`` and a fixed
example budget, so every run draws the same examples."""
import json
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from sgs import maxflow  # noqa: E402
from sgs.graphio import canonical_json  # noqa: E402

from helpers import dinic_reference, smallest_min_cut_side  # noqa: E402

PROPERTY = settings(derandomize=True, max_examples=150, deadline=None,
                    database=None)

# edge cases beside hypothesis's own draws: signed zero, the smallest
# subnormal, a subnormal mid-range, the largest float
SPECIAL_FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, 2.5e-310,
                                  1.7976931348623157e308, 1e16, 1e-7])
KEYS = st.text() | st.sampled_from(["", "été", "\U0001d11e",
                                    " ", 'say "hi"', "a\\b", "\x00"])


def _values(floats):
    leaves = (st.none() | st.booleans() | st.integers()
              | st.integers(min_value=-2**300, max_value=2**300)
              | floats | SPECIAL_FLOATS | st.text()
              | st.sampled_from(["é", "\U0001d11e ", "\x7f"]))
    return st.recursive(
        leaves,
        lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                       | st.dictionaries(KEYS, inner)),
        max_leaves=25)


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=True) + "\n"


def _strict(node):
    """``node`` with each non-finite float as the string "inf", "-inf"
    or "nan", as reports write them."""
    if isinstance(node, dict):
        return {key: _strict(value) for key, value in node.items()}
    if isinstance(node, (list, tuple)):
        return [_strict(value) for value in node]
    if isinstance(node, float) and not math.isfinite(node):
        return str(float(node))
    return node


@PROPERTY
@given(_values(st.floats(allow_nan=False, allow_infinity=False)
               | st.floats(allow_nan=False, allow_infinity=False)
               .map(np.float64)))
def test_canonical_json_is_json_dumps(value):
    assert canonical_json(value) == _dumps(value)


@PROPERTY
@given(_values(st.floats() | st.floats().map(np.float64)))
def test_canonical_json_writes_non_finite_floats_as_strings(value):
    assert canonical_json(value) == _dumps(_strict(value))


@st.composite
def _networks(draw):
    """A network on 3-8 nodes, source 0 and sink n-1, whose arcs carry
    capacities of up to 80 bits, some of them parallel."""
    n = draw(st.integers(3, 8))
    node = st.integers(0, n - 1)
    arcs = draw(st.lists(st.tuples(node, node, st.integers(0, 2**80)
                                   | st.integers(0, 2**20)),
                         min_size=1, max_size=4 * n))
    arcs = [(u, v, c) for u, v, c in arcs if u != v] or [(0, n - 1, 1)]
    return (n, *map(list, zip(*arcs)))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(_networks(), st.sampled_from([1, 4, maxflow._SCIPY_MIN_ARCS]))
def test_rounds_with_contraction_are_dinic(network, floor):
    # at a width of 8 bits every wide network takes several rounds, and
    # the floor sends contracted networks back through them or to Dinic
    n, tails, heads, caps = network
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(maxflow, "_ROUND_BITS", 8)
        patch.setattr(maxflow, "_SCIPY_MIN_ARCS", floor)
        net = maxflow.cut_network(n, tails, heads, 0, n - 1)
        got = maxflow._cut(net, np.array(caps, dtype=object), sum(caps))
    assert got == dinic_reference(n, tails, heads, caps)
    assert got[1] == smallest_min_cut_side(n, tails, heads, caps)
