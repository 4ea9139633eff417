"""Property-based tests, deterministic: ``derandomize=True`` and a fixed
example budget, so every run draws the same examples."""
import json
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from sgs import (Graph, Potential, cheeger, maxflow,  # noqa: E402
                 sparsity_flow)
from sgs.graphio import canonical_json  # noqa: E402
from sgs.sparseness import _RatioSearch  # noqa: E402

from helpers import (dinic_reference, smallest_min_cut_side,  # noqa: E402
                     whole_network_cuts)

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


@st.composite
def _pendant_graphs(draw):
    """A graph on 1-12 vertices: a random forest (lone edges and
    isolated vertices included) with 0-3 chords, deficits of 0-2."""
    n = draw(st.integers(1, 12))
    # most vertices hang from an earlier one; the others start a tree
    edges = {(draw(st.integers(0, x - 1)), x) for x in range(1, n)
             if draw(st.integers(0, 3))}
    for _ in range(draw(st.integers(0, 3))):
        u, v = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    internal = Graph(n, sorted(edges)).internal_degree
    deficit = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    return Graph(n, sorted(edges), host_degree=internal + np.array(deficit))


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(_pendant_graphs(), st.data())
def test_folded_step_is_the_whole_cut(graph, data):
    # one step: small weights tie at -unit, 0 and unit, where the strict
    # rule decides; wide ones take Python-integer capacities
    n = graph.vertex_count
    weight = st.integers(-4, 4) | st.integers(-2**70, 2**70)
    w = np.array(data.draw(st.lists(weight, min_size=n, max_size=n)),
                 dtype=object)
    unit = data.draw(st.sampled_from([0, 1, 2, 3, 2**64]))
    folded = _RatioSearch(graph, Potential.zero(graph))._side(w, unit)
    with whole_network_cuts():
        whole = _RatioSearch(graph, Potential.zero(graph))._side(w, unit)
    assert folded.tolist() == whole.tolist()


@PROPERTY
@given(_pendant_graphs(), st.data())
def test_folded_search_gives_the_whole_network_certificates(graph, data):
    # the k_min grid, the threshold and the Cheeger constant, witnesses
    # included, with zero, integer and float q
    n = graph.vertex_count
    values = data.draw(st.sampled_from([
        st.just(0.0), st.integers(-2, 3).map(float),
        st.floats(-2.0, 3.0)]).flatmap(
            lambda value: st.lists(value, min_size=n, max_size=n)))
    q = Potential(values)

    def certificates():
        return (sparsity_flow(graph, q, (0, 0.5, 1, 2)),
                cheeger(graph, Potential(np.abs(q.values))))

    folded = certificates()
    with whole_network_cuts():
        assert certificates() == folded
