import numpy as np
import pytest

from sgs import maxflow
from sgs.maxflow import Dinic, min_cut

INT32_MAX = 2**31 - 1


def test_textbook_instance():
    # classic 6-node network with max flow 5
    net = Dinic(6)
    for u, v, c in [(0, 1, 3), (0, 2, 3), (1, 2, 2), (1, 3, 3),
                    (2, 4, 2), (3, 4, 4), (3, 5, 2), (4, 5, 3)]:
        net.add_edge(u, v, c)
    assert net.max_flow(0, 5) == 5
    side = set(net.min_cut_source_side(0))
    assert 0 in side and 5 not in side
    # cut capacity across the side equals the flow value
    cut = sum(c for u, v, c in [(0, 1, 3), (0, 2, 3), (1, 2, 2), (1, 3, 3),
                                (2, 4, 2), (3, 4, 4), (3, 5, 2), (4, 5, 3)]
              if u in side and v not in side)
    assert cut == 5


def test_bidirected_arcs_and_big_integers():
    big = 10 ** 30
    net = Dinic(4)
    net.add_edge(0, 1, big)
    net.add_edge(1, 2, big // 2, big // 2)
    net.add_edge(2, 3, big)
    assert net.max_flow(0, 3) == big // 2


def test_disconnected_sink():
    net = Dinic(3)
    net.add_edge(0, 1, 7)
    assert net.max_flow(0, 2) == 0
    assert set(net.min_cut_source_side(0)) == {0, 1}


def test_random_against_matrix_oracle():
    rng = np.random.default_rng(9)
    for _ in range(30):
        n = int(rng.integers(2, 8))
        cap = rng.integers(0, 6, size=(n, n))
        np.fill_diagonal(cap, 0)
        net = Dinic(n)
        for i in range(n):
            for j in range(n):
                if cap[i, j]:
                    net.add_edge(i, j, int(cap[i, j]))
        flow = net.max_flow(0, n - 1)
        # oracle: minimum over all cuts separating 0 from n-1
        best = None
        for mask in range(1 << n):
            if mask & 1 and not (mask >> (n - 1)) & 1:
                value = sum(int(cap[i, j]) for i in range(n) for j in range(n)
                            if (mask >> i) & 1 and not (mask >> j) & 1)
                best = value if best is None else min(best, value)
        assert flow == best


def _network(rng, kind, n):
    """Seeded random arcs on ``n`` nodes, source 0 and sink n-1; some
    arcs run both ways and one small arc is given twice.  ``kind`` sets
    the capacities on one side of the int32 cutover or the other."""
    arcs = {}
    for _ in range(3 * n):
        u, v = (int(x) for x in rng.choice(n, 2, replace=False))
        arcs[u, v] = int(rng.integers(0, 20))
    if kind == "int32_max":  # an inner arc at the limit, one way only
        arcs.pop((2, 1), None)
        arcs[1, 2] = INT32_MAX
    elif kind == "wide_source":  # every arc fits, the source total does not
        for v in range(1, n):
            arcs[0, v] = 2**30 + int(rng.integers(0, 2**29))
    elif kind == "wide_arc":  # scipy truncates this to flow 0
        arcs[1, 2] = 2**40
    elif kind == "wide_pair":  # a residual of c(u,v) + c(v,u) wraps int32
        arcs[1, 2] = arcs[2, 1] = INT32_MAX
    twice = next((u, v, c) for (u, v), c in arcs.items() if c < 20)
    tails, heads, caps = (list(x) for x in zip(*[(u, v, c) for (u, v), c
                                                 in arcs.items()], twice))
    return tails, heads, caps


def _cut_value(tails, heads, caps, side):
    inside = set(side)
    return sum(c for u, v, c in zip(tails, heads, caps)
               if u in inside and v not in inside)


def _smallest_min_cut_side(n, tails, heads, caps):
    """By enumeration: the intersection of all minimum source sides."""
    sides, best = [], None
    for mask in range(1, 1 << (n - 1), 2):
        side = [x for x in range(n) if mask >> x & 1]
        value = _cut_value(tails, heads, caps, side)
        if best is None or value < best:
            sides, best = [], value
        if value == best:
            sides.append(set(side))
    return sorted(set.intersection(*sides))


@pytest.mark.parametrize("kind, narrow", [
    ("small", True), ("int32_max", True),
    ("wide_source", False), ("wide_arc", False), ("wide_pair", False)])
def test_min_cut_backends_agree_across_int32_cutover(monkeypatch, kind,
                                                     narrow):
    solved = []

    def spy(matrix, s, t):
        solved.append(matrix)
        return scipy_cut(matrix, s, t)

    scipy_cut = maxflow._scipy_cut
    monkeypatch.setattr(maxflow, "_scipy_cut", spy)
    rng = np.random.default_rng(sum(map(ord, kind)))
    # 4-8 nodes are checked against enumeration; 170-230 nodes give
    # enough arcs for min_cut to consider scipy at all
    for n in [*rng.integers(4, 9, 20), *rng.integers(170, 231, 5)]:
        n = int(n)
        tails, heads, caps = _network(rng, kind, n)
        s, t = 0, n - 1
        flow, side = maxflow._dinic_cut(n, tails, heads, caps, s, t)
        assert _cut_value(tails, heads, caps, side) == flow
        if n < 9:
            assert side == _smallest_min_cut_side(n, tails, heads, caps)
        matrix = maxflow._int32_matrix(n, tails, heads, caps, s, t)
        assert (matrix is not None) == narrow
        if narrow:
            assert scipy_cut(matrix, s, t) == (flow, side)
        del solved[:]
        assert min_cut(n, tails, heads, caps, s, t) == side
        large = len(caps) >= maxflow._SCIPY_MIN_ARCS
        assert len(solved) == (narrow and large)
        assert large == (n > 8)


def test_min_cut_rejects_negative_capacity():
    with pytest.raises(ValueError, match="non-negative"):
        min_cut(3, [0, 1], [1, 2], [4, -1], 0, 2)
