from fractions import Fraction

import numpy as np
import pytest

from sgs import maxflow
from sgs.maxflow import Dinic, cut_network, min_cut

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


def _dinic(n, tails, heads, caps):
    """Flow value and smallest source side by the public :class:`Dinic`,
    one arc pair per arc, source 0 and sink n-1."""
    net = Dinic(n)
    for u, v, c in zip(tails, heads, caps):
        net.add_edge(u, v, c)
    return net.max_flow(0, n - 1), net.min_cut_source_side(0)


def _load(network, caps):
    """The capacities ``caps`` as residuals on the network's pattern,
    parallel arcs added up, as :func:`min_cut` loads them."""
    r = np.zeros(len(network.indices), dtype=object)
    np.add.at(r, network.slot, np.array(caps, dtype=object))
    return r


def _spy(monkeypatch, name):
    """Record the arguments of every call to ``maxflow.<name>``."""
    calls = []
    original = getattr(maxflow, name)

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(maxflow, name, spy)
    return calls


def _spy_scipy(monkeypatch):
    """Record every matrix min_cut hands to scipy's maximum_flow."""
    import scipy.sparse.csgraph as csgraph
    solved = []
    maximum_flow = csgraph.maximum_flow

    def spy(matrix, s, t, method):
        solved.append(matrix)
        return maximum_flow(matrix, s, t, method=method)

    monkeypatch.setattr(csgraph, "maximum_flow", spy)
    return solved


@pytest.mark.parametrize("kind, narrow", [
    ("small", True), ("int32_max", True),
    ("wide_source", False), ("wide_arc", False), ("wide_pair", False)])
def test_min_cut_backends_agree_across_int32_cutover(monkeypatch, kind,
                                                     narrow):
    solved = _spy_scipy(monkeypatch)
    rounds_cut = maxflow._rounds_cut
    compiled = _spy(monkeypatch, "_rounds_cut")
    rng = np.random.default_rng(sum(map(ord, kind)))
    # 4-8 nodes are checked against enumeration; 170-230 nodes give
    # enough arcs for min_cut to take the compiled path
    for n in [*rng.integers(4, 9, 20), *rng.integers(170, 231, 5)]:
        n = int(n)
        tails, heads, caps = _network(rng, kind, n)
        s, t = 0, n - 1
        flow, side = _dinic(n, tails, heads, caps)
        assert _cut_value(tails, heads, caps, side) == flow
        if n < 9:
            assert side == _smallest_min_cut_side(n, tails, heads, caps)
        del solved[:]
        net = cut_network(n, tails, heads, s, t)
        assert rounds_cut(net, _load(net, caps)) == (flow, side)
        if narrow:  # a network that fits int32 takes one round
            assert len(solved) == 1
        del compiled[:]
        assert min_cut(net, caps) == side
        # the floor counts the arcs of nonzero capacity only
        large = np.count_nonzero(caps) >= maxflow._SCIPY_MIN_ARCS
        assert len(compiled) == large
        assert (len(caps) >= maxflow._SCIPY_MIN_ARCS) == (n > 8)


def _star(k, source_cap, sink_cap):
    """Source 0, sink k + 1, and k paths 0 -> i -> k + 1."""
    tails = [0] * k + list(range(1, k + 1))
    heads = list(range(1, k + 1)) + [k + 1] * k
    return k + 2, tails, heads, [source_cap] * k + [sink_cap] * k


def _reach(arcs, s):
    """The nodes reachable from ``s`` along the nonzero entries of the
    dense matrix ``arcs``."""
    seen, stack = {s}, [s]
    while stack:
        for v in np.flatnonzero(arcs[stack.pop()]).tolist():
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return sorted(seen)


def test_rounds_cut_at_narrow_width(monkeypatch):
    """The rounds at a width of 8 bits: 4-8-node networks take several
    rounds, every scaled network obeys the width rule, and each side is
    the smallest minimum cut."""
    bits = 8
    monkeypatch.setattr(maxflow, "_ROUND_BITS", bits)
    import scipy.sparse.csgraph as csgraph
    maximum_flow = csgraph.maximum_flow
    solved = []  # (scaled capacities, flow) of each round, dense

    def spy(matrix, s, t, method):
        result = maximum_flow(matrix, s, t, method=method)
        solved.append((matrix.toarray().astype(np.int64),
                       result.flow.toarray().astype(np.int64)))
        return result

    monkeypatch.setattr(csgraph, "maximum_flow", spy)
    handed_off = _spy(monkeypatch, "_dinic_cut")

    def check(n, tails, heads, caps, enumerate_sides=True):
        del solved[:], handed_off[:]
        net = cut_network(n, tails, heads, 0, n - 1)
        got = maxflow._rounds_cut(net, _load(net, caps))
        assert got == _dinic(n, tails, heads, caps)
        if enumerate_sides:
            assert got[1] == _smallest_min_cut_side(n, tails, heads, caps)
        # each round's known cut: the smaller trivial cut, then the side
        # the source reached in the previous round's scaled residual
        source = sum(c for u, c in zip(tails, caps) if u == 0)
        sink = sum(c for v, c in zip(heads, caps) if v == n - 1)
        side = [0] if source <= sink else list(range(n - 1))
        for c, f in solved:
            assert (c + c.T).max() < 2**bits
            outside = np.setdiff1d(np.arange(n), side)
            assert c[np.ix_(side, outside)].sum() < 2**bits
            side = _reach(c - f, 0)
        return len(solved), len(handed_off)

    rounds = []
    for kind in ("small", "int32_max", "wide_source", "wide_arc",
                 "wide_pair"):
        rng = np.random.default_rng(sum(map(ord, kind)))
        for n in rng.integers(4, 9, 20):
            rounds.append(check(int(n), *_network(rng, kind, int(n)))[0])
    assert max(rounds) >= 4
    # the clamp: an arc of 2**60 that no minimum cut crosses leaves the
    # width, and so the single round, to the flow of at most 5
    assert check(*_star(1, 2**60, 5)) == (1, 0)
    # a bidirected pair of 2**21 each way, clamped to 2**20 + 1: the
    # pair, not the single capacities or the known cut, sets the width
    x = 2**20
    assert check(4, [0, 1, 2, 2], [1, 2, 1, 3], [x, 2 * x, 2 * x, x]) == (2, 0)
    # 4 paths of 100: every pair fits 8 bits, but the flow of 400 does
    # not, so the known cut {s} sets the width
    assert check(*_star(4, 100, 100)) == (2, 0)
    # 12 saturated paths: the source arcs, clamped to 12c + 1, set the
    # width, the shifted sink arcs keep 4 bits, and each round lowers
    # the missing flow until the exact round
    c = 2**20 - 1
    assert check(*_star(12, 2**40, c)) == (7, 0)
    # 200 such paths: source arcs clamped to 200c + 1 shift the sink
    # arcs to 0, so the first round moves no flow and the residual goes
    # to Dinic
    assert check(*_star(200, 2**40, c), enumerate_sides=False) == (1, 1)


def test_min_cut_rejects_negative_capacity():
    # and every other malformed input, with one ValueError that names
    # the bad node before either path runs (600 arcs take the compiled
    # path, where scipy would raise its own errors)
    many = [0] * 599
    cases = [
        ((3, [0, 1], [1, 2], [4, -1], 0, 2), "non-negative"),
        ((3, [0, 1], [1, 2], [4, 1], 1, 1), "source and sink .* node 1$"),
        ((3, [0, 1], [1, 2], [4, 1], 0, 3), "^sink 3 is not a node"),
        ((3, [0, 1], [1, 2], [4, 1], -1, 2), "^source -1 is not a node"),
        ((3, [0, 5], [1, 2], [4, 1], 0, 2), "^arc tail 5 is not a node"),
        ((2, many + [0], many + [2], [1] * 600, 0, 1),
         "^arc head 2 is not a node"),
        ((2, many + [-2], many + [1], [1] * 600, 0, 1),
         "^arc tail -2 is not a node"),
    ]
    for (n, tails, heads, caps, s, t), message in cases:
        with pytest.raises(ValueError, match=message):
            min_cut(cut_network(n, tails, heads, s, t), caps)


def test_min_cut_rejects_non_integer_capacities():
    # 1.5 used to load as 1, and the cut of [1, 1] came back
    path = cut_network(3, [0, 1], [1, 2], 0, 2)
    for caps, bad in [([1.5, 1], "1.5"), (np.array([1.0, 1.0]), "1.0"),
                      ([Fraction(3, 2), 1], "Fraction"),
                      ([Fraction(2), 1], "Fraction"),
                      ([2**70, 0.5], "0.5"), (["4", "1"], "'4'"),
                      ([None, 1], "None")]:
        with pytest.raises(ValueError, match=f"integers, got .*{bad}"):
            min_cut(path, caps)
    many = cut_network(2, [0] * 600, [1] * 600, 0, 1)  # the compiled path
    with pytest.raises(ValueError, match="integers, got 1.0"):
        min_cut(many, [1] * 599 + [0.5])  # a float array, named by 1.0
    # integers of every width and dtype still load
    for caps in ([2, 1], np.array([2, 1], dtype=np.int32), [2**70, 1],
                 np.array([2**70, 1], dtype=object), [True, True]):
        assert min_cut(path, caps) == ([0] if caps[1] == caps[0] else [0, 1])


def test_scipy_returns_the_flow_on_a_symmetric_pattern(monkeypatch):
    # _rounds_cut reads scipy's flow data in place when the flow comes
    # back on the input's own pattern; scipy does so for a symmetric
    # pattern, explicit zeros included, and a scipy that stops doing so
    # fails here (every cut of the rounds would then end on Dinic)
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import maximum_flow
    handed_off = _spy(monkeypatch, "_dinic_cut")
    rng = np.random.default_rng(61)
    for kind in ("small", "int32_max"):
        n = 200
        tails, heads, caps = _network(rng, kind, n)
        net = cut_network(n, tails, heads, 0, n - 1)
        data = np.zeros(len(net.indices), dtype=np.int32)
        np.add.at(data, net.slot, caps)
        assert net.parallel and (data == 0).sum() > n  # explicit zeros
        flow = maximum_flow(csr_array((data, net.indices, net.indptr),
                                      shape=(n, n)), 0, n - 1,
                            method="dinic").flow
        assert np.array_equal(flow.indptr, net.indptr)
        assert np.array_equal(flow.indices, net.indices)
        assert np.count_nonzero(caps) >= maxflow._SCIPY_MIN_ARCS
        assert min_cut(net, caps) == _dinic(n, tails, heads, caps)[1]
        assert not handed_off


def test_scipy_flow_value_is_not_the_source_total():
    # the rounds size scipy's int32 network by a known cut, not by the
    # source and sink totals: here 16 source arcs of 2**31 - 1 sum past
    # int32 while the maximum flow, 16 * 5, does not.  A scipy that sums
    # the source capacities in int32 fails here
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import maximum_flow
    n, tails, heads, caps = _star(16, INT32_MAX, 5)
    net = cut_network(n, tails, heads, 0, n - 1)
    data = np.zeros(len(net.indices), dtype=np.int32)
    data[net.slot] = caps
    source_out = data[net.indptr[0]:net.indptr[1]]
    assert source_out.astype(np.int64).sum() > INT32_MAX
    result = maximum_flow(csr_array((data, net.indices, net.indptr),
                                    shape=(n, n)), 0, n - 1, method="dinic")
    assert result.flow_value == 80


def test_rounds_run_on_the_live_pairs(monkeypatch):
    # a k_min cut gives every vertex both terminal arcs, one of them at
    # capacity 0 both ways with its reverse: scipy sees only the pairs
    # with capacity in either direction, and each side is Dinic's
    from sgs import Potential, grid_graph, kmin_flow, sparseness
    solved = _spy_scipy(monkeypatch)
    cuts = []

    def spy(network, caps):
        del solved[:]
        side = min_cut(network, caps)
        cuts.append((network, caps, side, list(solved)))
        return side

    monkeypatch.setattr(sparseness, "min_cut", spy)
    graph = grid_graph(16)
    q = np.random.default_rng(16).uniform(0, 8, graph.vertex_count)
    kmin_flow(graph, Potential(q), 2.0)
    compacted = 0
    for network, caps, side, matrices in cuts:
        tails = network.rows[network.slot].tolist()
        heads = network.indices[network.slot].tolist()
        pair = {}
        for u, v, c in zip(tails, heads, caps.tolist()):
            pair[u, v] = pair.get((u, v), 0) + c
            pair[v, u] = pair.get((v, u), 0) + c
        live = sum(c > 0 for c in pair.values())
        for matrix in matrices:
            assert matrix.nnz == live <= 2 * np.count_nonzero(caps)
            compacted += matrix.nnz < len(network.indices)
        net = Dinic(network.n)
        for u, v, c in zip(tails, heads, caps.tolist()):
            net.add_edge(u, v, c)
        net.max_flow(network.s, network.t)
        assert side == net.min_cut_source_side(network.s)
    assert len(cuts) >= 3 and compacted >= len(cuts)


def test_rounds_hand_off_a_flow_on_another_pattern(monkeypatch):
    # hand the rounds every flow with its zero entries dropped, which
    # changes the pattern but not the flow: the round that gets one
    # hands its residual to the Python Dinic, whose result stands
    import scipy.sparse.csgraph as csgraph
    from types import SimpleNamespace
    maximum_flow = csgraph.maximum_flow
    pruned = []

    def spy(matrix, s, t, method):
        result = maximum_flow(matrix, s, t, method=method)
        flow = result.flow.copy()
        flow.eliminate_zeros()
        pruned.append(flow.nnz < matrix.nnz)
        return SimpleNamespace(flow_value=result.flow_value, flow=flow)

    monkeypatch.setattr(csgraph, "maximum_flow", spy)
    handed_off = _spy(monkeypatch, "_dinic_cut")
    cuts = 0
    for kind in ("small", "wide_arc", "wide_pair"):
        rng = np.random.default_rng(sum(map(ord, kind)) + 1)
        for n in rng.integers(4, 9, 5).tolist() + [200]:
            tails, heads, caps = _network(rng, kind, n)
            net = cut_network(n, tails, heads, 0, n - 1)
            del handed_off[:]
            rounds = len(pruned)
            assert maxflow._rounds_cut(
                net, _load(net, caps)) == _dinic(n, tails, heads, caps)
            # the rounds end at the first flow on another pattern
            assert pruned[rounds:-1].count(True) == 0
            if pruned[-1]:
                assert len(handed_off) == 1
            cuts += 1
    # a round in which every entry carries flow keeps its pattern
    assert len(pruned) >= cuts == 18 and sum(pruned) > cuts // 2
