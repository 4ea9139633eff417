from fractions import Fraction

import numpy as np
import pytest

from sgs import maxflow
from sgs.maxflow import Dinic, cut_network, min_cut

from helpers import (cut_value, dinic_reference, loaded, pattern_dinic,
                     smallest_min_cut_side, spy, spy_maximum_flow)

INT32_MAX = 2**31 - 1


TEXTBOOK = [(0, 1, 3), (0, 2, 3), (1, 2, 2), (1, 3, 3),
            (2, 4, 2), (3, 4, 4), (3, 5, 2), (4, 5, 3)]


def test_textbook_instance():
    # classic 6-node network with max flow 5
    net = pattern_dinic(6, *zip(*TEXTBOOK), 0, 5)
    assert net.max_flow(0, 5) == 5
    side = set(net.min_cut_source_side(0))
    assert 0 in side and 5 not in side
    # cut capacity across the side equals the flow value
    cut = sum(c for u, v, c in TEXTBOOK if u in side and v not in side)
    assert cut == 5


def test_bidirected_arcs_and_big_integers():
    big = 10 ** 30
    net = pattern_dinic(4, [0, 1, 2, 2], [1, 2, 1, 3],
                        [big, big // 2, big // 2, big], 0, 3)
    assert net.max_flow(0, 3) == big // 2


def test_disconnected_sink():
    net = pattern_dinic(3, [0], [1], [7], 0, 2)
    assert net.max_flow(0, 2) == 0
    assert set(net.min_cut_source_side(0)) == {0, 1}


def test_random_against_matrix_oracle():
    rng = np.random.default_rng(9)
    for _ in range(30):
        n = int(rng.integers(2, 8))
        cap = rng.integers(0, 6, size=(n, n))
        np.fill_diagonal(cap, 0)
        tails, heads = np.nonzero(cap)
        net = pattern_dinic(n, tails, heads, cap[tails, heads].tolist(),
                            0, n - 1)
        flow = net.max_flow(0, n - 1)
        # oracle: minimum over all cuts separating 0 from n-1
        best = None
        for mask in range(1 << n):
            if mask & 1 and not (mask >> (n - 1)) & 1:
                value = sum(int(cap[i, j]) for i in range(n) for j in range(n)
                            if (mask >> i) & 1 and not (mask >> j) & 1)
                best = value if best is None else min(best, value)
        assert flow == best


BIG = 10 ** 30
# source 0, sink n - 1
PATTERN_CASES = {
    # 1 <-> 2 has capacity 0 both ways, 0 -> 3 is an arc of capacity 0
    "dead_pairs": (5, [0, 1, 2, 1, 3, 0, 2], [1, 2, 1, 3, 4, 3, 4],
                   [4, 0, 0, 3, 9, 0, 2]),
    "parallel_arcs": (4, [0, 0, 1, 1, 2, 1], [1, 1, 2, 2, 3, 3],
                      [2, 3, 1, 1, 4, 1]),
    "both_directions": (4, [0, 1, 2, 2, 1], [1, 2, 1, 3, 3], [5, 2, 4, 6, 1]),
    # only arcs leaving the sink
    "unreachable_sink": (5, [0, 1, 2, 4, 4], [1, 2, 0, 3, 1], [3, 3, 1, 5, 2]),
    "wide": (4, [0, 0, 1, 1, 2], [1, 2, 2, 3, 3],
             [BIG, 3, BIG + 1, BIG - 1, BIG]),
    # the flow takes 0 -> 1 -> 3 -> 4 first (row order), and the side
    # then reaches 1 only through the reverse of 1 -> 3
    "reached_by_a_reverse": (5, [0, 0, 1, 2, 3], [1, 2, 3, 3, 4],
                             [1, 1, 1, 1, 1]),
}


def _pattern_networks(rng, count):
    """The cases above, then ``count`` random networks of 2-7 nodes
    whose arcs repeat and run both ways, with capacities 0, small or
    about 10**30."""
    yield from PATTERN_CASES.values()
    for _ in range(count):
        n = int(rng.integers(2, 8))
        arcs = [rng.choice(n, 2, replace=False).tolist()
                for _ in range(int(rng.integers(0, 3 * n)))]
        caps = [[0, 1, 2, 5, BIG, BIG + 3][int(rng.integers(6))]
                for _ in arcs]
        yield n, [u for u, _ in arcs], [v for _, v in arcs], caps


def test_python_path_on_the_pattern_is_enumeration():
    # the Python Dinic reads the pattern that cut_network builds, so it
    # is checked against enumeration on what that pattern brings in:
    # dead pairs, parallel arcs, arcs both ways, an unreachable sink and
    # capacities of 10**30, through _dinic_cut (live pairs), through
    # Dinic on the whole pattern (dead pairs kept) and through min_cut
    seen = dict.fromkeys(["dead", "parallel", "both", "no_flow", "wide"], 0)
    for n, tails, heads, caps in _pattern_networks(np.random.default_rng(4),
                                                   300):
        side = smallest_min_cut_side(n, tails, heads, caps)
        value = cut_value(tails, heads, caps, side)
        net = cut_network(n, tails, heads, 0, n - 1)
        r = loaded(net, caps)
        assert maxflow._dinic_cut(net, r.copy()) == (value, side)
        whole = Dinic(net, r)
        assert whole.max_flow(0, n - 1) == value
        assert whole.min_cut_source_side(0) == side
        assert min_cut(net, caps) == side
        pairs = {(u, v) for u, v, c in zip(tails, heads, caps) if c}
        r = loaded(net, caps)
        seen["dead"] += bool(((r == 0) & (r[net.rev] == 0)).any())
        seen["parallel"] += bool(net.parallel)
        seen["both"] += any((v, u) in pairs for u, v in pairs)
        seen["no_flow"] += value == 0 and len(side) > 1
        seen["wide"] += max(caps, default=0) >= BIG
    assert min(seen.values()) >= 20, seen


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


@pytest.mark.parametrize("kind, narrow", [
    ("small", True), ("int32_max", True),
    ("wide_source", False), ("wide_arc", False), ("wide_pair", False)])
def test_min_cut_backends_agree_across_int32_cutover(monkeypatch, kind,
                                                     narrow):
    solved = spy_maximum_flow(monkeypatch)
    rounds_cut = maxflow._rounds_cut
    compiled = spy(monkeypatch, maxflow, "_rounds_cut")
    rng = np.random.default_rng(sum(map(ord, kind)))
    # 4-8 nodes are checked against enumeration; 170-230 nodes give
    # enough arcs for min_cut to take the compiled path
    for n in [*rng.integers(4, 9, 20), *rng.integers(170, 231, 5)]:
        n = int(n)
        tails, heads, caps = _network(rng, kind, n)
        s, t = 0, n - 1
        flow, side = dinic_reference(n, tails, heads, caps)
        assert cut_value(tails, heads, caps, side) == flow
        if n < 9:
            assert side == smallest_min_cut_side(n, tails, heads, caps)
        del solved[:]
        net = cut_network(n, tails, heads, s, t)
        assert rounds_cut(net, loaded(net, caps)) == (flow, side)
        if narrow:  # a network that fits int32 takes one round
            assert len(solved) == 1
        del compiled[:]
        assert min_cut(net, caps) == side
        # the floor counts the arcs of nonzero capacity only, parallel
        # arcs added up (one arc is given twice)
        large = np.count_nonzero(loaded(net, caps)) >= maxflow._SCIPY_MIN_ARCS
        assert len(compiled) == large
        assert (len(caps) >= maxflow._SCIPY_MIN_ARCS) == (n > 8)


def _star(k, source_cap, sink_cap):
    """Source 0, sink k + 1, and k paths 0 -> i -> k + 1."""
    tails = [0] * k + list(range(1, k + 1))
    heads = list(range(1, k + 1)) + [k + 1] * k
    return k + 2, tails, heads, [source_cap] * k + [sink_cap] * k


def test_rounds_cut_at_narrow_width(monkeypatch):
    """The rounds at a width of 8 bits: 4-8-node networks take several
    rounds, every scaled network obeys the width rule (its widest arc
    pair alone sets the shift), and each side is the smallest minimum
    cut.  ``check`` counts scipy rounds, contracted solves and hand-offs
    of a full residual to the Python Dinic, with contracted networks
    below the arc floor (on Dinic) and, with the floor at one arc, back
    through the rounds."""
    bits = 8
    monkeypatch.setattr(maxflow, "_ROUND_BITS", bits)
    solved = spy_maximum_flow(monkeypatch)
    contracted = spy(monkeypatch, maxflow, "_cut")
    dinic = spy(monkeypatch, maxflow, "_dinic_cut")

    def check(n, tails, heads, caps, enumerate_sides=True):
        del solved[:], contracted[:], dinic[:]
        net = cut_network(n, tails, heads, 0, n - 1)
        got = maxflow._rounds_cut(net, loaded(net, caps))
        assert got == dinic_reference(n, tails, heads, caps)
        if enumerate_sides:
            assert got[1] == smallest_min_cut_side(n, tails, heads, caps)
        # every pair fits, and the shift is the least that makes it so: a
        # round followed by another had shift > 0 (a contracted network's
        # rounds end before the outer call returns, so only the last round
        # can have shift 0), and keeps the widest pair at 2**(bits - 1) - 1
        # or more, whatever the known cut
        for i, (matrix, _) in enumerate(solved):
            c = matrix.toarray().astype(np.int64)
            assert (c + c.T).max() < 2**bits
            if i < len(solved) - 1:
                assert (c + c.T).max() >= 2**(bits - 1) - 1
        inner = [args[0] for args in contracted]
        handed_off = [args for args in dinic
                      if not any(args[0] is network for network in inner)]
        return len(solved), len(contracted), len(handed_off)

    c, x = 2**20 - 1, 2**20
    for forced in (False, True):
        if forced:  # contracted networks go back through the rounds
            monkeypatch.setattr(maxflow, "_SCIPY_MIN_ARCS", 1)
        counts = []
        for kind in ("small", "int32_max", "wide_source", "wide_arc",
                     "wide_pair"):
            rng = np.random.default_rng(sum(map(ord, kind)))
            for n in rng.integers(4, 9, 20):
                counts.append(check(int(n), *_network(rng, kind, int(n))))
        assert max(rounds for rounds, _, _ in counts) >= 4
        assert sum(merged for _, merged, _ in counts) >= 5
        # the clamp: an arc of 2**60 that no minimum cut crosses leaves
        # the width, and so the single round, to the flow of at most 5
        assert check(*_star(1, 2**60, 5)) == (1, 0, 0)
        # a bidirected pair of 2**21 each way, clamped to 2**20 + 1: the
        # pair, not the single capacities or the known cut, sets the
        # width; the first round merges what no minimum cut separates
        assert check(4, [0, 1, 2, 2], [1, 2, 1, 3],
                     [x, 2 * x, 2 * x, x]) == (1 + forced, 1, 0)
        # 4 paths of 100: every pair fits 8 bits, so one exact round
        # takes the flow of 400, which does not
        assert check(*_star(4, 100, 100)) == (1, 0, 0)
        # 12 saturated paths: the source arcs, clamped to 12c + 1, set
        # the width and the shifted sink arcs keep 4 bits.  The first
        # round leaves more than U both ways on every source arc, so s
        # and the path nodes merge: two super-nodes, whose one arc of
        # 12 * (2**16 - 1) takes 3 more rounds at 8 bits
        assert check(*_star(12, 2**40, c)) == (1 + 3 * forced, 1, 0)
        # 200 such paths: source arcs clamped to 200c + 1 shift the sink
        # arcs to 0, so the first round moves no flow, lowers no U, and
        # the full residual goes to Dinic
        assert check(*_star(200, 2**40, c),
                     enumerate_sides=False) == (1, 0, 1)


def test_one_round_carries_a_flow_past_int32(monkeypatch):
    """A hub of 300 paths whose arcs fit int32 but whose flow, about
    2**38, does not: one scipy round solves it, the flow value summed in
    int64 from the source's arcs, and it matches the Python Dinic."""
    solved = spy_maximum_flow(monkeypatch)
    handed_off = spy(monkeypatch, maxflow, "_dinic_cut")
    rng = np.random.default_rng(38)
    k = 300
    n, tails, heads, _ = _star(k, 0, 0)
    caps = rng.integers(2**30, INT32_MAX, 2 * k).tolist()
    net = cut_network(n, tails, heads, 0, n - 1)
    flow, side = maxflow._rounds_cut(net, loaded(net, caps))
    assert (flow, side) == dinic_reference(n, tails, heads, caps)
    assert flow > 2**37 and len(solved) == 1 and not handed_off
    del solved[:]
    assert min_cut(net, caps) == side and len(solved) == 1


def _watch_contractions(monkeypatch):
    """Check every contraction of the rounds, at every level, against
    the Python Dinic on the network the rounds were given: s and t lie
    in two super-nodes, each super-node on one side of Dinic's smallest
    source side, and the rounds return Dinic's flow and side.  Returns
    a function that counts the networks given to the shared dispatch
    (the contracted ones, when the rounds are called directly) by the
    path they took."""
    import scipy.sparse.csgraph as csgraph
    components, rounds_cut = csgraph.connected_components, maxflow._rounds_cut
    exact_cut = maxflow._dinic_cut
    levels = []  # (network, its exact side) of each running round loop
    dispatched = spy(monkeypatch, maxflow, "_cut")
    to_dinic, to_rounds = spy(monkeypatch, maxflow, "_dinic_cut"), []

    def spy_components(graph, **kwargs):
        count, label = components(graph, **kwargs)
        network, side = levels[-1]
        assert label[network.s] != label[network.t]
        # the share of each super-node inside the side is 0 or 1
        share = np.bincount(label, side) / np.bincount(label)
        assert set(share.tolist()) <= {0.0, 1.0}
        return count, label

    def spy_rounds(network, r):
        to_rounds.append((network, r))
        exact = exact_cut(network, r)
        side = np.zeros(network.n)
        side[exact[1]] = 1
        levels.append((network, side))
        try:
            assert rounds_cut(network, r) == exact
        finally:
            levels.pop()
        return exact

    monkeypatch.setattr(csgraph, "connected_components", spy_components)
    monkeypatch.setattr(maxflow, "_rounds_cut", spy_rounds)

    def arms():
        """How many networks given to the shared dispatch went back
        through the rounds, and how many to Dinic."""
        return tuple(sum(any(net is network for net, _ in calls)
                         for network, *_ in dispatched)
                     for calls in (to_rounds, to_dinic))

    return arms


def _wide_network(rng, n):
    """Random arcs on ``n`` nodes, source 0 and sink n-1, with
    capacities of 0 to 80 bits: several rounds at any width."""
    arcs = {}
    for _ in range(3 * n):
        u, v = (int(x) for x in rng.choice(n, 2, replace=False))
        arcs[u, v] = int(rng.integers(0, 2**62)) >> int(rng.integers(0, 62))
        arcs[u, v] <<= int(rng.integers(0, 19))
    tails, heads, caps = (list(x) for x in zip(*[(u, v, c) for (u, v), c
                                                 in arcs.items()]))
    return tails, heads, caps


def test_contraction_keeps_every_minimum_cut(monkeypatch):
    """At a width of 8 bits, on wide random networks, the rounds merge
    only what no minimum cut separates (never s with t) and return the
    Python Dinic's flow and smallest side, whether a contracted network
    goes to Dinic (below the arc floor) or back through the rounds."""
    monkeypatch.setattr(maxflow, "_ROUND_BITS", 8)
    arms = _watch_contractions(monkeypatch)
    rng = np.random.default_rng(71)
    for floor in (maxflow._SCIPY_MIN_ARCS, 6):
        monkeypatch.setattr(maxflow, "_SCIPY_MIN_ARCS", floor)
        for n in [*rng.integers(4, 9, 20), *rng.integers(60, 81, 5)]:
            n = int(n)
            tails, heads, caps = _wide_network(rng, n)
            net = cut_network(n, tails, heads, 0, n - 1)
            got = maxflow._rounds_cut(net, loaded(net, caps))
            assert got == dinic_reference(n, tails, heads, caps)
            if n < 9:
                assert got[1] == smallest_min_cut_side(n, tails, heads,
                                                        caps)
    rounds_arm, dinic_arm = arms()
    assert rounds_arm >= 5 and dinic_arm >= 5


def test_one_scipy_round_per_cut_on_float_potentials(monkeypatch):
    # float q gives capacities far past int32, and every cut of this
    # grid is past the arc floor: the first round leaves at most three
    # super-nodes, which the Python Dinic finishes, so each cut takes
    # one scipy round (before the contraction, 13 rounds for 5 cuts)
    from sgs import Potential, grid_graph, kmin_flow, sparseness
    solved = spy_maximum_flow(monkeypatch)
    cuts = []
    solve = sparseness.min_cut
    monkeypatch.setattr(sparseness, "min_cut",
                        lambda *args: cuts.append(args) or solve(*args))
    graph = grid_graph(40)
    q = np.random.default_rng(40).uniform(0.0, 3.0, graph.vertex_count)
    kmin_flow(graph, Potential(q), [0, 0.5, 1, 2])
    assert len(cuts) >= 4 and len(solved) == len(cuts)
    assert max(int(c.max()).bit_length() for _, c in cuts) > 60


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
    handed_off = spy(monkeypatch, maxflow, "_dinic_cut")
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
        assert min_cut(net, caps) == dinic_reference(n, tails, heads, caps)[1]
        assert not handed_off


def test_scipy_flow_value_is_not_the_source_total():
    # the rounds size scipy's int32 network by its arc pairs alone, not
    # by the source and sink totals: here 16 source arcs of 2**31 - 1
    # sum past int32 while the maximum flow, 16 * 5, does not.  A scipy
    # that sums the source capacities in int32 fails here
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
    solved = spy_maximum_flow(monkeypatch)
    cuts = []

    def record(network, caps):
        del solved[:]
        side = min_cut(network, caps)
        cuts.append((network, caps, side, list(solved)))
        return side

    monkeypatch.setattr(sparseness, "min_cut", record)
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
        for matrix, _ in matrices:
            assert matrix.nnz == live <= 2 * np.count_nonzero(caps)
            compacted += matrix.nnz < len(network.indices)
        net = Dinic(network, loaded(network, caps))
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

    def prune(matrix, s, t, method):
        result = maximum_flow(matrix, s, t, method=method)
        flow = result.flow.copy()
        flow.eliminate_zeros()
        pruned.append(flow.nnz < matrix.nnz)
        return SimpleNamespace(flow_value=result.flow_value, flow=flow)

    monkeypatch.setattr(csgraph, "maximum_flow", prune)
    handed_off = spy(monkeypatch, maxflow, "_dinic_cut")
    cuts = 0
    for kind in ("small", "wide_arc", "wide_pair"):
        rng = np.random.default_rng(sum(map(ord, kind)) + 1)
        for n in rng.integers(4, 9, 5).tolist() + [200]:
            tails, heads, caps = _network(rng, kind, n)
            net = cut_network(n, tails, heads, 0, n - 1)
            del handed_off[:]
            rounds = len(pruned)
            got = maxflow._rounds_cut(net, loaded(net, caps))
            assert got == dinic_reference(n, tails, heads, caps)
            # the rounds end at the first flow on another pattern
            assert pruned[rounds:-1].count(True) == 0
            if pruned[-1]:
                assert len(handed_off) == 1
            cuts += 1
    # a round in which every entry carries flow keeps its pattern
    assert len(pruned) >= cuts == 18 and sum(pruned) > cuts // 2
