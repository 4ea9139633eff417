import numpy as np
import pytest

from sgs import (Graph, Potential, PhaseField, breadth_first_spheres,
                 path_graph, regular_tree_ball, subset_stats)

from helpers import edge_keys_by_pair, random_graph, subset_members_by_entry


def test_asymmetric_relation_rejected():
    m = np.zeros((3, 3), dtype=int)
    m[1, 2] = 1  # missing m[2, 1]
    with pytest.raises(ValueError, match="asymmetric"):
        Graph.from_matrix(m)
    # symmetric weights used to load as edges; the relation is 0/1 only
    for w in (2, 0.5, -1):
        m = [[0, 0, 0], [0, 0, w], [0, w, 0]]
        with pytest.raises(ValueError,
                           match=rf"entry at \(1,2\) is {w}, not 0 or 1"):
            Graph.from_matrix(m)
    rel = np.array([[0, 1, 1], [1, 0, 0], [1, 0, 0]])
    assert Graph.from_matrix(rel.astype(bool)).edges == ((0, 1), (0, 2))
    assert Graph.from_matrix(rel.astype(float)).edges == ((0, 1), (0, 2))


def test_self_loop_rejected():
    m = np.eye(3, dtype=int)
    with pytest.raises(ValueError, match="self-loop"):
        Graph.from_matrix(m)
    with pytest.raises(ValueError, match="self-loop"):
        Graph(3, [(1, 1)])


def test_host_degree_below_internal_rejected():
    with pytest.raises(ValueError, match="host degree below internal"):
        Graph(3, [(0, 1), (1, 2), (0, 2)], host_degree=[2, 2, 1])
    # the check is exact: int64 arithmetic used to wrap -2**63 to a
    # deficit of 2**63 - 1, and an int past int64 escaped as an
    # OverflowError
    for host in ([-2**63, 1], [-2**70, 1]):
        with pytest.raises(ValueError, match=r"^host degree below internal "
                                             r"degree at vertex 0 \(-\d+ < 1\)"):
            Graph(2, [(0, 1)], host_degree=host)
    for host, x in (([2**70, 1], 0), ([2**63, 1], 0),
                    (np.array([2**63, 1], np.uint64), 0), ([1, 1e30], 1)):
        with pytest.raises(ValueError, match=rf"^host degree at vertex {x} "
                                             rf"is too large: \d+$"):
            Graph(2, [(0, 1)], host_degree=host)
    g = Graph(2, [(0, 1)], host_degree=[2**63 - 1, np.uint64(1)])
    assert g.deficit.tolist() == [2**63 - 2, 0]


def test_non_integer_host_degree_rejected():
    # numpy used to truncate 1.5 to 1 and 0.9 to 0 without a word, and
    # NaN failed with "cannot convert float NaN to integer"
    for host, x in (([1.5, 1, 0.9], 0), ([1, float("nan"), 1], 1),
                    ([1, 1, float("inf")], 2), ([2, 2, "3"], 2)):
        with pytest.raises(ValueError,
                           match=rf"host degree at vertex {x} is not an "
                                 r"integer"):
            Graph(3, [], host_degree=host)
    # integer values of any numeric type are fine
    g = Graph(3, [], host_degree=[2.0, np.float32(1), np.int8(0)])
    assert g.host_degree.tolist() == [2, 1, 0]


def test_non_integer_endpoint_rejected():
    # int() used to load (0, 1.5) as edge (0, 1), and "1" as vertex 1
    for bad in (1.5, 1.0, np.float64(1.0), "1", None):
        with pytest.raises(ValueError,
                           match=r"edge \(0,.*\) has a non-integer endpoint"):
            Graph(3, [(0, 2), (0, bad)])
    # the first offending edge in input order wins, whatever its fault
    for edges, message in (
            ([(0, 1), (1, 1), (5, 0)], r"self-loop at vertex 1"),
            ([(0, 1), (1, 1), (0, 1.5)], r"self-loop at vertex 1"),
            ([(0, 1.5), (1, 1)], r"edge \(0,1.5\) has a non-integer"),
            ([(0, 1), (1, 0), (0, "2")], r"duplicate edge \(0,1\)"),
            ([(2, 0), (0, 2**63)], r"edge \(0,9223372036854775808\) out of "
                                   r"range for 3 vertices"),
            ([(0, -2**70)], r"out of range")):
        with pytest.raises(ValueError, match=message):
            Graph(3, edges)
    # integers of any integral type are fine, and are stored as ints
    g = Graph(3, [(np.int64(2), np.uint8(0)), (True, 2)])
    assert g.edges == ((0, 2), (1, 2))
    assert all(type(x) is int for e in g.edges for x in e)


def _first_error(build):
    try:
        build()
    except (ValueError, TypeError) as exc:
        return type(exc).__name__, str(exc)
    return None


def test_edge_arrays_and_lists_match_the_pair_by_pair_checks():
    """Array and list input give the same ``edge_ends``, and bad input
    the error of a check one pair at a time: the first offending pair in
    input order, with a pair's checks in their order."""
    rng = np.random.default_rng(24)
    faults = {
        "non-integer": lambda u, v, n: (u, rng.choice(
            [1.5, "2", None, np.float64(1.0), 2.0**70])),
        "out of range": lambda u, v, n: (int(rng.choice([-1, n, 2**70])), v),
        "self-loop": lambda u, v, n: (u, u),
        "duplicate": lambda u, v, n: None,  # a copy of an earlier pair
    }
    seen = set()
    for trial in range(400):
        graph = random_graph(rng, n_min=3, n_max=12, p_low=0.3)
        n = graph.vertex_count
        pairs = [(v, u) if rng.random() < 0.5 else (u, v)
                 for u, v in graph.edges]
        pairs = [pairs[i] for i in rng.permutation(len(pairs))]
        if len(pairs) < 2:
            continue
        ends = Graph(n, pairs).edge_ends
        assert ends.tolist() == [list(e) for e in graph.edges]
        assert np.array_equal(Graph(n, np.array(pairs)).edge_ends, ends)
        assert np.array_equal(Graph(n, np.array(pairs, np.uint32)).edge_ends,
                              ends)
        assert np.array_equal(Graph(n, iter(pairs)).edge_ends, ends)
        # two different faults at two positions
        kinds = rng.choice(list(faults), 2, replace=False).tolist()
        for kind in kinds:
            at = int(rng.integers(1, len(pairs)))
            u, v = pairs[at]
            pairs[at] = (faults[kind](u, v, n) if kind != "duplicate"
                         else pairs[int(rng.integers(at))][::-1])
        want = _first_error(lambda: edge_keys_by_pair(n, pairs))
        assert want is not None
        seen.add(want[1].split(" ")[0] + (" range" if "range" in want[1]
                                          else ""))
        assert _first_error(lambda: Graph(n, pairs)) == want
        assert _first_error(lambda: Graph(n, iter(pairs))) == want
        rows = np.array(pairs, dtype=object)
        if all(type(x) is int and abs(x) < 2**62 for x in rows.ravel()):
            assert _first_error(
                lambda: Graph(n, rows.astype(np.int64))) == want
    assert seen == {"edge", "edge range", "self-loop", "duplicate"}
    # pairs that are no pairs fail as unpacking them would, in turn
    assert _first_error(lambda: Graph(3, [(0, 1), (1, 2, 0)])) == (
        "ValueError", "too many values to unpack (expected 2)")
    assert _first_error(lambda: Graph(3, [(0, 1), (1, 1), 5])) == (
        "ValueError", "self-loop at vertex 1")
    assert _first_error(lambda: Graph(3, [(0, 5), 5])) == (
        "ValueError", "edge (0,5) out of range for 3 vertices")
    assert _first_error(lambda: Graph(3, [(0, 1), 5])) == (
        "TypeError", "cannot unpack non-iterable int object")


def test_subset_stats_degree_sum_is_exact():
    # 1100 host degrees of 2**53 sum past 2**63, where an int64 sum wraps
    n = 1100
    g = Graph(n, [(x, x + 1) for x in range(n - 1)], host_degree=[2**53] * n)
    st = subset_stats(g, None, range(n))
    assert st.degree_sum == n * 2**53
    assert st.boundary == n * 2**53 - 2 * (n - 1)


def test_duplicate_edges_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        Graph(3, [(0, 1), (1, 0)])


def test_subset_stats_path():
    g = path_graph(3)
    st = subset_stats(g, Potential.zero(g), [0, 1])
    assert (st.size, st.induced_edges, st.boundary, st.degree_sum) == (2, 1, 1, 3)


def test_subset_stats_empty():
    g = path_graph(3)
    st = subset_stats(g, None, [])
    assert st == type(st)(0, 0, 0, 0, 0.0, 0.0)


def test_subset_stats_tree_ball():
    g = regular_tree_ball(3, 1)
    st = subset_stats(g, None, range(4))
    assert st.induced_edges == 3
    assert st.boundary == 6  # two missing forward edges per leaf
    assert st.degree_sum == 12


def test_subset_stats_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        subset_stats(path_graph(3), None, [5])
    # int() used to count [1.5, "2"] as vertices 1 and 2
    for subset, entry in (([1.5, "2"], r"subset\[0\] is not an integer: 1\.5"),
                          ([1, "2"], r"subset\[1\] is not an integer: '2'"),
                          ([np.float64(0.0)], r"subset\[0\]"), ([None], r"None")):
        with pytest.raises(ValueError, match=entry):
            subset_stats(path_graph(3), None, subset)
    st = subset_stats(path_graph(3), None, np.array([1, 2]))
    assert (st.size, st.induced_edges) == (2, 1)


def test_subset_stats_array_check_matches_the_entry_by_entry_reading():
    # tuples and lists of ints and integer arrays are checked as arrays;
    # every input has the outcome of one reading per entry, repeats,
    # bools, numpy scalars, ints past int64, floats and strings included
    g = regular_tree_ball(3, 3)
    n = g.vertex_count
    q = Potential(np.random.default_rng(97).uniform(-1.0, 2.0, n))
    cases = [
        lambda: (5, 0, 21, 5), lambda: [n - 1, 3, 3], lambda: tuple(range(n)),
        lambda: np.array([7, 2, 7]), lambda: np.array([4, 1], dtype=np.uint64),
        lambda: np.array([3], dtype=np.int8), lambda: (True, 2),
        lambda: (np.True_, 2), lambda: (np.int64(1), 2), lambda: [2**63],
        lambda: (2**70, 1), lambda: (-1, 2**63), lambda: (1, -2**70),
        lambda: (n,), lambda: [-1], lambda: (1.0, 2), lambda: ("1",),
        lambda: (None, 1), lambda: ((1, 2),), lambda: (), lambda: [],
        lambda: np.array([], dtype=np.int64), lambda: np.array([1.0]),
        lambda: np.array([[1, 2]]), lambda: np.array([True, False]),
        lambda: np.array([n], dtype=np.uint64), lambda: np.array([-3]),
        lambda: range(4), lambda: iter([9, 0]), lambda: {3, 1},
    ]
    for case in cases:
        try:
            expected = subset_stats(g, q, subset_members_by_entry(n, case()))
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                subset_stats(g, q, case())
            assert str(got.value) == str(exc)
        else:
            assert subset_stats(g, q, case()) == expected


def test_non_integer_vertex_count_rejected():
    # int() used to give Graph(2.7, ...) 2 vertices and Potential.zero(2.5)
    # 2 entries
    with pytest.raises(ValueError, match="vertex_count is not an integer: 2.7"):
        Graph(2.7, [(0, 1)])
    with pytest.raises(ValueError, match="not an integer: '3'"):
        Graph("3", [])
    with pytest.raises(ValueError, match="vertex count is not an integer: 2.5"):
        Potential.zero(2.5)
    assert Graph(np.int64(2), [(0, 1)]).vertex_count == 2
    assert len(Potential.zero(np.uint8(3))) == 3


def test_degree_identity_random():
    rng = np.random.default_rng(0)
    for _ in range(50):
        g = random_graph(rng)
        if rng.random() < 0.5:  # random extra host degrees
            g = Graph(g.vertex_count, g.edges,
                      host_degree=g.internal_degree
                      + rng.integers(0, 3, g.vertex_count))
        w = [x for x in range(g.vertex_count) if rng.random() < 0.5]
        st = subset_stats(g, None, w + w[:2])  # repeats count once
        assert st.size == len(w)
        assert st.induced_edges == sum(u in w and v in w for u, v in g.edges)
        assert st.degree_sum == 2 * st.induced_edges + st.boundary
        # the edge array is read-only and holds the edges row for row
        ends = g.edge_ends
        assert ends.dtype == np.int64 and ends.shape == (g.edge_count, 2)
        assert [tuple(row) for row in ends.tolist()] == list(g.edges)
        assert sorted(g.edges) == list(g.edges)
        with pytest.raises(ValueError, match="read-only"):
            ends[0:1, 0] = 0
        # degrees and neighbours agree with a recount over the edges
        nbrs = [sorted([v for u, v in g.edges if u == x]
                       + [u for u, v in g.edges if v == x])
                for x in range(g.vertex_count)]
        assert g.internal_degree.tolist() == [len(a) for a in nbrs]
        assert [list(g.neighbors(x)) for x in range(g.vertex_count)] == nbrs
        for i, (u, v) in enumerate(g.edges):
            assert g.edge_index(u, v) == g.edge_index(v, u) == i
        missing = [(u, v) for u in range(g.vertex_count)
                   for v in range(u + 1, g.vertex_count)
                   if (u, v) not in g.edges]
        # out-of-range pairs whose key u*n + v is an edge's key
        aliases = [(u - 1, v + g.vertex_count) for u, v in g.edges if u > 0]
        for u, v in missing[:3] + aliases[:3] + [(0, 0), (0, 2**64)]:
            with pytest.raises(ValueError, match=r"is not an edge"):
                g.edge_index(v, u)


def test_edge_tuples_built_on_first_use():
    # the tuples of Python ints take many times the edge array's memory,
    # so code that reads only edge_ends never builds them
    g = Graph(4, [(2, 3), (1, 0), (1, 2)])
    assert g._edges is None and g._neighbors is None
    assert g.edge_count == 3 and g._edges is None
    assert g.neighbors(1) == (0, 2) and g._edges is None
    assert g.neighbors(3) == (2,) and g.neighbors(0) == (1,)
    assert g.edges == ((0, 1), (1, 2), (2, 3)) and g.edges is g.edges
    assert not hasattr(g, "__dict__")


def test_boundary_complement_identity():
    rng = np.random.default_rng(1)
    for _ in range(30):
        g = random_graph(rng)
        extra = rng.integers(0, 3, g.vertex_count)
        gh = Graph(g.vertex_count, g.edges,
                   host_degree=g.internal_degree + extra)
        w = [x for x in range(g.vertex_count) if rng.random() < 0.5]
        comp = [x for x in range(g.vertex_count) if x not in set(w)]
        sw = subset_stats(gh, None, w)
        sc = subset_stats(gh, None, comp)
        def_w = sum(int(gh.deficit[x]) for x in w)
        def_c = sum(int(gh.deficit[x]) for x in comp)
        assert sw.boundary - sc.boundary == def_w - def_c
        # zero-deficit reduction: plain boundary symmetry
        sw0 = subset_stats(g, None, w)
        sc0 = subset_stats(g, None, comp)
        assert sw0.boundary == sc0.boundary


def test_edge_removal_never_increases_induced_edges():
    rng = np.random.default_rng(2)
    g = random_graph(rng, n_min=5, n_max=9, p_low=0.4)
    assert g.edge_count > 0
    dropped = Graph(g.vertex_count, g.edges[1:])
    for _ in range(20):
        w = [x for x in range(g.vertex_count) if rng.random() < 0.6]
        assert (subset_stats(dropped, None, w).induced_edges
                <= subset_stats(g, None, w).induced_edges)


def test_potential_parts():
    q = Potential([1.5, -2.0, 0.0])
    assert q.plus.tolist() == [1.5, 0.0, 0.0]
    assert q.minus.tolist() == [0.0, 2.0, 0.0]
    assert np.allclose(q.values, q.plus - q.minus)


def test_phase_antisymmetry_checked():
    g = path_graph(3)
    ph = PhaseField.from_directed(g, {(0, 1): 0.5, (1, 0): -0.5})
    assert ph.theta(0, 1) == 0.5
    assert ph.theta(1, 0) == -0.5
    with pytest.raises(ValueError, match="antisymmetry"):
        PhaseField.from_directed(g, {(0, 1): 0.5, (1, 0): 0.5})
    # equality mod 2*pi is accepted
    PhaseField.from_directed(g, {(0, 1): 0.5, (1, 0): 2 * np.pi - 0.5})
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            PhaseField(g, [0.0, bad])


def test_phase_shift_and_negate():
    g = path_graph(2)
    ph = PhaseField.from_directed(g, {(0, 1): 0.25})
    assert ph.shifted_by_pi().theta(0, 1) == pytest.approx(0.25 + np.pi)
    assert ph.negated().theta(0, 1) == -0.25


def test_breadth_first_spheres():
    g = regular_tree_ball(2, 3)  # a path of length 3 rooted at 0
    assert [len(s) for s in breadth_first_spheres(g, 0)] == [1, 2, 2, 2]


def test_restrict_is_the_induced_subgraph_with_host_degrees():
    rng = np.random.default_rng(23)
    for _ in range(30):
        base = random_graph(rng, n_min=3, n_max=14)
        n = base.vertex_count
        g = Graph(n, base.edges, host_degree=base.internal_degree
                  + rng.integers(0, 3, n))
        region = sorted(rng.choice(n, int(rng.integers(1, n)),
                                   replace=False).tolist())
        sub = g.restrict(region)
        assert sub.vertex_count == len(region)
        assert sub.host_degree.tolist() == g.host_degree[region].tolist()
        assert np.array_equal(sub.deficit,
                              sub.host_degree - sub.internal_degree)
        # the host's inner rows, renumbered, in the host's order
        local = {x: i for i, x in enumerate(region)}
        inner = [(local[u], local[v]) for u, v in g.edges
                 if u in local and v in local]
        assert sub.edges == tuple(inner)
        # every boundary count is the host's
        for w in ([0], list(range(len(region)))):
            stats = subset_stats(sub, None, w)
            assert stats == subset_stats(g, None, [region[x] for x in w])


def test_restrict_normalizes_its_region():
    g = regular_tree_ball(3, 3)
    n = g.vertex_count
    assert g.restrict(range(n)) is g
    assert g.restrict(np.arange(n)[::-1]) is g
    want = g.restrict([1, 4, 5])
    for region in ([5, 1, 4], [4, 1, 5, 1, 4], np.array([5, 4, 1]),
                   (np.int64(1), np.int32(4), 5)):
        sub = g.restrict(region)
        assert sub.edges == want.edges
        assert sub.host_degree.tolist() == want.host_degree.tolist()
    assert want.edges == ((0, 1), (0, 2))
    assert want.deficit.tolist() == [1, 2, 2]


def test_restrict_rejects_bad_regions():
    g = path_graph(3)
    with pytest.raises(ValueError, match="^region must be nonempty$"):
        g.restrict(())
    # int() used to read region [0.9, 1.2] as (0, 1)
    with pytest.raises(ValueError,
                       match=r"^region\[0\] is not an integer: 0\.9$"):
        g.restrict([0.9, 1.2])
    with pytest.raises(ValueError, match=r"^region\[1\] is not an integer: '1'$"):
        g.restrict([0, "1"])
    for x in (3, -1):
        with pytest.raises(ValueError, match=rf"^region vertex {x} out of range$"):
            g.restrict([0, x])
