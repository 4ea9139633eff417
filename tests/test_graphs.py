import numpy as np
import pytest

from sgs import (Graph, Potential, PhaseField, breadth_first_spheres,
                 path_graph, regular_tree_ball, subset_stats)

from helpers import random_graph


def test_asymmetric_relation_rejected():
    m = np.zeros((3, 3), dtype=int)
    m[1, 2] = 1  # missing m[2, 1]
    with pytest.raises(ValueError, match="asymmetric"):
        Graph.from_matrix(m)


def test_self_loop_rejected():
    m = np.eye(3, dtype=int)
    with pytest.raises(ValueError, match="self-loop"):
        Graph.from_matrix(m)
    with pytest.raises(ValueError, match="self-loop"):
        Graph(3, [(1, 1)])


def test_host_degree_below_internal_rejected():
    with pytest.raises(ValueError, match="host degree below internal"):
        Graph(3, [(0, 1), (1, 2), (0, 2)], host_degree=[2, 2, 1])


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
