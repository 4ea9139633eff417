import numpy as np
import pytest

from sgs import (Graph, RadialFamilySpec, antitree, breadth_first_spheres,
                 cartesian_sum, complete_graph, cycle_graph, edge_union,
                 grid_graph, kmin_flow, make_basic, make_radial_family,
                 path_graph, regular_tree_ball, star_graph)

from helpers import random_graph


def test_basic_shapes():
    assert path_graph(3).edge_count == 2
    k5 = complete_graph(5)
    assert k5.edge_count == 10
    assert set(k5.internal_degree.tolist()) == {4}
    assert cycle_graph(4).edge_count == 4
    assert grid_graph(3).edge_count == 12
    assert star_graph(5).edge_count == 4
    assert make_basic("path", 3).edge_count == 2
    with pytest.raises(ValueError):
        make_basic("hypercube", 3)
    with pytest.raises(ValueError):
        path_graph(0)


def test_antitree_counts():
    g = antitree((1, 2, 4, 8))
    assert g.vertex_count == 15
    assert g.edge_count == 1 * 2 + 2 * 4 + 4 * 8
    assert 2 * g.edge_count / g.vertex_count == pytest.approx(84 / 15)


def test_radial_family_figure_instance():
    spec = RadialFamilySpec(beta=(3, 3, 4), gamma=(0, 2, 4), depth=2)
    g = make_radial_family(spec)
    spheres = breadth_first_spheres(g, 0)
    assert [len(s) for s in spheres] == [1, 3, 6]
    # induced sphere graphs are gamma_n-regular
    for depth, sphere in enumerate(spheres):
        inside = set(sphere)
        for x in sphere:
            assert sum(1 for y in g.neighbors(x) if y in inside) == spec.gamma[depth]
    # host degrees: beta_n + gamma_n, deficit beta_N - 1 on the last sphere
    for depth, sphere in enumerate(spheres):
        for x in sphere:
            assert g.host_degree[x] == spec.beta[depth] + spec.gamma[depth]
    assert all(int(g.deficit[x]) == 3 for x in spheres[-1])


def test_radial_family_plain_tree():
    g = make_radial_family(RadialFamilySpec(beta=(3,), gamma=(0,), depth=4))
    assert g.edge_count == g.vertex_count - 1


def test_radial_family_sphere_sizes():
    spec = RadialFamilySpec(beta=(3,), gamma=(0, 2), depth=3)
    g = make_radial_family(spec)
    assert [len(s) for s in breadth_first_spheres(g, 0)] == [1, 3, 6, 12]


def test_non_integer_sizes_rejected():
    # int() used to give antitree([2.9, 1]) 3 vertices and beta (3.7,)
    # the entries (3, 3, 3)
    with pytest.raises(ValueError,
                       match=r"sphere_sizes\[0\] is not an integer: 2\.9"):
        antitree([2.9, 1])
    with pytest.raises(ValueError, match=r"beta\[0\] is not an integer: 3\.7"):
        RadialFamilySpec(beta=(3.7,), gamma=(0,), depth=2)
    with pytest.raises(ValueError, match=r"gamma\[1\] is not an integer: '2'"):
        RadialFamilySpec(beta=(3,), gamma=(0, "2"), depth=2)
    with pytest.raises(ValueError, match=r"depth is not an integer: 2\.0"):
        RadialFamilySpec(beta=(3,), gamma=(0,), depth=2.0)
    # range() used to raise TypeError for these
    for build, size, name in ((path_graph, 2.5, "n"), (cycle_graph, 4.0, "n"),
                              (complete_graph, "3", "n"),
                              (grid_graph, 2.0, "m"), (star_graph, 3.0, "n")):
        with pytest.raises(ValueError,
                           match=rf"^{name} is not an integer: {size!r}$"):
            build(size)
    assert grid_graph(np.int64(2)).vertex_count == 4
    spec = RadialFamilySpec(beta=(np.int64(3),), gamma=(0,), depth=np.int8(2))
    assert spec.beta == (3, 3, 3) and spec.depth == 2
    assert antitree(np.array([1, 2])).vertex_count == 3


def test_radial_family_infeasible():
    with pytest.raises(ValueError, match="n=0"):
        make_radial_family(RadialFamilySpec(beta=(3,), gamma=(2,), depth=2))
    with pytest.raises(ValueError, match="odd"):
        # gamma * |S_n| odd: sphere of size 3 with degree 1
        make_radial_family(RadialFamilySpec(beta=(3,), gamma=(0, 1), depth=1))


def test_combine_edge_union():
    p3 = path_graph(3)
    extra = Graph(3, [(0, 2)])
    assert set(edge_union(p3, extra).edges) == {(0, 1), (0, 2), (1, 2)}
    # shared edges are kept once
    assert edge_union(p3, complete_graph(3)).edges == ((0, 1), (0, 2), (1, 2))
    with pytest.raises(ValueError, match="identical vertex sets"):
        edge_union(p3, path_graph(4))


def test_combine_cartesian_sum():
    p2 = path_graph(2)
    c4 = cartesian_sum(p2, p2)
    assert c4.vertex_count == 4
    assert set(c4.internal_degree.tolist()) == {2}
    assert c4.edge_count == 4  # the 4-cycle
    assert cartesian_sum(path_graph(5), path_graph(5)).edges == \
        grid_graph(5).edges
    assert cartesian_sum(path_graph(3), Graph(1, [])).edges == \
        path_graph(3).edges


def test_cartesian_degrees_add():
    rng = np.random.default_rng(4)
    g1, g2 = random_graph(rng, n_max=6), random_graph(rng, n_max=6)
    prod = cartesian_sum(g1, g2)
    n2 = g2.vertex_count
    for x1 in range(g1.vertex_count):
        for x2 in range(n2):
            assert (prod.internal_degree[x1 * n2 + x2]
                    == g1.internal_degree[x1] + g2.internal_degree[x2])


def test_combine_subgraph():
    # an edge subgraph is the constructor on the kept rows; a vertex
    # subgraph is a restriction
    k3 = complete_graph(3)
    kept = [(u, v) for u, v in k3.edges if (u, v) != (0, 2)]
    p3 = Graph(3, kept)
    assert set(p3.edges) == {(0, 1), (1, 2)}
    assert int(p3.deficit.sum()) == 0
    hosted = Graph(3, kept, host_degree=k3.host_degree)
    assert int(hosted.deficit.sum()) == 2  # dropped edge becomes deficit
    pair = k3.restrict([0, 2])
    assert pair.edges == ((0, 1),)
    assert pair.deficit.tolist() == [1, 1]  # edges to vertex 1


def test_ball_truncation_examples():
    b1 = regular_tree_ball(3, 1)
    assert (b1.vertex_count, b1.edge_count) == (4, 3)
    assert set(b1.host_degree.tolist()) == {3}
    assert int(b1.deficit.sum()) == 6
    b0 = regular_tree_ball(5, 0)
    assert b0.vertex_count == 1 and b0.host_degree[0] == 5
    assert regular_tree_ball(3, 8).vertex_count == 766


def test_tree_kmin_is_tree_density():
    rng = np.random.default_rng(5)
    for depth in (2, 3):
        g = make_radial_family(RadialFamilySpec(beta=(3,), gamma=(0,), depth=depth))
        plain = Graph(g.vertex_count, g.edges)  # default host degrees
        n = plain.vertex_count
        assert kmin_flow(plain, None, 0.0).k == pytest.approx(2 * (n - 1) / n)
        assert kmin_flow(plain, None, 0.0).k < 2


def test_grid_kmin_below_planar_bound():
    for m in (3, 5):
        k = kmin_flow(grid_graph(m), None, 0.0).k
        assert k < 4 < 6
