"""Shared random-instance builders and the full-table brute-force
reference for the test suite."""
import numpy as np

from sgs import Graph, PhaseField, Potential


def random_graph(rng, n_min=2, n_max=12, p_low=0.15, p_high=0.9) -> Graph:
    n = int(rng.integers(n_min, n_max + 1))
    p = rng.uniform(p_low, p_high)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return Graph(n, edges)


def random_tree(rng, n) -> Graph:
    edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]
    return Graph(n, edges)


def uniform_potential(rng, n, low, high) -> Potential:
    return Potential(rng.uniform(low, high, n))


def full_subset_tables(graph, sums):
    """Reference for the brute-force sweep: full tables over all 2^m
    vertex subsets, built by doubling.

    Index c holds the subset whose bit b is set for vertex m - 1 - b;
    returns 2|E_W|, |W| (uint8) and, per array in ``sums``, its sum
    over W.  Adding vertices from the last down to the first makes every
    float sum add its lowest member last.
    """
    m = graph.vertex_count
    twice_edges, size = np.zeros(1 << m), np.zeros(1 << m, dtype=np.uint8)
    tables = [np.zeros(1 << m) for _ in sums]
    lower = np.arange((1 << m) // 2, dtype=np.uint32)
    for b in range(m):
        x, h = m - 1 - b, 1 << b
        adj = np.uint32(sum(1 << (m - 1 - y) for y in graph.neighbors(x)))
        np.add(twice_edges[:h], 2 * np.bitwise_count(lower[:h] & adj),
               out=twice_edges[h:2 * h])
        np.add(size[:h], 1, out=size[h:2 * h])
        for t, w in zip(tables, sums):
            np.add(t[:h], w[x], out=t[h:2 * h])
    return twice_edges, size, tables


def full_best_subset(size, values):
    """The nonempty subset with the largest entry of ``values`` over
    :func:`full_subset_tables`' indices; ties go to the fewest vertices,
    then the lexicographically smallest vertex list.  Overwrites
    ``values[0]``, the empty set's entry."""
    m = len(values).bit_length() - 1
    values[0] = -np.inf
    cand = np.flatnonzero(values == values.max())
    sizes = size[cand]
    cand = cand[sizes == sizes.min()]
    return min(tuple(m - 1 - b for b in reversed(range(m)) if c >> b & 1)
               for c in cand.tolist())


def restricted(graph, potential, region, phase=None):
    """``graph.restrict(region)`` with the potential, and the phase if
    given, restricted to match: q on the sorted region, the angles of
    the edge rows kept (the restriction keeps their order)."""
    vertices = np.unique(np.asarray(region))
    sub = graph.restrict(vertices)
    q = None if potential is None else Potential(potential.values[vertices])
    if phase is None:
        return sub, q
    keep = np.zeros(graph.vertex_count, dtype=bool)
    keep[vertices] = True
    rows = keep[graph.edge_ends].all(axis=1)
    return sub, q, PhaseField(sub, phase.values[rows])


def full_kmin_objective(twice_edges, size, deg, qplus, a):
    """(2|E_W| - a (|dW| + q_+(W))) / |W| over the full tables."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return (twice_edges - a * ((deg - twice_edges) + qplus)) / size


def full_cheeger_objective(twice_edges, deg, q):
    """-(|dW| + q(W)) / (deg W + q(W)) over the full tables, 0 where the
    denominator vanishes."""
    den = deg + q
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(den == 0.0, 0.0, -((deg - twice_edges) + q) / den)
