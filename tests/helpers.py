"""Shared random-instance builders, the full-table brute-force
reference, max-flow oracles, the whole-network ratio search, call spies
and entry-by-entry oracles for the graph checks of the test suite."""
import contextlib
import operator
import sys

import numpy as np

from sgs import Graph, PhaseField, Potential, regular_tree_ball
from sgs.maxflow import Dinic


def random_graph(rng, n_min=2, n_max=12, p_low=0.15, p_high=0.9) -> Graph:
    n = int(rng.integers(n_min, n_max + 1))
    p = rng.uniform(p_low, p_high)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return Graph(n, edges)


def random_tree(rng, n) -> Graph:
    edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]
    return Graph(n, edges)


def tree_ball_with_chords(d, radius, chords, rng) -> Graph:
    """``regular_tree_ball(d, radius)`` with ``chords`` edges between
    distinct boundary vertices, each chord end's host degree raised by
    one (so every deficit is kept): pendant trees around a core."""
    ball = regular_tree_ball(d, radius)
    leaves = np.flatnonzero(ball.internal_degree == 1)
    ends = rng.choice(leaves, size=(chords, 2), replace=False)
    host = ball.host_degree.copy()
    np.add.at(host, ends.ravel(), 1)
    return Graph(ball.vertex_count, np.concatenate((ball.edge_ends, ends)),
                 host_degree=host)


def has_cycle(graph) -> bool:
    """Whether ``graph`` is not a forest: more edges than its vertices
    minus its components."""
    from scipy.sparse import coo_array
    from scipy.sparse.csgraph import connected_components
    n = graph.vertex_count
    u, v = graph.edge_ends.T
    count, _ = connected_components(
        coo_array((np.ones(len(u)), (u, v)), shape=(n, n)), directed=False)
    return graph.edge_count > n - count


@contextlib.contextmanager
def whole_network_cuts():
    """Inside this block every ratio search cuts its whole network, as
    on a graph without degree-one vertices: the reference for the
    folded pendant trees."""
    from sgs import sparseness
    peel = sparseness._pendant_trees
    sparseness._pendant_trees = lambda graph: ([], None, [])
    try:
        yield
    finally:
        sparseness._pendant_trees = peel


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


def cut_value(tails, heads, caps, side):
    inside = set(side)
    return sum(c for u, v, c in zip(tails, heads, caps)
               if u in inside and v not in inside)


def smallest_min_cut_side(n, tails, heads, caps):
    """By enumeration: the intersection of all minimum source sides."""
    sides, best = [], None
    for mask in range(1, 1 << (n - 1), 2):
        side = [x for x in range(n) if mask >> x & 1]
        value = cut_value(tails, heads, caps, side)
        if best is None or value < best:
            sides, best = [], value
        if value == best:
            sides.append(set(side))
    return sorted(set.intersection(*sides))


def dinic_reference(n, tails, heads, caps):
    """Flow value and smallest source side by the public :class:`Dinic`,
    one arc pair per arc, source 0 and sink n-1."""
    net = Dinic(n)
    for u, v, c in zip(tails, heads, caps):
        net.add_edge(u, v, c)
    return net.max_flow(0, n - 1), net.min_cut_source_side(0)


def spy(monkeypatch, module, name):
    """Record the arguments of every call to ``module.<name>``."""
    calls = []
    original = getattr(module, name)

    def record(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, record)
    return calls


def spy_maximum_flow(monkeypatch):
    """Record ``(matrix, result)`` of every call to scipy's
    ``maximum_flow``, which ``sgs.maxflow`` looks up on each cut."""
    import scipy.sparse.csgraph as csgraph
    solved = []
    maximum_flow = csgraph.maximum_flow

    def spy(matrix, s, t, method):
        result = maximum_flow(matrix, s, t, method=method)
        solved.append((matrix, result))
        return result

    monkeypatch.setattr(csgraph, "maximum_flow", spy)
    return solved


def edge_keys_by_pair(n, edges):
    """Oracle for ``Graph``'s edge checks, one pair at a time: the
    sorted keys ``u * n + v`` (``u < v``), or the ``ValueError`` of the
    first offending pair."""
    keys = set()
    for u, v in edges:
        try:
            u, v = operator.index(u), operator.index(v)
        except TypeError:
            raise ValueError(f"edge ({u!r},{v!r}) has a non-integer "
                             f"endpoint") from None
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for {n} vertices")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        key = u * n + v if u < v else v * n + u
        if key in keys:
            raise ValueError(f"duplicate edge ({key // n},{key % n})")
        keys.add(key)
    return sorted(keys)


def subset_members_by_entry(n, subset):
    """Oracle for ``subset_stats``'s member check, one entry at a time:
    the sorted distinct members, or the ``ValueError`` of the first
    faulty entry."""
    members = set()
    for i, x in enumerate(subset):
        try:
            x = operator.index(x)
        except TypeError:
            raise ValueError(f"subset[{i}] is not an integer: {x!r}") from None
        if not 0 <= x < n:
            raise ValueError(f"vertex index {x} out of range")
        members.add(x)
    return sorted(members)


def _finite_number(entry, key, where):
    value = entry.get(key, 0.0)
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise ValueError(f"{where}: {key} must be a finite number, "
                         f"got {value!r}")
    return float(value)


def document_to_graph_by_entry(doc):
    """Oracle for ``graphio.document_to_graph``: the graph document
    read and checked one entry at a time, every vertex entry before any
    edge entry."""
    if not isinstance(doc, dict) or "vertices" not in doc or "edges" not in doc:
        raise ValueError("graph document needs 'vertices' and 'edges'")
    for key in ("vertices", "edges"):
        if not isinstance(doc[key], list):
            raise ValueError(f"{key} must be a list, got {doc[key]!r}")
    ids, q, host, index = [], [], [], {}
    for i, entry in enumerate(doc["vertices"]):
        where = f"vertices[{i}]"
        if not isinstance(entry, dict) or "id" not in entry:
            raise ValueError(f"{where}: missing id")
        vid = entry["id"]
        if not isinstance(vid, str):
            raise ValueError(f"{where}: id must be a string, got {vid!r}")
        if vid in index:
            raise ValueError(f"{where}: duplicate id {vid!r}")
        index[vid] = i
        ids.append(vid)
        q.append(_finite_number(entry, "q", where))
        hd = entry.get("host_degree")
        if hd is not None and (isinstance(hd, bool) or not isinstance(hd, int)):
            raise ValueError(f"{where}: host_degree must be an integer, "
                             f"got {hd!r}")
        if hd is not None and hd > 2**53:
            raise ValueError(f"{where}: host_degree {hd} too large "
                             f"(limit 2**53)")
        host.append(hd)
    edges, thetas, has_theta = [], {}, False
    for j, entry in enumerate(doc["edges"]):
        where = f"edges[{j}]"
        if not isinstance(entry, dict) or "u" not in entry or "v" not in entry:
            raise ValueError(f"{where}: missing endpoint")
        u, v = entry["u"], entry["v"]
        if not (isinstance(u, str) and isinstance(v, str)):
            key, bad = ("v", v) if isinstance(u, str) else ("u", u)
            raise ValueError(f"{where}: {key} must be a string, got {bad!r}")
        try:
            u, v = index[u], index[v]
        except KeyError as exc:
            raise ValueError(f"{where}: unknown id {exc.args[0]!r}") from None
        if u == v:
            raise ValueError(f"{where}: self-loop at {entry['u']!r}")
        key = (u, v) if u < v else (v, u)
        if key in thetas:
            raise ValueError(f"{where}: duplicate edge")
        edges.append(key)
        if "theta" in entry and entry["theta"] is not None:
            has_theta = True
            t = _finite_number(entry, "theta", where)
            thetas[key] = t if u < v else -t
        else:
            thetas[key] = 0.0
    internal = [0] * len(ids)
    for (u, v) in edges:
        internal[u] += 1
        internal[v] += 1
    host = [internal[i] if h is None else h for i, h in enumerate(host)]
    for i, h in enumerate(host):
        if h < internal[i]:
            raise ValueError(f"vertices[{i}]: host degree below internal "
                             f"degree")
    graph = Graph(len(ids), edges, host_degree=host)
    phase = None
    if has_theta:
        phase = PhaseField(graph, [thetas[e] for e in graph.edges])
    return graph, Potential(q), phase, ids
