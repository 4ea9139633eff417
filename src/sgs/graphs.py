"""Core graph, potential, and phase primitives.

Graphs here are finite, undirected and simple, with one twist: every
vertex may carry a *host degree*, the degree it has in an infinite host
graph of which the finite graph is a truncation.  The difference

    deficit(x) = host_degree(x) - internal_degree(x) >= 0

counts edges of the host that were cut off.  Deficits are charged to
every boundary count and (in :mod:`sgs.operators`) to every operator
diagonal, which makes the truncation a Dirichlet compression of the
host: subset functionals and spectral bounds computed on the finite
graph are valid certificates for the infinite object.

All objects in this module are immutable after construction and safe to
share across threads; :func:`subset_stats` is a pure function.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "Graph",
    "Potential",
    "PhaseField",
    "SubsetStats",
    "subset_stats",
    "breadth_first_spheres",
]

_TWO_PI = 2.0 * np.pi


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


class Graph:
    """Finite undirected simple graph on vertices ``0 .. n-1``.

    Parameters
    ----------
    vertex_count:
        Number of vertices, positive.
    edges:
        Iterable of pairs ``(u, v)``; orientation and duplicates with
        swapped endpoints are normalized away, real duplicates and
        self-loops are rejected.
    host_degree:
        Optional per-vertex degree in an infinite host graph.  Defaults
        to the internal degree (zero deficit everywhere).  Must dominate
        the internal degree pointwise.
    """

    __slots__ = ("_n", "_edges", "_neighbors", "_internal_degree",
                 "_host_degree", "_deficit")

    def __init__(self, vertex_count: int,
                 edges: Iterable[tuple[int, int]],
                 host_degree: Sequence[int] | None = None):
        n = int(vertex_count)
        if n <= 0:
            raise ValueError("vertex_count must be positive")
        canon: set[tuple[int, int]] = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for {n} vertices")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            pair = (u, v) if u < v else (v, u)
            if pair in canon:
                raise ValueError(f"duplicate edge ({pair[0]},{pair[1]})")
            canon.add(pair)
        edge_list = tuple(sorted(canon))
        nbrs: list[list[int]] = [[] for _ in range(n)]
        for u, v in edge_list:
            nbrs[u].append(v)
            nbrs[v].append(u)
        self._n = n
        self._edges = edge_list
        self._neighbors = tuple(tuple(sorted(a)) for a in nbrs)
        deg = np.array([len(a) for a in self._neighbors], dtype=np.int64)
        self._internal_degree = _readonly(deg)
        if host_degree is None:
            host = deg.copy()
        else:
            values = list(host_degree)
            if len(values) != n:
                raise ValueError("host_degree must have one entry per vertex")
            host = np.asarray(values)
            if host.dtype.kind not in "iu":  # floats, or Python ints past int64
                for x, h in enumerate(values):
                    integral = isinstance(h, (int, np.integer)) or (
                        isinstance(h, (float, np.floating))
                        and float(h).is_integer())
                    if not integral:
                        raise ValueError(f"host degree at vertex {x} is not "
                                         f"an integer: {h!r}")
                host = np.array([int(h) for h in values])
            host = host.astype(np.int64)
        deficit = host - deg
        bad = np.flatnonzero(deficit < 0)
        if bad.size:
            x = int(bad[0])
            raise ValueError(
                f"host degree below internal degree at vertex {x} "
                f"({int(host[x])} < {int(deg[x])})")
        self._host_degree = _readonly(host)
        self._deficit = _readonly(deficit)

    @classmethod
    def from_matrix(cls, matrix, host_degree: Sequence[int] | None = None) -> "Graph":
        """Build from a 0/1 edge relation, checking symmetry and zero diagonal."""
        m = np.asarray(matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("edge relation must be a square matrix")
        n = m.shape[0]
        if np.any(np.diag(m) != 0):
            x = int(np.flatnonzero(np.diag(m) != 0)[0])
            raise ValueError(f"self-loop at vertex {x}")
        asym = np.argwhere(m != m.T)
        if asym.size:
            u, v = (int(i) for i in asym[0])
            raise ValueError(f"asymmetric edge relation at ({u},{v})")
        us, vs = np.nonzero(np.triu(m, 1))
        return cls(n, zip(us.tolist(), vs.tolist()), host_degree)

    # -- basic accessors -------------------------------------------------
    @property
    def vertex_count(self) -> int:
        return self._n

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Undirected edges as sorted ``(u, v)`` pairs with ``u < v``."""
        return self._edges

    def neighbors(self, x: int) -> tuple[int, ...]:
        return self._neighbors[x]

    @property
    def internal_degree(self) -> np.ndarray:
        return self._internal_degree

    @property
    def host_degree(self) -> np.ndarray:
        return self._host_degree

    @property
    def deficit(self) -> np.ndarray:
        return self._deficit

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Graph(n={self._n}, m={self.edge_count}, "
                f"deficit_total={int(self._deficit.sum())})")


class Potential:
    """Per-vertex real potential with its positive/negative parts."""

    __slots__ = ("_values",)

    def __init__(self, values: Sequence[float]):
        v = np.asarray(values, dtype=np.float64)
        if v.ndim != 1:
            raise ValueError("potential must be a flat sequence")
        if not np.all(np.isfinite(v)):
            raise ValueError("potential values must be finite")
        self._values = _readonly(v)

    @classmethod
    def zero(cls, graph_or_n) -> "Potential":
        n = graph_or_n.vertex_count if isinstance(graph_or_n, Graph) else int(graph_or_n)
        return cls(np.zeros(n))

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def plus(self) -> np.ndarray:
        """Positive part max(q, 0)."""
        return np.maximum(self._values, 0.0)

    @property
    def minus(self) -> np.ndarray:
        """Negative part max(-q, 0); the potential equals plus - minus."""
        return np.maximum(-self._values, 0.0)

    def __len__(self) -> int:
        return len(self._values)


class PhaseField:
    """Antisymmetric edge phases for magnetic operators.

    Stores one angle per undirected edge of ``graph`` (in the canonical
    ``u < v`` orientation); the reversed orientation carries the negated
    angle, so antisymmetry holds by construction.  Building from
    explicit directed data validates antisymmetry modulo 2*pi.
    """

    __slots__ = ("_graph", "_values", "_index")

    def __init__(self, graph: Graph, values: Sequence[float]):
        v = np.asarray(values, dtype=np.float64)
        if v.shape != (graph.edge_count,):
            raise ValueError("need one phase per edge")
        if not np.all(np.isfinite(v)):
            raise ValueError("phase angles must be finite")
        self._graph = graph
        self._values = _readonly(v)
        self._index = {e: i for i, e in enumerate(graph.edges)}

    @classmethod
    def zero(cls, graph: Graph) -> "PhaseField":
        return cls(graph, np.zeros(graph.edge_count))

    @classmethod
    def from_directed(cls, graph: Graph,
                      theta: Mapping[tuple[int, int], float]) -> "PhaseField":
        """Build from directed-pair angles, checking antisymmetry mod 2*pi."""
        vals = np.zeros(graph.edge_count)
        index = {e: i for i, e in enumerate(graph.edges)}
        seen: dict[int, float] = {}
        for (x, y), t in theta.items():
            key = (x, y) if x < y else (y, x)
            if key not in index:
                raise ValueError(f"({x},{y}) is not an edge")
            signed = float(t) if x < y else -float(t)
            i = index[key]
            if i in seen:
                diff = (seen[i] - signed) % _TWO_PI
                if min(diff, _TWO_PI - diff) > 1e-12:
                    raise ValueError(
                        f"phase violates antisymmetry on edge {key}")
            else:
                seen[i] = signed
                vals[i] = signed
        return cls(graph, vals)

    @classmethod
    def random(cls, graph: Graph, rng: np.random.Generator) -> "PhaseField":
        return cls(graph, rng.uniform(-np.pi, np.pi, size=graph.edge_count))

    @property
    def graph(self) -> Graph:
        return self._graph

    @property
    def values(self) -> np.ndarray:
        """Angles for the canonical ``u < v`` orientation of each edge."""
        return self._values

    def theta(self, x: int, y: int) -> float:
        key = (x, y) if x < y else (y, x)
        i = self._index.get(key)
        if i is None:
            raise ValueError(f"({x},{y}) is not an edge")
        t = self._values[i]
        return float(t if x < y else -t)

    def shifted_by_pi(self) -> "PhaseField":
        """The phase with pi added to every directed angle (still antisymmetric mod 2*pi)."""
        return PhaseField(self._graph, self._values + np.pi)

    def negated(self) -> "PhaseField":
        return PhaseField(self._graph, -self._values)


@dataclass(frozen=True)
class SubsetStats:
    """Exact counts for one vertex subset W.

    ``boundary`` is host-aware: edges leaving W inside the finite graph
    plus the summed deficits of W's members.  The integer identity
    ``degree_sum == 2*induced_edges + boundary`` always holds.
    """
    size: int
    induced_edges: int
    boundary: int
    degree_sum: int
    q_sum: float
    q_plus_sum: float


def subset_stats(graph: Graph, potential: Potential | None,
                 subset: Iterable[int]) -> SubsetStats:
    """Count |W|, |E_W|, |dW|, deg(W) and potential sums for ``subset``."""
    n = graph.vertex_count
    members = set()
    for x in subset:
        x = int(x)
        if not (0 <= x < n):
            raise ValueError(f"vertex index {x} out of range")
        members.add(x)
    if not members:
        return SubsetStats(0, 0, 0, 0, 0.0, 0.0)
    idx = np.fromiter(members, dtype=np.int64)
    inside = np.zeros(n, dtype=bool)
    inside[idx] = True
    ends = inside[np.fromiter(chain.from_iterable(graph.edges), np.int64,
                              2 * graph.edge_count)].reshape(-1, 2)
    induced = int(np.count_nonzero(ends[:, 0] & ends[:, 1]))
    # Python integers: host degrees reach 2**53, so an int64 sum can wrap
    degree_sum = sum(graph.host_degree[idx].tolist())
    boundary = degree_sum - 2 * induced
    if potential is None:
        q_sum = q_plus = 0.0
    else:
        if len(potential) != n:
            raise ValueError("potential length does not match graph")
        q_sum = float(potential.values[idx].sum())
        q_plus = float(potential.plus[idx].sum())
    return SubsetStats(len(members), induced, boundary, degree_sum, q_sum, q_plus)


def breadth_first_spheres(graph: Graph, root: int = 0) -> list[list[int]]:
    """Vertices grouped by BFS distance from ``root`` (unreachable ones omitted)."""
    if not (0 <= root < graph.vertex_count):
        raise ValueError("root out of range")
    dist = {root: 0}
    spheres = [[root]]
    frontier = [root]
    while frontier:
        nxt = []
        for x in frontier:
            for y in graph.neighbors(x):
                if y not in dist:
                    dist[y] = dist[x] + 1
                    nxt.append(y)
        if nxt:
            spheres.append(sorted(nxt))
        frontier = nxt
    return spheres
