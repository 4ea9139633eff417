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
:meth:`Graph.restrict` compresses a graph to a vertex region the same
way, so a region's constants are those of its restriction.

A graph stores its edges once, as the read-only int64 array
``Graph.edge_ends`` of sorted ``(u, v)`` rows with ``u < v``; every
per-edge array (phases, operator entries, cut arcs) follows its rows.

All objects in this module are immutable after construction and safe to
share across threads (a ``Graph`` fills in its ``edges`` and
``neighbors`` tuples on first use; threads that race there build equal
tuples); :func:`subset_stats` is a pure function.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
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


def _as_index(value, name: str, position: int | None = None) -> int:
    """``value`` as an int, where ``int()`` would truncate a float or
    parse a string: anything but an integer raises ``ValueError`` naming
    ``name`` (entry ``position`` of it, if given)."""
    try:
        return operator.index(value)
    except TypeError:
        what = name if position is None else f"{name}[{position}]"
        raise ValueError(f"{what} is not an integer: {value!r}") from None


def _edge_faults(rows: np.ndarray, n: int):
    """Per-row masks of the ``(m, 2)`` int64 ``rows``: an endpoint
    outside ``0 .. n-1``, a self-loop, and a repeat of an earlier row in
    either orientation; then the rows' keys ``u * n + v`` (``u < v``)
    and the stable order that sorts them.

    A row out of range gets a key of its own below 0, so it repeats
    nothing; every key of a row in range is at least 0.
    """
    lo = np.minimum(rows[:, 0], rows[:, 1])
    hi = np.maximum(rows[:, 0], rows[:, 1])
    out = (lo < 0) | (hi >= n)
    keys = lo * n + hi
    if out.any():
        keys[out] = -1 - np.flatnonzero(out)
    order = np.argsort(keys, kind="stable")  # equal keys in row order
    ranked = keys[order]
    repeat = np.zeros(len(rows), dtype=bool)
    repeat[order[1:][ranked[1:] == ranked[:-1]]] = True
    return out, lo == hi, repeat, keys, order


def _integer_rows(pairs, n: int):
    """The pairs of ``pairs`` up to the first that is not a pair of
    integers, as ``(m, 2)`` int64 rows (an endpoint outside ``0 ..
    n-1`` as -1, so that Python integers of any width fit), and the
    error that pair raises, or ``None``."""
    rows = []
    for pair in pairs:
        try:
            u, v = pair
        except (TypeError, ValueError) as exc:
            return rows, exc
        try:
            u, v = operator.index(u), operator.index(v)
        except TypeError:
            return rows, ValueError(f"edge ({u!r},{v!r}) has a "
                                    f"non-integer endpoint")
        rows.append((u if 0 <= u < n else -1, v if 0 <= v < n else -1))
    return rows, None


def _edge_keys(edges, n: int) -> np.ndarray:
    """The sorted keys ``u * n + v`` (``u < v``) of the pairs of
    ``edges``, checked as :class:`Graph` documents it."""
    if not isinstance(edges, np.ndarray):
        edges = list(edges)
    try:
        rows = np.asarray(edges)
    except (ValueError, OverflowError):  # ragged, or wider than any dtype
        rows = None
    stop = None
    if (rows is not None and rows.dtype.kind in "iu" and rows.ndim == 2
            and rows.shape[1] == 2):
        # an unsigned endpoint past int64 wraps below 0: out of range
        rows = rows.astype(np.int64, copy=False)
    else:
        rows, stop = _integer_rows(edges, n)
        rows = np.array(rows, dtype=np.int64).reshape(-1, 2)
    out, loop, repeat, keys, order = _edge_faults(rows, n)
    bad = np.flatnonzero(out | loop | repeat)
    if bad.size:
        j = int(bad[0])
        if out[j]:
            u, v = (operator.index(x) for x in edges[j])
            raise ValueError(f"edge ({u},{v}) out of range for {n} vertices")
        u, v = sorted(rows[j].tolist())
        if loop[j]:
            raise ValueError(f"self-loop at vertex {u}")
        raise ValueError(f"duplicate edge ({u},{v})")
    if stop is not None:
        raise stop
    return keys[order]


class Graph:
    """Finite undirected simple graph on vertices ``0 .. n-1``.

    The edges live in the read-only ``(m, 2)`` int64 array
    :attr:`edge_ends` of sorted rows ``(u, v)``, ``u < v``; the degrees,
    ``neighbors``, ``edges`` and :meth:`edge_index` are read off it.
    The tuples of ``edges`` and ``neighbors`` hold Python ints, many
    times the array's memory, so each is built on first use only.

    Parameters
    ----------
    vertex_count:
        Number of vertices, a positive integer.
    edges:
        An integer ``(m, 2)`` array of pairs ``(u, v)``, or an iterable
        of integer pairs, converted to one array first.  Orientation is
        normalized away.  The pairs are checked as arrays, not one by
        one, but as if one by one: the first pair in input order with a
        non-integer endpoint, an endpoint out of range, a self-loop or
        an edge given before (in either orientation) raises
        ``ValueError``, the checks in that order within a pair.
    host_degree:
        Optional per-vertex degree in an infinite host graph.  Defaults
        to the internal degree (zero deficit everywhere).  Must dominate
        the internal degree pointwise.
    """

    __slots__ = ("_n", "_edge_ends", "_keys", "_edges", "_neighbors",
                 "_internal_degree", "_host_degree", "_deficit")

    def __init__(self, vertex_count: int,
                 edges: np.ndarray | Iterable[tuple[int, int]],
                 host_degree: Sequence[int] | None = None):
        n = _as_index(vertex_count, "vertex_count")
        if n <= 0:
            raise ValueError("vertex_count must be positive")
        self._n = n
        self._keys = _readonly(_edge_keys(edges, n))
        self._edge_ends = _readonly(np.stack(np.divmod(self._keys, n), axis=1))
        self._edges = self._neighbors = None  # built on first use
        deg = np.bincount(self._edge_ends.ravel(), minlength=n)
        self._internal_degree = _readonly(deg)
        if host_degree is None:
            host = deg.copy()
        else:
            values = (host_degree if isinstance(host_degree, np.ndarray)
                      else list(host_degree))
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
        """Build from a 0/1 edge relation, checking entries, symmetry and diagonal."""
        m = np.asarray(matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("edge relation must be a square matrix")
        n = m.shape[0]
        weights = np.argwhere((m != 0) & (m != 1))
        if weights.size:
            u, v = (int(i) for i in weights[0])
            raise ValueError(f"edge relation entry at ({u},{v}) is "
                             f"{m[u, v].item()!r}, not 0 or 1")
        if np.any(np.diag(m) != 0):
            x = int(np.flatnonzero(np.diag(m) != 0)[0])
            raise ValueError(f"self-loop at vertex {x}")
        asym = np.argwhere(m != m.T)
        if asym.size:
            u, v = (int(i) for i in asym[0])
            raise ValueError(f"asymmetric edge relation at ({u},{v})")
        return cls(n, np.argwhere(np.triu(m, 1)), host_degree)

    # -- basic accessors -------------------------------------------------
    @property
    def vertex_count(self) -> int:
        return self._n

    @property
    def edge_count(self) -> int:
        return len(self._edge_ends)

    @property
    def edge_ends(self) -> np.ndarray:
        """Read-only ``(m, 2)`` int64 array of :attr:`edges`, row for row."""
        return self._edge_ends

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Undirected edges as sorted ``(u, v)`` pairs with ``u < v``,
        the rows of :attr:`edge_ends` as Python ints, built on first use."""
        if self._edges is None:
            self._edges = tuple(map(tuple, self._edge_ends.tolist()))
        return self._edges

    def edge_index(self, x: int, y: int) -> int:
        """Row of the edge ``{x, y}`` in :attr:`edge_ends`, either
        orientation; ``ValueError`` if the pair is not an edge."""
        lo, hi = (x, y) if x < y else (y, x)
        if 0 <= lo and hi < self._n:
            key = lo * self._n + hi
            i = int(np.searchsorted(self._keys, key))
            if i < len(self._keys) and self._keys[i] == key:
                return i
        raise ValueError(f"({x},{y}) is not an edge")

    def neighbors(self, x: int) -> tuple[int, ...]:
        """The neighbours of ``x`` in increasing order; the tuples of all
        vertices are built on the first call."""
        if self._neighbors is None:
            nbrs: list[list[int]] = [[] for _ in range(self._n)]
            for u, v in self._edge_ends.tolist():  # sorted: so is each list
                nbrs[u].append(v)
                nbrs[v].append(u)
            self._neighbors = tuple(map(tuple, nbrs))
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

    def restrict(self, region: Iterable[int]) -> "Graph":
        """The induced subgraph on the vertices of ``region`` (sorted,
        de-duplicated and renumbered in that order) with their host
        degrees kept: every edge to a dropped vertex becomes deficit.
        This is the Dirichlet restriction of a truncation to a region.

        The renumbering is monotone, so the edge rows keep their order
        and a lexicographic order of vertex lists is kept too.  A region
        of every vertex returns the graph itself.
        """
        keep = np.zeros(self._n, dtype=bool)
        for i, x in enumerate(region):
            x = _as_index(x, "region", i)
            if not (0 <= x < self._n):
                raise ValueError(f"region vertex {x} out of range")
            keep[x] = True
        if not keep.any():
            raise ValueError("region must be nonempty")
        if keep.all():
            return self
        local = np.cumsum(keep) - 1
        ends = self._edge_ends[keep[self._edge_ends].all(axis=1)]
        return Graph(int(local[-1]) + 1, local[ends], self._host_degree[keep])

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
        n = (graph_or_n.vertex_count if isinstance(graph_or_n, Graph)
             else _as_index(graph_or_n, "vertex count"))
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

    __slots__ = ("_graph", "_values")

    def __init__(self, graph: Graph, values: Sequence[float]):
        v = np.asarray(values, dtype=np.float64)
        if v.shape != (graph.edge_count,):
            raise ValueError("need one phase per edge")
        if not np.all(np.isfinite(v)):
            raise ValueError("phase angles must be finite")
        self._graph = graph
        self._values = _readonly(v)

    @classmethod
    def zero(cls, graph: Graph) -> "PhaseField":
        return cls(graph, np.zeros(graph.edge_count))

    @classmethod
    def from_directed(cls, graph: Graph,
                      theta: Mapping[tuple[int, int], float]) -> "PhaseField":
        """Build from directed-pair angles, checking antisymmetry mod 2*pi."""
        vals = np.zeros(graph.edge_count)
        seen: dict[int, float] = {}
        for (x, y), t in theta.items():
            i = graph.edge_index(x, y)
            signed = float(t) if x < y else -float(t)
            if i in seen:
                diff = (seen[i] - signed) % _TWO_PI
                if min(diff, _TWO_PI - diff) > 1e-12:
                    raise ValueError("phase violates antisymmetry on edge "
                                     f"{graph.edges[i]}")
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
        t = self._values[self._graph.edge_index(x, y)]
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
    """Count |W|, |E_W|, |dW|, deg(W) and potential sums for ``subset``.

    The potential sums add q over W in increasing vertex order, so a
    graph and its :meth:`Graph.restrict` give the same bits."""
    n = graph.vertex_count
    members = set()
    for i, x in enumerate(subset):
        x = _as_index(x, "subset", i)
        if not (0 <= x < n):
            raise ValueError(f"vertex index {x} out of range")
        members.add(x)
    if not members:
        return SubsetStats(0, 0, 0, 0, 0.0, 0.0)
    # sorted: the float sums must not follow the order of a set
    idx = np.sort(np.fromiter(members, dtype=np.int64))
    inside = np.zeros(n, dtype=bool)
    inside[idx] = True
    ends = inside[graph.edge_ends]
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
