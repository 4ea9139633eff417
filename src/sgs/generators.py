"""Graph constructors: standard shapes, radial tree families, ball
truncations, and the edge union and cartesian sum of two graphs.

Radial families are trees with prescribed sphere degrees plus a regular
graph on every distance sphere; truncating one at depth N records the
missing forward edges as host-degree deficits, so the finite graph is a
faithful Dirichlet truncation of the infinite family member.

No constructor is provided for graphs 2-cell embedded in a genus-g
surface; such graphs obey the sparseness constant 4g + 2 (6 in the
planar case), which the sparseness optimizers will confirm on any
instance supplied externally.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .graphs import Graph, _as_index

__all__ = [
    "path_graph", "cycle_graph", "complete_graph", "grid_graph",
    "star_graph", "antitree", "make_basic",
    "RadialFamilySpec", "make_radial_family",
    "edge_union", "cartesian_sum", "regular_tree_ball",
]


def path_graph(n: int) -> Graph:
    n = _as_index(n, "n")
    if n < 1:
        raise ValueError("path needs at least one vertex")
    return Graph(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    n = _as_index(n, "n")
    if n < 3:
        raise ValueError("cycle needs at least three vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    n = _as_index(n, "n")
    if n < 1:
        raise ValueError("complete graph needs at least one vertex")
    return Graph(n, ((i, j) for i in range(n) for j in range(i + 1, n)))


def grid_graph(m: int) -> Graph:
    """The m-by-m planar square lattice."""
    m = _as_index(m, "m")
    if m < 1:
        raise ValueError("grid needs positive side length")
    edges = []
    for r in range(m):
        for c in range(m):
            x = r * m + c
            if c + 1 < m:
                edges.append((x, x + 1))
            if r + 1 < m:
                edges.append((x, x + m))
    return Graph(m * m, edges)


def star_graph(n: int) -> Graph:
    """Center vertex 0 joined to n-1 leaves."""
    n = _as_index(n, "n")
    if n < 1:
        raise ValueError("star needs at least one vertex")
    return Graph(n, ((0, i) for i in range(1, n)))


def antitree(sphere_sizes: Sequence[int]) -> Graph:
    """Complete joins between consecutive spheres of the given sizes."""
    sizes = [_as_index(s, "sphere_sizes", i)
             for i, s in enumerate(sphere_sizes)]
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError("sphere sizes must be positive")
    offsets = [0]
    for s in sizes:
        offsets.append(offsets[-1] + s)
    edges = []
    for k in range(len(sizes) - 1):
        for u in range(offsets[k], offsets[k + 1]):
            for v in range(offsets[k + 1], offsets[k + 2]):
                edges.append((u, v))
    return Graph(offsets[-1], edges)


_BASIC: dict[str, Callable[..., Graph]] = {
    "path": path_graph,
    "cycle": cycle_graph,
    "complete": complete_graph,
    "grid": grid_graph,
    "star": star_graph,
    "antitree": antitree,
}


def make_basic(kind: str, *args, **kwargs) -> Graph:
    """Dispatch to one of path/cycle/complete/grid/star/antitree."""
    try:
        builder = _BASIC[kind]
    except KeyError:
        raise ValueError(f"unknown graph kind {kind!r}") from None
    return builder(*args, **kwargs)


@dataclass(frozen=True)
class RadialFamilySpec:
    """Parameters of a radial tree family with regular sphere graphs.

    ``beta[n]`` is the tree degree of sphere-n vertices (the root has
    ``beta[0]`` children, deeper vertices have ``beta[n] - 1`` forward
    children), ``gamma[n]`` the regularity degree of the graph placed on
    sphere n, and ``depth`` the truncation depth.  Sequences shorter
    than ``depth + 1`` are extended by repeating their last entry, so
    eventually-constant families can be written compactly.
    """
    beta: tuple[int, ...]
    gamma: tuple[int, ...]
    depth: int

    def __post_init__(self):
        object.__setattr__(self, "depth", _as_index(self.depth, "depth"))
        if self.depth < 0:
            raise ValueError("depth must be non-negative")
        beta = _extend(self.beta, self.depth, "beta")
        gamma = _extend(self.gamma, self.depth, "gamma")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "gamma", gamma)
        for n, b in enumerate(beta):
            if b < 2:
                raise ValueError(f"beta[{n}] must be >= 2")
        for n, g in enumerate(gamma):
            if g < 0:
                raise ValueError(f"gamma[{n}] must be >= 0")
        self.check_feasible()

    def sphere_sizes(self) -> list[int]:
        """|S_0| = 1, |S_1| = beta[0], |S_{n+1}| = |S_n| * (beta[n] - 1)."""
        sizes = [1]
        if self.depth >= 1:
            sizes.append(self.beta[0])
        for n in range(1, self.depth):
            sizes.append(sizes[-1] * (self.beta[n] - 1))
        return sizes

    def check_feasible(self) -> None:
        """Each sphere must admit a gamma[n]-regular graph."""
        for n, size in enumerate(self.sphere_sizes()):
            g = self.gamma[n]
            if g >= size:
                raise ValueError(
                    f"infeasible sphere graph at n={n}: gamma={g} >= |S_n|={size}")
            if (g * size) % 2 != 0:
                raise ValueError(
                    f"infeasible sphere graph at n={n}: gamma*|S_n|={g * size} is odd")


def _extend(seq: Sequence[int], depth: int, name: str) -> tuple[int, ...]:
    vals = tuple(_as_index(v, name, i) for i, v in enumerate(seq))
    if not vals:
        raise ValueError(f"{name} must be non-empty")
    if len(vals) < depth + 1:
        vals = vals + (vals[-1],) * (depth + 1 - len(vals))
    return vals


def _circulant_edges(vertices: Sequence[int], degree: int) -> list[tuple[int, int]]:
    """Deterministic degree-regular graph on the given vertex list.

    Each vertex is joined to its floor(degree/2) cyclic successors; an
    odd degree (legal only for even cycles) adds the antipodal chord.
    """
    s = len(vertices)
    edges = []
    half = degree // 2
    for i in range(s):
        for j in range(1, half + 1):
            edges.append((vertices[i], vertices[(i + j) % s]))
    if degree % 2 == 1:
        for i in range(s // 2):
            edges.append((vertices[i], vertices[i + s // 2]))
    return edges


def make_radial_family(spec: RadialFamilySpec) -> Graph:
    """Depth-``spec.depth`` truncation of the radial family member.

    Vertices are indexed in breadth-first order sphere by sphere.  Host
    degrees equal the degree in the infinite graph, so every vertex of
    the last sphere carries a forward deficit of ``beta[depth] - 1``.
    """
    spec.check_feasible()
    sizes = spec.sphere_sizes()
    offsets = [0]
    for s in sizes:
        offsets.append(offsets[-1] + s)
    n_total = offsets[-1]
    edges: list[tuple[int, int]] = []
    # tree edges: children of the root, then beta[n]-1 children per vertex
    for depth in range(spec.depth):
        parents = range(offsets[depth], offsets[depth + 1])
        children = iter(range(offsets[depth + 1], offsets[depth + 2]))
        fanout = spec.beta[0] if depth == 0 else spec.beta[depth] - 1
        for p in parents:
            for _ in range(fanout):
                edges.append((p, next(children)))
    # sphere graphs
    for depth in range(spec.depth + 1):
        g = spec.gamma[depth]
        if g:
            sphere = list(range(offsets[depth], offsets[depth + 1]))
            edges.extend(_circulant_edges(sphere, g))
    host = []
    for depth in range(spec.depth + 1):
        full = spec.beta[depth] + spec.gamma[depth]
        host.extend([full] * sizes[depth])
    return Graph(n_total, edges, host_degree=host)


def edge_union(g1: Graph, g2: Graph) -> Graph:
    """The graph with the edges of both, on their common vertex set."""
    if g1.vertex_count != g2.vertex_count:
        raise ValueError("edge_union requires identical vertex sets")
    ends = np.unique(np.concatenate((g1.edge_ends, g2.edge_ends)), axis=0)
    return Graph(g1.vertex_count, ends.tolist())


def cartesian_sum(g1: Graph, g2: Graph) -> Graph:
    """``(x1,x2) ~ (y1,y2)`` when one coordinate agrees and the other is
    an edge; the product index is ``x1 * |V2| + x2``."""
    n1, n2 = g1.vertex_count, g2.vertex_count
    copies = g2.edge_ends + n2 * np.arange(n1)[:, None, None]
    fibres = n2 * g1.edge_ends[:, None, :] + np.arange(n2)[:, None]
    return Graph(n1 * n2, np.concatenate(
        (copies.reshape(-1, 2), fibres.reshape(-1, 2))).tolist())


def regular_tree_ball(d: int, radius: int) -> Graph:
    """Ball of the given radius in the infinite d-regular tree.

    Host degrees are d everywhere, so the boundary sphere carries a
    deficit of d - 1 per vertex (d at radius 0).
    """
    if d < 2:
        raise ValueError("regular tree needs degree >= 2")
    if radius < 0:
        raise ValueError("radius must be non-negative")
    return make_radial_family(RadialFamilySpec(beta=(d,), gamma=(0,), depth=radius))

