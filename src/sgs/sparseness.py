"""Sparseness constants, density thresholds, and Cheeger constants.

For a finite graph with potential q and a >= 0, the minimal k making
every vertex subset W satisfy

    2|E_W| <= k|W| + a(|dW| + q_+(W))

is the maximum over nonempty W of (2|E_W| - a(|dW| + q_+(W))) / |W|.
Boundaries are host-aware throughout (cut edges plus deficits), so the
constants computed on a truncation certify the infinite host.

k_min and the Cheeger constant have two routes each, one function per
route: the brute-force oracles :func:`kmin_bruteforce` and
:func:`cheeger_bruteforce`, which enumerate all subsets (guarded to 22
vertices), and the production paths :func:`kmin_flow` and
:func:`cheeger`.  The oracles sweep the subsets in blocks of 2^13
consecutive indices (``_sweep``): per block the sweep builds 2|E_W|,
|W| and the degree and potential sums, none of which depend on a, from
the parent block on a stack, computes the objectives in place and
folds them into a running witness pick with a fixed tie-break
(``_pick``).  So memory grows with the number of vertices, not with
2^n, and one sweep serves every a of a grid.  The (a, 0) threshold has
the production path only.  The production path of k_min, of the (a, 0)
threshold and of the Cheeger constant is one ratio search, ``_RatioSearch``:
Dinkelbach's ratio iteration with each linearized subproblem solved
exactly by one minimum s-t cut.  Each constant maximizes a ratio N/D of
affine subset functionals, which its route passes as exact coefficients.
A search builds the cut network of a graph once
(:func:`sgs.maxflow.cut_network`) and serves every ratio asked of it: a
step only recomputes the terminal capacities, as one numpy expression,
and each ratio starts from the best of its route's start and the
witnesses already found.  So the whole a-grid of :func:`kmin_flow`, and
with :func:`sparsity_flow` the threshold too, share one network, and a
previous a's optimum is often confirmed by one cut.  The constants of
a vertex region are those of its restriction
(:meth:`sgs.graphs.Graph.restrict`), whose host degrees turn every edge
leaving the region into deficit; no route takes a region of its own.
All flow
arithmetic is exact: float inputs are dyadic rationals and are
converted losslessly to fractions, capacities are rescaled to
integers, subset sums are taken in Python integers, and the iteration
terminates because the achievable ratios form a finite set.

Pendant trees are folded, not cut: a search peels the degree-one
vertices once, leaf to root, and builds its network on the core that
is left.  Each step folds the terminal weights of the peeled vertices
into the vertex each hangs from, cuts the core, and unfolds the trees
by a strict rule that keeps the smallest maximizing subset
(:class:`_RatioSearch`).  So a tree takes no cut at all.

Each cut goes through :func:`sgs.maxflow.min_cut`, which holds every
network as one symmetric CSR pattern.  Networks of at least 512 arcs
of nonzero capacity run on scipy's compiled Dinic in exact bit-scaling
rounds, one round when the capacities fit int32 (as for most networks
of integer potentials); the wide capacities of float potentials take
one round and a contracted network of a few nodes.  Smaller networks
run on the exact Python Dinic on the same pattern's live pairs.  Both
give the same witness: the vertices the source reaches in the residual
graph of a maximum flow, which form the smallest minimum cut.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

import numpy as np

from .graphs import Graph, Potential, SubsetStats, subset_stats
from .maxflow import cut_network, min_cut

__all__ = [
    "SparsenessCertificate", "CheegerCertificate", "SparsityThreshold",
    "kmin_bruteforce", "kmin_flow", "amin_zero_k", "sparsity_flow", "cheeger",
    "cheeger_bruteforce", "cheeger_lower_bound", "potential_class_kappa",
    "ENUMERATION_LIMIT",
]

ENUMERATION_LIMIT = 22
_MAX_RATIO_ITERATIONS = 64


@dataclass(frozen=True)
class SparsenessCertificate:
    """Witness subset for a sparseness query at a fixed ``a``.

    ``ratio`` is the achieved value of (2|E_W| - a(|dW|+q_+(W)))/|W|;
    ``k`` clamps it at zero (``clamped`` records when that happened).
    """
    a: float
    k: float
    ratio: float
    witness: tuple[int, ...]
    stats: SubsetStats
    clamped: bool


@dataclass(frozen=True)
class CheegerCertificate:
    """Witness subset attaining the isoperimetric minimum."""
    ratio: float
    witness: tuple[int, ...]
    stats: SubsetStats


@dataclass(frozen=True)
class SparsityThreshold:
    """Least ``a`` such that the pair is (a, 0)-sparse; may be infinite."""
    value: float
    witness: tuple[int, ...]
    stats: SubsetStats


# -- exact-arithmetic helpers ---------------------------------------------

def _as_fraction(x, name: str) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    xf = float(x)
    if not math.isfinite(xf):
        raise ValueError(f"{name} must be finite, got {xf!r}")
    return Fraction(xf)  # exact: IEEE floats are dyadic rationals


def _exact_potential(values: np.ndarray) -> tuple[list[int], int]:
    """Per-vertex numerators over one common denominator (exact)."""
    ratios = [v.as_integer_ratio() for v in values.tolist()]
    den = lcm(*(d for _, d in ratios))
    return [p * (den // d) for p, d in ratios], den


def _float(x: Fraction) -> float:
    return x.numerator / x.denominator


# -- subset enumeration -------------------------------------------------------

# log2 of the entries per block of the sweep: 2^13 and 2^14 were the
# fastest at 20 and 22 vertices (2-core x86-64); 2^16 was slower, and
# 2^11 and 2^12 were slower for the per-block overhead
_BLOCK_BITS = 13


def _check_enumerable(m: int) -> None:
    if m > ENUMERATION_LIMIT:
        raise ValueError(f"{m} vertices are too many for enumeration "
                         f"(limit {ENUMERATION_LIMIT})")


def _block_length(m: int) -> int:
    """Entries per block of :func:`_sweep` over m vertices."""
    return 1 << min(m, _BLOCK_BITS)


def _sweep(graph: Graph, sums: Sequence[np.ndarray], objective,
           count: int) -> list[tuple[int, ...]]:
    """The witnesses of ``count`` objectives over the nonempty subsets W
    of the graph's vertices (at most 22), one per objective.

    Subset index c holds the W whose bit b is set for the vertex
    m - 1 - b.  The sweep builds the tables 2|E_W|, |W| and,
    per array in ``sums`` (indexed by vertex), its sum over W, one block
    of 2^k consecutive indices at a time, k = min(m, ``_BLOCK_BITS``).
    ``objective(twice_edges, size, tables, values)`` writes the block's
    objectives into the rows of ``values``; :func:`_pick` folds each row
    into its objective's running witness.

    The low k bits are one block, built by doubling: adding vertices
    from the last down to the first makes every float sum add its
    lowest member last, and which float values tie decides the witness.
    The blocks of the high bits are visited depth first, each built
    from its parent block, the block without its highest bit, by adding
    that bit's vertex last, so every entry is the full doubling's bit
    for bit.  The stack holds one block per level, m - k + 1 in all, and
    building a block allocates nothing.
    """
    m = graph.vertex_count
    _check_enumerable(m)
    k = min(m, _BLOCK_BITS)
    block, depth = _block_length(m), m - k
    vertex = range(m - 1, -1, -1)  # by bit
    adj = [sum(1 << (m - 1 - y) for y in graph.neighbors(x))
           for x in vertex]  # by bit
    # level d of the stack holds the block of a d-bit high part, whose
    # sizes are the low part's popcounts plus d, as floats (a float
    # divisor is faster than uint8, and small integers are exact)
    twice_edges, size, *tables = stack = np.empty(
        (2 + len(sums), depth + 1, block))
    stack[:, 0, 0] = 0.0  # the empty set; doubling writes the rest
    low = np.arange(block, dtype=np.uint32)  # 22 vertices fit 32-bit masks
    np.add(np.bitwise_count(low), np.arange(depth + 1)[:, None], out=size)
    te0 = twice_edges[0]
    for b in range(k):
        h = 1 << b
        np.add(te0[:h], 2 * np.bitwise_count(low[:h] & np.uint32(adj[b])),
               out=te0[h:2 * h])
        for t, w in zip(tables, sums):
            np.add(t[0, :h], w[vertex[b]], out=t[0, h:2 * h])
    # 2|E_W| gains, per high bit, twice its edges into the low part
    rows = np.empty((depth, block))
    for j in range(depth):
        np.multiply(np.bitwise_count(low & np.uint32(adj[k + j])), 2,
                    out=rows[j])
    levels = [(twice_edges[d], size[d], [t[d] for t in tables])
              for d in range(depth + 1)]
    values = np.empty((count, block))
    best = [[-np.inf, np.inf, 0] for _ in range(count)]

    path, high, nxt = [], 0, k  # high bits of the block, ascending
    objective(*levels[0], values)
    values[:, 0] = -np.inf  # the empty set
    while True:
        for row, pick in zip(values, best):
            _pick(pick, high, levels[len(path)][1], row)
        while nxt == m and path:  # back up to the next sibling
            last = path.pop()
            high ^= 1 << last
            nxt = last + 1
        if nxt == m:
            break
        (te_up, _, up), (te, sz, cur) = levels[len(path):len(path) + 2]
        np.add(te_up, rows[nxt - k], out=te)
        inner = 2 * (high & adj[nxt]).bit_count()
        if inner:
            te += inner
        for t_up, t, w in zip(up, cur, sums):
            np.add(t_up, w[vertex[nxt]], out=t)
        path.append(nxt)
        high |= 1 << nxt
        nxt += 1
        objective(te, sz, cur, values)
    return [tuple(m - 1 - b for b in reversed(range(m)) if c >> b & 1)
            for _, _, c in best]


def _pick(best: list, base: int, size: np.ndarray,
          values: np.ndarray) -> None:
    """Fold one block of an objective, whose entry j is subset index
    ``base + j``, into the running pick ``best`` = [value, size, index].

    The largest value wins; ties go to the fewest vertices, then to the
    lexicographically smallest vertex list, which among subsets of one
    size is the largest index (a higher bit is an earlier vertex).  The
    empty set, index 0, never wins, even when every value is -inf.
    """
    top = values.max()
    if top < best[0]:
        return
    cand = np.flatnonzero(values == top)
    if not base:
        cand = cand[cand > 0]
    sizes = size[cand]
    least = sizes.min()
    index = base + int(cand[sizes == least][-1])
    if (top, -least, index) > (best[0], -best[1], best[2]):
        best[:] = top, least, index


def _check_potential(graph: Graph, potential: Potential | None) -> Potential:
    if potential is None:
        return Potential.zero(graph)
    if len(potential) != graph.vertex_count:
        raise ValueError("potential length does not match graph")
    return potential


# -- k_min ------------------------------------------------------------------

def kmin_bruteforce(graph: Graph, potential: Potential | None, a
                    ) -> SparsenessCertificate | list[SparsenessCertificate]:
    """Exact k_min(a) by enumerating every nonempty subset (|V| <= 22).

    ``a`` is a number, which gives one certificate, or a sequence of
    numbers, which gives one certificate per entry, in order.  One
    sweep over the subsets (:func:`_sweep`) serves every entry: its
    tables do not depend on ``a``.  The first entry is checked, then
    the vertex limit, then the later entries, so the errors, and their
    order, are those of one call per entry.  An empty sequence sweeps
    nothing.

    Ties are broken by smallest witness size, then lexicographically
    smallest vertex list.
    """
    single = np.ndim(a) == 0
    grid = [a] if single else list(a)
    if not grid:
        return []
    potential = _check_potential(graph, potential)
    afs = [_float(_nonnegative_a(grid[0]))]
    _check_enumerable(graph.vertex_count)
    afs += [_float(_nonnegative_a(value)) for value in grid[1:]]
    mass = np.empty(_block_length(graph.vertex_count))

    def objective(twice_edges, size, tables, values):
        # |dW| + q_+(W), summed as the ratio always summed it
        deg, qplus = tables
        np.subtract(deg, twice_edges, out=mass)
        np.add(mass, qplus, out=mass)
        # (2|E_W| - a (|dW| + q_+(W))) / |W|; a = 0 subtracts 0 exactly
        for af, row in zip(afs, values):
            if af:
                np.multiply(mass, af, out=row)
                np.subtract(twice_edges, row, out=row)
                np.divide(row, size, out=row)
            else:
                np.divide(twice_edges, size, out=row)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        witnesses = _sweep(graph, (graph.host_degree, potential.plus),
                           objective, len(afs))
    certs = [_kmin_certificate(graph, potential, af, w)
             for af, w in zip(afs, witnesses)]
    return certs[0] if single else certs


def _kmin_certificate(graph: Graph, potential: Potential, a: float,
                      witness: tuple[int, ...]) -> SparsenessCertificate:
    stats = subset_stats(graph, potential, witness)
    ratio = (2.0 * stats.induced_edges
             - a * (stats.boundary + stats.q_plus_sum)) / stats.size
    return SparsenessCertificate(a=a, k=max(0.0, ratio), ratio=ratio,
                                 witness=witness, stats=stats,
                                 clamped=ratio < 0.0)


def _pendant_trees(graph: Graph) -> tuple[list[tuple[int, int]],
                                          np.ndarray | None, list[int]]:
    """The degree-one vertices of ``graph``, peeled leaf to root, and
    the core they leave.

    Returns the pairs (v, p) of each vertex v peeled at degree one and
    its one remaining neighbour p, in peel order; the core, the vertices
    left with degree at least two, in increasing order; and the roots,
    the unpeeled vertices left with no edge.  Of a lone edge only the
    first end peels; the other is its root.  A graph with no degree-one
    vertex gives ``([], None, [])``.  O(n + m): a queue, with each
    vertex's remaining neighbours held as the xor of their indices.
    """
    queue = np.flatnonzero(graph.internal_degree == 1).tolist()
    if not queue:
        return [], None, []
    iu, iv = graph.edge_ends.T
    xor = np.zeros(graph.vertex_count, dtype=np.int64)
    np.bitwise_xor.at(xor, iu, iv)
    np.bitwise_xor.at(xor, iv, iu)
    xor, left = xor.tolist(), graph.internal_degree.tolist()
    pairs = []
    for v in queue:  # grows while it is read
        if left[v] != 1:  # its last neighbour peeled first: a root
            continue
        p = xor[v]
        pairs.append((v, p))
        left[v] = 0
        left[p] -= 1
        xor[p] ^= v
        if left[p] == 1:
            queue.append(p)
    left = np.array(left)
    left[[v for v, _ in pairs]] = -1
    return pairs, np.flatnonzero(left >= 2), np.flatnonzero(left == 0).tolist()


class _RatioSearch:
    """Dinkelbach's ratio iteration over the nonempty vertex subsets W
    of one graph, on one cut network built once for every ratio it is
    asked for.

    A ratio is N(W)/D(W), given by the exact coefficients ``num`` and
    ``den`` of N and D over (deg W, q_+(W), |W|, |dW|), the boundary
    host-aware: N(W) = num[0] deg W + num[1] q_+(W) + num[2] |W| +
    num[3] |dW|, and D likewise.  D must be non-negative; D(W) = 0 makes
    the ratio infinite (None), which ends the search.  At ratio r a step
    maximizes N - rD, whose |dW| coefficient must not be positive: minus
    it is the capacity of the inner arcs.  It finds the smallest
    maximizing W by one minimum s-t cut (:func:`sgs.maxflow.min_cut`) on
    integer capacities: N - rD in the integer coefficients that give the
    ratio, divided by their gcd.

    The network does not depend on the ratio, so it is built once, with
    the exact per-vertex arrays: edges are bidirected arcs, each
    vertex's deficit is netted into its terminal weight, and every
    vertex has both terminal arcs, the one its weight does not use at
    capacity 0.  So a step only recomputes the terminal weights, as one
    array expression: in int64 when a bound on the coefficients allows
    it, in Python integers otherwise.  The vertices the source reaches in
    the residual graph form the smallest minimum cut, so the side is
    empty exactly when no W beats the empty set.

    Pendant trees are folded into the core.  Write u for ``unit``; a
    step maximizes w(W) - u |inner edges leaving W| over the terminal
    weights w.  The search peels the degree-one vertices once
    (:func:`_pendant_trees`), and the network spans the core, the
    vertices left with degree at least two.  For a peeled v with
    neighbour p, v's subtree gains ``clamp(w[v], -u, u)`` more when p
    is in W than when p is not, so each step folds ``w[p] +=
    clamp(w[v], -u, u)`` leaf to root in Python integers.  It cuts the
    core on int64 capacities when the folded weights fit, and on Python
    integers otherwise.  A root, a vertex left with no edge, is in W
    exactly when its folded weight is positive.  Unfolding root to
    leaf, v is in W exactly when ``w[v] > -u`` if p is, and when
    ``w[v] > u`` if not.  The maximizers form a lattice, and on a tie
    these strict rules leave v out, together with its subtree, whose
    rules only tighten when v is out.  The core's smallest minimum
    cut is the least core part of a maximizer, so the unfolded subset
    is the least maximizer: the witness the whole network gives.  A
    graph without degree-one vertices cuts its whole network as
    before, with no added step.

    Every witness :meth:`maximize` returns is kept, and a later ratio
    starts from the best, by its own exact ratio, of its ``start`` and
    those witnesses with a positive denominator; ties go to ``start``.
    On a grid of a the previous optimum is often optimal or nearly so,
    and confirming an optimal start costs one cut.
    """

    def __init__(self, graph: Graph, potential: Potential):
        qn, self._qd = _exact_potential(potential.plus)
        m = graph.vertex_count
        self._everything = tuple(range(m))
        self._iu, self._iv = iu, iv = graph.edge_ends.T
        self._deg = deg = graph.host_degree
        deficit = graph.deficit
        self._exact_q = exact_q = np.array(qn, dtype=object)
        self._exact = deg.astype(object), exact_q, deficit.astype(object)
        self._bounds = (int(deg.max()), int(np.abs(exact_q).max()),
                        int(deficit.max()))
        self._narrow = ((deg, exact_q.astype(np.int64), deficit)
                        if self._bounds[1] < 2**63 else self._exact)
        # the cut network spans the core: every vertex when nothing peels
        self._pendant, self._core, self._roots = _pendant_trees(graph)
        if self._pendant:
            local = np.full(m, -1)
            local[self._core] = np.arange(len(self._core))
            kept = (local[iu] >= 0) & (local[iv] >= 0)
            iu, iv, m = local[iu[kept]], local[iv[kept]], len(self._core)
        self._arcs = 2 * len(iu)
        s, t = m, m + 1
        self._net = cut_network(
            m + 2, np.concatenate((np.full(m, s), np.arange(m), iu, iv)),
            np.concatenate((np.arange(m), np.full(m, t), iv, iu)),
            s, t) if m else None
        # witness -> its counts (deg W, qd q_+(W), |W|, |dW|)
        self._found: dict[tuple[int, ...], tuple[int, int, int, int]] = {}

    def _counts(self, members: np.ndarray) -> tuple[int, int, int, int]:
        """(deg W, qd q_+(W), |W|, |dW|) of the vertices ``members``, in
        Python integers: exact."""
        inside = np.zeros(len(self._deg), dtype=bool)
        inside[members] = True
        degsum = sum(self._deg[members].tolist())
        inner = int(np.count_nonzero(inside[self._iu] & inside[self._iv]))
        return (degsum, sum(self._exact_q[members].tolist()), len(members),
                degsum - 2 * inner)

    def _side(self, w: np.ndarray, unit: int) -> np.ndarray:
        """The smallest W maximizing w(W) - unit |inner edges leaving W|,
        for the terminal weights ``w`` of every vertex: the pendant trees
        folded leaf to root, one cut of the core, and the trees unfolded
        root to leaf by the strict rule."""
        if not self._pendant:
            return self._cut(w, unit)
        w = w.tolist()
        for v, p in self._pendant:
            x = w[v]
            w[p] += unit if x > unit else -unit if x < -unit else x
        inside = [False] * len(w)
        for x in self._roots:
            inside[x] = w[x] > 0
        core = self._core
        if len(core):
            folded = [w[x] for x in core.tolist()]
            wide = max(unit, max(folded), -min(folded)) >= 2**63
            side = self._cut(np.array(
                folded, dtype=object if wide else np.int64), unit)
            for x in core[side].tolist():
                inside[x] = True
        for v, p in reversed(self._pendant):
            inside[v] = w[v] > (-unit if inside[p] else unit)
        return np.flatnonzero(inside)

    def _cut(self, w: np.ndarray, unit: int) -> np.ndarray:
        """The smallest side of the core network's minimum cut, with
        terminal weights ``w`` on the core and ``unit`` on inner arcs."""
        caps = np.concatenate((np.maximum(w, 0), np.maximum(-w, 0),
                               np.full(self._arcs, unit, dtype=w.dtype)))
        side = np.array(min_cut(self._net, caps), dtype=np.int64)
        return side[:-1]  # drop s

    def maximize(self, num, den, start: tuple[int, ...] | None = None
                 ) -> tuple[tuple[int, ...], Fraction | None]:
        """Maximize N(W)/D(W) from the better of ``start`` (by default
        every vertex) and the witnesses found so far; returns the
        last improving subset and its ratio.  The achievable ratios are
        finite, so the ratio climbs to the maximum in finitely many
        cuts."""
        if start is None:
            start = self._everything
        qd = self._qd
        # N and D times one positive integer, qd times the coefficients'
        # least common denominator, over the integer counts: a subset's
        # ratio is then one Fraction of two integers
        lcd = lcm(*(c.denominator for c in (*num, *den)))
        num_int, den_int = ([c.numerator * (lcd // c.denominator) * scale
                             for c, scale in zip(part, (qd, 1, qd, qd))]
                            for part in (num, den))

        def ratio(counts) -> Fraction | None:
            n, d = (sum(c * x for c, x in zip(part, counts) if c)
                    for part in (num_int, den_int))
            return None if d == 0 else Fraction(n, d)

        witness = start
        counts = self._counts(np.asarray(start, dtype=np.int64))
        r = ratio(counts)
        for found, found_counts in self._found.items():
            found_r = ratio(found_counts)
            # D = 0 may be 0/0 here (no cut ever picks such a subset):
            # only the iteration concludes that a ratio is infinite
            if None not in (r, found_r) and found_r > r:
                witness, counts, r = found, found_counts, found_r
        dmax, qmax, omax = self._bounds
        for _ in range(_MAX_RATIO_ITERATIONS):
            if r is None:
                break
            # N - rD over the same integer counts, times r's denominator
            # and divided by the gcd: one positive factor on every
            # capacity, which leaves the smallest minimum cut as it is
            da, dq, c, edge = (r.denominator * n - r.numerator * d
                               for n, d in zip(num_int, den_int))
            g = math.gcd(da, dq, c, edge) or 1
            da, dq, c, unit = da // g, dq // g, c // g, -edge // g
            # bounds every partial sum of the weights, and the inner capacity
            fits = (abs(da) * dmax + abs(dq) * qmax + abs(c)
                    + unit * (omax + 1)) < 2**63
            d, qx, o = self._narrow if fits else self._exact
            side = self._side(da * d + dq * qx + c - unit * o, unit)
            if not len(side):
                break
            witness = tuple(side.tolist())
            counts = self._counts(side)
            new_r = ratio(counts)
            assert new_r is None or new_r > r
            r = new_r
        else:
            raise RuntimeError(
                f"ratio iteration exceeded {_MAX_RATIO_ITERATIONS} steps")
        self._found.setdefault(witness, counts)
        return witness, r


def _nonnegative_a(value) -> Fraction:
    a = _as_fraction(value, "a")
    if a < 0:
        raise ValueError(f"a must be non-negative, got {value!r}")
    return a


def _kmin_grid(search: _RatioSearch, graph: Graph, potential: Potential,
               grid: Sequence[Fraction]) -> list[SparsenessCertificate]:
    return [_kmin_certificate(graph, potential, _float(a), search.maximize(
                (1, -a, 0, -1 - a), (0, 0, 1, 0))[0]) for a in grid]


def kmin_flow(graph: Graph, potential: Potential | None, a
              ) -> SparsenessCertificate | list[SparsenessCertificate]:
    """Exact k_min(a) by ratio iteration with min-cut subproblems.

    ``a`` is a number, which gives one certificate, or a sequence of
    numbers, which gives one certificate per entry, in order; every
    entry is checked before any cut.  One cut network serves the whole
    sequence, and each entry's iteration starts from the best of the
    full vertex set and the earlier entries' witnesses
    (:class:`_RatioSearch`); the values are those of one call per entry,
    exactly.

    Matches :func:`kmin_bruteforce` exactly on the optimal value; the
    witness may differ when several subsets attain it.  The ratio is
    (deg W - a q_+(W) - (1+a)|dW|) / |W|, since 2|E_W| = deg W - |dW|.
    """
    single = np.ndim(a) == 0
    potential = _check_potential(graph, potential)
    grid = [_nonnegative_a(value) for value in ([a] if single else a)]
    if not grid:
        return []
    certs = _kmin_grid(_RatioSearch(graph, potential), graph, potential, grid)
    return certs[0] if single else certs


# -- (a, 0) threshold ---------------------------------------------------------

def _threshold(search: _RatioSearch, graph: Graph,
               potential: Potential) -> SparsityThreshold:
    if graph.edge_count == 0:
        return SparsityThreshold(0.0, (0,), subset_stats(graph, potential, (0,)))
    witness, a = search.maximize((1, 0, 0, -1), (0, 1, 0, 1))
    return SparsityThreshold(math.inf if a is None else _float(a), witness,
                             subset_stats(graph, potential, witness))


def amin_zero_k(graph: Graph, potential: Potential | None) -> SparsityThreshold:
    """Least a for which the pair is (a, 0)-sparse.

    Equals max over nonempty W of 2|E_W| / (|dW| + q_+(W)); infinite
    when some W has induced edges but empty (host-aware) boundary and no
    positive potential mass.
    """
    potential = _check_potential(graph, potential)
    return _threshold(_RatioSearch(graph, potential), graph, potential)


def sparsity_flow(graph: Graph, potential: Potential | None,
                  a_grid: Sequence) -> tuple[list[SparsenessCertificate],
                                             SparsityThreshold]:
    """``kmin_flow(graph, potential, a_grid)`` and ``amin_zero_k(graph,
    potential)`` from one cut network: the threshold's iteration starts
    from the best of the full vertex set and the grid's witnesses.

    The values are those of the separate calls, exactly; a witness may
    differ when several subsets attain the optimum.
    """
    potential = _check_potential(graph, potential)
    grid = [_nonnegative_a(value) for value in a_grid]
    search = _RatioSearch(graph, potential)
    return (_kmin_grid(search, graph, potential, grid),
            _threshold(search, graph, potential))


# -- Cheeger constants --------------------------------------------------------

def _cheeger_certificate(graph: Graph, potential: Potential,
                         witness: tuple[int, ...]) -> CheegerCertificate:
    stats = subset_stats(graph, potential, witness)
    den = stats.degree_sum + stats.q_sum
    num = stats.boundary + stats.q_sum
    ratio = 0.0 if den == 0 else num / den
    return CheegerCertificate(ratio=ratio, witness=witness, stats=stats)


def _cheeger_input(graph: Graph, potential: Potential | None) -> Potential:
    """The checked potential of a Cheeger route.  Every quotient sums
    degrees and q over a vertex subset, so their |q| plus degree total
    must be a finite float."""
    potential = _check_potential(graph, potential)
    with np.errstate(over="ignore"):
        total = (np.abs(potential.values) + graph.host_degree).sum()
    if not math.isfinite(total):
        raise ValueError("the region's |q| plus degree total overflows")
    return potential


def cheeger_bruteforce(graph: Graph,
                       potential: Potential | None) -> CheegerCertificate:
    """:func:`cheeger` by enumerating the nonempty vertex subsets (at
    most 22 vertices); ties go to the smallest witness, then to the
    lexicographically smallest vertex list."""
    potential = _cheeger_input(graph, potential)
    block = _block_length(graph.vertex_count)
    den, zero = np.empty(block), np.empty(block, dtype=bool)

    def objective(twice_edges, size, tables, values):
        # the least quotient is the greatest negated one (negation is
        # exact): -(|dW| + q(W)) / (deg W + q(W)), 0 where deg W + q(W) = 0
        deg, q = tables
        row = values[0]
        np.subtract(deg, twice_edges, out=row)
        row += q
        np.negative(row, out=row)
        np.add(deg, q, out=den)
        np.divide(row, den, out=row)
        np.equal(den, 0.0, out=zero)
        np.putmask(row, zero, 0.0)

    with np.errstate(divide="ignore", invalid="ignore"):
        witness, = _sweep(graph, (graph.host_degree, potential.values),
                          objective, 1)
    return _cheeger_certificate(graph, potential, witness)


def cheeger(graph: Graph, potential: Potential | None) -> CheegerCertificate:
    """Isoperimetric constant: min over nonempty W of (|dW| + q(W)) /
    (deg(W) + q(W)), the boundary host-aware.  The constant of a vertex
    region U is ``cheeger(graph.restrict(U), q on U)``.

    The quotient is 0 by convention when its denominator vanishes.  This
    is the flow route, exact by ratio descent with min cuts; it needs
    q >= 0.  :func:`cheeger_bruteforce` is the oracle.
    """
    potential = _cheeger_input(graph, potential)
    if np.any(potential.values < 0):
        raise ValueError(
            "flow Cheeger method requires a non-negative potential on the region")
    # zero-denominator convention: an isolated massless vertex gives ratio 0
    isolated = np.flatnonzero((graph.host_degree == 0)
                              & (potential.values == 0))
    if len(isolated):
        return _cheeger_certificate(graph, potential, (int(isolated[0]),))
    # maximize -(|dW| + q(W)) / (deg W + q(W)), q = q_+ here; every
    # denominator is now positive, and every singleton has ratio -1
    witness, _ = _RatioSearch(graph, potential).maximize(
        (0, -1, 0, -1), (1, 1, 0, 0), (0,))
    return _cheeger_certificate(graph, potential, witness)


# -- closed-form helpers ------------------------------------------------------

def cheeger_lower_bound(d: float, k: float, a: float) -> float:
    """(d - k) / (d (1 + a)), clamped at 0; d is the degree-potential floor."""
    if d <= 0:
        raise ValueError("d must be positive")
    return max(0.0, (d - k) / (d * (1.0 + a)))


def potential_class_kappa(graph: Graph, potential: Potential,
                          alpha: float) -> float:
    """Minimal kappa with q_- <= alpha (deg + q_+) + kappa pointwise.

    This is the concrete membership surrogate for the small-negative-
    part potential classes; the pointwise form is equivalent to the
    operator inequality on sparse graphs only.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    potential = _check_potential(graph, potential)
    margin = potential.minus - alpha * (graph.host_degree + potential.plus)
    return max(0.0, float(margin.max()))
