"""Sparseness constants, density thresholds, and Cheeger constants.

For a finite graph with potential q and a >= 0, the minimal k making
every vertex subset W satisfy

    2|E_W| <= k|W| + a(|dW| + q_+(W))

is the maximum over nonempty W of (2|E_W| - a(|dW| + q_+(W))) / |W|.
Boundaries are host-aware throughout (cut edges plus deficits), so the
constants computed on a truncation certify the infinite host.

k_min and the Cheeger constant have two routes: a brute-force oracle
that enumerates all subsets (guarded to 22 vertices) and a production
path.  The oracle builds its tables over all subsets once
(``_subset_tables``: 2|E_W|, |W| and the degree and potential sums,
none of which depend on a), computes the objective in place in those
buffers and picks the witness by a fixed tie-break (``_best_subset``);
one build serves every a of a grid.  The (a, 0) threshold has the
production path only.  The production path of k_min, of the (a, 0)
threshold and of the Cheeger constant is one driver, ``_dinkelbach``:
Dinkelbach's ratio iteration with each linearized subproblem solved
exactly by one minimum s-t cut.  Each constant maximizes a ratio N/D of
affine subset functionals, which its route passes as exact coefficients.
The cut network of a (graph, region) is built once per call
(:func:`sgs.maxflow.cut_network`), and a step only recomputes its
terminal capacities, as one numpy expression.  All flow arithmetic is
exact: float inputs are dyadic rationals and are converted losslessly
to fractions, capacities are rescaled to integers, subset sums are
taken in Python integers, and the iteration terminates because the
achievable ratios form a finite set.

Each cut goes through :func:`sgs.maxflow.min_cut`, which holds every
network as one symmetric CSR pattern.  Networks of at least 512 arcs
of nonzero capacity run on scipy's compiled Dinic in exact bit-scaling
rounds, one round when the capacities fit int32 (as for most networks
of integer potentials) and a few for the wide capacities of float
potentials; smaller networks run on the exact Python Dinic, built from
the same pattern.  Both give the same witness: the vertices the source
reaches in the residual graph of a maximum flow, which form the
smallest minimum cut.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from fractions import Fraction
from math import lcm
from typing import Sequence

import numpy as np

from .graphs import Graph, Potential, SubsetStats, subset_stats
from .maxflow import cut_network, min_cut

__all__ = [
    "SparsenessCertificate", "CheegerCertificate", "SparsityThreshold",
    "kmin_bruteforce", "kmin_flow", "amin_zero_k",
    "cheeger", "cheeger_lower_bound", "potential_class_kappa",
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
    """Witness subset attaining the isoperimetric minimum over a region."""
    ratio: float
    witness: tuple[int, ...]
    stats: SubsetStats
    region: tuple[int, ...]


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
        raise ValueError(f"{name} must be finite")
    return Fraction(xf)  # exact: IEEE floats are dyadic rationals


def _scaled_ints(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """The values times the lcm ``den`` of their denominators, and ``den``."""
    den = 1
    for v in values:
        den = lcm(den, v.denominator)
    return [int(v * den) for v in values], den


def _exact_potential(values: np.ndarray) -> tuple[list[int], int]:
    """Per-vertex numerators over one common denominator (exact)."""
    ratios = [v.as_integer_ratio() for v in values.tolist()]
    den = lcm(*(d for _, d in ratios))
    return [p * (den // d) for p, d in ratios], den


def _float(x: Fraction) -> float:
    return x.numerator / x.denominator


# -- subset enumeration -------------------------------------------------------

def _subset_tables(graph: Graph, region: Sequence[int],
                   sums: Sequence[np.ndarray]
                   ) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Tables over all subsets W of ``region`` (sorted, at most 22
    vertices): 2|E_W| and |W|, and per array in ``sums`` (indexed by
    vertex) its sum over W.

    Table index c holds the subset whose bit b is set for the vertex
    ``region[m - 1 - b]``; :func:`_best_subset` reads an objective
    computed on these tables back into a vertex tuple.  The tables do
    not depend on ``a``, so one build serves every ``a`` of a grid.
    """
    m = len(region)
    if m > ENUMERATION_LIMIT:
        raise ValueError(f"{m} vertices are too many for enumeration "
                         f"(limit {ENUMERATION_LIMIT})")
    # bit b of a table index is region[m - 1 - b]: adding vertices from
    # the last down to the first makes every float sum add its lowest
    # member last, and which float values tie decides the witness
    bit = {x: m - 1 - i for i, x in enumerate(region)}
    twice_edges, size = np.zeros(1 << m), np.zeros(1 << m, dtype=np.uint8)
    tables = [np.zeros(1 << m) for _ in sums]
    # 22 vertices fit 32-bit masks
    lower = np.arange((1 << m) // 2, dtype=np.uint32)
    for b in range(m):
        x, h = region[m - 1 - b], 1 << b
        adj = np.uint32(sum(1 << bit[y] for y in graph.neighbors(x)
                            if y in bit))
        np.add(twice_edges[:h], 2 * np.bitwise_count(lower[:h] & adj),
               out=twice_edges[h:2 * h])
        np.add(size[:h], 1, out=size[h:2 * h])
        for t, w in zip(tables, sums):
            np.add(t[:h], w[x], out=t[h:2 * h])
    return twice_edges, size, tables


def _best_subset(region: Sequence[int], size: np.ndarray,
                 values: np.ndarray) -> tuple[int, ...]:
    """The nonempty subset of ``region`` with the largest entry of
    ``values``, an objective over :func:`_subset_tables`' indices.

    Ties go to the fewest vertices, then the lexicographically smallest
    vertex list, so the result does not depend on how table indices map
    to vertices.  Overwrites ``values[0]``, the empty set's entry.
    """
    m = len(region)
    values[0] = -np.inf
    cand = np.flatnonzero(values == values.max())
    sizes = size[cand]
    cand = cand[sizes == sizes.min()]
    return min(tuple(region[m - 1 - b] for b in reversed(range(m))
                     if c >> b & 1) for c in cand.tolist())


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
    numbers, which gives one certificate per entry, in order.  The
    subset tables are built once, when the first valid entry is
    reached, and serve every entry; each ``a`` is checked in turn
    before it is used, so the errors, and their order, are those of one
    call per entry.  An empty sequence builds nothing.

    Ties are broken by smallest witness size, then lexicographically
    smallest vertex list.
    """
    single = np.ndim(a) == 0
    grid = [a] if single else list(a)
    if not grid:
        return []
    potential = _check_potential(graph, potential)
    region = range(graph.vertex_count)
    certs, mass = [], None
    for value in grid:
        a_fr = _as_fraction(value, "a")
        if a_fr < 0:
            raise ValueError("a must be non-negative")
        af = _float(a_fr)
        with np.errstate(divide="ignore", invalid="ignore"):
            if mass is None:
                twice_edges, size, (mass, qplus) = _subset_tables(
                    graph, region, (graph.host_degree, potential.plus))
                # |dW| + q_+(W), summed as the ratio always summed it
                np.subtract(mass, twice_edges, out=mass)
                mass += qplus
                values = qplus  # its buffer holds each a's objective
            # (2|E_W| - a (|dW| + q_+(W))) / |W|, in one buffer
            np.multiply(mass, af, out=values)
            np.subtract(twice_edges, values, out=values)
            np.divide(values, size, out=values)
        certs.append(_kmin_certificate(graph, potential, af,
                                       _best_subset(region, size, values)))
    return certs[0] if single else certs


def _kmin_certificate(graph: Graph, potential: Potential, a: float,
                      witness: tuple[int, ...]) -> SparsenessCertificate:
    stats = subset_stats(graph, potential, witness)
    ratio = (2.0 * stats.induced_edges
             - a * (stats.boundary + stats.q_plus_sum)) / stats.size
    return SparsenessCertificate(a=a, k=max(0.0, ratio), ratio=ratio,
                                 witness=witness, stats=stats,
                                 clamped=ratio < 0.0)


def _dinkelbach(graph: Graph, potential: Potential, region: tuple[int, ...],
                num, den, start: tuple[int, ...]
                ) -> tuple[tuple[int, ...], Fraction | None]:
    """Maximize N(W)/D(W) over nonempty subsets W of ``region`` (Dinkelbach).

    ``num`` and ``den`` are the exact coefficients of N and D over
    (deg W, q_+(W), |W|, |dW|), the boundary host-aware: N(W) =
    num[0] deg W + num[1] q_+(W) + num[2] |W| + num[3] |dW|, and D
    likewise.  D must be non-negative; D(W) = 0 makes the ratio infinite
    (None), which ends the search.  At ratio r a step maximizes N - rD,
    whose |dW| coefficient must not be positive: minus it is the
    capacity of the inner arcs.  It finds the smallest maximizing W by
    one minimum s-t cut (:func:`sgs.maxflow.min_cut`) on capacities
    scaled to integers.  The network is built once per call: edges
    inside the region are bidirected arcs, each vertex's outside
    boundary (deficit plus edges leaving the region) is netted into its
    terminal weight, and every vertex has both terminal arcs, the one
    its weight does not use at capacity 0.  So a step only recomputes
    the terminal weights, as one array expression: in int64 when a bound
    on the coefficients allows it, in Python integers otherwise.  The
    vertices the source reaches in the residual graph form the smallest
    minimum cut, so the side is empty exactly when no W beats the empty
    set.

    Returns the last improving subset and its ratio; the achievable
    ratios are finite, so the ratio climbs to the maximum in finitely
    many cuts.
    """
    qn, qd = _exact_potential(potential.plus)
    # N and D times one positive integer, qd times the coefficients' least
    # common denominator, over the integer counts (deg W, qd q_+(W), |W|,
    # |dW|): a subset's ratio is then one Fraction of two integers
    lcd = lcm(*(c.denominator for c in (*num, *den)))
    num_int, den_int = ([c.numerator * (lcd // c.denominator) * scale
                         for c, scale in zip(part, (qd, 1, qd, qd))]
                        for part in (num, den))
    m = len(region)
    vertices = np.asarray(region, dtype=np.int64)
    local = np.full(graph.vertex_count, -1, dtype=np.int64)
    local[vertices] = np.arange(m)
    ends = local[np.fromiter(chain.from_iterable(graph.edges), np.int64,
                             2 * graph.edge_count).reshape(-1, 2)]
    iu, iv = ends[(ends[:, 0] >= 0) & (ends[:, 1] >= 0)].T
    deg = graph.host_degree[vertices]
    outside = (deg - np.bincount(iu, minlength=m)
               - np.bincount(iv, minlength=m))
    exact_q = np.array(qn, dtype=object)[vertices]
    exact = deg.astype(object), exact_q, outside.astype(object)
    dmax, omax = int(deg.max()), int(outside.max())
    qmax = int(np.abs(exact_q).max())
    narrow = ((deg, exact_q.astype(np.int64), outside) if qmax < 2**63
              else exact)

    def ratio(members: np.ndarray) -> Fraction | None:
        inside = np.zeros(m, dtype=bool)
        inside[members] = True
        degsum = sum(deg[members].tolist())  # Python integers: exact
        counts = (degsum, sum(exact_q[members].tolist()), len(members),
                  degsum - 2 * int(np.count_nonzero(inside[iu] & inside[iv])))
        n, d = (sum(c * x for c, x in zip(part, counts) if c)
                for part in (num_int, den_int))
        return None if d == 0 else Fraction(n, d)

    s, t = m, m + 1
    net = cut_network(m + 2, np.concatenate((np.full(m, s), np.arange(m),
                                            iu, iv)),
                      np.concatenate((np.arange(m), np.full(m, t), iv, iu)),
                      s, t)
    witness = start
    r = ratio(local[np.asarray(start)])
    for _ in range(_MAX_RATIO_ITERATIONS):
        if r is None:
            return witness, None
        alpha, beta, gamma, edge = (n - r * d if d else n
                                    for n, d in zip(num, den))
        (da, dq, c, unit), _ = _scaled_ints([alpha, Fraction(beta, qd), gamma,
                                             -edge])
        # bounds every partial sum of the weights, and the inner capacity
        fits = (abs(da) * dmax + abs(dq) * qmax + abs(c)
                + unit * (omax + 1)) < 2**63
        d, qx, o = narrow if fits else exact
        w = da * d + dq * qx + c - unit * o
        caps = np.concatenate((np.maximum(w, 0), np.maximum(-w, 0),
                               np.full(2 * len(iu), unit, dtype=w.dtype)))
        side = np.array(min_cut(net, caps), dtype=np.int64)[:-1]  # drop s
        if not len(side):
            return witness, r
        witness, new_r = tuple(vertices[side].tolist()), ratio(side)
        assert new_r is None or new_r > r
        r = new_r
    raise RuntimeError(
        f"ratio iteration exceeded {_MAX_RATIO_ITERATIONS} steps")


def kmin_flow(graph: Graph, potential: Potential | None,
              a) -> SparsenessCertificate:
    """Exact k_min(a) by ratio iteration with min-cut subproblems.

    Matches :func:`kmin_bruteforce` exactly on the optimal value; the
    witness may differ when several subsets attain it.  The ratio is
    (deg W - a q_+(W) - (1+a)|dW|) / |W|, since 2|E_W| = deg W - |dW|.
    """
    potential = _check_potential(graph, potential)
    a_fr = _as_fraction(a, "a")
    if a_fr < 0:
        raise ValueError("a must be non-negative")
    everything = tuple(range(graph.vertex_count))
    witness, _ = _dinkelbach(graph, potential, everything,
                             (1, -a_fr, 0, -1 - a_fr), (0, 0, 1, 0), everything)
    return _kmin_certificate(graph, potential, _float(a_fr), witness)


# -- (a, 0) threshold ---------------------------------------------------------

def amin_zero_k(graph: Graph, potential: Potential | None) -> SparsityThreshold:
    """Least a for which the pair is (a, 0)-sparse.

    Equals max over nonempty W of 2|E_W| / (|dW| + q_+(W)); infinite
    when some W has induced edges but empty (host-aware) boundary and no
    positive potential mass.
    """
    potential = _check_potential(graph, potential)
    if graph.edge_count == 0:
        return SparsityThreshold(0.0, (0,), subset_stats(graph, potential, (0,)))
    everything = tuple(range(graph.vertex_count))
    witness, a = _dinkelbach(graph, potential, everything,
                             (1, 0, 0, -1), (0, 1, 0, 1), everything)
    return SparsityThreshold(math.inf if a is None else _float(a), witness,
                             subset_stats(graph, potential, witness))


# -- Cheeger constants --------------------------------------------------------

def _region_indices(graph: Graph, region) -> tuple[int, ...]:
    if region is None:
        return tuple(range(graph.vertex_count))
    seen = set()
    for x in region:
        x = int(x)
        if not (0 <= x < graph.vertex_count):
            raise ValueError(f"region vertex {x} out of range")
        seen.add(x)
    if not seen:
        raise ValueError("region must be nonempty")
    return tuple(sorted(seen))


def _cheeger_certificate(graph: Graph, potential: Potential,
                         witness: tuple[int, ...],
                         region: tuple[int, ...]) -> CheegerCertificate:
    stats = subset_stats(graph, potential, witness)
    den = stats.degree_sum + stats.q_sum
    num = stats.boundary + stats.q_sum
    ratio = 0.0 if den == 0 else num / den
    return CheegerCertificate(ratio=ratio, witness=witness, stats=stats,
                              region=region)


def _cheeger_bruteforce(graph: Graph, potential: Potential,
                        region: tuple[int, ...]) -> CheegerCertificate:
    twice_edges, size, (deg, q) = _subset_tables(
        graph, region, (graph.host_degree, potential.values))
    # the least quotient is the greatest negated one (negation is
    # exact): -(|dW| + q(W)) / (deg W + q(W)), in the tables' buffers
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.subtract(deg, twice_edges, out=twice_edges)
        values += q
        np.negative(values, out=values)
        den = np.add(deg, q, out=deg)
        np.divide(values, den, out=values)
    values[den == 0.0] = 0.0
    witness = _best_subset(region, size, values)
    return _cheeger_certificate(graph, potential, witness, region)


def _cheeger_flow(graph: Graph, potential: Potential,
                  region: tuple[int, ...]) -> CheegerCertificate:
    idx = np.asarray(region)
    if np.any(potential.values[idx] < 0):
        raise ValueError(
            "flow Cheeger method requires a non-negative potential on the region")
    # zero-denominator convention: an isolated massless vertex gives ratio 0
    isolated = np.flatnonzero((graph.host_degree[idx] == 0)
                              & (potential.values[idx] == 0))
    if len(isolated):
        return _cheeger_certificate(graph, potential,
                                    (region[isolated[0]],), region)
    # maximize -(|dW| + q(W)) / (deg W + q(W)), q = q_+ on the region;
    # every denominator is now positive, and every singleton has ratio -1
    witness, _ = _dinkelbach(graph, potential, region,
                             (0, -1, 0, -1), (1, 1, 0, 0), (region[0],))
    return _cheeger_certificate(graph, potential, witness, region)


def cheeger(graph: Graph, potential: Potential | None, region=None,
            method: str = "flow") -> CheegerCertificate:
    """Isoperimetric constant of a region: min over nonempty W inside it
    of (|dW| + q(W)) / (deg(W) + q(W)), boundary taken in the full host.

    The quotient is 0 by convention when its denominator vanishes.
    ``method`` is ``flow`` (ratio descent via min-cuts, exact),
    ``bruteforce`` (enumeration, region up to 22 vertices), or ``both``
    (run both, check agreement to 1e-9, return the enumerated one).
    """
    potential = _check_potential(graph, potential)
    idx = _region_indices(graph, region)
    if method == "bruteforce":
        return _cheeger_bruteforce(graph, potential, idx)
    if method == "flow":
        return _cheeger_flow(graph, potential, idx)
    if method == "both":
        brute = _cheeger_bruteforce(graph, potential, idx)
        flow = _cheeger_flow(graph, potential, idx)
        if abs(brute.ratio - flow.ratio) > 1e-9:
            raise RuntimeError(
                f"cheeger methods disagree: {brute.ratio} vs {flow.ratio}")
        return brute
    raise ValueError(f"unknown method {method!r}")


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
