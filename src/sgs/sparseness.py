"""Sparseness constants, density thresholds, and Cheeger constants.

For a finite graph with potential q and a >= 0, the minimal k making
every vertex subset W satisfy

    2|E_W| <= k|W| + a(|dW| + q_+(W))

is the maximum over nonempty W of (2|E_W| - a(|dW| + q_+(W))) / |W|.
Boundaries are host-aware throughout (cut edges plus deficits), so the
constants computed on a truncation certify the infinite host.

Two routes are provided for every optimization: a brute-force oracle
that enumerates all subsets (guarded to 22 vertices) and a production
path.  The production path of k_min, of the (a, 0) threshold and of the
Cheeger constant is one driver, ``_dinkelbach``: Dinkelbach's ratio
iteration with each linearized subproblem solved exactly by one minimum
s-t cut (``_best_subset``).  All flow arithmetic is exact: float inputs
are dyadic rationals and are converted losslessly to fractions,
capacities are rescaled to integers, and the iteration terminates
because the achievable ratios form a finite set.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

import numpy as np

from .graphs import Graph, Potential, SubsetStats, subset_stats
from .maxflow import Dinic

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
    return _scaled_ints([Fraction(v) for v in values.tolist()])


def _float(x: Fraction) -> float:
    return x.numerator / x.denominator


# -- subset enumeration tables ---------------------------------------------

def _popcount(arr: np.ndarray) -> np.ndarray:
    return np.bitwise_count(arr).astype(np.int64)


def _subset_tables(local_masks: Sequence[int],
                   weights: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Induced-edge counts and linear sums for all subsets of n <= 22 vertices.

    ``local_masks[i]`` is the adjacency bitmask of vertex i restricted
    to the enumerated vertex set.  Entry S of each returned array is the
    value for the subset with bitmask S.
    """
    n = len(local_masks)
    total = 1 << n
    masks = np.asarray(local_masks, dtype=np.uint64)
    out = {"edges": np.zeros(total, dtype=np.int64)}
    for key, w in weights.items():
        out[key] = np.zeros(total, dtype=w.dtype)
    # subsets with lowest bit b reduce to subsets whose lowest bit is
    # higher, so fill from the top bit down
    for b in reversed(range(n)):
        step = 1 << (b + 1)
        rest = np.arange(0, total, step, dtype=np.uint64)
        sub = (rest | np.uint64(1 << b)).astype(np.int64)
        rest_i = rest.astype(np.int64)
        out["edges"][sub] = out["edges"][rest_i] + _popcount(masks[b] & rest)
        for key, w in weights.items():
            out[key][sub] = out[key][rest_i] + w[b]
    return out


def _mask_vertices(mask: int, vertex_map: Sequence[int]) -> tuple[int, ...]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(vertex_map[i])
        mask >>= 1
        i += 1
    return tuple(out)


def _lexicographic_best(masks: Iterable[int], vertex_map: Sequence[int]) -> int:
    return min(masks, key=lambda m: _mask_vertices(m, vertex_map))


def _check_potential(graph: Graph, potential: Potential | None) -> Potential:
    if potential is None:
        return Potential.zero(graph)
    if len(potential) != graph.vertex_count:
        raise ValueError("potential length does not match graph")
    return potential


# -- k_min ------------------------------------------------------------------

def kmin_bruteforce(graph: Graph, potential: Potential | None,
                    a) -> SparsenessCertificate:
    """Exact k_min(a) by enumerating every nonempty subset (|V| <= 22).

    Ties are broken by smallest witness size, then lexicographically
    smallest vertex list.
    """
    n = graph.vertex_count
    if n > ENUMERATION_LIMIT:
        raise ValueError(
            f"graph too large for enumeration ({n} > {ENUMERATION_LIMIT})")
    potential = _check_potential(graph, potential)
    a_fr = _as_fraction(a, "a")
    if a_fr < 0:
        raise ValueError("a must be non-negative")
    af = _float(a_fr)
    tables = _subset_tables(graph.neighbor_masks(), {
        "deg": graph.host_degree.astype(np.float64),
        "qplus": potential.plus,
    })
    size = _popcount(np.arange(1 << n, dtype=np.uint64))
    boundary = tables["deg"] - 2.0 * tables["edges"]
    num = 2.0 * tables["edges"] - af * (boundary + tables["qplus"])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = num / size
    ratios[0] = -np.inf
    best = float(np.max(ratios))
    cand = np.flatnonzero(ratios == best)
    sizes = size[cand]
    cand = cand[sizes == sizes.min()]
    mask = _lexicographic_best((int(c) for c in cand), range(n))
    witness = _mask_vertices(mask, range(n))
    return _kmin_certificate(graph, potential, af, witness)


def _kmin_certificate(graph: Graph, potential: Potential, a: float,
                      witness: tuple[int, ...]) -> SparsenessCertificate:
    stats = subset_stats(graph, potential, witness)
    ratio = (2.0 * stats.induced_edges
             - a * (stats.boundary + stats.q_plus_sum)) / stats.size
    return SparsenessCertificate(a=a, k=max(0.0, ratio), ratio=ratio,
                                 witness=witness, stats=stats,
                                 clamped=ratio < 0.0)


def _subset_counts(graph: Graph, q: tuple[list[int], int],
                   witness: Sequence[int]) -> tuple[int, int, Fraction]:
    """Exact (|E_W|, deg W, q W) of a vertex subset; ``q`` as from
    :func:`_exact_potential`."""
    members = set(witness)
    induced = sum(1 for x in members for y in graph.neighbors(x)
                  if y > x and y in members)
    degsum = sum(int(graph.host_degree[x]) for x in members)
    qn, qd = q
    return induced, degsum, Fraction(sum(qn[x] for x in members), qd)


def _best_subset(graph: Graph, region: tuple[int, ...],
                 q: tuple[list[int], int],
                 linear: tuple[Fraction, ...]) -> tuple[int, ...]:
    """Smallest W inside ``region`` maximizing
    sum_{x in W} (alpha deg(x) + beta q(x) + gamma) - cost |dW|,
    where ``linear`` is (alpha, beta, gamma, cost) and the boundary is
    host-aware.

    One minimum s-t cut on capacities scaled to integers: edges inside
    the region are bidirected arcs of capacity ``cost``, and each
    vertex's outside boundary (deficit plus edges leaving the region) is
    netted into its terminal arc.  The vertices reachable from the
    source in the residual graph form the smallest minimum cut, so the
    result is empty exactly when no W beats the empty set.
    """
    qn, qd = q
    alpha, beta, gamma, cost = linear
    (da, dq, c, unit), _ = _scaled_ints([alpha, beta / qd, gamma, cost])
    deg, deficit = graph.host_degree.tolist(), graph.deficit.tolist()
    m = len(region)
    pos = {x: i for i, x in enumerate(region)}
    net = Dinic(m + 2)
    s, t = m, m + 1
    for i, x in enumerate(region):
        outside = deficit[x] + sum(1 for y in graph.neighbors(x)
                                   if y not in pos)
        w = da * deg[x] + dq * qn[x] + c - unit * outside
        if w > 0:
            net.add_edge(s, i, w)
        elif w < 0:
            net.add_edge(i, t, -w)
    for (u, v) in graph.edges:
        if u in pos and v in pos:
            net.add_edge(pos[u], pos[v], unit, unit)
    net.max_flow(s, t)
    return tuple(region[i] for i in net.min_cut_source_side(s) if i < m)


def _dinkelbach(graph: Graph, region: tuple[int, ...],
                q: tuple[list[int], int], ratio, linearized,
                start: tuple[int, ...]
                ) -> tuple[tuple[int, ...], Fraction | None]:
    """Maximize ``ratio`` over nonempty subsets of ``region`` (Dinkelbach).

    ``ratio(W)`` is exact, or None when it is infinite (which ends the
    search).  ``linearized(r)`` gives the coefficients of
    :func:`_best_subset` whose objective is positive exactly on the
    subsets of ratio above r.  Returns the last improving subset and its
    ratio; the achievable ratios are finite, so the ratio climbs to the
    maximum in finitely many cuts.
    """
    witness, r = start, ratio(start)
    for _ in range(_MAX_RATIO_ITERATIONS):
        if r is None:
            return witness, None
        side = _best_subset(graph, region, q, linearized(r))
        if not side:
            return witness, r
        witness, new_r = side, ratio(side)
        assert new_r is None or new_r > r
        r = new_r
    raise RuntimeError(
        f"ratio iteration exceeded {_MAX_RATIO_ITERATIONS} steps")


def kmin_flow(graph: Graph, potential: Potential | None,
              a) -> SparsenessCertificate:
    """Exact k_min(a) by ratio iteration with min-cut subproblems.

    Matches :func:`kmin_bruteforce` exactly on the optimal value; the
    witness may differ when several subsets attain it.  For parameter k,
    the subproblem max_W [sum_{x in W}(deg(x) - a q_+(x) - k) -
    (1+a)|dW|] is a minimum cut; k increases to the attained ratio until
    no strictly improving subset remains.
    """
    potential = _check_potential(graph, potential)
    a_fr = _as_fraction(a, "a")
    if a_fr < 0:
        raise ValueError("a must be non-negative")
    qplus = _exact_potential(potential.plus)

    def ratio(w):
        induced, degsum, qp = _subset_counts(graph, qplus, w)
        return (2 * induced - a_fr * (degsum - 2 * induced + qp)) / len(w)

    # sum_W (deg - a q_+ - k) - (1+a)|dW| = 2|E_W| - a(|dW| + q_+(W)) - k|W|
    everything = tuple(range(graph.vertex_count))
    witness, _ = _dinkelbach(graph, everything, qplus, ratio,
                             lambda k: (1, -a_fr, -k, 1 + a_fr), everything)
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
    qplus = _exact_potential(potential.plus)

    def ratio(w):
        induced, degsum, qp = _subset_counts(graph, qplus, w)
        den = degsum - 2 * induced + qp
        return None if den == 0 else 2 * induced / den

    # sum_W (deg - a q_+) - (1+a)|dW| = 2|E_W| - a(|dW| + q_+(W))
    everything = tuple(range(graph.vertex_count))
    witness, a = _dinkelbach(graph, everything, qplus, ratio,
                             lambda a: (1, -a, 0, 1 + a), everything)
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
    m = len(region)
    if m > ENUMERATION_LIMIT:
        raise ValueError(
            f"region too large for enumeration ({m} > {ENUMERATION_LIMIT})")
    pos = {x: i for i, x in enumerate(region)}
    local_masks = []
    for x in region:
        mask = 0
        for y in graph.neighbors(x):
            if y in pos:
                mask |= 1 << pos[y]
        local_masks.append(mask)
    tables = _subset_tables(local_masks, {
        "deg": graph.host_degree[np.asarray(region)].astype(np.float64),
        "q": potential.values[np.asarray(region)],
    })
    boundary = tables["deg"] - 2.0 * tables["edges"]
    num = boundary + tables["q"]
    den = tables["deg"] + tables["q"]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(den == 0.0, 0.0, num / den)
    ratios[0] = np.inf
    best = float(np.min(ratios))
    cand = np.flatnonzero(ratios == best)
    size = _popcount(cand.astype(np.uint64))
    cand = cand[size == size.min()]
    mask = _lexicographic_best((int(c) for c in cand), region)
    witness = _mask_vertices(mask, region)
    return _cheeger_certificate(graph, potential, witness, region)


def _cheeger_flow(graph: Graph, potential: Potential,
                  region: tuple[int, ...]) -> CheegerCertificate:
    if np.any(potential.values[np.asarray(region)] < 0):
        raise ValueError(
            "flow Cheeger method requires a non-negative potential on the region")
    # zero-denominator convention: an isolated massless vertex gives ratio 0
    for x in region:
        if int(graph.host_degree[x]) == 0 and potential.values[x] == 0:
            return _cheeger_certificate(graph, potential, (x,), region)
    q = _exact_potential(potential.plus)  # equals q on the region

    # maximize -(|dW| + q(W)) / (deg W + q(W)); every denominator is
    # now positive, and every singleton has ratio exactly -1.  At ratio r
    # the subproblem is sum_W (-r deg - (1+r) q) - |dW|.
    def ratio(w):
        induced, degsum, qs = _subset_counts(graph, q, w)
        return -(degsum - 2 * induced + qs) / (degsum + qs)

    witness, _ = _dinkelbach(graph, region, q, ratio,
                             lambda r: (-r, -1 - r, 0, 1), (region[0],))
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
