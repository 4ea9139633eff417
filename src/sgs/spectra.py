"""Eigenvalues, optimal form constants, constant conversions, and the
eigenvalue-sandwich machinery.

The central objects are two-sided comparisons

    (1 - at) (deg + q) - kt  <=  Delta + q  <=  (1 + at) (deg + q) + kt

as quadratic forms, with slope parameter ``a_tilde`` in (0, 1) and
offset ``k_tilde >= 0``.  Because eigenvalues are monotone under the
form order, any such comparison pins every eigenvalue of the operator
between affine images of the degree-potential values; the functions
here compute the smallest offsets on a concrete graph, convert between
the combinatorial and the form-bound parameter pairs, and verify the
resulting sandwiches index by index.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .graphs import Graph, PhaseField, Potential, _as_index
from .operators import HermitianOperator, assemble

__all__ = [
    "FormConstants", "SpectralReport", "SpectralPlan", "DENSE_EIGEN_LIMIT",
    "EXTREMAL_DENSE_LIMIT", "eigenvalues", "form_to_sparse",
    "sparse_to_form", "perturb_constants", "cheeger_form_slopes",
    "spectral_edge_bound", "ratio_report", "DEFAULT_ATILDE_GRID",
]

DENSE_EIGEN_LIMIT = 4000
# Extremal eigenvalues (the offsets k_tilde) are taken with dense eigvalsh
# up to this dimension and with eigsh(k=1) above it; a complex Hermitian
# matrix goes to eigsh as its real symmetric embedding (_lambda_extreme).
# Measured on the offset matrices +-A - at*D (2-core x86-64, OpenBLAS,
# best of 5-9 runs).  Real: dense wins below about 200-250 vertices
# (random graph n=60: 0.27 ms dense, 2.5 ms eigsh; ball r=6, n=190:
# 1.8 ms both), eigsh wins above (grid m=20, n=400: 8.3-9.8 ms dense,
# 4.0-5.6 ms eigsh; ball r=8, n=766: 44 ms and 3.4 ms).  Magnetic, with
# the embedding: random n=200: 4.6-4.8 ms dense, 7.8-10 ms eigsh; n=250:
# 7.9-10 ms and 6.0-8.5 ms; grid m=16, n=256: 8.1-11 ms and 4.8-7.7 ms;
# grid m=20: 25-34 ms and 7.8-11 ms.  So both crossovers lie at 200-256
# vertices.  On balls r=8 and grids m=17, 25, real and magnetic, with and
# without float q, eigsh agrees with dense eigvalsh to 4.1e-15 (1 + ||M||).
EXTREMAL_DENSE_LIMIT = 256
# Seed of the eigsh start vector.  A fixed vector keeps reports
# byte-deterministic; it must be generic, because a structured one can be
# orthogonal to the wanted eigenvector (ones(n) is, on an even grid, to
# the top eigenvector of -A - at*D, by the checkerboard symmetry).
_START_SEED = 20130
DEFAULT_ATILDE_GRID = tuple(round(0.1 * i, 1) for i in range(1, 10))


@dataclass(frozen=True)
class FormConstants:
    """Slope/offset pair for the degree-control inequality."""
    a_tilde: float
    k_tilde: float

    def __post_init__(self):
        if not 0.0 < self.a_tilde < 1.0:
            raise ValueError("a_tilde must lie in (0, 1)")
        if self.k_tilde < 0.0:
            raise ValueError("k_tilde must be non-negative")


@dataclass(frozen=True)
class SpectralReport:
    """Sorted spectra, top-index eigenvalue ratios, and verified bounds."""
    eigenvalues: np.ndarray = field(repr=False)
    diag_eigenvalues: np.ndarray = field(repr=False)
    indices: tuple[int, ...]
    ratios: tuple[float, ...]
    skipped: tuple[int, ...]
    grid: tuple[tuple[float, float, float], ...]  # (a_tilde, k_lower, k_upper)
    bracket: tuple[float, float] | None
    bracket_a_tilde: float | None
    verified: tuple[tuple[str, float, float], ...]  # (id, margin, scale)


def eigenvalues(op: HermitianOperator) -> np.ndarray:
    """All eigenvalues, ascending, with multiplicity (dense path)."""
    if op.dimension > DENSE_EIGEN_LIMIT:
        raise ValueError(
            f"dimension {op.dimension} exceeds the dense limit "
            f"{DENSE_EIGEN_LIMIT}; SpectralPlan.offset has no such limit")
    return np.linalg.eigvalsh(op.toarray())


def _lambda_extreme(matrix, which: str) -> float:
    """Extreme eigenvalue of a Hermitian matrix, sparse or dense.

    Above the dense limit a complex ``X + iY`` is solved as its real
    symmetric embedding ``[[X, -Y], [Y, X]]``, which has the same
    eigenvalues, each twice: eigsh then runs symmetric Lanczos, where a
    complex matrix would take ARPACK's general Arnoldi routine.
    """
    n = matrix.shape[0]
    if n <= EXTREMAL_DENSE_LIMIT:
        if sp.issparse(matrix):
            matrix = matrix.toarray()
        vals = np.linalg.eigvalsh(matrix)
        return float(vals[-1] if which == "max" else vals[0])
    if np.iscomplexobj(matrix):
        x, y = matrix.real, matrix.imag
        matrix = sp.block_array([[x, -y], [y, x]], format="csr")
        n = matrix.shape[0]
    v0 = np.random.default_rng(_START_SEED).uniform(-1.0, 1.0, n)
    vals = spla.eigsh(matrix, k=1, which="LA" if which == "max" else "SA",
                      v0=v0, rng=_START_SEED, maxiter=50 * n,
                      return_eigenvectors=False)
    return float(vals[0])


class SpectralPlan:
    """The spectral data of ``Delta + q`` (or of its magnetic variant) on
    one graph, each piece computed at most once.

    With ``D = diag(host_deg + q)`` and ``A`` the (phased) adjacency,
    ``H = D - A``, so the lower offset at slope at is
    lambda_max((1-at) D - H) = lambda_max(A - at D) and the upper one
    lambda_max(H - (1+at) D) = lambda_max(-A - at D): one adjacency and a
    diagonal shift per slope.  The full spectrum of ``H`` is taken on
    first use, and offsets are memoized per (side, slope).  A plan serves
    one analysis; nothing is cached across plans.
    """

    def __init__(self, graph: Graph, potential: Potential | None = None,
                 phase: PhaseField | None = None):
        self.operator = assemble(graph, potential, phase)
        self.diagonal = np.real(self.operator.matrix.diagonal())
        self.mu = np.sort(self.diagonal)
        # Offsets at most EXTREMAL_DENSE_LIMIT in size are solved densely,
        # so the adjacency is kept dense there: a slope then costs one
        # diagonal shift instead of several sparse constructions.
        self._dense = graph.vertex_count <= EXTREMAL_DENSE_LIMIT
        if self._dense:
            self._adjacency = (np.diag(self.diagonal)
                               - self.operator.matrix.toarray())
        else:
            self._adjacency = (sp.diags(self.diagonal)
                               - self.operator.matrix).tocsr()
        self._spectrum: np.ndarray | None = None
        self._offsets: dict[tuple[str, float], float] = {}

    @property
    def spectrum(self) -> np.ndarray:
        """All eigenvalues of the operator, ascending (dense path)."""
        if self._spectrum is None:
            self._spectrum = eigenvalues(self.operator)
        return self._spectrum

    def offset(self, a_tilde: float, side: str) -> float:
        """Smallest k_tilde >= 0 for one side of the comparison: ``lower``
        certifies (1-at)(deg+q) - kt <= Delta+q, ``upper`` certifies
        Delta+q <= (1+at)(deg+q) + kt."""
        if not 0.0 < a_tilde < 1.0:
            raise ValueError("a_tilde must lie in (0, 1)")
        if side not in ("lower", "upper"):
            raise ValueError(f"unknown side {side!r}")
        key = (side, a_tilde)
        if key not in self._offsets:
            adj = self._adjacency if side == "lower" else -self._adjacency
            shift = a_tilde * self.diagonal
            diff = adj - (np.diag(shift) if self._dense else sp.diags(shift))
            self._offsets[key] = max(0.0, _lambda_extreme(diff, "max"))
        return self._offsets[key]

    def constants(self, a_tilde: float) -> FormConstants:
        """The two-sided optimal offset: the larger of the lower and the
        upper one.  A one-sided constant is ``FormConstants(a_tilde,
        plan.offset(a_tilde, side))``."""
        k = max(self.offset(a_tilde, s) for s in ("lower", "upper"))
        return FormConstants(a_tilde=a_tilde, k_tilde=k)

    def sandwich(self, a_tilde: float, k_lower: float,
                 k_upper: float) -> tuple[np.ndarray, np.ndarray]:
        """Per-index margins lam_n - [(1-at) mu_n - k_lower] and
        [(1+at) mu_n + k_upper] - lam_n."""
        lam = self.spectrum
        lower = lam - ((1.0 - a_tilde) * self.mu - k_lower)
        upper = ((1.0 + a_tilde) * self.mu + k_upper) - lam
        return lower, upper

    def compressed_bottoms(self, region, slope_lower: float,
                           slope_upper: float) -> tuple[float, float]:
        """Smallest eigenvalues of H - slope_lower D and slope_upper D - H
        compressed to ``region`` (functions supported there)."""
        idx = np.asarray(region, dtype=np.int64)
        h = self.operator.matrix[idx][:, idx]
        d = sp.diags(self.diagonal[idx])
        return (_lambda_extreme((h - slope_lower * d).tocsr(), "min"),
                _lambda_extreme((slope_upper * d - h).tocsr(), "min"))


# -- conversions between constant pairs ---------------------------------------

def form_to_sparse(a_tilde: float, k_tilde: float) -> tuple[float, float]:
    """Sparseness pair implied by a lower form bound:
    a = at / (1 - at) and k = kt / (1 - at)."""
    if not 0.0 < a_tilde < 1.0:
        raise ValueError("a_tilde must lie in (0, 1)")
    if k_tilde < 0.0:
        raise ValueError("k_tilde must be non-negative")
    return a_tilde / (1.0 - a_tilde), k_tilde / (1.0 - a_tilde)


def sparse_to_form(a: float, k: float,
                   a_tilde: float | None = None) -> FormConstants:
    """Form constants certified by an (a, k)-sparse pair (q >= 0).

    For a = 0 the slope is free: pass ``a_tilde`` and receive
    kt = (k/2)(1/at - at).  For a > 0 the slope is dictated:
    at = sqrt(min(1/4, a^2) + 2a + a^2) / (1+a) and
    kt = max(max(3/2, 1/a - a) k / (2(1+a)), 2k(1-at)).
    """
    if a < 0 or k < 0:
        raise ValueError("a and k must be non-negative")
    if a == 0:
        if a_tilde is None:
            raise ValueError("a_tilde must be chosen when a = 0")
        if not 0.0 < a_tilde < 1.0:
            raise ValueError("a_tilde must lie in (0, 1)")
        k_tilde = 0.5 * k * (1.0 / a_tilde - a_tilde)
        return FormConstants(a_tilde=a_tilde, k_tilde=k_tilde)
    if a_tilde is not None:
        raise ValueError("a_tilde is determined by the formula when a > 0")
    at = math.sqrt(min(0.25, a * a) + 2.0 * a + a * a) / (1.0 + a)
    kt = max(max(1.5, 1.0 / a - a) * k / (2.0 * (1.0 + a)),
             2.0 * k * (1.0 - at))
    return FormConstants(a_tilde=at, k_tilde=kt)


def perturb_constants(a: float, k: float, alpha: float,
                      c_alpha: float) -> tuple[float, float]:
    """Transport a lower bound (1-a) Q2 - k <= Q1 through a form-small
    perturbation q <= alpha Q1 + C: returns the new (slope, offset) with
    slope (Q2 - q) - offset <= Q1 - q."""
    if not 0.0 < a < 1.0:
        raise ValueError("a must lie in (0, 1)")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if k < 0 or c_alpha < 0:
        raise ValueError("k and c_alpha must be non-negative")
    denom = 1.0 - alpha * (1.0 - a)
    slope = (1.0 - alpha) * (1.0 - a) / denom
    offset = ((1.0 - alpha) * k + a * c_alpha) / denom
    return slope, offset


def cheeger_form_slopes(alpha_u: float) -> tuple[float, float]:
    """Two-sided slopes 1 -/+ sqrt(1 - alpha^2) certified by an
    isoperimetric constant (no offsets needed)."""
    if not 0.0 <= alpha_u <= 1.0:
        raise ValueError("alpha_u must lie in [0, 1]")
    root = math.sqrt(max(0.0, 1.0 - alpha_u * alpha_u))
    return 1.0 - root, 1.0 + root


def spectral_edge_bound(d: float, k: float) -> float:
    """d - 2 sqrt((k/2)(d - k/2)), the spectral-edge bound a k-sparse
    graph with degree-potential floor (or ceiling) d satisfies.

    Requires k <= 2d so the square root is real; the value is clamped
    at zero.  Sharp for regular trees.
    """
    if d <= 0:
        raise ValueError("d must be positive")
    if k < 0 or k > 2.0 * d:
        raise ValueError("k must lie in [0, 2d]")
    return max(0.0, d - 2.0 * math.sqrt((k / 2.0) * (d - k / 2.0)))


def ratio_report(graph: Graph, potential: Potential | None,
                 phase: PhaseField | None = None, top_m: int = 10,
                 atilde_grid=None) -> SpectralReport:
    """Eigenvalue ratios at the top of the spectrum with a rigorous bracket.

    The ratios lam_n(Delta+q) / lam_n(deg+q) are reported for the
    ``top_m`` largest indices (indices with vanishing denominator are
    skipped, not reported as infinities).  For every slope on the grid
    the optimal offsets are computed; the bracket attached to the
    report is [(1-at) - kt_low/m, (1+at) + kt_up/m] with m the smallest
    reported denominator, for the grid slope minimizing its width.
    Widths within 1e-9 (1 + ||M||) / m of the least one count as tied,
    with ||M|| the operator's row-sum norm bound, and the smallest tied
    slope wins.  The tolerance sits far above the rounding of a width,
    about 1e-15 (1 + ||M||) / m, so noise cannot choose among slopes
    whose widths are equal in exact arithmetic (every slope on a q = 0
    regular host); every grid slope's bracket is valid, so any tied
    choice is safe.  An empty grid gives no bracket.  ``verified`` holds
    (id, margin, tolerance scale) per check: the scale is 1 + ||M||, and
    (1 + ||M||) / m, the tie rule's, for the bracket margin.
    """
    top_m = _as_index(top_m, "top_m")
    if top_m < 1:
        raise ValueError("top_m must be positive")
    n = graph.vertex_count
    if top_m > n:
        raise ValueError("top_m exceeds the dimension")
    plan = SpectralPlan(graph, potential, phase)
    lam, mu = plan.spectrum, plan.mu
    window = range(n - top_m, n)
    indices = tuple(i for i in window if mu[i] > 0.0)
    skipped = tuple(i for i in window if mu[i] <= 0.0)
    ratios = tuple(float(lam[i] / mu[i]) for i in indices)
    grid = tuple(atilde_grid) if atilde_grid is not None else DEFAULT_ATILDE_GRID
    rows = tuple((at, plan.offset(at, "lower"), plan.offset(at, "upper"))
                 for at in grid)
    bracket = None
    bracket_at = None
    scale = 1.0 + plan.operator.norm_bound()
    verified: list[tuple[str, float, float]] = []
    if indices and rows:
        m_min = min(mu[i] for i in indices)
        brackets = {at: ((1.0 - at) - klow / m_min, (1.0 + at) + kup / m_min)
                    for at, klow, kup in rows}
        widths = {at: hi - lo for at, (lo, hi) in brackets.items()}
        tie = 1e-9 * scale / m_min
        bracket_at = min(at for at, w in widths.items()
                         if w <= min(widths.values()) + tie)
        bracket = brackets[bracket_at]
        margin = min(min(r - bracket[0] for r in ratios),
                     min(bracket[1] - r for r in ratios))
        verified.append(("ratios_within_bracket", float(margin),
                         float(scale / m_min)))
    for at, klow, kup in rows:
        lower, upper = plan.sandwich(at, klow, kup)
        verified.append((f"sandwich_lower@a_tilde={at:g}", float(lower.min()),
                         scale))
        verified.append((f"sandwich_upper@a_tilde={at:g}", float(upper.min()),
                         scale))
    return SpectralReport(
        eigenvalues=lam, diag_eigenvalues=mu, indices=indices, ratios=ratios,
        skipped=skipped, grid=rows, bracket=bracket,
        bracket_a_tilde=bracket_at, verified=tuple(verified))
