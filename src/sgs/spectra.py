"""Eigenvalues, optimal form constants, constant conversions, and the
eigenvalue-sandwich machinery.

The central objects are two-sided comparisons

    (1 - at) (deg + q) - kt  <=  Delta + q  <=  (1 + at) (deg + q) + kt

as quadratic forms, with slope parameter ``a_tilde`` in (0, 1) and
offset ``k_tilde >= 0``.  Because eigenvalues are monotone under the
form order, any such comparison pins every eigenvalue of the operator
between affine images of the degree-potential values; on a concrete
graph, ``SpectralPlan.offsets`` gives a slope's smallest lower and upper
offsets, and the functions here convert between the combinatorial and
the form-bound parameter pairs and verify the sandwiches index by index.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.linalg as sla

from . import DEFAULT_ATILDE_GRID
from .graphs import Graph, PhaseField, Potential, _as_index
from .operators import HermitianOperator, assemble

__all__ = [
    "FormConstants", "SpectralReport", "SpectralPlan", "DENSE_EIGEN_LIMIT",
    "EXTREMAL_DENSE_LIMIT", "eigenvalues", "form_to_sparse",
    "sparse_to_form", "perturb_constants", "cheeger_form_slopes",
    "spectral_edge_bound", "ratio_report", "DEFAULT_ATILDE_GRID",
]

DENSE_EIGEN_LIMIT = 4000
# Extremal eigenvalues (the offsets k_tilde) are dense eigvalsh up to this
# dimension and the Lanczos batch of _top_eigenvalues above it.  The 9
# default slopes' 18 offsets, dense against one batch (2-core x86-64,
# best of 7): random graph n=60 2.5 and 12 ms, n=120 9.3 and 8.9 ms; grids
# m=10 6.3 and 24 ms, m=16 48 and 12 ms, m=20 127 and 20 ms; ball r=6
# (n=190) 19 and 2.4 ms; magnetic grid m=16 123 and 22 ms.  One slope
# alone crosses at about n=200.  The limit stays at 256, so every report
# at or below it keeps its bytes.
EXTREMAL_DENSE_LIMIT = 256
# Seed of the Lanczos start vector.  A fixed vector keeps reports
# byte-deterministic; it must be generic, because a structured one can be
# orthogonal to the wanted eigenvector (ones(n) is, on an even grid, to
# the top eigenvector of -A - at*D, by the checkerboard symmetry).
_START_SEED = 20130
_STEP_BUDGET = 50  # Lanczos steps per dimension before a row gives up


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
            f"{DENSE_EIGEN_LIMIT}; SpectralPlan.offsets has no such limit")
    return np.linalg.eigvalsh(op.toarray())


def _top_eigenvalues(adjacency, diagonal, slopes, signs) -> np.ndarray:
    """lambda_max(signs[j] A - slopes[j] D) for every j, with A the sparse
    Hermitian ``adjacency`` (zero diagonal) and D = diag(diagonal).

    Row j runs Lanczos from the _START_SEED vector with no stored basis
    and no reorthogonalization (Paige 1980; Cullum-Willoughby 1985).  The
    rows are one C-contiguous (m, n) array, one sparse product per step,
    reduced along rows: a row's value is bitwise the same in any batch.
    A row stops when |beta_k y_k| <= 4 eps max(1, ||M||) (y the top Ritz
    vector of T_k, ||M|| the row-sum bound), checked every 16 steps, at
    k = n and once its beta falls to 1e-8 ||M||, so a Krylov space that
    closes early (q = 0 tree balls) is read before rounding noise
    restarts it.  After _STEP_BUDGET * n steps it raises RuntimeError.
    """
    n, m = adjacency.shape[0], len(slopes)
    slopes, signs = np.asarray(slopes, float), np.asarray(signs, float)
    norms = (np.asarray(abs(adjacency).sum(axis=1)).ravel()
             + np.abs(slopes)[:, None] * np.abs(diagonal)).max(axis=1)
    start = np.random.default_rng(_START_SEED).uniform(-1.0, 1.0, n)
    x = np.tile(start / np.linalg.norm(start), (m, 1)).astype(adjacency.dtype)
    shift, sign = slopes[:, None] * diagonal, signs[:, None]
    alpha, beta = np.empty((m, 64)), np.empty((m, 64))  # grown by doubling
    rows, out, budget = np.arange(m), np.empty(m), int(_STEP_BUDGET * n)
    eps = np.finfo(float).eps
    for k in range(1, budget + 1):
        if k > alpha.shape[1]:
            alpha, beta = (np.concatenate([v, np.empty_like(v)], axis=1)
                           for v in (alpha, beta))
        y = np.ascontiguousarray((adjacency @ x.T).T) * sign - shift * x
        if k > 1:
            y -= beta[:, k - 2, None] * prev
        alpha[:, k - 1] = a = np.real(np.sum(x.conj() * y, axis=1))
        y -= a[:, None] * x
        beta[:, k - 1] = b = np.linalg.norm(y, axis=1)
        done = np.zeros(len(rows), dtype=bool)
        for i in np.flatnonzero((b <= 1e-8 * norms[rows])
                                | (k % 16 == 0 or k in (n, budget))):
            theta, vec = sla.eigh_tridiagonal(
                alpha[i, :k], beta[i, :k - 1], select="i",
                select_range=(k - 1, k - 1))
            if abs(b[i] * vec[-1, 0]) <= 4 * eps * max(1.0, norms[rows[i]]):
                out[rows[i]], done[i] = theta[0], True
        if done.all():
            return out
        if done.any():
            rows, x, y, b, shift, sign, alpha, beta = (
                v[~done] for v in (rows, x, y, b, shift, sign, alpha, beta))
        prev, x = x, y / b[:, None]
    raise RuntimeError(
        f"Lanczos found no converged top eigenvalue in {budget} steps for "
        f"the {'lower' if signs[rows[0]] > 0 else 'upper'} side at slope "
        f"{float(slopes[rows[0]])!r} (dimension {n})")


class SpectralPlan:
    """The spectral data of ``Delta + q`` (or of its magnetic variant) on
    one graph, each piece computed at most once.

    With ``D = diag(host_deg + q)`` and ``A`` the (phased) adjacency,
    ``H = D - A``, so the lower offset at slope at is
    lambda_max((1-at) D - H) = lambda_max(A - at D) and the upper one
    lambda_max(H - (1+at) D) = lambda_max(-A - at D): one adjacency and a
    diagonal shift per slope.  The full spectrum of ``H`` is taken on
    first use, and the offsets of a call's new slopes in one batch, then
    memoized.  A plan serves one analysis; nothing is cached across plans.
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
            self._adjacency.eliminate_zeros()
        self._spectrum: np.ndarray | None = None
        self._offsets: dict[float, tuple[float, float]] = {}

    @property
    def spectrum(self) -> np.ndarray:
        """All eigenvalues of the operator, ascending (dense path)."""
        if self._spectrum is None:
            self._spectrum = eigenvalues(self.operator)
        return self._spectrum

    def offsets(self, a_tilde):
        """Smallest k_tilde >= 0 for each side of the comparison, as
        (lower, upper): ``lower`` certifies (1-at)(deg+q) - kt <=
        Delta+q, ``upper`` certifies Delta+q <= (1+at)(deg+q) + kt.

        ``a_tilde`` is a slope, giving one pair, or a sequence, giving one
        pair per entry; the slopes not yet memoized are solved in one
        batch, and a slope's pair is bitwise the same in any batch."""
        single = np.ndim(a_tilde) == 0
        grid = [a_tilde] if single else list(a_tilde)
        for at in grid:
            if not 0.0 < at < 1.0:
                raise ValueError(f"a_tilde must lie in (0, 1), got {at!r}")
        new = list(dict.fromkeys(at for at in grid if at not in self._offsets))
        if self._dense:
            for at in new:
                shift = np.diag(at * self.diagonal)
                self._offsets[at] = tuple(
                    max(0.0, float(np.linalg.eigvalsh(adj - shift)[-1]))
                    for adj in (self._adjacency, -self._adjacency))
        elif new:
            top = [max(0.0, float(v)) for v in _top_eigenvalues(
                self._adjacency, self.diagonal, np.repeat(new, 2),
                [1.0, -1.0] * len(new))]
            self._offsets.update(zip(new, zip(top[::2], top[1::2])))
        pairs = [self._offsets[at] for at in grid]
        return pairs[0] if single else pairs

    def constants(self, a_tilde: float) -> FormConstants:
        """The two-sided optimal offset: the larger of the lower and the
        upper one."""
        return FormConstants(a_tilde, max(self.offsets(a_tilde)))

    def sandwich(self, a_tilde: float, k_lower: float,
                 k_upper: float) -> tuple[np.ndarray, np.ndarray]:
        """Per-index margins lam_n - [(1-at) mu_n - k_lower] and
        [(1+at) mu_n + k_upper] - lam_n."""
        lam = self.spectrum
        lower = lam - ((1.0 - a_tilde) * self.mu - k_lower)
        upper = ((1.0 + a_tilde) * self.mu + k_upper) - lam
        return lower, upper

    def bottoms(self, slope_lower: float,
                slope_upper: float) -> tuple[float, float]:
        """Smallest eigenvalues of H - slope_lower D and slope_upper D - H;
        above the dense limit, -lambda_max(A - (1-slope_lower) D) and
        -lambda_max(-A - (slope_upper-1) D) from one batch.  On a plan of
        ``graph.restrict(U)`` they are the bottoms of the compressions
        to U (functions supported there)."""
        if self._dense:
            h, d = self.operator.matrix, sp.diags(self.diagonal)
            return tuple(float(np.linalg.eigvalsh(m.toarray())[0])
                         for m in (h - slope_lower * d, slope_upper * d - h))
        top = _top_eigenvalues(self._adjacency, self.diagonal,
                               [1.0 - slope_lower, slope_upper - 1.0],
                               [1.0, -1.0])
        return float(-top[0]), float(-top[1])


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


def _id_number(x) -> str:
    """``x`` in a check id: ``:g`` if that reads back as ``x``, else repr."""
    text = f"{x:g}"
    return text if float(text) == x else repr(float(x))


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
    rows = tuple((at, *pair) for at, pair in zip(grid, plan.offsets(grid)))
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
        verified.append((f"sandwich_lower@a_tilde={_id_number(at)}",
                         float(lower.min()), scale))
        verified.append((f"sandwich_upper@a_tilde={_id_number(at)}",
                         float(upper.min()), scale))
    return SpectralReport(
        eigenvalues=lam, diag_eigenvalues=mu, indices=indices, ratios=ratios,
        skipped=skipped, grid=rows, bracket=bracket,
        bracket_a_tilde=bracket_at, verified=tuple(verified))
