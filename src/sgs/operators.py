"""Finite Hermitian operators: graph Laplacian plus potential, and its
magnetic variant.

The diagonal always uses host degrees, so assembling on a truncation
yields the Dirichlet compression of the host operator: its lowest
eigenvalue is a certified upper bound for the host's spectral bottom,
and every quadratic-form inequality proved for finitely supported
functions transfers verbatim.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .graphs import Graph, PhaseField, Potential

__all__ = ["HermitianOperator", "assemble", "quad_form",
           "upside_down_identity", "kato_form_gap", "kato_gap"]

@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """Immutable sparse Hermitian matrix with its provenance.

    ``matrix`` is real symmetric without a phase and complex Hermitian
    with one; the graph, potential, and phase used to build it are kept
    so that quadratic forms can be cross-checked against their edge-sum
    formulas.
    """
    matrix: sp.csr_matrix = field(repr=False)
    graph: Graph = field(repr=False)
    potential: Potential = field(repr=False)
    phase: PhaseField | None = field(repr=False, default=None)

    def __repr__(self) -> str:
        return f"HermitianOperator(kind={self.kind!r})"

    @property
    def kind(self) -> str:
        """``magnetic`` when built with a phase, else ``schrodinger``."""
        return "schrodinger" if self.phase is None else "magnetic"

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def toarray(self) -> np.ndarray:
        return self.matrix.toarray()

    def norm_bound(self) -> float:
        """Row-sum upper bound for the operator norm (tolerance scaling)."""
        return float(np.abs(self.matrix).sum(axis=1).max())


def assemble(graph: Graph, potential: Potential | None,
             phase: PhaseField | None = None) -> HermitianOperator:
    """The matrix of Delta + q, magnetic exactly when ``phase`` is given.

    Diagonal host_degree + q; off-diagonal -1 on every edge, or
    -exp(i theta(x,y)) with a phase.
    """
    if potential is None:
        potential = Potential.zero(graph)
    if len(potential) != graph.vertex_count:
        raise ValueError("potential length does not match graph")
    if phase is not None and phase.graph is not graph:
        raise ValueError("phase was built for a different graph")
    n = graph.vertex_count
    diag = graph.host_degree.astype(np.float64) + potential.values
    # Both orientations of every edge, then the diagonal; zero diagonal
    # entries stay unstored.  The CSR conversion sorts each row.
    ends = graph.edge_ends
    on = np.flatnonzero(diag)
    rows = np.concatenate([ends[:, 1], ends[:, 0], on])
    cols = np.concatenate([ends[:, 0], ends[:, 1], on])
    if phase is None:
        off = np.full(2 * len(ends), -1.0)
    else:
        w = -np.exp(1j * phase.values)
        off = np.concatenate([np.conj(w), w])
    mat = sp.csr_matrix((np.concatenate([off, diag[on]]), (rows, cols)),
                        shape=(n, n))
    return HermitianOperator(mat, graph, potential, phase)


def _edge_sum_form(op: HermitianOperator, f: np.ndarray) -> float:
    """Half the summed |f(x)-f(y)|^2 over directed edges plus the
    (q + deficit)-weighted mass; equals the Laplacian form exactly."""
    g = op.graph
    diff = f[g.edge_ends[:, 0]] - f[g.edge_ends[:, 1]]
    weight = op.potential.values + g.deficit
    return float(np.real(np.vdot(diff, diff) + np.vdot(f, weight * f)))


def quad_form(op: HermitianOperator, f) -> float:
    """The (real) quadratic form <f, M f>.

    Without a phase the value is verified against its edge-sum formula
    to 1e-10 relative accuracy.
    """
    f = np.asarray(f)
    if f.shape != (op.dimension,):
        raise ValueError("vector length does not match operator dimension")
    value = float(np.real(np.vdot(f, op.matrix @ f)))
    if op.kind == "schrodinger":
        other = _edge_sum_form(op, f)
        scale = max(1.0, abs(value), abs(other))
        if abs(value - other) > 1e-10 * scale:
            raise RuntimeError(
                f"quadratic form mismatch: matrix {value} vs edge sum {other}")
    return value


def upside_down_identity(graph: Graph, phase: PhaseField) -> float:
    """Largest entry of Delta_theta + Delta_(theta+pi) - 2 (degree matrix).

    An exact operator identity; the return value is pure floating-point
    noise and is contracted to stay below 1e-12.
    """
    zero_q = Potential.zero(graph)
    a = assemble(graph, zero_q, phase).matrix
    b = assemble(graph, zero_q, phase.shifted_by_pi()).matrix
    two_deg = sp.diags(2.0 * graph.host_degree.astype(np.float64))
    residue = (a + b - two_deg).tocsr()
    if residue.nnz == 0:
        return 0.0
    return float(np.abs(residue.data).max())


def kato_form_gap(magnetic: HermitianOperator, plain: HermitianOperator,
                  f) -> float:
    """<f, M_theta f> minus <|f|, H |f|> for the magnetic operator
    ``M_theta`` and the plain operator ``H`` of one graph and potential."""
    f = np.asarray(f, dtype=np.complex128)
    return quad_form(magnetic, f) - quad_form(plain, np.abs(f))


def kato_gap(graph: Graph, potential: Potential | None, phase: PhaseField,
             f) -> float:
    """<f, (Delta_theta + q) f> minus <|f|, (Delta + q) |f|>.

    Non-negative for every complex vector: the magnetic form dominates
    the form of the entrywise modulus (diamagnetic comparison).
    """
    f = np.asarray(f, dtype=np.complex128)
    if f.shape != (graph.vertex_count,):
        raise ValueError("vector length does not match graph")
    return kato_form_gap(assemble(graph, potential, phase),
                         assemble(graph, potential), f)
