"""The check catalogue of ``sgs analyze verify``: form sandwiches,
``(a,k) <-> (a_tilde,k_tilde)`` round trips, the Kato and pi-shift
identities, the isoperimetric dictionary and the spectral-bottom bound.

Each operator, spectrum and flow certificate is computed once per call,
and one ``kmin_flow`` call on the list of the a that the checks read
(``sparsity_flow`` when q > 0, for a_min too) serves every k_min.  Flow and
operator routines are called through their defining modules, so
wrappers installed there (``bench/spans.py``) see these calls.
"""
from __future__ import annotations

from functools import cache

import numpy as np

from . import operators, sparseness
from .graphs import Graph, PhaseField, Potential
from .spectra import (DEFAULT_ATILDE_GRID, SpectralPlan, _id_number,
                      cheeger_form_slopes, form_to_sparse, sparse_to_form,
                      spectral_edge_bound)

__all__ = ["run_checks"]

_KATO_SWEEPS = 50


def run_checks(graph: Graph, potential: Potential | None,
               phase: PhaseField | None = None, *, a_grid=(0.0,),
               atilde_grid=DEFAULT_ATILDE_GRID, region=None,
               seed: int = 0) -> list[dict]:
    """The check records of ``sgs analyze verify``, in report order.

    ``region`` (vertex indices, default all) is where the Cheeger form
    bounds are checked, on ``graph.restrict(region)``; ``seed`` drives
    the Kato sweep.  A record is ``ok`` with a margin, its
    ``tolerance_scale`` and details, or ``skipped`` with a ``reason``.
    """
    if potential is None:
        potential = Potential.zero(graph)
    region = None if region is None else tuple(region)
    checks: list[dict] = []

    def add(check_id: str, margin: float, scale: float = 1.0, **details) -> None:
        checks.append({"id": check_id, "status": "ok", "margin": float(margin),
                       "tolerance_scale": scale, **details})

    def skip(check_id: str, reason: str) -> None:
        checks.append({"id": check_id, "status": "skipped", "margin": None,
                       "reason": reason})

    @cache  # a region of every vertex is the graph: one search serves both
    def alpha_of(g: Graph, q: Potential) -> float:
        return sparseness.cheeger(g, q).ratio

    rng = np.random.default_rng(seed)
    q = potential.values
    nonneg_q = bool(np.all(q >= 0))
    # The plain plan serves the sandwiches and round trips, the magnetic
    # one (if any) the trace, the spectral bottom and the Kato sweep.
    plain = SpectralPlan(graph, potential)
    plan = plain if phase is None else SpectralPlan(graph, potential, phase)
    op = plan.operator
    lam = plan.spectrum
    norm = op.norm_bound()
    scale = 1.0 + norm  # margin tolerances scale with the operator norm
    trace_gap = abs(lam.sum() - float(np.real(op.matrix.diagonal().sum())))
    add("eigensolver_trace",
        1e-8 * max(norm, 1.0) * graph.vertex_count - trace_gap)

    offsets = plain.offsets(atilde_grid)  # one batch per plan
    phased = plan.offsets(atilde_grid)
    for at, (klow, kup), pair in zip(atilde_grid, offsets, phased):
        lower_m, upper_m = plain.sandwich(at, klow, kup)
        add(f"sandwich_optimal@a_tilde={_id_number(at)}",
            min(float(lower_m.min()), float(upper_m.min())), scale=scale,
            k_lower=klow, k_upper=kup)
        add(f"upside_down@a_tilde={_id_number(at)}", klow - kup, scale=scale)
        if phase is not None:
            add(f"upside_down_magnetic@a_tilde={_id_number(at)}",
                klow - max(pair), scale=scale)

    # every a whose k_min a check reads, once each in first-use order
    sparse = [form_to_sparse(at, klow) for at, (klow, _) in
              zip(atilde_grid, offsets)]
    needed = [a for a, _ in sparse]
    if nonneg_q:
        needed = [*a_grid, *needed, 0.0]
    needed = list(dict.fromkeys(needed))
    # With q > 0 every |dW| + q+(W) is positive, so a_min is finite, and
    # the isoperimetric dictionary takes it from the same search.
    positive_q = nonneg_q and bool(np.all(q > 0))
    if positive_q:
        certs, amin = sparseness.sparsity_flow(graph, potential, needed)
    else:
        certs = sparseness.kmin_flow(graph, potential, needed)
    k_of = {a: cert.k for a, cert in zip(needed, certs)}

    if nonneg_q:
        for a in a_grid:
            k = k_of[a]
            constants = (sparse_to_form(a, k, a_tilde=0.5) if a == 0
                         else sparse_to_form(a, k))
            kt = constants.k_tilde
            lo_m, up_m = plain.sandwich(constants.a_tilde, kt, kt)
            add(f"roundtrip_sparse_to_form@a={_id_number(a)}",
                min(float(lo_m.min()), float(up_m.min())), scale=scale,
                k=k, a_tilde=constants.a_tilde, k_tilde=constants.k_tilde)
    else:
        skip("roundtrip_sparse_to_form",
             "requires a non-negative potential")
    for at, (a_out, k_out) in zip(atilde_grid, sparse):
        k = k_of[a_out]
        add(f"roundtrip_form_to_sparse@a_tilde={_id_number(at)}", k_out - k,
            scale=scale, a=a_out, k=k_out, kmin=k)

    gaps = []
    for _ in range(_KATO_SWEEPS):
        magnetic = op if phase is not None else operators.assemble(
            graph, potential, PhaseField.random(graph, rng))
        f = rng.standard_normal(graph.vertex_count) \
            + 1j * rng.standard_normal(graph.vertex_count)
        gaps.append(operators.kato_form_gap(magnetic, plain.operator, f))
    add("kato_sweep", min(gaps), sweeps=_KATO_SWEEPS)
    add("phase_pi_identity",
        -operators.upside_down_identity(
            graph, phase if phase is not None else PhaseField.zero(graph)))

    if positive_q:
        alpha_v, amin = alpha_of(graph, potential), amin.value
        add("isoperimetric_dictionary", -abs(alpha_v - 1.0 / (1.0 + amin)),
            alpha=alpha_v, amin=amin)
    else:
        skip("isoperimetric_dictionary", "requires strictly positive q")

    if nonneg_q:
        sub = graph if region is None else graph.restrict(region)
        sub_q = potential if sub is graph else Potential(q[np.unique(region)])
        alpha_u = alpha_of(sub, sub_q)
        slope_lo, slope_hi = cheeger_form_slopes(alpha_u)
        sub_plan = plain if sub is graph else SpectralPlan(sub, sub_q)
        low_eig, up_eig = sub_plan.bottoms(slope_lo, slope_hi)
        add("cheeger_form_bounds", min(low_eig, up_eig), scale=scale,
            alpha=alpha_u, slope_lower=slope_lo, slope_upper=slope_hi)
        k0 = k_of[0.0]
        d_floor = float((graph.host_degree + q).min())
        if 0.0 < d_floor and k0 <= d_floor:
            bound = spectral_edge_bound(d_floor, k0)
            add("spectral_bottom_bound", float(lam[0]) - bound,
                d=d_floor, k=k0, bound=bound)
        else:
            skip("spectral_bottom_bound",
                 "needs 0 < k_min(0) <= min(deg+q)")
    else:
        skip("cheeger_form_bounds", "requires a non-negative potential")
        skip("spectral_bottom_bound", "requires a non-negative potential")

    return checks
