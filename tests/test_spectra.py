import math

import numpy as np
import pytest
import scipy.sparse as sp

from sgs import (Graph, PhaseField, Potential, assemble, cheeger,
                 cheeger_form_slopes, complete_graph,
                 eigenvalues, form_to_sparse, grid_graph, kmin_flow,
                 path_graph, perturb_constants, ratio_report,
                 regular_tree_ball, sparse_to_form, spectral_edge_bound,
                 FormConstants, make_radial_family, RadialFamilySpec,
                 SpectralPlan)
import sgs.spectra
from sgs.spectra import (DEFAULT_ATILDE_GRID, EXTREMAL_DENSE_LIMIT,
                         _top_eigenvalues)

from helpers import random_graph, restricted, uniform_potential


def test_eigenvalues_examples():
    assert np.allclose(eigenvalues(assemble(path_graph(2), None)), [0, 2])
    assert np.allclose(eigenvalues(assemble(complete_graph(3), None)),
                       [0, 3, 3], atol=1e-12)
    q = Potential([2.0, -1.0, 0.5])
    diag = eigenvalues(assemble(Graph(3, []), q))
    assert np.allclose(diag, sorted([2.0, -1.0, 0.5]))
    with pytest.raises(ValueError, match="SpectralPlan.offset"):
        eigenvalues(assemble(path_graph(4001), None))


def test_eigenvalue_accuracy_contract():
    rng = np.random.default_rng(31)
    for _ in range(10):
        g = random_graph(rng, n_max=25)
        q = uniform_potential(rng, g.vertex_count, -2, 3)
        op = assemble(g, q)
        m = op.toarray()
        vals, vecs = np.linalg.eigh(m)
        norm = op.norm_bound()
        for i in range(len(vals)):
            res = np.linalg.norm(m @ vecs[:, i] - vals[i] * vecs[:, i])
            assert res <= 1e-8 * max(norm, 1.0)
        assert abs(vals.sum() - np.trace(m)) <= 1e-8 * max(norm, 1.0) * len(vals)


def test_plan_offset_examples():
    plan = SpectralPlan(path_graph(2))
    low, up = plan.offsets(0.5)
    assert low == pytest.approx(0.5)
    assert up == pytest.approx(0.5)
    assert plan.constants(0.5).k_tilde == max(low, up)
    # a_tilde near one: offsets collapse for non-negative potentials
    near_one, _ = plan.offsets(0.99)
    assert near_one <= 0.011
    with pytest.raises(ValueError):
        plan.constants(1.0)


def test_form_constants_validation():
    with pytest.raises(ValueError):
        FormConstants(0.0, 1.0)
    with pytest.raises(ValueError):
        FormConstants(0.5, -0.1)


def test_conversion_examples():
    assert form_to_sparse(0.5, 1.0) == (1.0, 2.0)
    assert sparse_to_form(0, 2, a_tilde=0.5).k_tilde == pytest.approx(1.5)
    assert spectral_edge_bound(3, 2) == pytest.approx(3 - 2 * math.sqrt(2))
    small = sparse_to_form(1e-4, 1.0)
    assert 0.99 <= small.a_tilde / math.sqrt(2e-4) <= 1.01
    big = sparse_to_form(100.0, 1.0)
    assert 0.9 <= (1 - big.a_tilde) * 8 * 100.0 ** 2 / 3 <= 1.1


def test_conversion_domains():
    with pytest.raises(ValueError):
        form_to_sparse(1.0, 1.0)
    with pytest.raises(ValueError):
        sparse_to_form(0, 1.0)  # a_tilde required when a = 0
    with pytest.raises(ValueError):
        sparse_to_form(0.5, 1.0, a_tilde=0.5)  # determined by the formula
    with pytest.raises(ValueError):
        spectral_edge_bound(3, 7.0)  # k > 2d
    with pytest.raises(ValueError):
        cheeger_form_slopes(1.5)
    with pytest.raises(ValueError):
        perturb_constants(0.5, 1.0, 1.0, 0.0)


def test_closed_form_conversions():
    assert form_to_sparse(a_tilde=0.5, k_tilde=1.0) == (1.0, 2.0)
    slopes = cheeger_form_slopes(alpha_u=0.6)
    assert slopes == pytest.approx((1 - 0.8, 1 + 0.8))
    slope, offset = perturb_constants(a=0.5, k=1.0, alpha=0.25, c_alpha=2.0)
    assert slope == pytest.approx((0.75 * 0.5) / (1 - 0.25 * 0.5))
    assert offset == pytest.approx((0.75 * 1.0 + 0.5 * 2.0) / (1 - 0.25 * 0.5))


def test_perturb_limits():
    # alpha -> 0 recovers the original slope
    slope, offset = perturb_constants(0.3, 2.0, 1e-9, 5.0)
    assert slope == pytest.approx(0.7, abs=1e-6)
    assert offset == pytest.approx(2.0 + 0.3 * 5.0, abs=1e-6)


def test_plan_sandwich_diagonal_graph():
    q = Potential([0.5, 1.5, 3.0])
    g = Graph(3, [])
    lower, upper = SpectralPlan(g, q).sandwich(0.4, 0.0, 0.0)
    mu = np.sort(q.values)
    assert np.allclose(lower, 0.4 * mu)
    assert np.allclose(upper, 0.4 * mu)


def test_roundtrip_sandwich_tree():
    rng = np.random.default_rng(32)
    from helpers import random_tree
    g = random_tree(rng, 50)
    k = kmin_flow(g, None, 0.0).k
    constants = sparse_to_form(0, k, a_tilde=0.5)
    at, kt = constants.a_tilde, constants.k_tilde
    lower, upper = SpectralPlan(g).sandwich(at, kt, kt)
    assert lower.min() >= -1e-9
    assert upper.min() >= -1e-9


def test_roundtrip_optimal_constants():
    rng = np.random.default_rng(33)
    for _ in range(10):
        g = random_graph(rng, n_max=20)
        q = uniform_potential(rng, g.vertex_count, 0, 3)
        plan = SpectralPlan(g, q)
        for at in (0.3, 0.6):
            low, up = plan.offsets(at)
            l_m, u_m = plan.sandwich(at, low, up)
            assert l_m.min() >= -1e-9
            assert u_m.min() >= -1e-9
            # reverse direction: implied sparseness pair dominates kmin
            a_out, k_out = form_to_sparse(at, low)
            assert kmin_flow(g, q, a_out).k <= k_out + 1e-9


def test_upside_down_constants_small():
    rng = np.random.default_rng(34)
    for _ in range(10):
        g = random_graph(rng, n_max=25)
        q = uniform_potential(rng, g.vertex_count, -2, 3)
        plain = SpectralPlan(g, q)
        for at in (0.2, 0.5, 0.8):
            kl, ku = plain.offsets(at)
            assert ku <= kl + 1e-9
            ph = PhaseField.random(g, rng)
            both = SpectralPlan(g, q, ph).constants(at).k_tilde
            assert both <= kl + 1e-9


def test_cheeger_form_bound_compression():
    rng = np.random.default_rng(35)
    for _ in range(10):
        g = random_graph(rng)
        n = g.vertex_count
        q = uniform_potential(rng, n, 1e-3, 3)
        removed = set(int(x) for x in
                      rng.choice(n, size=int(rng.integers(1, n)), replace=False))
        region = sorted(set(range(n)) - removed) or [0]
        alpha = cheeger(*restricted(g, q, region)).ratio
        lo, hi = cheeger_form_slopes(alpha)
        sub = np.ix_(region, region)
        lap = assemble(g, q).toarray()
        deg = np.diag(np.diag(lap))
        assert np.linalg.eigvalsh((lap - lo * deg)[sub])[0] >= -1e-9
        assert np.linalg.eigvalsh((hi * deg - lap)[sub])[0] >= -1e-9


def test_ratio_report_basics():
    g = regular_tree_ball(3, 3)
    rep = ratio_report(g, None, top_m=5)
    assert len(rep.ratios) == 5
    assert not rep.skipped
    lo, hi = rep.bracket
    assert all(lo - 1e-9 <= r <= hi + 1e-9 for r in rep.ratios)
    assert all(margin >= -1e-9 for _, margin, _ in rep.verified)


def test_ratio_report_skips_zero_denominators():
    g = Graph(2, [])  # isolated massless vertices: deg + q = 0
    rep = ratio_report(g, None, top_m=2)
    assert rep.indices == ()
    assert rep.skipped == (0, 1)


def test_ratio_report_growing_family_brackets_shrink_to_one():
    spec = RadialFamilySpec(beta=tuple(range(3, 12)), gamma=(0,), depth=5)
    g = make_radial_family(spec)
    rep = ratio_report(g, None, top_m=10)
    lo, hi = rep.bracket
    assert lo <= min(rep.ratios) and max(rep.ratios) <= hi
    assert all(abs(r - 1.0) < 0.75 for r in rep.ratios)


def test_ball_bottom_eigenvalue_bound():
    g = regular_tree_ball(3, 8)
    lam0 = eigenvalues(assemble(g, None))[0]
    assert lam0 >= 3 - 2 * math.sqrt(2) - 1e-9


def test_ratio_report_rejects_bad_top_m():
    g = path_graph(3)
    with pytest.raises(ValueError, match="top_m"):
        ratio_report(g, None, top_m=4)
    with pytest.raises(ValueError, match="top_m"):
        ratio_report(g, None, top_m=0)
    # range() used to raise TypeError for a float
    with pytest.raises(ValueError, match=r"^top_m is not an integer: 2\.5$"):
        ratio_report(g, None, top_m=2.5)
    assert ratio_report(g, None, top_m=np.int64(2)).indices == (1, 2)


def test_ratio_report_is_deterministic():
    g = regular_tree_ball(3, 7)  # offsets above the dense cutover
    first = ratio_report(g, None, top_m=4)
    second = ratio_report(g, None, top_m=4)
    assert first.grid == second.grid
    assert first.ratios == second.ratios


def _offset_case(name):
    rng = np.random.default_rng(37)
    if name == "even_grid":
        # ones(n) is orthogonal to the top eigenvector of -A - at*D here
        return grid_graph(20), None, None
    if name == "tree_ball":
        return regular_tree_ball(3, 8), None, None
    g = grid_graph(20)
    return (g, uniform_potential(rng, g.vertex_count, 0, 1),
            PhaseField.random(g, rng))


@pytest.mark.parametrize("name", ["even_grid", "tree_ball", "magnetic_grid"])
def test_offsets_above_dense_cutover_match_dense(name):
    g, q, ph = _offset_case(name)
    assert g.vertex_count > EXTREMAL_DENSE_LIMIT
    h = assemble(g, q, ph).toarray()
    d = np.diag(np.real(np.diag(h)))
    for at in DEFAULT_ATILDE_GRID:
        first = SpectralPlan(g, q, ph).offsets(at)
        again = SpectralPlan(g, q, ph).offsets(at)
        assert first == again
        for side, value, m in zip(("lower", "upper"), first,
                                  ((1.0 - at) * d - h, h - (1.0 + at) * d)):
            dense = max(0.0, float(np.linalg.eigvalsh(m)[-1]))
            norm = float(np.abs(m).sum(axis=1).max())
            assert abs(value - dense) <= 1e-9 * (1.0 + norm), (side, at)


@pytest.mark.parametrize("whole", [True, False])
def test_magnetic_compressed_bottoms_above_dense_cutover_match_dense(whole):
    g, q, ph = _offset_case("magnetic_grid")
    region = (np.arange(g.vertex_count) if whole
              else np.arange(0, g.vertex_count - 20))
    assert len(region) > EXTREMAL_DENSE_LIMIT
    got = SpectralPlan(*restricted(g, q, region, ph)).bottoms(0.4, 1.6)
    h = assemble(g, q, ph).toarray()[np.ix_(region, region)]
    d = np.diag(np.real(np.diag(h)))
    for value, m in zip(got, (h - 0.4 * d, 1.6 * d - h)):
        norm = float(np.abs(m).sum(axis=1).max())
        dense = float(np.linalg.eigvalsh(m)[0])
        assert abs(value - dense) <= 1e-9 * (1.0 + norm)


def test_a_slope_grid_is_one_kernel_call_on_rows_of_size_n(monkeypatch):
    calls, products = [], []

    class Recorder:
        """The adjacency, recording the rows it multiplies."""
        def __init__(self, matrix):
            self.matrix, self.shape = matrix, matrix.shape
            self.dtype = matrix.dtype

        def __abs__(self):
            return abs(self.matrix)

        def __matmul__(self, rows):
            products.append((rows.dtype, rows.shape))
            return self.matrix @ rows

    def spy(adjacency, diagonal, slopes, signs):
        calls.append(len(slopes))
        return _top_eigenvalues(Recorder(adjacency), diagonal, slopes, signs)

    monkeypatch.setattr(sgs.spectra, "_top_eigenvalues", spy)
    g, q, ph = _offset_case("magnetic_grid")
    n, grid = g.vertex_count, list(DEFAULT_ATILDE_GRID)
    for phase, dtype in ((ph, np.complex128), (None, np.float64)):
        calls.clear()
        products.clear()
        plan = SpectralPlan(g, q, phase)
        first = plan.offsets(grid)
        # both sides of every slope in one call; memoized slopes are free
        assert calls == [2 * len(grid)]
        assert products[0] == (dtype, (n, 2 * len(grid)))
        assert all(dt == dtype and shape[0] == n for dt, shape in products)
        assert plan.offsets(grid[::-1]) == first[::-1]
        assert plan.offsets(grid[3]) == first[3]
        assert calls == [2 * len(grid)]
        plan.offsets([*grid, 0.55, 0.55])
        assert calls == [2 * len(grid), 2]


def _kernel_case(name):
    """(graph, potential, phase) above the dense cutover."""
    rng = np.random.default_rng(43)
    if name in ("ball7", "ball8"):
        return regular_tree_ball(3, int(name[-1])), None, None
    if name == "edgeless":  # the zero matrix: beta is 0 at the first step
        return Graph(300, []), None, None
    g = grid_graph(20)
    q = uniform_potential(rng, g.vertex_count, 0, 4)
    if name == "grid_q":
        return g, q, None
    if name == "magnetic_grid":
        return g, q, PhaseField.random(g, rng)
    # a ball and a path with a potential, side by side
    ball, path = regular_tree_ball(3, 6), path_graph(120)
    shift = ball.vertex_count
    union = Graph(shift + path.vertex_count,
                  list(ball.edges) + [(u + shift, v + shift)
                                      for u, v in path.edges],
                  np.concatenate([ball.host_degree, path.host_degree]))
    return union, uniform_potential(rng, union.vertex_count, -1, 2), None


def _dense_top(m) -> tuple[float, float]:
    """lambda_max of a dense Hermitian matrix and its row-sum bound."""
    return (float(np.linalg.eigvalsh(m)[-1]),
            float(np.abs(m).sum(axis=1).max()))


@pytest.mark.parametrize("name", ["ball7", "ball8", "grid_q", "magnetic_grid",
                                  "disconnected", "edgeless"])
def test_kernel_offsets_match_dense_to_1e_12(name):
    g, q, ph = _kernel_case(name)
    assert g.vertex_count > EXTREMAL_DENSE_LIMIT
    h = assemble(g, q, ph).toarray()
    d = np.diag(np.real(np.diag(h)))
    offsets = SpectralPlan(g, q, ph).offsets(DEFAULT_ATILDE_GRID)
    for at, pair in zip(DEFAULT_ATILDE_GRID, offsets):
        for side, value, m in zip(("lower", "upper"), pair,
                                  ((1.0 - at) * d - h, h - (1.0 + at) * d)):
            top, norm = _dense_top(m)
            assert abs(value - max(0.0, top)) <= 1e-12 * (1.0 + norm), (
                side, at)


@pytest.mark.parametrize("phased", [False, True])
def test_kernel_region_bottoms_match_dense_to_1e_12(phased):
    g, q, ph = _kernel_case("magnetic_grid" if phased else "grid_q")
    region = np.arange(30, g.vertex_count - 40)
    assert len(region) > EXTREMAL_DENSE_LIMIT
    plan = SpectralPlan(*restricted(g, q, region, ph))
    h = assemble(g, q, ph).toarray()[np.ix_(region, region)]
    d = np.diag(np.real(np.diag(h)))
    for at in DEFAULT_ATILDE_GRID:
        got = plan.bottoms(1.0 - at, 1.0 + at)
        for value, m in zip(got, (h - (1.0 - at) * d, (1.0 + at) * d - h)):
            top, norm = _dense_top(-m)
            assert abs(value + top) <= 1e-12 * (1.0 + norm), at


def _small_case(name):
    """(plan arguments, dense H) at or below the dense cutover; the
    restricted case's H is the compression of the whole grid's."""
    rng = np.random.default_rng(47)
    g = grid_graph(14)
    q = uniform_potential(rng, g.vertex_count, 0, 2)
    ph = PhaseField.random(g, rng)
    if name == "restricted":
        region = np.flatnonzero(g.internal_degree == 4)
        h = assemble(g, q, ph).toarray()[np.ix_(region, region)]
        return restricted(g, q, region, ph), h
    args = {"plain": (regular_tree_ball(3, 6), None), "float_q": (g, q),
            "magnetic": (g, q, ph)}[name]
    return args, assemble(*args).toarray()


@pytest.mark.parametrize("name", ["plain", "float_q", "magnetic",
                                  "restricted"])
def test_bottoms_at_or_below_dense_cutover_match_dense(name):
    args, h = _small_case(name)
    assert len(h) <= EXTREMAL_DENSE_LIMIT
    plan = SpectralPlan(*args)
    d = np.diag(np.real(np.diag(h)))
    for at in DEFAULT_ATILDE_GRID:
        got = plan.bottoms(1.0 - at, 1.0 + at)
        for value, m in zip(got, (h - (1.0 - at) * d, (1.0 + at) * d - h)):
            bottom = float(np.linalg.eigvalsh(m)[0])
            norm = float(np.abs(m).sum(axis=1).max())
            assert abs(value - bottom) <= 1e-12 * (1.0 + norm), at


def _disjoint_union(parts):
    """(graph, potential, phase) of the disjoint union of the parts'."""
    shifts = np.cumsum([0] + [g.vertex_count for g, _, _ in parts])
    union = Graph(int(shifts[-1]), np.concatenate(
        [g.edge_ends + s for (g, _, _), s in zip(parts, shifts)]),
        np.concatenate([g.host_degree for g, _, _ in parts]))
    q = Potential(np.concatenate(
        [np.zeros(g.vertex_count) if q is None else q.values
         for g, q, _ in parts]))
    ph = PhaseField(union, np.concatenate(
        [np.zeros(g.edge_count) if ph is None else ph.values
         for g, _, ph in parts]))
    return union, q, ph


def test_disjoint_union_across_the_cutover_takes_max_offsets_min_bottoms():
    # parts solved densely, their union by Lanczos: the offsets of a
    # disjoint union are the larger of the parts', the bottoms the smaller
    parts = [_small_case("magnetic")[0], _small_case("restricted")[0],
             (regular_tree_ball(3, 5), None, None)]
    union = _disjoint_union(parts)
    h = assemble(*union).toarray()
    assert all(g.vertex_count <= EXTREMAL_DENSE_LIMIT for g, _, _ in parts)
    assert len(h) > EXTREMAL_DENSE_LIMIT
    assert np.array_equal(h, sp.block_diag(
        [assemble(*p).matrix for p in parts]).toarray())
    d = np.diag(np.real(np.diag(h)))
    a = d - h
    whole, plans = SpectralPlan(*union), [SpectralPlan(*p) for p in parts]
    for at in DEFAULT_ATILDE_GRID:
        offsets = np.max([p.offsets(at) for p in plans], axis=0)
        bottoms = np.min([p.bottoms(1.0 - at, 1.0 + at) for p in plans],
                         axis=0)
        for got, want, m in (
                *zip(whole.offsets(at), offsets, (a - at * d, -a - at * d)),
                *zip(whole.bottoms(1.0 - at, 1.0 + at), bottoms,
                     (h - (1.0 - at) * d, (1.0 + at) * d - h))):
            norm = float(np.abs(m).sum(axis=1).max())
            assert abs(got - want) <= 1e-12 * (1.0 + norm), at


@pytest.mark.parametrize("name", ["ball8", "grid_q", "magnetic_grid"])
def test_kernel_offsets_do_not_depend_on_the_batch(name):
    g, q, ph = _kernel_case(name)
    grid = list(DEFAULT_ATILDE_GRID)
    together = SpectralPlan(g, q, ph).offsets(grid)
    reversed_ = SpectralPlan(g, q, ph).offsets(grid[::-1])[::-1]
    alone = [SpectralPlan(g, q, ph).offsets(at) for at in grid]
    assert together == reversed_ == alone


def test_kernel_step_budget_raises(monkeypatch):
    monkeypatch.setattr(sgs.spectra, "_STEP_BUDGET", 0.05)
    g = grid_graph(20)
    with pytest.raises(RuntimeError, match=r"in 20 steps for the lower side "
                       r"at slope 0\.5 \(dimension 400\)"):
        SpectralPlan(g).offsets([0.5, 0.6])


def test_bracket_slope_ties_go_to_the_smallest():
    # q = 0 on a 3-regular host: D = 3 I, so every grid slope gives the
    # bracket [1 - l/3, 1 + l/3] with l = lambda_max(A), and only
    # rounding separates the widths
    g = regular_tree_ball(3, 7)
    assert g.vertex_count > EXTREMAL_DENSE_LIMIT
    adjacency = 3.0 * np.eye(g.vertex_count) - assemble(g, None).toarray()
    top = float(np.linalg.eigvalsh(adjacency)[-1])
    for seed in (1, 3):
        p = np.random.default_rng(seed).permutation(g.vertex_count)
        host = np.empty(g.vertex_count, dtype=np.int64)
        host[p] = g.host_degree
        relabelled = Graph(g.vertex_count,
                           [(int(p[u]), int(p[v])) for u, v in g.edges], host)
        rep = ratio_report(relabelled, None)
        assert rep.bracket_a_tilde == min(DEFAULT_ATILDE_GRID)
        assert rep.bracket == pytest.approx((1 - top / 3, 1 + top / 3),
                                            rel=0, abs=1e-12)


def test_empty_slope_grid_gives_no_bracket():
    rep = ratio_report(path_graph(4), None, top_m=4, atilde_grid=())
    assert rep.bracket is None and rep.bracket_a_tilde is None
    assert rep.verified == ()


def test_ratio_report_constant_denominator():
    # complete graph: deg + q is constant, ratios are eigenvalues over it
    g = complete_graph(5)
    rep = ratio_report(g, None, top_m=5)
    lam = rep.eigenvalues
    assert rep.ratios == tuple(float(v) / 4.0 for v in lam)


def test_extremal_matches_dense_and_guard():
    # both ends of the spectrum of H = D - A, below and above the dense
    # cutover: lambda_min(H) = -lambda_max(A - D), lambda_max(H) =
    # lambda_max(-A + D)
    for g in (complete_graph(30), grid_graph(17)):
        op = assemble(g, None)
        lam = eigenvalues(op)
        d = np.real(op.matrix.diagonal())
        adjacency = (sp.diags(d) - op.matrix).tocsr()
        low, high = _top_eigenvalues(adjacency, d, [1.0, -1.0], [1.0, -1.0])
        assert -low == pytest.approx(float(lam[0]))
        assert high == pytest.approx(float(lam[-1]))


def test_phase_shift_and_negation_preserve_constants():
    # reversing or pi-shifting the phase leaves the two-sided optimal
    # offsets unchanged (conjugation, and the pi-shift swap of the two
    # one-sided bounds)
    rng = np.random.default_rng(36)
    for _ in range(10):
        g = random_graph(rng, n_max=20)
        q = uniform_potential(rng, g.vertex_count, -1, 2)
        ph = PhaseField.random(g, rng)
        plans = [SpectralPlan(g, q, p)
                 for p in (ph, ph.negated(), ph.shifted_by_pi())]
        for at in (0.3, 0.7):
            base, neg, shift = (p.constants(at).k_tilde for p in plans)
            assert neg == pytest.approx(base, abs=1e-9)
            assert shift == pytest.approx(base, abs=1e-9)
