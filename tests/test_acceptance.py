"""Acceptance suite: every criterion at its stated tolerance and budget.

Each test prints one `[PASS]`/`[FAIL]` line before asserting, so a
`pytest -s` run shows the per-criterion verdicts even when one fails.
Random instances are seeded and regenerated identically where two
criteria share a suite.
"""
import math
import time
from fractions import Fraction

import numpy as np

from sgs import (PhaseField, Potential, RadialFamilySpec, SpectralPlan,
                 amin_zero_k, assemble, cheeger, cheeger_bruteforce,
                 eigenvalues, form_to_sparse,
                 grid_graph, kato_gap, kmin_bruteforce, kmin_flow,
                 make_radial_family, cheeger_form_slopes, regular_tree_ball,
                 sparse_to_form, upside_down_identity)

from helpers import random_graph, random_tree, restricted, uniform_potential

TOL = 1e-9


def _verdict(number, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number:2d}: {detail}")
    return ok


def _suite1_instances():
    rng = np.random.default_rng(101)
    for _ in range(100):
        g = random_graph(rng)
        q = uniform_potential(rng, g.vertex_count, 0, 3)
        yield g, q


def _suite2_instances():
    rng = np.random.default_rng(202)
    for _ in range(100):
        g = random_graph(rng)
        n = g.vertex_count
        q = Potential(3.0 - rng.uniform(0, 3, n))  # values in (0, 3]
        removed = set(int(x) for x in
                      rng.choice(n, size=int(rng.integers(1, n)), replace=False))
        region = tuple(sorted(set(range(n)) - removed)) or (0,)
        yield g, q, region


def _suite3_trees():
    rng = np.random.default_rng(303)
    for _ in range(50):
        yield random_tree(rng, int(rng.integers(5, 201)))


def test_criterion_1_sparseness_oracle_equivalence():
    start = time.monotonic()
    worst = 0.0
    for g, q in _suite1_instances():
        for a in (0.0, 0.5, 1.0, 2.0):
            gap = abs(kmin_flow(g, q, a).k - kmin_bruteforce(g, q, a).k)
            worst = max(worst, gap)
    elapsed = time.monotonic() - start
    ok = worst <= TOL and elapsed < 30
    assert _verdict(1, ok, f"flow vs brute force |dk| <= {worst:.2e} "
                           f"on 100 graphs x 4 a-values ({elapsed:.1f}s)")


def test_criterion_2_cheeger_oracle_equivalence():
    start = time.monotonic()
    worst = 0.0
    for g, q, region in _suite2_instances():
        sub, sub_q = restricted(g, q, region)
        gap = abs(cheeger(sub, sub_q).ratio
                  - cheeger_bruteforce(sub, sub_q).ratio)
        worst = max(worst, gap)
    elapsed = time.monotonic() - start
    ok = worst <= TOL and elapsed < 30
    assert _verdict(2, ok, f"flow vs brute force |dalpha| <= {worst:.2e} "
                           f"on 100 regions ({elapsed:.1f}s)")


def test_criterion_3_trees_are_two_sparse():
    start = time.monotonic()
    worst = 0.0
    below_two = True
    for g in _suite3_trees():
        n = g.vertex_count
        k = kmin_flow(g, None, 0.0).k
        worst = max(worst, abs(k - 2 * (n - 1) / n))
        below_two = below_two and k < 2
    elapsed = time.monotonic() - start
    ok = worst <= TOL and below_two and elapsed < 10
    assert _verdict(3, ok, f"k_min(0) = 2(n-1)/n to {worst:.2e} "
                           f"on 50 random trees ({elapsed:.1f}s)")


def test_criterion_4_grids_below_planar_bound():
    start = time.monotonic()
    values = [kmin_flow(grid_graph(m), None, 0.0).k for m in range(3, 13)]
    elapsed = time.monotonic() - start
    ok = all(v < 4 < 6 for v in values) and elapsed < 10
    assert _verdict(4, ok, f"grid k_min(0) in [{min(values):.3f}, "
                           f"{max(values):.3f}] < 4 ({elapsed:.1f}s)")


def test_criterion_5_regular_tree_bottom_bound():
    start = time.monotonic()
    ball = regular_tree_ball(3, 8)
    lam0 = float(eigenvalues(assemble(ball, None))[0])
    bound = 3 - 2 * math.sqrt(2)
    elapsed = time.monotonic() - start
    ok = lam0 >= bound - TOL and lam0 - bound <= 0.3 and elapsed < 60
    assert _verdict(5, ok, f"lambda_0 = {lam0:.6f} >= {bound:.6f}, "
                           f"gap {lam0 - bound:.4f} <= 0.3 ({elapsed:.1f}s)")


def test_criterion_6_upside_down_suites():
    start = time.monotonic()
    rng = np.random.default_rng(606)
    grid = [round(0.1 * i, 1) for i in range(1, 10)]
    worst_plain = worst_magnetic = math.inf
    for _ in range(50):
        g = random_graph(rng, n_min=2, n_max=60, p_low=0.05, p_high=0.5)
        q = uniform_potential(rng, g.vertex_count, -2, 3)
        plain = SpectralPlan(g, q)
        magnetic = [SpectralPlan(g, q, PhaseField.random(g, rng))
                    for _ in range(20)]
        for at in grid:
            k_low, k_up = plain.offsets(at)
            worst_plain = min(worst_plain, k_low - k_up)
            for plan in magnetic:
                k_mag = plan.constants(at).k_tilde
                worst_magnetic = min(worst_magnetic, k_low - k_mag)
    elapsed = time.monotonic() - start
    ok = worst_plain >= -TOL and worst_magnetic >= -TOL and elapsed < 120
    assert _verdict(6, ok, f"upper <= lower and magnetic <= plain lower; "
                           f"worst margins {worst_plain:.2e} / "
                           f"{worst_magnetic:.2e} ({elapsed:.1f}s)")


def test_criterion_7_kato_sweep():
    start = time.monotonic()
    rng = np.random.default_rng(707)
    worst_gap = math.inf
    worst_dev = 0.0
    for _ in range(500):
        g = random_graph(rng, n_min=2, n_max=30, p_low=0.1, p_high=0.7)
        q = uniform_potential(rng, g.vertex_count, -2, 3)
        ph = PhaseField.random(g, rng)
        f = rng.standard_normal(g.vertex_count) \
            + 1j * rng.standard_normal(g.vertex_count)
        worst_gap = min(worst_gap, kato_gap(g, q, ph, f))
        worst_dev = max(worst_dev, upside_down_identity(g, ph))
    elapsed = time.monotonic() - start
    ok = worst_gap >= -1e-10 and worst_dev <= 1e-12 and elapsed < 20
    assert _verdict(7, ok, f"500 trials: min gap {worst_gap:.2e} >= -1e-10, "
                           f"pi-shift identity <= {worst_dev:.2e} ({elapsed:.1f}s)")


def test_criterion_8_sparse_form_round_trip():
    start = time.monotonic()
    worst_sandwich = math.inf
    worst_reverse = math.inf

    def check(g, q, a_values):
        nonlocal worst_sandwich, worst_reverse
        plan = SpectralPlan(g, q)
        for a in a_values:
            k = kmin_flow(g, q, a).k
            constants = (sparse_to_form(a, k, a_tilde=0.5) if a == 0
                         else sparse_to_form(a, k))
            at, kt = constants.a_tilde, constants.k_tilde
            lower, upper = plan.sandwich(at, kt, kt)
            worst_sandwich = min(worst_sandwich,
                                 float(lower.min()), float(upper.min()))
        k_low, _ = plan.offsets(0.5)
        a_out, k_out = form_to_sparse(0.5, k_low)
        worst_reverse = min(worst_reverse, k_out - kmin_flow(g, q, a_out).k)

    for g, q in _suite1_instances():
        check(g, q, (0.0, 0.5, 1.0, 2.0))
    for g in _suite3_trees():
        check(g, None, (0.0,))
    for m in range(3, 13):
        check(grid_graph(m), None, (0.0,))
    elapsed = time.monotonic() - start
    ok = worst_sandwich >= -TOL and worst_reverse >= -TOL and elapsed < 60
    assert _verdict(8, ok, f"sandwich margin >= {worst_sandwich:.2e}, "
                           f"reverse margin >= {worst_reverse:.2e} ({elapsed:.1f}s)")


def test_criterion_9_isoperimetric_dictionary():
    start = time.monotonic()
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(50):
        g = random_graph(rng)
        q = Potential(3.0 - rng.uniform(0, 3, g.vertex_count))
        a_min = amin_zero_k(g, q).value
        alpha = cheeger(g, q).ratio
        worst = max(worst, abs(alpha - 1.0 / (1.0 + a_min)))
    elapsed = time.monotonic() - start
    ok = worst <= TOL and elapsed < 30
    assert _verdict(9, ok, f"|alpha_V - 1/(1+a_min)| <= {worst:.2e} "
                           f"on 50 graphs with q > 0 ({elapsed:.1f}s)")


def test_criterion_10_cheeger_form_bounds():
    start = time.monotonic()
    worst = math.inf
    for g, q, region in _suite2_instances():
        alpha = cheeger(*restricted(g, q, region)).ratio
        lo, hi = cheeger_form_slopes(alpha)
        sub = np.ix_(region, region)
        lap = assemble(g, q).toarray()
        deg = np.diag(np.diag(lap))
        worst = min(worst,
                    float(np.linalg.eigvalsh((lap - lo * deg)[sub])[0]),
                    float(np.linalg.eigvalsh((hi * deg - lap)[sub])[0]))
    elapsed = time.monotonic() - start
    ok = worst >= -TOL and elapsed < 30
    assert _verdict(10, ok, f"compressed form-bound eigenvalues >= "
                            f"{worst:.2e} ({elapsed:.1f}s)")


def test_criterion_11_regular_tree_cheeger_limit():
    start = time.monotonic()
    values = [cheeger(regular_tree_ball(3, r), None).ratio
              for r in (4, 5, 6)]
    elapsed = time.monotonic() - start
    in_window = all(1 / 3 - TOL <= v <= 1 / 3 + 0.1 for v in values)
    monotone = values[0] >= values[1] - TOL and values[1] >= values[2] - TOL
    ok = in_window and monotone and elapsed < 60
    assert _verdict(11, ok, "alpha(r=4,5,6) = "
                            + ", ".join(f"{v:.5f}" for v in values)
                            + f" in [1/3, 1/3+0.1], non-increasing ({elapsed:.1f}s)")


def test_criterion_12_asymptotic_constant_formulas():
    start = time.monotonic()
    small = sparse_to_form(1e-4, 1.0)
    ratio_small = small.a_tilde / math.sqrt(2e-4)
    big = sparse_to_form(100.0, 1.0)
    ratio_big = (1.0 - big.a_tilde) * 8 * 100.0 ** 2 / 3
    elapsed = time.monotonic() - start
    ok = 0.99 <= ratio_small <= 1.01 and 0.9 <= ratio_big <= 1.1
    assert _verdict(12, ok, f"a_tilde/sqrt(2a) = {ratio_small:.5f}, "
                            f"(1-a_tilde) 8a^2/3 = {ratio_big:.5f} "
                            f"({elapsed:.3f}s)")


def test_criterion_13_radial_family_classification():
    # family with gamma/beta -> 1/2 and growing degrees: beta_n = 2(n+2),
    # gamma_n = n+2 (gamma_0 = 0, as the root sphere is a single vertex).
    # The degrees must grow: 2|E_W| <= deg_max |W| caps k_min(a) by the
    # maximum host degree at every depth, so a bounded-degree family
    # cannot show growth below the critical weight.  Here the last sphere
    # W = S_N is a witness for k_min(a) >= gamma_N - a beta_N, which is
    # unbounded for a < 1/2.
    start = time.monotonic()
    values = {}
    witness_ok = True
    for depth in (2, 3, 4, 5):
        beta = tuple(2 * (n + 2) for n in range(depth + 1))
        gamma = (0,) + tuple(n + 2 for n in range(1, depth + 1))
        g = make_radial_family(
            RadialFamilySpec(beta=beta, gamma=gamma, depth=depth))
        for label, a in (("0.6", Fraction(3, 5)), ("0.2", Fraction(1, 5))):
            values[label, depth] = kmin_flow(g, None, a).k
        witness_ok &= (values["0.2", depth]
                       >= gamma[depth] - beta[depth] / 5 - TOL)
    stable = (abs(values["0.6", 5] - values["0.6", 4])
              / values["0.6", 4])
    growth = (values["0.2", 5] - values["0.2", 2]) / values["0.2", 2]
    elapsed = time.monotonic() - start
    ok = stable <= 0.05 and growth >= 0.25 and witness_ok and elapsed < 120
    assert _verdict(
        13, ok,
        f"k_min(0.6) depth-4/5 variation {stable:.4%} (<= 5% required); "
        f"k_min(0.2) depth-2->5 growth {growth:.4%} (>= 25% required); "
        f"k_min(0.2) >= gamma_N - beta_N/5 at every depth: {witness_ok} "
        f"({elapsed:.1f}s)")
