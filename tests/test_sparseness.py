import math
from fractions import Fraction

import numpy as np
import pytest

from sgs import (Graph, Potential, RadialFamilySpec, amin_zero_k, cheeger,
                 cheeger_bruteforce, cheeger_lower_bound, complete_graph,
                 cycle_graph, edge_union, kmin_bruteforce, kmin_flow,
                 make_radial_family, path_graph, potential_class_kappa,
                 regular_tree_ball, sparsity_flow, subset_stats)
from sgs.sparseness import ENUMERATION_LIMIT

from helpers import (full_best_subset, full_cheeger_objective,
                     full_kmin_objective, full_subset_tables, has_cycle,
                     random_graph, restricted, spy, spy_maximum_flow,
                     tree_ball_with_chords, uniform_potential,
                     whole_network_cuts)


def test_kmin_path_examples():
    g = path_graph(3)
    cert = kmin_bruteforce(g, None, 0.0)
    assert cert.k == pytest.approx(4 / 3)
    assert cert.witness == (0, 1, 2)
    assert kmin_flow(g, None, 0.0).k == pytest.approx(4 / 3)


def test_kmin_complete():
    cert = kmin_bruteforce(complete_graph(5), None, 0.0)
    assert cert.k == pytest.approx(4.0)
    assert cert.witness == tuple(range(5))


def test_kmin_single_vertex():
    for a in (0.0, 1.0, 7.5):
        cert = kmin_flow(Graph(1, []), None, a)
        assert cert.k == 0.0
        assert cert.witness == (0,)


def test_kmin_clamped_at_zero():
    # one edge, positive potential, large a: every ratio is negative
    cert = kmin_bruteforce(path_graph(2), Potential([1.0, 1.0]), 5.0)
    assert cert.k == 0.0
    assert cert.clamped
    assert cert.ratio < 0
    flow = kmin_flow(path_graph(2), Potential([1.0, 1.0]), 5.0)
    assert flow.k == 0.0 and flow.clamped


def test_bruteforce_overflow_keeps_a_nonempty_witness():
    # a (|dW| + q_+(W)) overflows to inf for every nonempty W, so every
    # objective is -inf and ties the empty set's entry: the witness must
    # still be nonempty, with kmin_flow's k
    g, q = path_graph(2), Potential([1.0, 1.0])
    cert = kmin_bruteforce(g, q, 1e308)
    assert cert.witness == (0,)  # fewest vertices, then the smallest list
    assert cert.k == kmin_flow(g, q, 1e308).k == 0.0
    assert cert.clamped and cert.ratio == -math.inf
    # the finite entries of the same grid keep their certificates
    for a in (0.0, 5.0):
        assert kmin_bruteforce(g, q, [1e308, a])[1] == kmin_bruteforce(g, q, a)


def test_kmin_cycle_any_a():
    for a in (0.0, 0.3, 2.0):
        cert = kmin_flow(cycle_graph(4), None, a)
        assert cert.k == pytest.approx(2.0)
        assert cert.witness == (0, 1, 2, 3)


def test_kmin_enumeration_guard():
    with pytest.raises(ValueError, match="enumeration"):
        kmin_bruteforce(cycle_graph(23), None, 0.0)
    # a grid checks its first a, then the vertex limit, then the later
    # entries, so it fails where the first failing per-a call would; an
    # empty grid enumerates nothing
    assert kmin_bruteforce(cycle_graph(23), None, []) == []
    with pytest.raises(ValueError, match="a must be non-negative"):
        kmin_bruteforce(cycle_graph(23), None, [-1.0, 0.0])
    with pytest.raises(ValueError, match="a must be finite"):
        kmin_bruteforce(cycle_graph(23), None, (math.nan, -1.0))
    with pytest.raises(ValueError, match="enumeration"):
        kmin_bruteforce(cycle_graph(23), None, [0.0, -1.0])
    with pytest.raises(ValueError, match="a must be non-negative"):
        kmin_bruteforce(path_graph(4), None, [0.0, 1.0, -1.0])
    with pytest.raises(ValueError, match="enumeration"):
        cheeger_bruteforce(cycle_graph(23), None)


def test_kmin_oracle_agreement():
    rng = np.random.default_rng(10)
    for _ in range(60):
        g = random_graph(rng)
        q = uniform_potential(rng, g.vertex_count, 0, 3)
        for a in (0.0, 0.5, 1.0, 2.0):
            kb = kmin_bruteforce(g, q, a).k
            kf = kmin_flow(g, q, a).k
            assert abs(kb - kf) <= 1e-9


def test_kmin_certificate_soundness():
    rng = np.random.default_rng(11)
    for _ in range(25):
        g = random_graph(rng)
        q = uniform_potential(rng, g.vertex_count, 0, 3)
        cert = kmin_flow(g, q, 0.7)
        st = subset_stats(g, q, cert.witness)
        again = (2 * st.induced_edges - 0.7 * (st.boundary + st.q_plus_sum)) / st.size
        assert abs(again - cert.ratio) <= 1e-12


def test_kmin_monotone_in_a():
    rng = np.random.default_rng(12)
    for _ in range(20):
        g = random_graph(rng)
        q = uniform_potential(rng, g.vertex_count, 0, 3)
        ks = [kmin_flow(g, q, a).k for a in (0.0, 0.25, 0.5, 1.0, 2.0)]
        assert all(ks[i] >= ks[i + 1] - 1e-12 for i in range(len(ks) - 1))


def test_kmin_monotone_in_potential():
    rng = np.random.default_rng(13)
    for _ in range(20):
        g = random_graph(rng)
        q = uniform_potential(rng, g.vertex_count, 0, 2)
        q_bigger = Potential(q.values + rng.uniform(0, 2, g.vertex_count))
        a = 0.8
        assert kmin_flow(g, q_bigger, a).k <= kmin_flow(g, q, a).k + 1e-12


def test_kmin_edge_removal_monotone():
    rng = np.random.default_rng(14)
    for _ in range(20):
        g = random_graph(rng, n_min=4, p_low=0.4)
        if g.edge_count == 0:
            continue
        drop = int(rng.integers(0, g.edge_count))
        kept = [e for i, e in enumerate(g.edges) if i != drop]
        # plain deletion: valid for a = 0
        sub = Graph(g.vertex_count, kept)
        assert kmin_flow(sub, None, 0.0).k <= kmin_flow(g, None, 0.0).k + 1e-12
        # host-preserving deletion: valid for every a
        sub_host = Graph(g.vertex_count, kept, host_degree=g.internal_degree)
        for a in (0.5, 3.0):
            assert (kmin_flow(sub_host, None, a).k
                    <= kmin_flow(g, None, a).k + 1e-12)


def test_kmin_union_bound():
    rng = np.random.default_rng(15)
    for _ in range(15):
        g1 = random_graph(rng, n_min=4, n_max=9)
        g2 = random_graph(rng, n_min=g1.vertex_count, n_max=g1.vertex_count)
        union = edge_union(g1, g2)
        k1 = kmin_flow(g1, None, 0.0).k
        k2 = kmin_flow(g2, None, 0.0).k
        assert kmin_flow(union, None, 0.0).k <= k1 + k2 + 1e-12


def test_kmin_bounded_radial_family_depth_profile():
    # beta = 4, gamma = 2 at every depth: host degree <= 6, so
    # 2|E_W| <= 6|W| caps k_min(a) at 6, and a truncation value can only
    # grow with depth (host-aware boundaries count a ball subset the same
    # in every larger ball).  Growth below the critical weight therefore
    # needs unbounded degrees; see acceptance criterion 13.
    balls = [make_radial_family(
                 RadialFamilySpec(beta=(4,), gamma=(0, 2), depth=d))
             for d in (4, 5, 6, 7)]
    for a in (Fraction(1, 5), Fraction(3, 5)):
        ks = [kmin_flow(g, None, a).k for g in balls]
        assert all(k2 >= k1 - 1e-12 for k1, k2 in zip(ks, ks[1:]))
        assert max(ks) <= 6


def test_amin_examples():
    t = amin_zero_k(complete_graph(3), Potential([1.0, 1.0, 1.0]))
    assert t.value == pytest.approx(2.0)
    assert amin_zero_k(Graph(4, []), None).value == 0.0
    assert math.isinf(amin_zero_k(cycle_graph(4), None).value)


def test_amin_matches_enumeration():
    rng = np.random.default_rng(16)
    for _ in range(40):
        g = random_graph(rng, n_max=9)
        q = uniform_potential(rng, g.vertex_count, 0, 3)
        got = amin_zero_k(g, q).value
        best = 0.0
        n = g.vertex_count
        for mask in range(1, 1 << n):
            w = [x for x in range(n) if mask >> x & 1]
            st = subset_stats(g, q, w)
            num = 2 * st.induced_edges
            den = st.boundary + st.q_plus_sum
            if num > 0 and den == 0:
                best = math.inf
                break
            if num > 0:
                best = max(best, num / den)
        if math.isinf(best):
            assert math.isinf(got)
        else:
            assert got == pytest.approx(best, abs=1e-9)


def test_cheeger_examples():
    p3 = path_graph(3)
    cert = cheeger_bruteforce(p3.restrict((0, 2)), None)
    assert cert.ratio == pytest.approx(1.0)
    assert cheeger(p3, None).ratio == cheeger_bruteforce(p3, None).ratio == 0.0
    ball = regular_tree_ball(3, 6)
    alpha = cheeger(ball, None).ratio
    assert 1 / 3 - 1e-9 <= alpha <= 1 / 3 + 0.1


def test_cheeger_zero_denominator_convention():
    g = Graph(2, [])  # two isolated massless vertices
    cert = cheeger(g, None)
    assert cert.ratio == 0.0
    assert cert.witness == (0,)
    assert cheeger_bruteforce(g, None).ratio == 0.0


def test_cheeger_oracle_agreement():
    rng = np.random.default_rng(17)
    for _ in range(60):
        g = random_graph(rng)
        n = g.vertex_count
        q = uniform_potential(rng, n, 1e-3, 3)
        removed = set(int(x) for x in
                      rng.choice(n, size=int(rng.integers(1, n)), replace=False))
        region = sorted(set(range(n)) - removed) or [0]
        sub, sub_q = restricted(g, q, region)
        cb = cheeger_bruteforce(sub, sub_q).ratio
        cf = cheeger(sub, sub_q).ratio
        assert abs(cb - cf) <= 1e-9


def test_cheeger_dictionary_small():
    rng = np.random.default_rng(18)
    for _ in range(20):
        g = random_graph(rng)
        q = uniform_potential(rng, g.vertex_count, 1e-3, 3)
        a_min = amin_zero_k(g, q).value
        alpha = cheeger(g, q).ratio
        assert abs(alpha - 1 / (1 + a_min)) <= 1e-9


def test_cheeger_flow_needs_nonnegative_q():
    with pytest.raises(ValueError, match="non-negative"):
        cheeger(path_graph(3), Potential([0.0, -1.0, 0.0]))


def test_cheeger_overflow_is_named():
    # deg W + q(W) overflows for W of two or more vertices: both routes
    # refuse the region up front instead of a NaN ratio or numpy's
    # "zero-size array" message
    g, q = path_graph(3), Potential([1e308] * 3)
    for route in (cheeger, cheeger_bruteforce):
        with pytest.raises(ValueError, match="overflows"):
            route(g, q)
        # a region whose total stays finite is fine
        assert route(*restricted(g, q, (1,))).ratio == pytest.approx(1.0)


def test_cheeger_lower_bound_examples():
    assert cheeger_lower_bound(3, 2, 0) == pytest.approx(1 / 3)
    assert cheeger_lower_bound(5, 5, 1.2) == 0.0
    assert cheeger_lower_bound(7, 6, 0) == pytest.approx(1 / 7)
    with pytest.raises(ValueError):
        cheeger_lower_bound(0, 1, 0)


def test_potential_class_kappa_examples():
    g = path_graph(3)
    assert potential_class_kappa(g, Potential([1.0, 0.5, 2.0]), 0.3) == 0.0
    lone = Graph(1, [], host_degree=[4])
    assert potential_class_kappa(lone, Potential([-1.0]), 0.1) == pytest.approx(0.6)
    g2 = complete_graph(4)
    q = Potential(-0.5 * g2.host_degree.astype(float))
    assert potential_class_kappa(g2, q, 0.5) == 0.0
    with pytest.raises(ValueError):
        potential_class_kappa(g, Potential.zero(g), 1.0)


def test_bruteforce_tie_breaking():
    # two disjoint triangles: k = 2 attained by either triangle and by
    # their union; smallest witness, then lexicographic order wins
    g = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    cert = kmin_bruteforce(g, None, 0.0)
    assert cert.k == pytest.approx(2.0)
    assert cert.witness == (0, 1, 2)
    # all ratios tie at zero on an edgeless graph: the first singleton wins
    lone = kmin_bruteforce(Graph(3, []), None, 0.0)
    assert lone.witness == (0,)
    # on a region with a gap, {1, 2}, {4, 5} and their union all have
    # Cheeger ratio 1/2: the smaller, then lexicographically first wins
    arc = cheeger_bruteforce(cycle_graph(8).restrict((5, 4, 2, 1)), None)
    assert arc.ratio == 0.5
    assert arc.witness == (0, 1)  # the region's vertices 1 and 2


def test_oracle_agreement_with_host_deficits_and_negative_q():
    rng = np.random.default_rng(19)
    for _ in range(40):
        base = random_graph(rng, n_max=10)
        g = Graph(base.vertex_count, base.edges,
                  host_degree=base.internal_degree
                  + rng.integers(0, 4, base.vertex_count))
        q = uniform_potential(rng, g.vertex_count, -2, 3)
        for a in (0.0, 0.5, 2.0):
            kb = kmin_bruteforce(g, q, a)
            kf = kmin_flow(g, q, a)
            assert abs(kb.k - kf.k) <= 1e-9
        # threshold agrees with enumeration as well
        got = amin_zero_k(g, q).value
        best = 0.0
        n = g.vertex_count
        for mask in range(1, 1 << n):
            w = [x for x in range(n) if mask >> x & 1]
            st = subset_stats(g, q, w)
            num, den = 2 * st.induced_edges, st.boundary + st.q_plus_sum
            if num > 0:
                best = math.inf if den == 0 else max(best, num / den)
            if math.isinf(best):
                break
        assert (math.isinf(got) and math.isinf(best)) or \
            abs(got - best) <= 1e-9


def test_cheeger_oracle_agreement_with_host_deficits():
    rng = np.random.default_rng(20)
    for _ in range(40):
        base = random_graph(rng, n_max=10)
        g = Graph(base.vertex_count, base.edges,
                  host_degree=base.internal_degree
                  + rng.integers(0, 4, base.vertex_count))
        q = uniform_potential(rng, g.vertex_count, 0, 3)
        n = g.vertex_count
        removed = set(int(x) for x in
                      rng.choice(n, size=int(rng.integers(0, n)), replace=False))
        region = sorted(set(range(n)) - removed) or [0]
        sub, sub_q = restricted(g, q, region)
        cb = cheeger_bruteforce(sub, sub_q).ratio
        cf = cheeger(sub, sub_q).ratio
        assert abs(cb - cf) <= 1e-9


def test_flow_witnesses_are_pinned():
    # a flow witness is the smallest min-cut side of the last improving
    # step, so it is fixed by the input whatever the network's arc order.
    # Vertex 8 has host degree 0: it adds nothing to either side of the
    # (a, 0) ratio, so it ties every cut of amin_zero_k and the smallest
    # side leaves it out.  The Cheeger region skips it (it would take the
    # zero-denominator shortcut).
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
             (3, 4), (4, 5), (5, 6), (6, 7), (5, 7)]
    deficits = Graph(9, edges, host_degree=Graph(9, edges).internal_degree
                     + [0, 0, 1, 0, 2, 0, 1, 3, 0])
    float_q = Graph(9, [(i, j) for i in range(5) for j in range(i + 1, 5)]
                    + [(4, 5), (5, 6), (6, 7), (7, 8), (6, 8)])
    q = Potential([0.1, 0.7, 1.3, 0.25, 0.3, 0.0, 0.05, 2.5, 0.125])
    ball = regular_tree_ball(3, 4)
    top = int(ball.internal_degree.max())
    inner = tuple(x for x in range(ball.vertex_count)
                  if ball.internal_degree[x] == top)
    k4, k5 = (0, 1, 2, 3), (0, 1, 2, 3, 4)
    cases = [
        (deficits, None, tuple(range(8)), [k4, k4, k4], k4, k4),
        (float_q, q, None, [k5, k5, k5], k5 + (5,), k5 + (5,)),
        (ball, None, inner, [tuple(range(46))] * 3, tuple(range(46)),
         tuple(range(22))),
    ]
    for g, pot, region, kmins, amin, cheeger_w in cases:
        got = [kmin_flow(g, pot, a).witness
               for a in (0, Fraction(1, 2), 2)]
        assert got == kmins
        assert amin_zero_k(g, pot).witness == amin
        # both regions are leading vertices, which the restriction keeps
        sub, sub_q = ((g, pot) if region is None
                      else restricted(g, pot, region))
        assert cheeger(sub, sub_q).witness == cheeger_w
    assert inner == tuple(range(22))


def test_flow_routes_reach_the_exact_optima(monkeypatch):
    # the ratio driver's value is the exact maximum over all subsets, a
    # Fraction (None when infinite), not just within 1e-9 of it
    from sgs import sparseness
    values = []
    drive = sparseness._RatioSearch.maximize

    def spy_drive(search, *args):
        witness, value = drive(search, *args)
        values.append(value)
        return witness, value

    monkeypatch.setattr(sparseness._RatioSearch, "maximize", spy_drive)

    def optima(g, q, region, ratio):
        # max of ratio(2|E_W|, |dW|, deg W, q_+(W), |W|) over nonempty W
        # in region, exact; ratio gives None for an infinite value
        best = None
        for mask in range(1, 1 << len(region)):
            w = [x for b, x in enumerate(region) if mask >> b & 1]
            st = subset_stats(g, None, w)
            qplus = sum((Fraction(q.plus[x]) for x in w), Fraction(0))
            r = ratio(2 * st.induced_edges, st.boundary, st.degree_sum,
                      qplus, st.size)
            if r is None:
                return None
            best = r if best is None else max(best, r)
        return best

    def amin_ratio(twice, bd, deg, qp, size):
        if bd + qp == 0:
            return None if twice else Fraction(0)
        return Fraction(twice) / (bd + qp)

    rng = np.random.default_rng(59)
    for _ in range(30):
        base = random_graph(rng, n_max=10)
        n = base.vertex_count
        g = Graph(n, base.edges, host_degree=base.internal_degree
                  + rng.integers(0, 4, n))
        q = uniform_potential(rng, n, -2, 3)
        everything = list(range(n))
        for a in (0, Fraction(1, 3), 0.5, 2.5):
            a_fr = Fraction(a)
            del values[:]
            kmin_flow(g, q, a)
            assert type(values[0]) is Fraction
            assert values == [optima(g, q, everything,
                                     lambda twice, bd, deg, qp, size:
                                     (twice - a_fr * (bd + qp)) / size)]
        del values[:]
        amin_zero_k(g, q)
        if g.edge_count:
            assert values[0] is None or type(values[0]) is Fraction
            assert values == [optima(g, q, everything, amin_ratio)]
        # the flow Cheeger constant needs q >= 0.  On a region it is the
        # constant of the restriction, and both routes reach the
        # host-aware optimum over the region's subsets in the full graph
        q = uniform_potential(rng, n, 0, 3)
        region = sorted(int(x) for x in rng.choice(
            n, size=int(rng.integers(1, n + 1)), replace=False))
        best = optima(g, q, region, lambda twice, bd, deg, qp, size:
                      -(bd + qp) / (deg + qp))
        sub, sub_q = restricted(g, q, region)
        del values[:]
        flow = cheeger(sub, sub_q)
        assert type(values[0]) is Fraction
        assert values == [best]
        for cert in (flow, cheeger_bruteforce(sub, sub_q)):
            w = [region[x] for x in cert.witness]
            st = subset_stats(g, None, w)
            qw = sum((Fraction(q.values[x]) for x in w), Fraction(0))
            assert -(st.boundary + qw) / (st.degree_sum + qw) == best


def test_exact_potential_matches_fractions():
    from sgs.sparseness import _exact_potential
    rng = np.random.default_rng(43)
    cases = [np.zeros(9), np.array([3.0, -2.0, 0.0, 7.0]),
             np.array([3, -2, 0, 7]), np.array([0.1, 0.0]),
             np.array([-0.0, 0.0, 1.0]), np.array([5e-324, 2.0]),
             np.array([1e300, 0.5]), rng.uniform(0.0, 3.0, 500)]
    for values in cases:
        fractions = [Fraction(v) for v in values.tolist()]
        den = math.lcm(*(v.denominator for v in fractions))
        assert _exact_potential(values) == ([int(v * den) for v in fractions],
                                            den)


def test_compiled_cuts_match_dinic_on_wide_capacities(monkeypatch):
    # float q gives 55-119-bit capacities; on networks of at least 512
    # arcs min_cut solves them in scipy rounds on the full and the
    # contracted networks, and the certificates must equal those of a
    # run where every cut is Dinic's.  The tree ball's chords leave a
    # core past 512 arcs, into which its pendant trees fold
    from sgs import grid_graph, maxflow, sparseness
    rng = np.random.default_rng(47)
    cases = []
    for g in (grid_graph(16),
              tree_ball_with_chords(3, 6, 40, np.random.default_rng(1))):
        top = g.internal_degree.max()
        inner = tuple(x for x in range(g.vertex_count)
                      if g.internal_degree[x] == top)
        cases.append((g, Potential(rng.uniform(0.0, 3.0, g.vertex_count)),
                      inner))

    def certificates():
        out = []
        for g, q, inner in cases:
            for a in (0, Fraction(1, 2), 2):
                cert = kmin_flow(g, q, a)
                out.append((cert.witness, repr(cert.ratio)))
            threshold = amin_zero_k(g, q)
            out.append((threshold.witness, repr(threshold.value)))
            cert = cheeger(*restricted(g, q, inner))
            out.append((cert.witness, repr(cert.ratio)))
        return out

    solved = spy_maximum_flow(monkeypatch)
    cuts = spy(monkeypatch, sparseness, "min_cut")
    dispatched = spy(monkeypatch, maxflow, "_cut")
    compiled_cuts = spy(monkeypatch, maxflow, "_rounds_cut")
    dinic = spy(monkeypatch, maxflow, "_dinic_cut")

    def run():
        """The certificates, and the counts of cuts, of compiled cuts
        (contracted ones included), of scipy rounds, of contracted
        solves and of hand-offs of a full residual to Dinic."""
        for calls in (solved, cuts, dispatched, compiled_cuts, dinic):
            del calls[:]
        out = certificates()
        inner = [a[0] for a in dispatched]
        handed_off = [a for a in dinic if not any(a[0] is x for x in inner)]
        return out, (len(cuts), len(compiled_cuts), len(solved),
                     len(dispatched) - len(cuts), len(handed_off))

    # each compiled cut takes one scipy round, and Dinic finishes its
    # contracted network
    compiled, (count, entered, rounds, contracted, handed_off) = run()
    assert entered >= 10 and rounds == entered
    assert contracted >= 10 and not handed_off
    # contracted networks back through the rounds: several a cut
    monkeypatch.setattr(maxflow, "_SCIPY_MIN_ARCS", 1)
    out, (count, entered, rounds, contracted, handed_off) = run()
    assert out == compiled and rounds > 2 * count and contracted >= 10
    monkeypatch.setattr(maxflow, "_SCIPY_MIN_ARCS", 10**9)
    out, (_, entered, *_) = run()
    assert out == compiled and not entered


def test_one_network_per_ratio_driver(monkeypatch):
    # every Dinkelbach step of one ratio driver solves the network that
    # the driver built once; only the capacities change
    from sgs import grid_graph, maxflow, sparseness
    g = grid_graph(16)
    q = Potential(np.random.default_rng(53).uniform(0.0, 3.0, g.vertex_count))
    top = g.internal_degree.max()
    inner = restricted(g, q, [x for x in range(g.vertex_count)
                              if g.internal_degree[x] == top])
    events = []
    drive, build, solve = (sparseness._RatioSearch.__init__,
                           sparseness.cut_network, sparseness.min_cut)

    def spy_drive(search, *args):
        events.append(("drive", None))
        return drive(search, *args)

    def spy_build(*args):
        network = build(*args)
        events.append(("network", network))
        return network

    def spy_solve(network, caps):
        events.append(("cut", network))
        return solve(network, caps)

    monkeypatch.setattr(sparseness._RatioSearch, "__init__", spy_drive)
    monkeypatch.setattr(sparseness, "cut_network", spy_build)
    monkeypatch.setattr(sparseness, "min_cut", spy_solve)
    counts = []
    for certify in (lambda: kmin_flow(g, q, Fraction(1, 2)),
                    lambda: amin_zero_k(g, q),
                    lambda: cheeger(*inner)):
        del events[:]
        certify()
        kinds = [kind for kind, _ in events]
        cuts = kinds.count("cut")
        counts.append(cuts)
        assert kinds == ["drive", "network"] + ["cut"] * cuts
        network = events[1][1]
        assert len(network.slot) >= maxflow._SCIPY_MIN_ARCS  # for scipy
        assert all(net is network for kind, net in events if kind == "cut")
    assert min(counts) >= 1 and max(counts) >= 3


def test_oracle_sized_networks_stay_off_scipy(monkeypatch):
    # K20 is the densest 20-vertex graph: 380 inner arcs and 40 terminal
    # arcs stay below the 512-arc floor, so no network of the brute-force
    # range reaches scipy
    import scipy.sparse.csgraph as csgraph

    from sgs import maxflow, sparseness

    def refuse(*args, **kwargs):
        raise AssertionError("a 20-vertex network reached scipy")

    networks = []
    build = sparseness.cut_network
    monkeypatch.setattr(csgraph, "maximum_flow", refuse)
    monkeypatch.setattr(sparseness, "cut_network",
                        lambda *a: networks.append(build(*a)) or networks[-1])
    g = complete_graph(20)
    q = Potential(np.random.default_rng(59).uniform(0.0, 3.0, 20))
    for a in (0, Fraction(1, 2), 1, 2):
        assert kmin_flow(g, q, a).k == pytest.approx(
            kmin_bruteforce(g, q, a).k, abs=1e-9)
    amin_zero_k(g, q)
    sub, sub_q = restricted(g, q, range(12))
    assert cheeger(sub, sub_q).ratio == pytest.approx(
        cheeger_bruteforce(sub, sub_q).ratio, abs=1e-9)
    assert len(networks) == 6
    assert max(len(net.slot) for net in networks) == 420
    assert maxflow._SCIPY_MIN_ARCS > 420


def test_bruteforce_grid_equals_per_a_calls(monkeypatch):
    # one sweep serves the whole grid; every field of every certificate
    # is the per-a call's, bit for bit (repr tells -0.0 and every float
    # apart), ties included
    from sgs import sparseness

    sweeps = []
    sweep = sparseness._sweep
    monkeypatch.setattr(sparseness, "_sweep",
                        lambda *args: sweeps.append(1) or sweep(*args))
    rng = np.random.default_rng(71)
    triangles = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    cases = [(triangles, None), (Graph(3, []), None)]
    for _ in range(30):
        base = random_graph(rng, n_max=12)
        g = Graph(base.vertex_count, base.edges,
                  host_degree=base.internal_degree
                  + rng.integers(0, 4, base.vertex_count))
        cases.append((g, uniform_potential(rng, g.vertex_count, -2, 3)))
    grid = (0.0, 0.5, Fraction(1, 3), 2, 0.5, np.float64(7.25), 0)
    for g, q in cases:
        sweeps.clear()
        certs = kmin_bruteforce(g, q, grid)
        assert len(sweeps) == 1
        singles = [kmin_bruteforce(g, q, a) for a in grid]
        assert isinstance(certs, list) and len(certs) == len(grid)
        assert certs == singles
        assert [repr(c) for c in certs] == [repr(c) for c in singles]
    assert kmin_bruteforce(triangles, None, [0.0])[0].witness == (0, 1, 2)
    assert kmin_bruteforce(triangles, None, np.array([0.0, 1.0]))[1] == \
        kmin_bruteforce(triangles, None, 1.0)


def test_flow_grid_equals_per_a_calls(monkeypatch):
    # one cut network serves the whole grid, and with sparsity_flow the
    # threshold too; each entry starts from the best earlier witness,
    # yet every certificate is the per-a call's, witness included, and
    # the threshold is amin_zero_k's.  Isolated vertices without
    # deficit or positive q (0/0 in the threshold's ratio) occur here,
    # and are never taken as an infinite start.
    from sgs import sparseness

    networks = []
    build = sparseness.cut_network
    monkeypatch.setattr(sparseness, "cut_network",
                        lambda *args: networks.append(1) or build(*args))
    rng = np.random.default_rng(79)
    triangles = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    cases = [(triangles, None), (Graph(3, []), None)]
    for _ in range(40):
        base = random_graph(rng, n_max=12)
        g = Graph(base.vertex_count, base.edges,
                  host_degree=base.internal_degree
                  + rng.integers(0, 4, base.vertex_count))
        cases.append((g, uniform_potential(rng, g.vertex_count, -2, 3)))
    grid = (0.0, 0.5, Fraction(1, 3), 2, 0.5, np.float64(7.25), 0)
    for g, q in cases:
        networks.clear()
        certs = kmin_flow(g, q, grid)
        # a forest with edges folds into its roots and builds no network
        assert len(networks) == (has_cycle(g) or not g.edge_count)
        singles = [kmin_flow(g, q, a) for a in grid]
        assert isinstance(certs, list) and certs == singles
        assert [repr(c) for c in certs] == [repr(c) for c in singles]
        for cert, brute in zip(certs, kmin_bruteforce(g, q, grid)):
            assert abs(cert.k - brute.k) <= 1e-9
        networks.clear()
        shared, threshold = sparsity_flow(g, q, grid)
        assert len(networks) == (has_cycle(g) or not g.edge_count)
        assert shared == certs
        assert threshold == amin_zero_k(g, q)
    assert kmin_flow(triangles, None, np.array([0.0, 1.0]))[1] == \
        kmin_flow(triangles, None, 1.0)
    # every a is checked before any network is built
    networks.clear()
    with pytest.raises(ValueError, match="non-negative"):
        kmin_flow(triangles, None, [0.0, 1.0, -1.0])
    with pytest.raises(ValueError, match="finite"):
        sparsity_flow(triangles, None, [0.0, math.nan])
    assert kmin_flow(triangles, None, []) == [] and not networks
    assert sparsity_flow(triangles, None, ()) == ([],
                                                  amin_zero_k(triangles, None))


def test_shared_search_takes_fewer_cuts(monkeypatch):
    # on float q the a-grid's optima sit close together, so starting
    # each a, and then the threshold, from the best earlier witness
    # saves most of the per-a calls' cuts.  The chords leave a core to
    # cut: a tree ball alone folds without one
    from sgs import sparseness

    cuts = []
    solve = sparseness.min_cut
    monkeypatch.setattr(sparseness, "min_cut",
                        lambda net, caps: cuts.append(1) or solve(net, caps))
    g = tree_ball_with_chords(3, 6, 16, np.random.default_rng(83))
    q = Potential(np.random.default_rng(83).uniform(0.0, 3.0,
                                                    g.vertex_count))
    grid = (0, 0.5, 1, 2)
    singles = [kmin_flow(g, q, a) for a in grid]
    assert len(cuts) == 16
    threshold = amin_zero_k(g, q)
    assert len(cuts) == 21
    cuts.clear()
    assert kmin_flow(g, q, grid) == singles
    assert len(cuts) == 11
    cuts.clear()
    assert sparsity_flow(g, q, grid) == (singles, threshold)
    assert len(cuts) == 12


def test_in_place_objectives_equal_their_expressions(monkeypatch):
    # the objectives run in preallocated block buffers; each block's
    # values must be the plain expressions' over the full tables, bit
    # for bit, since float ties decide witnesses.  The blocks cover
    # every subset index once, and the empty set's entry is -inf.
    from sgs import sparseness

    seen = []
    pick = sparseness._pick
    monkeypatch.setattr(sparseness, "_pick",
                        lambda best, base, size, values:
                        seen.append((base, values.copy())) or
                        pick(best, base, size, values))

    def assert_blocks(blocks, want):
        covered = set()
        for base, got in blocks:
            ref = want[base:base + len(got)].copy()
            if base == 0:
                assert got[0] == -np.inf
                ref[0] = -np.inf
            assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
            covered.update(range(base, base + len(got)))
        assert covered == set(range(len(want)))
        assert len(blocks) * len(blocks[0][1]) == len(want)

    rng = np.random.default_rng(73)

    def graphs():
        # 20 small graphs, then two past one block, so that blocks other
        # than the first are checked
        sizes = [None] * 20 + [sparseness._BLOCK_BITS + 1,
                               sparseness._BLOCK_BITS + 2]
        for size in sizes:
            base = (random_graph(rng, n_max=11) if size is None
                    else random_graph(rng, n_min=size, n_max=size))
            n = base.vertex_count
            yield Graph(n, base.edges,
                        host_degree=base.internal_degree
                        + rng.integers(0, 3, n))

    zero_dens = 0
    grid = (0.0, 0.3, 2.0)
    for g in graphs():
        n = g.vertex_count
        # integer q of both signs makes zero Cheeger denominators common
        for q in (Potential(rng.integers(-3, 3, n).astype(float)),
                  uniform_potential(rng, n, -2, 3)):
            te, size, (deg, qp, qv) = full_subset_tables(
                g, (g.host_degree, q.plus, q.values))
            seen.clear()
            kmin_bruteforce(g, q, grid)
            for i, af in enumerate(grid):
                assert_blocks(seen[i::len(grid)],
                              full_kmin_objective(te, size, deg, qp, af))
            seen.clear()
            cheeger_bruteforce(g, q)
            assert_blocks(seen, full_cheeger_objective(te, deg, qv))
            zero_dens += np.count_nonzero((deg + qv)[1:] == 0.0)
    assert zero_dens > 0


def _rectangle(rows, cols):
    return Graph(rows * cols,
                 [(r * cols + c, r * cols + c + 1)
                  for r in range(rows) for c in range(cols - 1)]
                 + [(r * cols + c, (r + 1) * cols + c)
                    for r in range(rows - 1) for c in range(cols)])


def test_bruteforce_equals_full_tables_across_blocks():
    # the block sweep against the full doubling (tests/helpers.py) on
    # both sides of the block boundary and at the enumeration limit, on
    # tie-heavy inputs: every witness, and every certificate's repr, is
    # the full tables' pick
    from sgs import sparseness

    k = sparseness._BLOCK_BITS
    rng = np.random.default_rng(89)
    grid = (0.0, 0.5, 1.0, 2.0)
    cases = []
    for n in (k - 1, k, k + 1, k + 3):
        zero = Potential(np.zeros(n))
        base = random_graph(rng, n_min=n, n_max=n)
        deficits = Graph(n, base.edges, host_degree=base.internal_degree
                         + rng.integers(0, 3, n))
        grid_q0 = _rectangle(2, n // 2)  # n rounded down to even
        cases += [(Graph(n, []), zero), (cycle_graph(n), zero),
                  (grid_q0, Potential(np.zeros(grid_q0.vertex_count))),
                  (deficits, Potential(rng.integers(-3, 3, n).astype(float))),
                  (deficits, uniform_potential(rng, n, -2, 3))]
    n = ENUMERATION_LIMIT
    dense = random_graph(rng, n_min=n, n_max=n, p_low=0.5, p_high=0.5)
    cases += [(Graph(n, []), Potential(np.zeros(n))),
              (_rectangle(2, n // 2),
               Potential(rng.integers(-3, 3, n).astype(float))),
              (dense, uniform_potential(rng, n, -2, 3))]
    zero_dens = 0
    for g, q in cases:
        n = g.vertex_count
        te, size, (deg, qp, qv) = full_subset_tables(
            g, (g.host_degree, q.plus, q.values))
        zero_dens += np.count_nonzero((deg + qv)[1:] == 0.0)
        want = [sparseness._kmin_certificate(g, q, af, full_best_subset(
            size, full_kmin_objective(te, size, deg, qp, af)))
            for af in grid]
        assert repr(kmin_bruteforce(g, q, grid)) == repr(want)
        witness = full_best_subset(size, full_cheeger_objective(te, deg, qv))
        assert repr(cheeger_bruteforce(g, q)) == repr(
            sparseness._cheeger_certificate(g, q, witness))
        del te, size, deg, qp, qv
        # a proper region: its sums and boundaries still see the host,
        # through the host degrees the restriction keeps
        sub, sub_q = restricted(g, q, rng.choice(n, n - 2, replace=False))
        te, size, (deg, qv) = full_subset_tables(
            sub, (sub.host_degree, sub_q.values))
        witness = full_best_subset(size, full_cheeger_objective(te, deg, qv))
        assert repr(cheeger_bruteforce(sub, sub_q)) == repr(
            sparseness._cheeger_certificate(sub, sub_q, witness))
    assert zero_dens > 0


def test_bruteforce_memory_is_bounded():
    # the sweep holds m - k + 1 blocks, not tables of 2^m entries: at
    # the enumeration limit four values of a peak far below the full
    # tables' 124 MB, and with the cycle collector off a call leaves
    # less than one block's buffer behind (only the interpreter's free
    # lists keep a few small objects), so no reference cycle holds one
    import gc
    import tracemalloc

    from sgs import sparseness

    rng = np.random.default_rng(97)
    n = ENUMERATION_LIMIT
    g = random_graph(rng, n_min=n, n_max=n, p_low=0.5, p_high=0.5)
    q = uniform_potential(rng, n, 0, 3)
    grid = (0, 0.5, 1, 2)
    kmin_bruteforce(g, q, grid)  # builds the graph's lazy neighbour tuples
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        for call in (lambda: kmin_bruteforce(g, q, grid),
                     lambda: cheeger_bruteforce(g, q)):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            call()
            after, peak = tracemalloc.get_traced_memory()
            assert peak - before < 16 * 2**20
            assert after - before < 8 << sparseness._BLOCK_BITS
    finally:
        tracemalloc.stop()
        gc.enable()


def test_region_witness_sums_do_not_depend_on_the_numbering():
    """A witness's float sums are the same on a graph and on its
    restriction to a region, bit for bit: ``subset_stats`` adds q in
    vertex order, which the restriction's renumbering keeps.  The case
    is the flow benchmark's ``ball10-fq`` as seed 17 writes it, whose
    Cheeger quotient came out 0.4614972564149923 on the restriction and
    0.46149725641499223 on the whole graph while sums followed the
    order of a Python set."""
    base = regular_tree_ball(3, 10)
    n = base.vertex_count
    q0 = np.random.default_rng([1311_7221, 1]).uniform(0.0, 3.0, n)
    perm = np.random.default_rng([17, 3]).permutation(n)
    host, q = np.empty(n, dtype=np.int64), np.empty(n)
    host[perm], q[perm] = base.host_degree, q0
    graph, pot = Graph(n, perm[base.edge_ends], host), Potential(q)
    region = np.flatnonzero(graph.internal_degree
                            == graph.internal_degree.max())
    sub, sub_q = restricted(graph, pot, region)
    cert = cheeger(sub, sub_q)
    witness = region[list(cert.witness)]
    assert (subset_stats(sub, sub_q, cert.witness)
            == subset_stats(graph, pot, witness))
    assert cert.ratio == 0.46149725641499223
    # and for random subsets of random regions
    rng = np.random.default_rng(23)
    for _ in range(30):
        g = random_graph(rng, n_min=20, n_max=60)
        q = uniform_potential(rng, g.vertex_count, -2.0, 3.0)
        region = np.flatnonzero(rng.random(g.vertex_count) < 0.7)
        if not region.size:
            continue
        sub, sub_q = restricted(g, q, region)
        local = rng.permutation(sub.vertex_count)[:rng.integers(1, 40)]
        assert (subset_stats(sub, sub_q, local)
                == subset_stats(g, q, region[local]))


def _exact_counts(graph, q, witness):
    """The witness's integer counts and its exact potential sum."""
    stats = subset_stats(graph, None, witness)
    return stats, sum(map(Fraction, q.values[list(witness)].tolist()),
                      Fraction(0))


def test_restriction_lowers_kmin_and_raises_cheeger(monkeypatch):
    """Every subset of G.restrict(U) is a subset of G with the same
    counts, since the restriction keeps host degrees.  So k_min of a
    restriction is at most G's and its Cheeger constant at least G's:
    exact relations, checked as rationals from the witnesses on float-q
    hosts: a grid, whose cuts take the contracted path, and a tree ball,
    which folds without a cut."""
    from sgs import grid_graph, maxflow, sparseness

    def kmin(graph, q, a, witness):
        stats, qw = _exact_counts(graph, q, witness)
        return (2 * stats.induced_edges
                - Fraction(a) * (stats.boundary + qw)) / stats.size

    def cheeger_ratio(graph, q, witness):
        stats, qw = _exact_counts(graph, q, witness)
        return (stats.boundary + qw) / (stats.degree_sum + qw)

    cuts = spy(monkeypatch, sparseness, "min_cut")
    dispatched = spy(monkeypatch, maxflow, "_cut")
    rng = np.random.default_rng(67)
    grid, ball = grid_graph(60), regular_tree_ball(3, 10)
    x, y = np.divmod(np.arange(3600), 60)
    cases = [(grid, [np.flatnonzero(rng.random(3600) < 0.7),
                     np.flatnonzero((x < 45) & (y > 10)),
                     np.flatnonzero((x - 30)**2 + (y - 30)**2 > 15**2)]),
             (ball, [np.flatnonzero(rng.random(ball.vertex_count) < 0.7),
                     np.arange(regular_tree_ball(3, 9).vertex_count),
                     np.arange(2, ball.vertex_count)])]
    grid_a = (0, 0.5, 1, 2)
    for graph, regions in cases:
        q = Potential(rng.uniform(0.0, 3.0, graph.vertex_count))
        whole = [kmin(graph, q, a, cert.witness)
                 for a, cert in zip(grid_a, kmin_flow(graph, q, grid_a))]
        lowest = cheeger_ratio(graph, q, cheeger(graph, q).witness)
        for region in regions:
            sub, sub_q = restricted(graph, q, region)
            certs = kmin_flow(sub, sub_q, grid_a)
            for a, k, cert in zip(grid_a, whole, certs):
                assert kmin(sub, sub_q, a, cert.witness) <= k
            assert cheeger_ratio(sub, sub_q,
                                 cheeger(sub, sub_q).witness) >= lowest
    # most cuts contract after their first round
    assert len(dispatched) - len(cuts) > len(cuts) // 2


def test_tree_balls_fold_without_a_cut(monkeypatch):
    """A tree folds leaf to root into its root: sparsity_flow and cheeger
    on a float-q tree ball and on its interior call min_cut not once,
    and give the certificates, witnesses included, of cuts on the whole
    network."""
    from sgs import sparseness
    ball = regular_tree_ball(3, 10)
    q = Potential(np.random.default_rng(89).uniform(0.0, 3.0,
                                                    ball.vertex_count))
    inner = restricted(ball, q, range(regular_tree_ball(3, 9).vertex_count))

    def certificates():
        return (sparsity_flow(ball, q, (0, 0.5, 1, 2)), cheeger(ball, q),
                cheeger(*inner))

    cuts = spy(monkeypatch, sparseness, "min_cut")
    folded = certificates()
    assert not cuts
    with whole_network_cuts():
        assert certificates() == folded
    assert len(cuts) > 10
