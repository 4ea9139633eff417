import math

import numpy as np
import pytest
import scipy.sparse as sp

from sgs import (Graph, HermitianOperator, PhaseField, Potential, assemble,
                 kato_gap, path_graph, quad_form, regular_tree_ball,
                 subset_stats, upside_down_identity)

from helpers import random_graph, uniform_potential


def test_assemble_path_laplacian():
    op = assemble(path_graph(2), None)
    assert np.allclose(op.toarray(), [[1, -1], [-1, 1]])
    assert op.kind == "schrodinger"
    # host degree plus potential on the diagonal; a zero stays unstored
    op = assemble(path_graph(3), Potential([0.5, 0.0, -1.0]))
    assert np.array_equal(op.matrix.diagonal(), [1.5, 2.0, 0.0])
    assert op.matrix.nnz == 6


def test_assemble_magnetic_pi():
    g = path_graph(2)
    ph = PhaseField.from_directed(g, {(0, 1): math.pi})
    op = assemble(g, None, ph)
    assert np.allclose(op.toarray(), [[1, 1], [1, 1]], atol=1e-15)


def test_assemble_tree_ball_host_diagonal():
    g = regular_tree_ball(3, 1)
    op = assemble(g, None)
    m = op.toarray()
    assert np.allclose(np.diag(m), [3, 3, 3, 3])
    assert np.count_nonzero(m) - 4 == 6  # three undirected edges


def test_assemble_phase_requirements():
    g = path_graph(2)
    ph = PhaseField.zero(g)
    plain, magnetic = assemble(g, None), assemble(g, None, ph)
    assert plain.kind == "schrodinger" and plain.phase is None
    assert magnetic.kind == "magnetic" and magnetic.phase is ph
    assert repr(magnetic) == "HermitianOperator(kind='magnetic')"
    with pytest.raises(ValueError, match="phase was built for a different graph"):
        assemble(g, None, PhaseField.zero(path_graph(2)))
    with pytest.raises(ValueError, match="potential length does not match graph"):
        assemble(g, Potential([1.0, 2.0, 3.0]))
    with pytest.raises(TypeError, match="kind"):  # the phase decides
        assemble(g, None, ph, kind=None)
    with pytest.raises(AttributeError):
        magnetic.kind = "schrodinger"


def test_quad_form_examples():
    g = path_graph(2)
    op = assemble(g, None)
    assert quad_form(op, [1, 1]) == 0.0
    assert quad_form(op, [1, -1]) == pytest.approx(4.0)
    ph = PhaseField.from_directed(g, {(0, 1): math.pi})
    mop = assemble(g, None, ph)
    assert quad_form(mop, [1, -1]) == pytest.approx(0.0, abs=1e-14)


def test_quad_form_dimension_mismatch():
    with pytest.raises(ValueError, match="length"):
        quad_form(assemble(path_graph(3), None), [1, 2])


def test_quad_form_indicator_is_boundary():
    rng = np.random.default_rng(21)
    for _ in range(25):
        g = random_graph(rng)
        g = Graph(g.vertex_count, g.edges,
                  host_degree=g.internal_degree
                  + rng.integers(0, 3, g.vertex_count))
        op = assemble(g, None)
        w = [x for x in range(g.vertex_count) if rng.random() < 0.5]
        ind = np.zeros(g.vertex_count)
        ind[w] = 1.0
        assert quad_form(op, ind) == pytest.approx(
            subset_stats(g, None, w).boundary, abs=1e-9)


def test_quad_form_rejects_a_matrix_that_disagrees_with_its_edge_sum():
    g = path_graph(3)
    op = assemble(g, Potential([0.5, 0.0, 1.0]))
    f = np.array([1.0, -2.0, 0.5])
    # edges: 3^2 + 2.5^2; mass: 0.5 * 1 + 1 * 0.25
    assert quad_form(op, f) == pytest.approx(16.0, rel=1e-15)
    perturbed = HermitianOperator(
        (op.matrix + 1e-6 * sp.eye(3)).tocsr(), g, op.potential)
    with pytest.raises(RuntimeError, match="quadratic form mismatch"):
        quad_form(perturbed, f)


def test_laplacian_between_zero_and_twice_degree():
    rng = np.random.default_rng(22)
    for _ in range(25):
        g = random_graph(rng)
        lap = assemble(g, None)
        f = rng.standard_normal(g.vertex_count) \
            + 1j * rng.standard_normal(g.vertex_count)
        val = quad_form(lap, f)
        assert val >= -1e-10
        assert val <= 2 * np.vdot(f, g.host_degree * f).real + 1e-9


def test_upside_down_identity_cases():
    g = path_graph(4)
    assert upside_down_identity(g, PhaseField.zero(g)) <= 1e-15
    rng = np.random.default_rng(23)
    for _ in range(20):
        gg = random_graph(rng)
        assert upside_down_identity(gg, PhaseField.random(gg, rng)) <= 1e-12


def test_kato_gap_examples():
    g = path_graph(2)
    assert kato_gap(g, None, PhaseField.zero(g), [1.0, 2.0]) == pytest.approx(0.0)
    ph = PhaseField.from_directed(g, {(0, 1): math.pi})
    assert kato_gap(g, None, ph, [1, 1]) == pytest.approx(4.0)


def test_kato_gap_property_sweep():
    rng = np.random.default_rng(24)
    worst = 0.0
    for _ in range(200):
        g = random_graph(rng, n_max=30)
        q = uniform_potential(rng, g.vertex_count, -2, 3)
        ph = PhaseField.random(g, rng)
        f = rng.standard_normal(g.vertex_count) \
            + 1j * rng.standard_normal(g.vertex_count)
        worst = min(worst, kato_gap(g, q, ph, f))
    assert worst >= -1e-10


def test_gauge_sanity_conjugation():
    rng = np.random.default_rng(25)
    for _ in range(15):
        g = random_graph(rng)
        q = uniform_potential(rng, g.vertex_count, -1, 2)
        ph = PhaseField.random(g, rng)
        f = rng.standard_normal(g.vertex_count) \
            + 1j * rng.standard_normal(g.vertex_count)
        plus = assemble(g, q, ph)
        minus = assemble(g, q, ph.negated())
        assert quad_form(minus, np.conj(f)) == pytest.approx(
            quad_form(plus, f), rel=1e-12, abs=1e-12)


def test_forms_are_real_hermitian():
    rng = np.random.default_rng(26)
    g = random_graph(rng)
    ph = PhaseField.random(g, rng)
    op = assemble(g, None, ph)
    m = op.toarray()
    assert np.allclose(m, m.conj().T)
    f = rng.standard_normal(g.vertex_count) + 1j * rng.standard_normal(g.vertex_count)
    assert abs(np.imag(np.vdot(f, m @ f))) <= 1e-10
