"""The check catalogue of ``sgs analyze verify``: which checks run and
which are skipped on each class of input, through the command line and
through ``sgs.verify.run_checks``."""
import json

import numpy as np
import pytest

from sgs import PhaseField, Potential, grid_graph, regular_tree_ball
from sgs.cli import main
from sgs.graphio import load_graph, save_graph

GRID = grid_graph(4)
INPUTS = {
    "tree_ball_q0": (regular_tree_ball(3, 3), None, None),
    "grid_q_positive": (GRID, Potential(np.linspace(0.5, 2.0, 16)), None),
    "grid_q_negative_entry": (
        GRID, Potential(np.where(np.arange(16) == 5, -0.5, 1.0)), None),
    "grid_magnetic": (GRID, Potential(np.full(16, 0.5)),
                      PhaseField.random(GRID, np.random.default_rng(4))),
}
SANDWICH = ["eigensolver_trace", "sandwich_optimal@a_tilde=0.5",
            "upside_down@a_tilde=0.5"]
ROUNDTRIPS = ["roundtrip_sparse_to_form@a=0", "roundtrip_sparse_to_form@a=1",
              "roundtrip_form_to_sparse@a_tilde=0.5"]
IDENTITIES = ["kato_sweep", "phase_pi_identity"]
SKIPPED = {
    "tree_ball_q0": {"isoperimetric_dictionary"},
    "grid_q_positive": {"spectral_bottom_bound"},  # k_min(0) = 3 > 2.5
    "grid_q_negative_entry": {"roundtrip_sparse_to_form",
                              "isoperimetric_dictionary",
                              "cheeger_form_bounds", "spectral_bottom_bound"},
    "grid_magnetic": {"spectral_bottom_bound"},  # k_min(0) = 3 > 2.5
}
EXPECTED_IDS = {
    "tree_ball_q0": SANDWICH + ROUNDTRIPS + IDENTITIES + [
        "isoperimetric_dictionary", "cheeger_form_bounds",
        "spectral_bottom_bound"],
    "grid_q_positive": SANDWICH + ROUNDTRIPS + IDENTITIES + [
        "isoperimetric_dictionary", "cheeger_form_bounds",
        "spectral_bottom_bound"],
    "grid_q_negative_entry": SANDWICH + [
        "roundtrip_sparse_to_form", "roundtrip_form_to_sparse@a_tilde=0.5"]
        + IDENTITIES + ["isoperimetric_dictionary", "cheeger_form_bounds",
                        "spectral_bottom_bound"],
    "grid_magnetic": SANDWICH + ["upside_down_magnetic@a_tilde=0.5"]
        + ROUNDTRIPS + IDENTITIES + [
        "isoperimetric_dictionary", "cheeger_form_bounds",
        "spectral_bottom_bound"],
}
ARGS = ["--a-grid", "0,1", "--atilde-grid", "0.5", "--seed", "3"]


def _verify_report(tmp_path, name):
    graph, q, phase = INPUTS[name]
    gfile, rfile = tmp_path / "g.json", tmp_path / "r.json"
    save_graph(gfile, graph, q, phase)
    code = main(["analyze", "verify", str(gfile), *ARGS, "--out", str(rfile)])
    return gfile, code, json.loads(rfile.read_text())


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_verify_catalogue_is_pinned(tmp_path, name):
    _, code, report = _verify_report(tmp_path, name)
    assert code == 0
    checks = report["results"]["checks"]
    assert [c["id"] for c in checks] == EXPECTED_IDS[name]
    for c in checks:
        skipped = c["id"] in SKIPPED[name]
        assert c["status"] == ("skipped" if skipped else "ok"), c["id"]
        assert (c["margin"] is None) == skipped
        assert ("reason" in c) == skipped


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_run_checks_returns_the_report_records(tmp_path, name):
    from sgs.verify import run_checks
    gfile, _, report = _verify_report(tmp_path, name)
    graph, q, phase, _ = load_graph(gfile)
    records = run_checks(graph, q, phase, a_grid=[0.0, 1.0],
                         atilde_grid=[0.5], region=None, seed=3)
    assert records == report["results"]["checks"]


def test_run_checks_builds_one_search_for_every_kmin(monkeypatch):
    # every k_min of the catalogue comes from one kmin_flow call on one
    # ratio search; the Cheeger constant has the only other search
    from sgs import sparseness
    from sgs.verify import run_checks
    calls, searches = [], []
    route, build = sparseness.kmin_flow, sparseness._RatioSearch.__init__

    def spy_route(*args):
        calls.append(args)
        return route(*args)

    def spy_build(search, *args):
        searches.append(search)
        return build(search, *args)

    monkeypatch.setattr(sparseness, "kmin_flow", spy_route)
    monkeypatch.setattr(sparseness._RatioSearch, "__init__", spy_build)
    ball = regular_tree_ball(3, 3)
    run_checks(ball, None, a_grid=[0.0, 1.0], atilde_grid=[0.5])
    assert len(calls) == 1
    assert len(searches) == 2

    # with q > 0 the isoperimetric dictionary reads a_min: sparsity_flow
    # takes it from the k_min search, so there is still one more search
    both = sparseness.sparsity_flow

    def spy_both(*args):
        calls.append(("sparsity_flow", *args))
        return both(*args)

    monkeypatch.setattr(sparseness, "sparsity_flow", spy_both)
    calls.clear()
    searches.clear()
    q = Potential(np.linspace(0.5, 2.0, ball.vertex_count))
    records = run_checks(ball, q, a_grid=[0.0, 1.0], atilde_grid=[0.5])
    assert [call[0] for call in calls] == ["sparsity_flow"]
    assert len(searches) == 2
    dictionary, = (r for r in records if r["id"] == "isoperimetric_dictionary")
    assert dictionary["amin"] == both(ball, q, [])[1].value


@pytest.mark.parametrize("m", [8, 20])
def test_cheeger_form_bounds_on_a_proper_region(tmp_path, m):
    # below (36 vertices) and above (324) the dense limit: the record is
    # the restriction's Cheeger constant and the bottoms of the dense
    # compression H[U,U] -/+ s D[U]; the CLI's all-but-border region
    # gives the same record
    from sgs import assemble, cheeger
    from sgs.spectra import EXTREMAL_DENSE_LIMIT
    from sgs.verify import run_checks
    g = grid_graph(m)
    q = Potential(np.random.default_rng(m).uniform(0.0, 1.0, g.vertex_count))
    region = np.flatnonzero(g.internal_degree == 4)
    assert len(region) == (m - 2) ** 2
    assert (len(region) > EXTREMAL_DENSE_LIMIT) == (m == 20)
    records = run_checks(g, q, a_grid=[0.0], atilde_grid=[0.5],
                         region=region)
    bounds, = (r for r in records if r["id"] == "cheeger_form_bounds")
    alpha = cheeger(g.restrict(region), Potential(q.values[region])).ratio
    assert bounds["alpha"] == alpha
    h = assemble(g, q).toarray()[np.ix_(region, region)]
    d = np.diag(np.diag(h))
    dense = min(np.linalg.eigvalsh(h - bounds["slope_lower"] * d)[0],
                np.linalg.eigvalsh(bounds["slope_upper"] * d - h)[0])
    assert abs(bounds["margin"] - dense) <= 1e-12
    # the whole graph's constant is another check's, and differs here
    whole, = (r for r in records if r["id"] == "isoperimetric_dictionary")
    assert whole["alpha"] != alpha

    gfile, rfile = tmp_path / "g.json", tmp_path / "r.json"
    save_graph(gfile, g, q)
    assert main(["analyze", "verify", str(gfile), "--a-grid", "0",
                 "--atilde-grid", "0.5", "--region", "all-but-border",
                 "--out", str(rfile)]) == 0
    checks = json.loads(rfile.read_text())["results"]["checks"]
    assert checks == records
