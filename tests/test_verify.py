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
    run_checks(regular_tree_ball(3, 3), None, a_grid=[0.0, 1.0],
               atilde_grid=[0.5])
    assert len(calls) == 1
    assert len(searches) == 2
