import dataclasses
import json
import math
import re

import numpy as np
import pytest

import sgs.cli
from sgs import PhaseField, Potential, grid_graph, path_graph
from sgs.cli import main
from sgs.graphio import load_graph, save_graph, verify_report_certificates


def run(args):
    return main([str(a) for a in args])


def test_gen_path_and_sparsity_report(tmp_path):
    gfile = tmp_path / "p3.json"
    rfile = tmp_path / "rep.json"
    assert run(["gen", "path", "--n", 3, "--out", gfile]) == 0
    assert run(["analyze", "sparsity", gfile, "--a-grid", "0",
                "--method", "both", "--out", rfile]) == 0
    rep = json.loads(rfile.read_text())
    entry = rep["results"]["kmin"][0]
    assert entry["flow"]["k"] == pytest.approx(4 / 3)
    assert sorted(entry["flow"]["witness"]) == ["0", "1", "2"]
    assert entry["method_agreement"] <= 1e-9
    assert rep["results"]["amin"]["value"] == "inf"
    graph, q, _, ids = load_graph(gfile)
    assert verify_report_certificates(rep, graph, q, ids) <= 1e-12


def test_gen_figure_tree(tmp_path):
    gfile = tmp_path / "fig.json"
    assert run(["gen", "tree", "--beta", "3,3,4", "--gamma", "0,2,4",
                "--depth", 2, "--out", gfile]) == 0
    graph, _, _, _ = load_graph(gfile)
    assert graph.vertex_count == 10
    assert int(graph.deficit.sum()) == 18  # six depth-2 vertices, deficit 3


def test_gen_ball_vertex_count(tmp_path):
    gfile = tmp_path / "ball.json"
    assert run(["gen", "ball", "--host", "regular-tree", "--d", 3,
                "--radius", 8, "--out", gfile]) == 0
    graph, _, _, _ = load_graph(gfile)
    assert graph.vertex_count == 766


def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["gen", "grid", "--m", 4, "--out", a])
    run(["gen", "grid", "--m", 4, "--out", b])
    assert a.read_bytes() == b.read_bytes()


def test_analyze_verify_ball_exit_zero(tmp_path):
    gfile = tmp_path / "ball4.json"
    rfile = tmp_path / "verify.json"
    run(["gen", "ball", "--host", "regular-tree", "--d", 3,
         "--radius", 4, "--out", gfile])
    assert run(["analyze", "verify", gfile, "--a-grid", "0,1",
                "--atilde-grid", "0.3,0.7", "--out", rfile]) == 0
    rep = json.loads(rfile.read_text())
    by_id = {c["id"]: c for c in rep["results"]["checks"]}
    bound_check = by_id["spectral_bottom_bound"]
    assert bound_check["status"] == "ok"
    assert bound_check["margin"] >= 0.0
    assert bound_check["bound"] >= 3 - 2 * math.sqrt(2) - 1e-9


def test_verify_reports_are_deterministic(tmp_path):
    gfile = tmp_path / "c5.json"
    run(["gen", "cycle", "--n", 5, "--out", gfile])
    reports = []
    for name in ("r1.json", "r2.json"):
        rfile = tmp_path / name
        assert run(["analyze", "verify", gfile, "--seed", 42,
                    "--atilde-grid", "0.5", "--out", rfile]) == 0
        rep = json.loads(rfile.read_text())
        rep.pop("wall_clock_seconds")
        reports.append(rep)
    assert reports[0] == reports[1]


def test_verify_reports_above_dense_cutover_are_deterministic(tmp_path):
    gfile = tmp_path / "grid20.json"  # 400 vertices: offsets use eigsh
    run(["gen", "grid", "--m", 20, "--out", gfile])
    texts = []
    for name in ("r1.json", "r2.json"):
        rfile = tmp_path / name
        assert run(["analyze", "verify", gfile, "--out", rfile]) == 0
        texts.append(re.sub(r'"wall_clock_seconds": [^,}\n]*', "",
                            rfile.read_text()))
    assert texts[0] == texts[1]


def test_magnetic_verify_reports_above_dense_cutover_are_deterministic(
        tmp_path):
    # 400 vertices: the magnetic offsets and bottoms go through eigsh
    graph = grid_graph(20)
    rng = np.random.default_rng(39)
    gfile = tmp_path / "grid20-mag.json"
    save_graph(gfile, graph, Potential(rng.uniform(0, 1, graph.vertex_count)),
               PhaseField.random(graph, rng))
    texts = []
    for name in ("r1.json", "r2.json"):
        rfile = tmp_path / name
        assert run(["analyze", "verify", gfile, "--out", rfile]) == 0
        texts.append(re.sub(r'"wall_clock_seconds": [^,}\n]*', "",
                            rfile.read_text()))
    assert texts[0] == texts[1]
    checks = json.loads(rfile.read_text())["results"]["checks"]
    assert "upside_down_magnetic@a_tilde=0.5" in {c["id"] for c in checks}


def test_verify_tiny_tolerance_fails(tmp_path):
    gfile = tmp_path / "c5.json"
    run(["gen", "cycle", "--n", 5, "--out", gfile])
    rfile = tmp_path / "strict.json"
    assert run(["analyze", "verify", gfile, "--tol", "1e-30",
                "--atilde-grid", "0.5", "--out", rfile]) == 1


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_verify_rejects_bad_tolerance(tmp_path, capsys, tol):
    gfile = tmp_path / "c5.json"
    run(["gen", "cycle", "--n", 5, "--out", gfile])
    assert run(["analyze", "verify", gfile, "--tol", tol,
                "--atilde-grid", "0.5", "--out", tmp_path / "r.json"]) == 2
    assert "--tol" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("subcommand",
                         ["sparsity", "cheeger", "spectrum", "verify"])
@pytest.mark.parametrize("flag, value",
                         [("--seed", "-1"), ("--top-m", "0"),
                          ("--top-m", "-2")])
def test_analyze_rejects_bad_seed_and_top_m(tmp_path, capsys, subcommand,
                                            flag, value):
    gfile = tmp_path / "c5.json"
    run(["gen", "cycle", "--n", 5, "--out", gfile])
    assert run(["analyze", subcommand, gfile, flag, value,
                "--out", tmp_path / "r.json"]) == 2
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("check", ["ratios_within_bracket",
                                   "sandwich_upper@a_tilde=0.5"])
@pytest.mark.parametrize("shift, code", [(0.5, 0), (1.5, 1)])
def test_spectrum_margins_fail_below_tol(tmp_path, monkeypatch, check,
                                         shift, code):
    """A spectrum margin fails once it falls below -tol times its scale."""
    report = sgs.cli.ratio_report

    def pushed(*args, **kwargs):
        rep = report(*args, **kwargs)
        return dataclasses.replace(rep, verified=tuple(
            (name, -shift * 1e-9 * scale if name == check else margin, scale)
            for name, margin, scale in rep.verified))

    monkeypatch.setattr(sgs.cli, "ratio_report", pushed)
    gfile = tmp_path / "ball.json"
    run(["gen", "ball", "--host", "regular-tree", "--d", 3, "--radius", 4,
         "--out", gfile])
    assert run(["analyze", "spectrum", gfile, "--tol", "1e-9",
                "--out", tmp_path / "r.json"]) == code


def test_spectrum_bracket_edge_exits_zero(tmp_path):
    # on a q = 0 regular host the bracket is attained, so its margin is
    # zero up to rounding (a few 1e-16, of either sign) and passes
    gfile, rfile = tmp_path / "ball.json", tmp_path / "r.json"
    run(["gen", "ball", "--host", "regular-tree", "--d", 3, "--radius", 4,
         "--out", gfile])
    assert run(["analyze", "spectrum", gfile, "--out", rfile]) == 0
    verified = json.loads(rfile.read_text())["results"]["verified"]
    edge = verified[0]
    assert edge["id"] == "ratios_within_bracket"
    assert abs(edge["margin"]) <= 1e-12 * edge["tolerance_scale"]
    # ||M|| = 6 (host degree 3 plus three neighbours), and the smallest
    # reported denominator is m = 3: the bracket's scale is (1 + 6)/3
    assert edge["tolerance_scale"] == pytest.approx(7 / 3)
    assert all(c["status"] == "ok" and c["tolerance_scale"] == 7.0
               for c in verified[1:])


@pytest.mark.parametrize("shift, code", [(0.5, 0), (1.5, 1)])
def test_method_agreement_fails_above_tol(tmp_path, monkeypatch, shift, code):
    """Flow and brute force may differ by at most tol (not 2 tol)."""
    brute = sgs.cli.kmin_bruteforce

    def shifted(*args, **kwargs):
        # the CLI asks for the whole grid at once: shift every certificate
        certs = brute(*args, **kwargs)
        return [dataclasses.replace(cert, k=cert.k + shift * 1e-9)
                for cert in certs]

    monkeypatch.setattr(sgs.cli, "kmin_bruteforce", shifted)
    gfile = tmp_path / "c5.json"
    run(["gen", "cycle", "--n", 5, "--out", gfile])
    assert run(["analyze", "sparsity", gfile, "--method", "both",
                "--tol", "1e-9", "--out", tmp_path / "r.json"]) == code


def test_bruteforce_overflow_exits_zero(tmp_path, capsys):
    # at a = 1e308 every nonempty ratio overflows to -inf; both methods
    # clamp k at 0, and numpy's overflow warning stays off stderr
    gfile, rfile = tmp_path / "p3.json", tmp_path / "r.json"
    save_graph(gfile, path_graph(3), Potential([1.0, 1.0, 1.0]))
    assert run(["analyze", "sparsity", gfile, "--method", "both",
                "--a-grid", "1e308", "--out", rfile]) == 0
    assert capsys.readouterr().err == ""
    entry, = json.loads(rfile.read_text())["results"]["kmin"]
    assert entry["method_agreement"] == 0.0
    assert entry["bruteforce"]["k"] == entry["flow"]["k"] == 0.0
    assert entry["bruteforce"]["witness"] == ["0"]


def test_bruteforce_grid_errors_come_in_grid_order(tmp_path, capsys):
    # the brute force runs once for the whole grid; exit codes and
    # messages stay those of one call per a, flow first
    gfile, rfile = tmp_path / "c30.json", tmp_path / "r.json"
    run(["gen", "cycle", "--n", 30, "--out", gfile])
    # an empty grid enumerates nothing, so 30 vertices are fine
    assert run(["analyze", "sparsity", gfile, "--method", "bruteforce",
                "--a-grid", "", "--out", rfile]) == 0
    assert json.loads(rfile.read_text())["results"]["kmin"] == []
    capsys.readouterr()
    assert run(["analyze", "sparsity", gfile, "--method", "both",
                "--a-grid=-1,0", "--out", rfile]) == 2
    assert capsys.readouterr().err == "sgs: error: a must be non-negative\n"
    assert run(["analyze", "sparsity", gfile, "--method", "both",
                "--a-grid=0,-1", "--out", rfile]) == 2
    assert capsys.readouterr().err == (
        "sgs: error: 30 vertices are too many for enumeration (limit 22)\n")


def test_analyze_cheeger_region(tmp_path):
    gfile = tmp_path / "grid5.json"
    rfile = tmp_path / "cheeger.json"
    run(["gen", "grid", "--m", 5, "--out", gfile])
    assert run(["analyze", "cheeger", gfile, "--region", "all-but-border",
                "--method", "both", "--out", rfile]) == 0
    rep = json.loads(rfile.read_text())
    assert rep["results"]["region_size"] == 9
    assert rep["results"]["method_agreement"] <= 1e-9
    assert rep["results"]["flow"]["ratio"] == pytest.approx(1 / 3)


def test_analyze_spectrum_csv(tmp_path):
    gfile = tmp_path / "p3.json"
    cfile = tmp_path / "table.csv"
    rfile = tmp_path / "spec.json"
    run(["gen", "path", "--n", 3, "--out", gfile])
    assert run(["analyze", "spectrum", gfile, "--top-m", 3,
                "--csv", cfile, "--out", rfile]) == 0
    lines = cfile.read_text().strip().splitlines()
    assert lines[0] == "index,eigenvalue,diag_eigenvalue,ratio"
    assert len(lines) == 4
    rep = json.loads(rfile.read_text())
    assert rep["results"]["bracket"] is not None


def test_bruteforce_guard(tmp_path):
    gfile = tmp_path / "grid5.json"
    run(["gen", "grid", "--m", 5, "--out", gfile])
    assert run(["analyze", "sparsity", gfile, "--method", "bruteforce"]) == 2


def test_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"vertices": [{"id": "x"}],
                               "edges": [{"u": "x", "v": "zzz"}]}))
    assert run(["analyze", "sparsity", bad]) == 2
    # a non-array vertices or edges used to exit 1 with a TypeError
    for doc, key in (({"vertices": 5, "edges": []}, "vertices"),
                     ({"vertices": [{"id": "x"}], "edges": None}, "edges")):
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["analyze", "sparsity", bad]) == 2
        assert f"{key} must be a list" in capsys.readouterr().err
    # ids that are not JSON strings used to load through str(), and a
    # witness then read ["None", "1.5"]
    for doc, where in (
            ({"vertices": [{"id": "x"}, {"id": None}], "edges": []},
             "vertices[1]: id"),
            ({"vertices": [{"id": 1.5}], "edges": []}, "vertices[0]: id"),
            ({"vertices": [{"id": ["a"]}], "edges": []}, "vertices[0]: id"),
            ({"vertices": [{"id": "1"}, {"id": "x"}],
              "edges": [{"u": 1, "v": "x"}]}, "edges[0]: u"),
            ({"vertices": [{"id": "x"}, {"id": "None"}],
              "edges": [{"u": "x", "v": None}]}, "edges[0]: v")):
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["analyze", "sparsity", bad]) == 2
        assert f"{where} must be a string" in capsys.readouterr().err
    # a fractional host degree used to load truncated, and exit 0
    bad.write_text(json.dumps({"vertices": [{"id": "x"},
                                            {"id": "y", "host_degree": 2.7}],
                               "edges": [{"u": "x", "v": "y"}]}))
    assert run(["analyze", "spectrum", bad]) == 2


def test_parser_keeps_no_state_between_calls(tmp_path):
    # main reuses one parser per process: the settings of one call must
    # not reach the next
    gfile, rfile = tmp_path / "p3.json", tmp_path / "rep.json"
    assert run(["gen", "path", "--n", 3, "--out", gfile]) == 0
    assert run(["analyze", "sparsity", gfile, "--a-grid", "0,1",
                "--method", "both", "--out", rfile]) == 0
    settings = json.loads(rfile.read_text())["settings"]
    assert settings["a_grid"] == [0.0, 1.0] and settings["method"] == "both"
    assert run(["analyze", "sparsity", gfile, "--out", rfile]) == 0
    settings = json.loads(rfile.read_text())["settings"]
    assert settings["a_grid"] == [0.0] and settings["method"] == "flow"


def test_oversized_host_degree_exits_two(tmp_path, capsys):
    # it used to escape as an OverflowError traceback with exit 1, the
    # code of a failed verification
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"vertices": [{"id": "x"},
                                            {"id": "y", "host_degree": 10**30}],
                               "edges": [{"u": "x", "v": "y"}]}))
    assert run(["analyze", "sparsity", bad]) == 2
    assert "vertices[1]: host_degree" in capsys.readouterr().err


def test_huge_host_degrees_are_summed_exactly(tmp_path):
    # the witness's 1100 host degrees of 2**53 sum past 2**63: an int64
    # sum used to wrap to a negative degree sum and report k = 3.88e15,
    # unclamped, for a ratio of about -4.5e15
    n = 1100
    gfile, rfile = tmp_path / "path.json", tmp_path / "rep.json"
    gfile.write_text(json.dumps({
        "vertices": [{"id": str(x), "host_degree": 2**53} for x in range(n)],
        "edges": [{"u": str(x), "v": str(x + 1)} for x in range(n - 1)]}))
    assert run(["analyze", "sparsity", gfile, "--a-grid", "0.5",
                "--out", rfile]) == 0
    results = json.loads(rfile.read_text())["results"]
    entry = results["kmin"][0]["flow"]
    assert entry["k"] == 0.0 and entry["clamped"]
    assert entry["ratio"] == pytest.approx(-2.0**52, rel=1e-12)
    assert entry["witness_stats"]["degree_sum"] == n * 2**53
    assert len(entry["witness"]) == n
    # the ratio driver's own counts must not wrap either
    assert results["amin"]["value"] == 2 * (n - 1) / (n * 2**53 - 2 * (n - 1))


def test_infeasible_family(tmp_path):
    assert run(["gen", "tree", "--beta", "3", "--gamma", "2", "--depth", 2,
                "--out", tmp_path / "x.json"]) == 2


def test_csv_only_for_spectrum(tmp_path):
    gfile = tmp_path / "p3.json"
    run(["gen", "path", "--n", 3, "--out", gfile])
    assert run(["analyze", "sparsity", gfile, "--csv",
                tmp_path / "t.csv"]) == 2
