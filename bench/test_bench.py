"""Self-test of the benchmark: its correctness check catches bad reports
and bad references, and a tiny run of every workload prints every
metric ``BENCHMARK.json`` names.

    python3 -m pytest -q bench/test_bench.py
"""
from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import corpus
import run

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """Tiny corpora of every workload under a relabelling seed, with the
    report of every analysis."""
    corpus.import_sgs()
    out = {}
    for workload in corpus.WORKLOADS:
        manifest = corpus.write_corpus(
            workload, 7, tmp_path_factory.mktemp(workload), tiny=True)
        out[workload] = [(a, *run.run_analysis(a["argv"])[1:])
                         for a in manifest["analyses"]]
    return out


def _first(written, workload, subcommand):
    for analysis, rc, report in written[workload]:
        if analysis["argv"][1] == subcommand:
            return analysis, rc, copy.deepcopy(report)
    raise AssertionError(f"no {subcommand} analysis in {workload}")


def test_reports_of_a_relabelled_corpus_pass(written):
    checker = checks.Checker()
    for workload, runs in written.items():
        for analysis, rc, report in runs:
            assert checker.check(workload, analysis, rc, report) == []
    assert checker.failed == 0 and checker.attempted > 0


@pytest.mark.parametrize("corrupt", ["value", "witness"])
def test_corrupted_flow_certificate_fails(written, corrupt):
    analysis, rc, report = _first(written, "flow", "sparsity")
    cert = report["results"]["kmin"][0]["flow"]
    if corrupt == "value":
        cert["k"] += 0.25
        cert["ratio"] += 0.25
    else:
        cert["witness"] = cert["witness"][:-1]
    checker = checks.Checker()
    assert checker.check("flow", analysis, rc, report)
    assert (checker.attempted, checker.failed) == (1, 1)


def test_corrupted_spectral_certificate_fails(written):
    analysis, rc, report = _first(written, "spectral", "spectrum")
    report["results"]["grid"][2]["k_lower"] += 1e-6
    checker = checks.Checker()
    assert checker.check("spectral", analysis, rc, report)
    assert checker.failed == 1


def test_wrong_reference_value_fails(written):
    analysis, rc, report = _first(written, "oracle", "cheeger")
    reference = json.loads(checks.REFERENCE.read_text())
    entry = reference["oracle"][analysis["instance"]]["cheeger"]
    entry["ratio"] = str(checks.from_text(entry["ratio"]) + checks.Fraction(
        1, 10**9))
    checker = checks.Checker(reference)
    assert checker.check("oracle", analysis, rc, report)
    assert checker.failed == 1


def test_method_disagreement_and_exit_code_fail(written):
    analysis, rc, report = _first(written, "oracle", "sparsity")
    report["results"]["kmin"][1]["method_agreement"] = 1e-6
    checker = checks.Checker()
    assert checker.check("oracle", analysis, rc, report)
    assert checker.check("oracle", analysis, 1, None) == ["exit code 1"]
    assert (checker.attempted, checker.failed) == (2, 2)


def _bench(*args, cwd=BENCH.parent):
    out = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                         capture_output=True, text=True, timeout=170)
    return out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_tiny_run_prints_every_metric(workload, trace):
    out = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--tiny")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    names = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in names} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    for k, v in result["metrics"].items():
        assert isinstance(v["value"], (int, float)), k


def test_run_without_sources_fails(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    out = _bench("--workload", "flow", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
