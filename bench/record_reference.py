"""Record ``reference.json``: the certified values of every base instance.

    python3 bench/record_reference.py

Runs every analysis of every workload (full and ``--tiny`` corpora) on
the base labelling of its instances and keeps the values
``checks.report_values`` extracts: exact rationals for flow
certificates with a witness, floats for spectral values and for flow
values inside ``verify`` checks.  Each report must pass the checks
against the freshly recorded values (in particular, flow and brute
force must agree on ``oracle``) before anything is written.  Re-record
only when the corpus itself changes, and say so where the change is
described: a program change must be judged against the old values.
"""
from __future__ import annotations

import json
import shutil
import sys

import checks
import corpus
import run


def main() -> int:
    corpus.import_sgs()
    import sgs
    out = run.WORK / "reference"
    reference: dict = {"_recorded": {"sgs": sgs.__version__,
                                     "git_sha": run.git_sha(),
                                     "master_seed": corpus.MASTER_SEED}}
    runs = []
    try:
        for workload in corpus.WORKLOADS:
            section = reference.setdefault(workload, {})
            for tiny in (False, True):
                manifest = corpus.write_corpus(
                    workload, None, out / f"{workload}-{int(tiny)}", tiny)
                for analysis in manifest["analyses"]:
                    _, rc, report = run.run_analysis(analysis["argv"])
                    if rc != 0:
                        raise SystemExit(f"exit code {rc}: {analysis['argv']}")
                    gf = checks.GraphFile(analysis["graph"])
                    section.setdefault(analysis["instance"], {})[
                        analysis["argv"][1]] = checks.report_values(
                            analysis["argv"][1], report, gf)
                    runs.append((workload, analysis, rc, report))
        checker = checks.Checker(json.loads(json.dumps(reference)))
        for workload, analysis, rc, report in runs:
            problems = checker.check(workload, analysis, rc, report)
            if problems:
                raise SystemExit(f"{analysis['argv']}: {problems}")
    finally:
        shutil.rmtree(out, ignore_errors=True)
    with open(checks.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(runs)} analyses into {checks.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
