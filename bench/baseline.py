"""One pass over an already written corpus, run by ``run.py`` in a child
process for its single-threaded baseline.

    SGS_THREADS=1 OPENBLAS_NUM_THREADS=1 python3 bench/baseline.py MANIFEST

Prints one JSON line: ``wall_s`` and the per-subcommand sums of the
pass, plus the thread settings it ran under.  Reports are not checked
here; the parent run checks the same analyses.
"""
from __future__ import annotations

import json
import os
import sys

import corpus


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: baseline.py MANIFEST", file=sys.stderr)
        return 2
    corpus.import_sgs()
    import run
    with open(argv[0], encoding="utf-8") as fh:
        manifest = json.load(fh)
    times = run.run_pass(manifest["analyses"], None, manifest["workload"])
    summary = run.pass_summary(manifest["analyses"], [times])
    summary["threads"] = {k: os.environ.get(k) for k in
                          ("SGS_THREADS", "OPENBLAS_NUM_THREADS",
                           "OMP_NUM_THREADS")}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
