#!/usr/bin/env python3
"""Graph files, reports, and the command-line pipeline.

Everything the library computes is reachable from the `sgs` executable:
`sgs gen` writes canonical graph JSON, `sgs analyze` emits reports whose
certificates re-validate against the graph file byte for byte.
"""
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import sgs
from sgs.graphio import load_graph, save_graph, verify_report_certificates

with tempfile.TemporaryDirectory(prefix="sgs-demo-") as tmp:
    workdir = Path(tmp)
    gfile = workdir / "ball.json"
    rfile = workdir / "verify.json"

    save_graph(gfile, sgs.regular_tree_ball(3, 3))
    print(f"wrote {gfile.name} ({gfile.stat().st_size} bytes)")
    print("first lines:")
    print("\n".join(gfile.read_text().splitlines()[:6]))

    cmd = [sys.executable, "-m", "sgs.cli", "analyze", "verify", str(gfile),
           "--atilde-grid", "0.3,0.6", "--a-grid", "0,1", "--out", str(rfile)]
    print(f"\n$ sgs analyze verify {gfile.name} --atilde-grid 0.3,0.6 "
          "--a-grid 0,1")
    code = subprocess.run(cmd).returncode
    print(f"exit code {code} (0 = every margin above -tol)")

    report = json.loads(rfile.read_text())
    graph, q, phase, ids = load_graph(gfile)

print("\nchecks:")
for check in report["results"]["checks"]:
    margin = check["margin"]
    shown = "skipped" if margin is None else f"{margin:+.2e}"
    print(f"  {check['id']:42s} {shown}")

worst = verify_report_certificates(report, graph, q, ids)
print(f"\ncertificate re-validation: worst deviation {worst:.1e}")
