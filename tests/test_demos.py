"""Smoke tests: every demo runs cleanly, and the file demo cleans up
after itself."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


def _run_demo(demo, cwd, tmpdir):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmpdir))
    return subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(tmp_path, demo):
    done = _run_demo(demo, tmp_path, tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert done.stdout


def test_file_demo_leaves_nothing_and_repeats(tmp_path):
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    outputs = [_run_demo("07_files_and_cli.py", tmp_path, tmpdir).stdout
               for _ in range(2)]
    assert list(tmpdir.glob("sgs-demo-*")) == []
    assert outputs[0] and outputs[0] == outputs[1]
