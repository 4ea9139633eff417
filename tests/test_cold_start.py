"""Cold start: a fresh ``sgs`` process loads only the layers its
subcommand reaches.  ``gen``, ``--version`` and the flow analyses of
small graphs and of trees load no scipy; ``spectrum`` does.  The package's lazy
names keep the public surface of an eager import."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sgs
from sgs.cli import main

SRC = Path(sgs.__file__).resolve().parents[1]


def _modules_after(source: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``source``."""
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    code = f"{source}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def _main(*argv) -> str:
    """Source that runs ``sgs.cli.main(argv)`` with stdout discarded."""
    return ("import contextlib, io, sgs.cli\n"
            "with contextlib.suppress(SystemExit), "
            "contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert sgs.cli.main({[str(a) for a in argv]!r}) == 0\n")


def _scipy(modules: set[str]) -> set[str]:
    return {m for m in modules if m == "scipy" or m.startswith("scipy.")}


@pytest.fixture
def grid4(tmp_path):
    gfile = tmp_path / "grid4.json"
    assert main(["gen", "grid", "--m", "4", "--out", str(gfile)]) == 0
    return gfile


@pytest.mark.parametrize("case", ["import sgs", "import sgs.cli", "version",
                                  "gen", "sparsity", "cheeger"])
def test_scipy_free_paths(tmp_path, grid4, case):
    out = tmp_path / "out.json"
    source = {
        "import sgs": "import sgs",
        "import sgs.cli": "import sgs.cli",
        "version": _main("--version"),
        "gen": _main("gen", "grid", "--m", 20, "--out", out),
        "sparsity": _main("analyze", "sparsity", grid4, "--method", "both",
                          "--a-grid", "0,0.5,1,2", "--out", out),
        "cheeger": _main("analyze", "cheeger", grid4, "--method", "both",
                         "--out", out),
    }[case]
    assert _scipy(_modules_after(source)) == set()


@pytest.mark.parametrize("argv", [("sparsity", "--a-grid", "0,0.5,1,2"),
                                  ("cheeger", "--region", "all-but-border")])
def test_tree_flow_loads_no_scipy(tmp_path, argv):
    # ball r=7: its whole network has 1526 arcs, past the 512 at which
    # cuts go to scipy, but a tree folds leaf to root and cuts nothing
    ball = tmp_path / "ball7.json"
    assert main(["gen", "ball", "--host", "regular-tree", "--d", "3",
                 "--radius", "7", "--out", str(ball)]) == 0
    source = _main("analyze", argv[0], ball, *argv[1:],
                   "--out", tmp_path / "out.json")
    assert _scipy(_modules_after(source)) == set()


def test_spectrum_loads_scipy(tmp_path, grid4):
    modules = _modules_after(_main("analyze", "spectrum", grid4,
                                   "--out", tmp_path / "out.json"))
    # the eigensolvers: dense eigvalsh and the Lanczos kernel's
    # tridiagonal eigh
    assert "scipy.linalg" in modules


def test_lazy_names_keep_the_public_surface():
    _modules_after(
        "import sgs\n"
        "assert set(sgs.__all__) <= set(dir(sgs))\n"
        "assert callable(sgs.maxflow.cut_network)\n"
        "names = {}\n"
        "exec('from sgs import *', names)\n"
        "assert all(names[n] is getattr(sgs, n) for n in sgs.__all__)\n")
