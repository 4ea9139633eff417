"""Benchmark corpus: the three workloads, their base instances and the
seeded relabelling that turns them into graph files.

Every workload is a fixed list of *base instances* drawn once from
``MASTER_SEED`` with ``sgs.generators`` and numpy.  Their certified
values (exact rationals for the flow constants, floats for the spectral
offsets) are recorded in ``reference.json`` by ``record_reference.py``.
The ``--seed`` of a run draws a relabelling of every base instance: a
vertex permutation, which also flips the stored orientation (and the
sign of the phase) of every edge whose endpoints swap order.  So each
seed feeds the program different files -- other vertex order, other
arc order in every flow network, other tie-breaking and other
floating-point summation order -- with the same answers, and one
reference table covers every seed.

Run as a script, this module is the benchmark's set-up step, timed as
``setup_s`` in a fresh interpreter:

    python3 bench/corpus.py --workload flow --seed 3 --out DIR [--tiny]

It imports ``sgs.cli``, builds the workload's base instances, writes
one relabelled graph file per instance into DIR and a ``manifest.json``
listing every analysis of one pass.

Workloads (``maxflow.int32_frac`` is the measured share of max-flow
calls whose arcs and total source capacity fit int32, from traced runs
with ``run.py --trace 1`` on a 2-core x86-64 machine; it is the same
for every seed):

``flow`` -- ``analyze sparsity --a-grid 0,0.5,1,2`` and ``analyze
    cheeger --region all-but-border`` on host truncations: ball r=10 of
    the 3-regular tree, the 60x60 grid and the radial family
    beta=4, gamma=0,2, depth 6, all with q = 0, plus float-q variants
    (q uniform in [0, 3)) of ball r=10 and the 40x40 grid.  Why:
    ``maxflow.Dinic`` takes most of the time and nothing is
    diagonalized.  The q = 0 inputs have small integer capacities and
    the float-q inputs capacities far wider than 32 bits, so an int32
    max-flow backend shows its gain on one half and its fallback cost
    on the other.  Measured ``maxflow.int32_frac``: 0.35 (24 of 69
    calls per pass: all 20 calls on the q = 0 inputs, with at most 24
    capacity bits, and 4 of the 49 calls on the float-q inputs, whose
    capacities reach 77 bits).

``oracle`` -- 99 random graphs, nine of each size 10..20 (edge
    probability uniform in [0.15, 0.9], as ``tests/helpers.random_graph``
    draws them), q uniform in [0, 3); each runs ``analyze sparsity
    --method both --a-grid 0,0.5,1,2`` and ``analyze cheeger --method
    both`` on a random region of at least half the vertices.  Sizes are
    stratified rather than drawn so that every run carries the same
    amount of 2^n enumeration work.  Why: many short calls, where
    per-call ``cli`` and ``graphio`` overhead, the enumeration tables
    and tiny Fraction networks dominate and the Dinic inner loop barely
    matters; a per-call cost that a large-network speed-up adds
    (conversion, CSR builds) shows here.  Measured
    ``maxflow.int32_frac``: 0.28 (float q gives capacities of up to 64
    bits even on these small networks).

``spectral`` -- ``analyze spectrum`` and ``analyze verify`` on ball r=6,
    ball r=8 and the 20x20 grid (q = 0) plus a magnetic 20x20 grid
    (phases uniform in [-pi, pi), q in (0, 1]).  Why: ``verify``
    re-diagonalizes the same matrices about 45 times (the reuse a
    spectral cache exploits) while the 18 offset matrices of
    ``spectrum`` are all distinct, so a cache is bypassed there and the
    eigen kernel itself is measured; the magnetic input covers complex
    dtype, ``upside_down_magnetic`` and the Kato sweep.  The 40x40 grid
    (about 19 s per ``verify``) is left out so that a run stays short.
    Measured ``maxflow.int32_frac``: 0.40 (22 of 55 calls per pass;
    ``verify`` runs the flow routes too, and on the magnetic grid's
    float q, at slopes such as a = 1/9, capacities reach 124 bits).

The ``eigsh`` path of ``sgs.spectra`` (dimension above 4000) cannot be
reached through the CLI today: ``eigenvalues`` refuses such dimensions
and every subcommand that diagonalizes calls it, so no workload covers
that path until the CLI changes.

``--tiny`` shrinks every instance to a few vertices for the
benchmark's self-test; its timings mean nothing.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MASTER_SEED = 1311_7221
A_GRID = "0,0.5,1,2"
WORKLOADS = ("flow", "oracle", "spectral")


def import_sgs():
    """Import ``sgs`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "sgs" / "__init__.py").is_file():
        raise SystemExit(f"bench: no sgs sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import sgs
    if Path(sgs.__file__).resolve().parent != SRC / "sgs":
        raise SystemExit(f"bench: imported sgs from {sgs.__file__}, "
                         f"not from {SRC}")
    return sgs


@dataclass(frozen=True)
class Instance:
    """One base instance and the analyses a pass runs on it.

    ``analyses`` holds ``analyze`` argument lists without the graph path;
    the token ``{region}`` stands for the instance's region, spelled in
    the relabelled file's vertex ids.
    """
    name: str
    graph: object
    potential: object
    phase: object
    region: tuple[int, ...] | None
    analyses: tuple[tuple[str, ...], ...]


def _rng(*key):
    import numpy as np
    return np.random.default_rng([MASTER_SEED, *key])


def _flow_instances(tiny: bool) -> list[Instance]:
    from sgs.generators import (RadialFamilySpec, grid_graph,
                                make_radial_family, regular_tree_ball)
    from sgs.graphs import Potential
    r_ball, m_grid, m_fq, depth = (4, 6, 5, 3) if tiny else (10, 60, 40, 6)
    analyses = (("sparsity", "--a-grid", A_GRID),
                ("cheeger", "--region", "all-but-border"))
    ball = regular_tree_ball(3, r_ball)
    fq_grid = grid_graph(m_fq)
    graphs = [
        (f"ball{r_ball}", ball, None),
        (f"grid{m_grid}", grid_graph(m_grid), None),
        (f"radial4-02-d{depth}",
         make_radial_family(RadialFamilySpec(beta=(4,), gamma=(0, 2),
                                             depth=depth)), None),
        (f"ball{r_ball}-fq", ball,
         Potential(_rng(1).uniform(0.0, 3.0, ball.vertex_count))),
        (f"grid{m_fq}-fq", fq_grid,
         Potential(_rng(2).uniform(0.0, 3.0, fq_grid.vertex_count))),
    ]
    return [Instance(name, g, q if q is not None else Potential.zero(g),
                     None, None, analyses)
            for name, g, q in graphs]


def _oracle_instances(tiny: bool) -> list[Instance]:
    from sgs.graphs import Graph, Potential
    sizes = range(6, 9) if tiny else range(10, 21)
    per_size = 2 if tiny else 9
    analyses = (("sparsity", "--method", "both", "--a-grid", A_GRID),
                ("cheeger", "--method", "both", "--region", "{region}"))
    out = []
    for n in sizes:
        for j in range(per_size):
            rng = _rng(3, n, j)
            p = rng.uniform(0.15, 0.9)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < p]
            q = Potential(rng.uniform(0.0, 3.0, n))
            k = int(rng.integers((n + 1) // 2, n + 1))
            region = tuple(sorted(int(x) for x in
                                  rng.choice(n, size=k, replace=False)))
            out.append(Instance(f"random{n}-{j}", Graph(n, edges), q, None,
                                region, analyses))
    return out


def _spectral_instances(tiny: bool) -> list[Instance]:
    import numpy as np
    from sgs.generators import grid_graph, regular_tree_ball
    from sgs.graphs import PhaseField, Potential
    radii, m = ((2, 3), 4) if tiny else ((6, 8), 20)
    analyses = (("spectrum",), ("verify",))
    grid = grid_graph(m)
    rng = _rng(4)
    phase = PhaseField(grid, rng.uniform(-np.pi, np.pi, grid.edge_count))
    q = Potential(1.0 - rng.uniform(0.0, 1.0, grid.vertex_count))
    out = [Instance(f"ball{r}", g, Potential.zero(g), None, None, analyses)
           for r, g in ((r, regular_tree_ball(3, r)) for r in radii)]
    out.append(Instance(f"grid{m}", grid, Potential.zero(grid), None, None,
                        analyses))
    out.append(Instance(f"grid{m}-mag", grid, q, phase, None, analyses))
    return out


def base_instances(workload: str, tiny: bool = False) -> list[Instance]:
    make = {"flow": _flow_instances, "oracle": _oracle_instances,
            "spectral": _spectral_instances}
    if workload not in make:
        raise ValueError(f"unknown workload {workload!r}")
    return make[workload](tiny)


def relabel(inst: Instance, seed: int, index: int):
    """The instance under a vertex permutation drawn from ``seed``.

    Returns ``(graph, potential, phase, ids, region_ids)`` for the
    relabelled copy; ``seed=None`` keeps the base labelling.
    """
    import numpy as np
    from sgs.graphs import Graph, PhaseField, Potential
    g = inst.graph
    n = g.vertex_count
    if seed is None:
        perm = np.arange(n)
    else:
        perm = np.random.default_rng([seed % 2**64, index]).permutation(n)
    edges = [(int(perm[u]), int(perm[v])) for (u, v) in g.edges]
    host = np.empty(n, dtype=np.int64)
    host[perm] = g.host_degree
    q = np.empty(n)
    q[perm] = inst.potential.values
    graph = Graph(n, edges, host_degree=host)
    phase = None
    if inst.phase is not None:
        theta = {}
        for (u, v), t in zip(edges, inst.phase.values):
            theta[(u, v) if u < v else (v, u)] = t if u < v else -t
        phase = PhaseField(graph, [theta[e] for e in graph.edges])
    ids = [f"v{j}" for j in range(n)]
    region_ids = None
    if inst.region is not None:
        region_ids = ",".join(ids[int(perm[x])] for x in inst.region)
    return graph, Potential(q), phase, ids, region_ids


def write_corpus(workload: str, seed: int | None, out: Path,
                 tiny: bool = False) -> dict:
    """Write one graph file per instance and the pass manifest."""
    from sgs.graphio import save_graph
    out.mkdir(parents=True, exist_ok=True)
    analyses = []
    for i, inst in enumerate(base_instances(workload, tiny)):
        graph, q, phase, ids, region_ids = relabel(inst, seed, i)
        path = out / f"{inst.name}.json"
        save_graph(path, graph, q, phase, ids)
        for spec in inst.analyses:
            argv = [region_ids if tok == "{region}" else tok for tok in spec]
            analyses.append({"instance": inst.name, "graph": str(path),
                             "argv": ["analyze", argv[0], str(path),
                                      *argv[1:]]})
    manifest = {"workload": workload, "seed": seed, "tiny": tiny,
                "analyses": analyses}
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    import_sgs()
    import sgs.cli  # noqa: F401  -- part of the timed set-up
    write_corpus(args.workload, args.seed, Path(args.out), args.tiny)
    return 0


if __name__ == "__main__":
    sys.exit(main())
