"""Command-line interface: ``sgs gen`` writes graph files, ``sgs analyze``
runs the sparsity / cheeger / spectrum / verify pipelines and emits JSON
reports.

Handlers import their layer on first use, through the defining module,
so only ``spectrum``, ``verify`` and cuts of 512 or more arcs load scipy.

Reports are deterministic for identical inputs apart from their
wall-clock field.  Exit codes: 0 on success, 1 when a verify or
spectrum margin (over its tolerance scale) falls below -tol or flow
and brute force disagree by more than tol, 2 on input errors.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import math
import sys
import time

from . import DEFAULT_ATILDE_GRID, __version__
from .generators import (RadialFamilySpec, make_basic, make_radial_family,
                         regular_tree_ball)
from .graphio import (graph_digest, id_map_digest, load_graph, save_graph,
                      write_report)
from .graphs import Graph, Potential


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok != ""]


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok != ""]


@functools.cache  # one parser per process; parse_args leaves it as is
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgs",
        description="sparseness, isoperimetric, and spectral analysis of "
                    "finite graphs and host truncations")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a graph file")
    gsub = gen.add_subparsers(dest="kind", required=True)
    # the basic kinds keep their one size argument in ``args.size``
    for kind in ("path", "cycle", "complete", "star"):
        p = gsub.add_parser(kind)
        p.add_argument("--n", dest="size", metavar="N", type=int,
                       required=True)
        p.add_argument("--out", required=True)
    p = gsub.add_parser("grid")
    p.add_argument("--m", dest="size", metavar="M", type=int,
                   required=True)
    p.add_argument("--out", required=True)
    p = gsub.add_parser("antitree")
    p.add_argument("--spheres", dest="size", metavar="SPHERES",
                   type=_int_list, required=True,
                   help="comma-separated sphere sizes")
    p.add_argument("--out", required=True)
    p = gsub.add_parser("tree", help="radial tree family truncation")
    p.add_argument("--beta", type=_int_list, required=True)
    p.add_argument("--gamma", type=_int_list, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--out", required=True)
    p = gsub.add_parser("ball", help="ball truncation of an infinite host")
    p.add_argument("--host", choices=("regular-tree", "radial-family"),
                   required=True)
    p.add_argument("--d", type=int, help="degree for the regular tree host")
    p.add_argument("--beta", type=_int_list)
    p.add_argument("--gamma", type=_int_list)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--out", required=True)

    ana = sub.add_parser("analyze", help="analyze a graph file")
    ana.add_argument("subcommand",
                     choices=("sparsity", "cheeger", "spectrum", "verify"))
    ana.add_argument("graph", help="path to a graph JSON file")
    ana.add_argument("--out", default=None, help="report path (default stdout)")
    ana.add_argument("--a-grid", type=_float_list, default=[0.0])
    ana.add_argument("--atilde-grid", type=_float_list,
                     default=list(DEFAULT_ATILDE_GRID))
    ana.add_argument("--region", default="all",
                     help="'all', 'all-but-border' (the vertices of maximal "
                          "internal degree), or comma-separated ids")
    ana.add_argument("--method", choices=("flow", "bruteforce", "both"),
                     default="flow")
    ana.add_argument("--top-m", type=int, default=10)
    ana.add_argument("--tol", type=float, default=1e-9)
    ana.add_argument("--csv", default=None,
                     help="CSV export of the eigenvalue/ratio table "
                          "(spectrum only)")
    ana.add_argument("--seed", type=int, default=0,
                     help="seed for randomized verification sweeps")
    return parser


def _command_gen(args) -> int:
    if args.kind == "tree":
        spec = RadialFamilySpec(beta=tuple(args.beta), gamma=tuple(args.gamma),
                                depth=args.depth)
        graph = make_radial_family(spec)
    elif args.kind == "ball":
        if args.host == "regular-tree":
            if args.d is None:
                raise ValueError("--d is required for the regular-tree host")
            graph = regular_tree_ball(args.d, args.radius)
        else:
            if not args.beta or args.gamma is None:
                raise ValueError("--beta/--gamma are required for the "
                                 "radial-family host")
            graph = make_radial_family(RadialFamilySpec(
                beta=tuple(args.beta), gamma=tuple(args.gamma),
                depth=args.radius))
    else:
        graph = make_basic(args.kind, args.size)
    save_graph(args.out, graph)
    return 0


def _resolve_region(args, graph: Graph, ids: list[str]) -> tuple[int, ...]:
    spec = args.region
    if spec == "all":
        return tuple(range(graph.vertex_count))
    if spec == "all-but-border":
        top = int(graph.internal_degree.max())
        keep = tuple(x for x in range(graph.vertex_count)
                     if graph.internal_degree[x] == top)
        if not keep:
            raise ValueError("all-but-border region is empty")
        return keep
    index = {vid: i for i, vid in enumerate(ids)}
    out = []
    for tok in spec.split(","):
        if tok == "":
            continue
        if tok not in index:
            raise ValueError(f"unknown vertex id {tok!r} in --region")
        out.append(index[tok])
    if not out:
        raise ValueError("--region selected no vertices")
    return tuple(sorted(set(out)))


def _witness_ids(witness, ids) -> list[str]:
    return [ids[x] for x in witness]


def _sparseness_entry(cert, ids) -> dict:
    return {"a": cert.a, "k": cert.k, "ratio": cert.ratio,
            "clamped": cert.clamped,
            "witness": _witness_ids(cert.witness, ids),
            "witness_stats": dataclasses.asdict(cert.stats)}


def _analyze_sparsity(args, graph, potential, ids) -> dict:
    from . import sparseness
    # one subset enumeration serves the whole grid; it checks each a in
    # grid order first, so errors come as from one call per a
    brute = (sparseness.kmin_bruteforce(graph, potential, args.a_grid)
             if args.method in ("bruteforce", "both") else None)
    # one cut network serves the grid and the threshold; brute force
    # has no threshold route, so it takes the threshold alone
    with_flow = args.method in ("flow", "both")
    flow, amin = sparseness.sparsity_flow(graph, potential,
                                          args.a_grid if with_flow else [])
    per_a = []
    for i in range(len(args.a_grid)):
        entry: dict = {}
        if with_flow:
            entry["flow"] = _sparseness_entry(flow[i], ids)
        if brute is not None:
            entry["bruteforce"] = _sparseness_entry(brute[i], ids)
        if args.method == "both":
            gap = abs(entry["flow"]["k"] - entry["bruteforce"]["k"])
            entry["method_agreement"] = gap
        per_a.append(entry)
    amin_entry = {"value": amin.value,
                  "witness": _witness_ids(amin.witness, ids)}
    return {"kmin": per_a, "amin": amin_entry}


def _analyze_cheeger(args, graph, potential, ids) -> dict:
    from . import sparseness
    region = _resolve_region(args, graph, ids)
    sub = graph.restrict(region)
    sub_q = (potential if sub is graph
             else Potential(potential.values[list(region)]))

    def entry(cert) -> dict:
        # back to the file's numbering: the restriction numbers the
        # region in order
        witness = [region[x] for x in cert.witness]
        return {"ratio": cert.ratio, "witness": _witness_ids(witness, ids),
                "region_size": len(region)}

    out: dict = {"region_size": len(region)}
    if args.method in ("flow", "both"):
        out["flow"] = entry(sparseness.cheeger(sub, sub_q))
    if args.method in ("bruteforce", "both"):
        out["bruteforce"] = entry(sparseness.cheeger_bruteforce(sub, sub_q))
    if args.method == "both":
        gap = abs(out["flow"]["ratio"] - out["bruteforce"]["ratio"])
        out["method_agreement"] = gap
    return out


def _analyze_spectrum(args, graph, potential, phase, ids) -> dict:
    from . import spectra
    report = spectra.ratio_report(
        graph, potential, phase, top_m=min(args.top_m, graph.vertex_count),
        atilde_grid=args.atilde_grid)
    out = {
        "eigenvalues": [float(v) for v in report.eigenvalues],
        "diag_eigenvalues": [float(v) for v in report.diag_eigenvalues],
        "indices": list(report.indices),
        "ratios": list(report.ratios),
        "skipped": list(report.skipped),
        "grid": [{"a_tilde": at, "k_lower": kl, "k_upper": ku}
                 for (at, kl, ku) in report.grid],
        "bracket": list(report.bracket) if report.bracket else None,
        "bracket_a_tilde": report.bracket_a_tilde,
        "verified": [{"id": name, "status": "ok", "margin": margin,
                      "tolerance_scale": scale}
                     for (name, margin, scale) in report.verified],
    }
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "eigenvalue", "diag_eigenvalue", "ratio"])
            ratio_at = dict(zip(report.indices, report.ratios))
            for i in range(graph.vertex_count):
                writer.writerow([i, repr(float(report.eigenvalues[i])),
                                 repr(float(report.diag_eigenvalues[i])),
                                 repr(ratio_at[i]) if i in ratio_at else ""])
    return out


def _analyze_verify(args, graph, potential, phase, ids) -> dict:
    from . import verify
    return {"checks": verify.run_checks(
        graph, potential, phase, a_grid=args.a_grid,
        atilde_grid=args.atilde_grid,
        region=_resolve_region(args, graph, ids), seed=args.seed)}


def _failed(results: dict, tol: float) -> bool:
    """Flow and brute force apart by more than tol, or a verify or
    spectrum check's margin over its tolerance scale below -tol."""
    checks = results.get("checks", results.get("verified", []))
    return (any(e.get("method_agreement", 0.0) > tol
                for e in results.get("kmin", [results]))
            or any(c["status"] == "ok" and c["margin"] / c["tolerance_scale"]
                   < -tol for c in checks))


def _command_analyze(args) -> int:
    started = time.monotonic()
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise ValueError("--tol must be finite and non-negative, "
                         f"got {args.tol!r}")
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    if args.top_m < 1:
        raise ValueError(f"--top-m must be at least 1, got {args.top_m}")
    graph, potential, phase, ids = load_graph(args.graph)
    if args.csv and args.subcommand != "spectrum":
        raise ValueError("--csv applies to the spectrum subcommand only")
    if args.subcommand == "sparsity":
        results = _analyze_sparsity(args, graph, potential, ids)
    elif args.subcommand == "cheeger":
        results = _analyze_cheeger(args, graph, potential, ids)
    elif args.subcommand == "spectrum":
        results = _analyze_spectrum(args, graph, potential, phase, ids)
    else:
        results = _analyze_verify(args, graph, potential, phase, ids)
    report = {
        "command": ["analyze", args.subcommand, args.graph],
        "settings": {
            "a_grid": list(args.a_grid),
            "atilde_grid": list(args.atilde_grid),
            "region": args.region,
            "method": args.method,
            "top_m": args.top_m,
            "seed": args.seed,
        },
        "graph": {
            "path": args.graph,
            "vertex_count": graph.vertex_count,
            "edge_count": graph.edge_count,
            "digest": graph_digest(graph, potential, phase, ids),
            "id_map_digest": id_map_digest(ids),
        },
        "results": results,
        "tolerances": {"tol": args.tol},
        "wall_clock_seconds": time.monotonic() - started,
    }
    write_report(args.out, report)
    return 1 if _failed(results, args.tol) else 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "gen":
            return _command_gen(args)
        return _command_analyze(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"sgs: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
