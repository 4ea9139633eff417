"""Command-line interface: ``sgs gen`` writes graph files, ``sgs analyze``
runs the sparsity / cheeger / spectrum / verify pipelines and emits JSON
reports.

Reports are deterministic for identical inputs apart from their
wall-clock field.  Exit codes: 0 on success with all verification
margins above -tol, 1 when a margin fails, 2 on input errors.
"""
from __future__ import annotations

import argparse
import csv
import math
import sys
import time

import numpy as np

from . import __version__
from .generators import (RadialFamilySpec, ball_truncation, make_basic,
                         make_radial_family)
from .graphio import (graph_digest, id_map_digest, load_graph, save_graph,
                      write_report)
from .graphs import Graph, PhaseField
from .operators import kato_gap, upside_down_identity
from .sparseness import (ENUMERATION_LIMIT, amin_zero_k, cheeger, kmin_flow,
                         kmin_bruteforce)
from .spectra import (DEFAULT_ATILDE_GRID, SpectralPlan, cheeger_form_slopes,
                      form_to_sparse, ratio_report, sparse_to_form,
                      spectral_edge_bound)

_KATO_SWEEPS = 50


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok != ""]


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok != ""]


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
                     help="'all', 'all-but-border', or comma-separated ids")
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
            graph = ball_truncation("regular_tree", args.radius, degree=args.d)
        else:
            if not args.beta or args.gamma is None:
                raise ValueError("--beta/--gamma are required for the "
                                 "radial-family host")
            spec = RadialFamilySpec(beta=tuple(args.beta),
                                    gamma=tuple(args.gamma), depth=args.radius)
            graph = ball_truncation("radial_family", args.radius, spec=spec)
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
            "witness_stats": {
                "size": cert.stats.size,
                "induced_edges": cert.stats.induced_edges,
                "boundary": cert.stats.boundary,
                "degree_sum": cert.stats.degree_sum,
                "q_sum": cert.stats.q_sum,
                "q_plus_sum": cert.stats.q_plus_sum,
            }}


def _cheeger_entry(cert, ids) -> dict:
    return {"ratio": cert.ratio, "witness": _witness_ids(cert.witness, ids),
            "region_size": len(cert.region)}


def _analyze_sparsity(args, graph, potential, ids) -> tuple[dict, list[float]]:
    margins: list[float] = []
    per_a = []
    for a in args.a_grid:
        entry: dict = {}
        if args.method in ("flow", "both"):
            entry["flow"] = _sparseness_entry(kmin_flow(graph, potential, a), ids)
        if args.method in ("bruteforce", "both"):
            if graph.vertex_count > ENUMERATION_LIMIT:
                raise ValueError(
                    f"bruteforce method limited to {ENUMERATION_LIMIT} vertices")
            entry["bruteforce"] = _sparseness_entry(
                kmin_bruteforce(graph, potential, a), ids)
        if args.method == "both":
            gap = abs(entry["flow"]["k"] - entry["bruteforce"]["k"])
            entry["method_agreement"] = gap
            margins.append(args.tol - gap)
        per_a.append(entry)
    amin = amin_zero_k(graph, potential)
    amin_entry = {"value": "inf" if math.isinf(amin.value) else amin.value,
                  "witness": _witness_ids(amin.witness, ids)}
    return {"kmin": per_a, "amin": amin_entry}, margins


def _analyze_cheeger(args, graph, potential, ids) -> tuple[dict, list[float]]:
    region = _resolve_region(args, graph, ids)
    margins: list[float] = []
    out: dict = {"region_size": len(region)}
    if args.method in ("flow", "both"):
        out["flow"] = _cheeger_entry(
            cheeger(graph, potential, region, method="flow"), ids)
    if args.method in ("bruteforce", "both"):
        out["bruteforce"] = _cheeger_entry(
            cheeger(graph, potential, region, method="bruteforce"), ids)
    if args.method == "both":
        gap = abs(out["flow"]["ratio"] - out["bruteforce"]["ratio"])
        out["method_agreement"] = gap
        margins.append(args.tol - gap)
    return out, margins


def _analyze_spectrum(args, graph, potential, phase, ids) -> dict:
    report = ratio_report(graph, potential, phase, top_m=min(args.top_m,
                                                             graph.vertex_count),
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
        "verified": [{"id": name, "margin": margin}
                     for (name, margin) in report.verified],
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


def _analyze_verify(args, graph, potential, phase, ids) -> tuple[dict, list[float]]:
    checks: list[dict] = []
    margins: list[float] = []

    def add(check_id: str, margin: float, scale: float = 1.0, **details) -> None:
        entry = {"id": check_id, "status": "ok", "margin": float(margin),
                 "tolerance_scale": scale}
        entry.update(details)
        checks.append(entry)
        margins.append(float(margin) / scale)

    def skip(check_id: str, reason: str) -> None:
        checks.append({"id": check_id, "status": "skipped", "margin": None,
                       "reason": reason})

    rng = np.random.default_rng(args.seed)
    q = potential.values
    nonneg_q = bool(np.all(q >= 0))
    # One plan per operator serves every check below: the plain one for
    # the sandwiches and round trips, the magnetic one (if any) for the
    # trace, the spectral bottom and the magnetic upside-down offsets.
    plain = SpectralPlan(graph, potential)
    plan = plain if phase is None else SpectralPlan(graph, potential, phase)
    op = plan.operator
    lam = plan.spectrum
    norm = op.norm_bound()
    scale = 1.0 + norm  # margin tolerances scale with the operator norm
    trace_gap = abs(lam.sum() - float(np.real(op.matrix.diagonal().sum())))
    add("eigensolver_trace",
        1e-8 * max(norm, 1.0) * graph.vertex_count - trace_gap)

    for at in args.atilde_grid:
        klow, kup = plain.offset(at, "lower"), plain.offset(at, "upper")
        lower_m, upper_m = plain.sandwich(at, klow, kup)
        add(f"sandwich_optimal@a_tilde={at:g}",
            min(float(lower_m.min()), float(upper_m.min())), scale=scale,
            k_lower=klow, k_upper=kup)
        add(f"upside_down@a_tilde={at:g}", klow - kup, scale=scale)
        if phase is not None:
            add(f"upside_down_magnetic@a_tilde={at:g}",
                klow - plan.constants(at).k_tilde, scale=scale)

    if nonneg_q:
        for a in args.a_grid:
            cert = kmin_flow(graph, potential, a)
            constants = (sparse_to_form(a, cert.k, a_tilde=0.5) if a == 0
                         else sparse_to_form(a, cert.k))
            kt = constants.k_tilde
            lo_m, up_m = plain.sandwich(constants.a_tilde, kt, kt)
            add(f"roundtrip_sparse_to_form@a={a:g}",
                min(float(lo_m.min()), float(up_m.min())), scale=scale,
                k=cert.k, a_tilde=constants.a_tilde,
                k_tilde=constants.k_tilde)
    else:
        skip("roundtrip_sparse_to_form",
             "requires a non-negative potential")
    for at in args.atilde_grid:
        a_out, k_out = form_to_sparse(at, plain.offset(at, "lower"))
        cert = kmin_flow(graph, potential, a_out)
        add(f"roundtrip_form_to_sparse@a_tilde={at:g}", k_out - cert.k,
            scale=scale, a=a_out, k=k_out, kmin=cert.k)

    sweep_phase = phase
    gaps = []
    for _ in range(_KATO_SWEEPS):
        if phase is None:
            sweep_phase = PhaseField.random(graph, rng)
        f = rng.standard_normal(graph.vertex_count) \
            + 1j * rng.standard_normal(graph.vertex_count)
        gaps.append(kato_gap(graph, potential, sweep_phase, f))
    add("kato_sweep", min(gaps), sweeps=_KATO_SWEEPS)
    add("phase_pi_identity",
        -upside_down_identity(graph, phase if phase is not None
                              else PhaseField.zero(graph)))

    if nonneg_q and np.all(q > 0):
        amin = amin_zero_k(graph, potential)
        if math.isinf(amin.value):
            skip("isoperimetric_dictionary", "amin is infinite")
        else:
            alpha_v = cheeger(graph, potential, method="flow").ratio
            add("isoperimetric_dictionary",
                -abs(alpha_v - 1.0 / (1.0 + amin.value)),
                alpha=alpha_v, amin=amin.value)
    else:
        skip("isoperimetric_dictionary", "requires strictly positive q")

    if nonneg_q:
        region = _resolve_region(args, graph, ids)
        alpha_u = cheeger(graph, potential, region, method="flow").ratio
        slope_lo, slope_hi = cheeger_form_slopes(alpha_u)
        low_eig, up_eig = plain.compressed_bottoms(region, slope_lo, slope_hi)
        add("cheeger_form_bounds", min(low_eig, up_eig), scale=scale,
            alpha=alpha_u, slope_lower=slope_lo, slope_upper=slope_hi)
        k0 = kmin_flow(graph, potential, 0.0).k
        d_floor = float((graph.host_degree + q).min())
        if 0.0 < d_floor and k0 <= d_floor:
            bound = spectral_edge_bound(d_floor, k0)
            add("spectral_bottom_bound", float(lam[0]) - bound,
                d=d_floor, k=k0, bound=bound)
        else:
            skip("spectral_bottom_bound",
                 "needs 0 < k_min(0) <= min(deg+q)")
    else:
        skip("cheeger_form_bounds", "requires a non-negative potential")
        skip("spectral_bottom_bound", "requires a non-negative potential")

    return {"checks": checks}, margins


def _command_analyze(args) -> int:
    started = time.monotonic()
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise ValueError("--tol must be finite and non-negative, "
                         f"got {args.tol!r}")
    graph, potential, phase, ids = load_graph(args.graph)
    if args.csv and args.subcommand != "spectrum":
        raise ValueError("--csv applies to the spectrum subcommand only")
    margins: list[float] = []
    if args.subcommand == "sparsity":
        results, margins = _analyze_sparsity(args, graph, potential, ids)
    elif args.subcommand == "cheeger":
        results, margins = _analyze_cheeger(args, graph, potential, ids)
    elif args.subcommand == "spectrum":
        results = _analyze_spectrum(args, graph, potential, phase, ids)
    else:
        results, margins = _analyze_verify(args, graph, potential, phase, ids)
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
    failed = [m for m in margins if m < -args.tol]
    return 1 if failed else 0


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
