"""Layered benchmark for ``sgs analyze``.

    python3 bench/run.py --workload {flow,oracle,spectral} --seed N \
        --seconds S --trace {0,1} [--tiny]

Run from anywhere; the program is imported from the ``src`` directory
next to this one, and every file the run writes stays under
``bench/_work``.  One run:

1. Set-up.  With ``--trace 0``, ``corpus.py`` is started
   ``SETUP_REPEATS`` times in a fresh interpreter (import ``sgs.cli``,
   build the base instances with ``sgs.generators``, write the seeded
   graph files with ``sgs.graphio``); ``setup_s`` is the median wall
   time of those processes.  With ``--trace 1`` the corpus is built
   once in-process under the tracer, which gives ``generators.s``.
2. Warm-up: the analyses of the smallest instance, run once.
3. Passes over every analysis of the workload, calling
   ``sgs.cli.main(argv)`` in-process from one thread, until the next
   pass would end after ``--seconds``.  Every report is checked by
   ``checks.py``.

End-to-end metrics (``--trace 0``): ``setup_s``; ``wall_s``, one warm
pass, taken as the sum over analyses of each analysis's median time
over the passes; ``peak_rss_mb``, the peak resident set of this
process.  The per-subcommand sums (``sparsity_s``, ``cheeger_s``,
``spectrum_s``, ``verify_s``) are printed and written to the result
file beside them; ``ops_failed_frac`` is ``failed / attempted`` of the
result line.

Per-layer metrics (``--trace 1``): passes alternate between untraced
and traced; ``spans.py`` reduces each traced pass to per-layer numbers
and the run reports their medians, ``trace.overhead_frac`` (traced
``wall_s`` over untraced, minus 1), the untraced per-subcommand sums
and ``ops_failed_frac``.  On ``spectral`` the run first makes one
single-threaded pass (``SGS_THREADS=1``, one BLAS thread) in a child
process and reports it as information.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it holds the machine record.  A fuller result, with sample
counts, per-pass times and the spans of the last traced pass, goes to
``bench/_work/results``.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import checks
import corpus
import spans
from corpus import ROOT, WORKLOADS

BENCH = Path(__file__).resolve().parent
WORK = BENCH / "_work"
SETUP_REPEATS = 5
CHILD_TIMEOUT = 150
SUBCOMMANDS = ("sparsity", "cheeger", "spectrum", "verify")

# Metric names and units, as BENCHMARK.json declares them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="layered benchmark for "
                                                 "sgs analyze")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny instances, for the benchmark's self-test")
    return parser.parse_args(argv)


# -- machine record -------------------------------------------------------------

def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    import hashlib
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sgs").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def machine_record() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    nproc = os.cpu_count()
    sgs_threads = os.environ.get("SGS_THREADS")
    effective = min(4, nproc or 1)
    if sgs_threads:
        effective = max(1, min(effective, int(sgs_threads)))
    return {
        "git_sha": git_sha(),
        "source_sha256": _source_digest(),
        "nproc": nproc,
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "SGS_THREADS": sgs_threads,
        "sgs_pool_threads": effective,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


# -- running analyses ------------------------------------------------------------

def run_analysis(argv: list[str]) -> tuple[float, int, dict | None]:
    """One in-process ``sgs.cli.main`` call: (seconds, exit code, report)."""
    import sgs.cli
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            rc = sgs.cli.main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        return time.perf_counter() - start, exc.code or 0, None
    except Exception:  # a crash is a failed analysis, not a failed run
        traceback.print_exc()
        return time.perf_counter() - start, -1, None
    elapsed = time.perf_counter() - start
    try:
        report = json.loads(out.getvalue())
    except ValueError:
        report = None
    return elapsed, rc, report


def run_pass(analyses, checker, workload, tracer=None, label="") -> list[float]:
    """Run every analysis once; returns the per-analysis times."""
    times = []
    for i, analysis in enumerate(analyses):
        if tracer is not None:
            tracer.analysis = f"{label}a{i}"
        try:
            elapsed, rc, report = run_analysis(analysis["argv"])
        finally:
            if tracer is not None:
                tracer.analysis = None
        times.append(elapsed)
        if checker is not None:
            problems = checker.check(workload, analysis, rc, report)
            for p in problems[:5]:
                print(f"bench: FAILED {' '.join(analysis['argv'][1:3])}: {p}",
                      file=sys.stderr)
    return times


def pass_summary(analyses, passes: list[list[float]]) -> dict:
    """``wall_s`` and per-subcommand sums of per-analysis medians."""
    medians = [statistics.median(p[i] for p in passes)
               for i in range(len(analyses))]
    out = {f"{sub}_s": 0.0 for sub in SUBCOMMANDS}
    for analysis, m in zip(analyses, medians):
        out[f"{analysis['argv'][1]}_s"] += m
    out["wall_s"] = sum(medians)
    return out


def warm_up_set(manifest) -> list[dict]:
    smallest = min({a["graph"] for a in manifest["analyses"]},
                   key=lambda p: os.path.getsize(p))
    return [a for a in manifest["analyses"] if a["graph"] == smallest]


def setup_in_children(args, workdir: Path) -> list[float]:
    cmd = [sys.executable, str(BENCH / "corpus.py"), "--workload",
           args.workload, "--seed", str(args.seed), "--out", str(workdir)]
    if args.tiny:
        cmd.append("--tiny")
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        times.append(_run_child(cmd) - start)
    return times


def _run_child(cmd, **kwargs) -> float:
    """Run ``cmd`` to completion; returns the clock reading at its exit.

    ``Popen.wait`` with a timeout polls in growing steps, which would
    quantize a sub-second child's time, so a timer kills a hung child
    instead and the wait itself blocks.
    """
    proc = subprocess.Popen(cmd, **kwargs)
    killer = threading.Timer(CHILD_TIMEOUT, proc.kill)
    killer.start()
    try:
        rc = proc.wait()
        end = time.perf_counter()
    finally:
        killer.cancel()
        killer.join()
    if rc != 0:
        raise subprocess.CalledProcessError(rc, cmd)
    return end


def single_thread_baseline(workdir: Path) -> dict:
    """One pass in a child with one ``SGS_THREADS`` and one BLAS thread."""
    env = dict(os.environ, SGS_THREADS="1", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run([sys.executable, str(BENCH / "baseline.py"),
                          str(workdir / "manifest.json")],
                         check=True, timeout=CHILD_TIMEOUT, env=env,
                         capture_output=True, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def measure(args, manifest, checker, tracer=None, baseline_dir=None):
    """Warm up, then run passes until ``--seconds`` is spent.

    Returns (untraced passes, traced passes, per-layer dicts, baseline).
    """
    analyses = manifest["analyses"]
    run_pass(warm_up_set(manifest), checker, args.workload)
    start = time.perf_counter()
    deadline = start + args.seconds
    baseline = single_thread_baseline(baseline_dir) if baseline_dir else None
    plain, traced, layers = [], [], []
    while True:
        t0 = time.perf_counter()
        if tracer is not None and len(traced) < len(plain):
            tracer.spans.clear()
            traced.append(run_pass(analyses, checker, args.workload, tracer,
                                   f"p{len(plain) + len(traced)}"))
            layers.append(spans.reduce_spans(tracer.spans))
        else:
            plain.append(run_pass(analyses, checker, args.workload))
        now = time.perf_counter()
        if now + (now - t0) > deadline and (tracer is None or traced):
            break
    return plain, traced, layers, baseline


# -- metrics ---------------------------------------------------------------------

def _metrics(values: dict, units: dict) -> dict:
    """The declared metrics, in declaration order, with their units."""
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"metrics not computed: {sorted(missing)}")
    return {k: {"value": values[k], "unit": unit} for k, unit in units.items()}


def end_to_end(setup_times, analyses, plain) -> tuple[dict, dict]:
    summary = pass_summary(analyses, plain)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {"setup_s": statistics.median(setup_times),
              "wall_s": summary["wall_s"], "peak_rss_mb": rss_mb}
    return _metrics(values, END_TO_END_UNITS), summary


def per_layer(setup_layers, analyses, plain, traced, layers,
              checker) -> tuple[dict, dict]:
    """Per-layer metrics and the number of samples behind each."""
    untraced = pass_summary(analyses, plain)
    traced_wall = pass_summary(analyses, traced)["wall_s"]
    values = {name: statistics.median(d[name] for d in layers)
              for name in layers[0]}
    values["generators.s"] = setup_layers["generators.s"]
    values["trace.overhead_frac"] = traced_wall / untraced["wall_s"] - 1.0
    for sub in SUBCOMMANDS:
        values[f"cli.{sub}_s"] = untraced[f"{sub}_s"]
    values["ops_failed_frac"] = checker.failed / checker.attempted
    samples = dict.fromkeys(layers[0], len(layers))
    samples.update({f"cli.{sub}_s": len(plain) for sub in SUBCOMMANDS})
    samples.update({"generators.s": 1,
                    "trace.overhead_frac": len(plain) + len(traced),
                    "ops_failed_frac": checker.attempted})
    return _metrics(values, PER_LAYER_UNITS), samples


def _span_records(spans) -> list[dict]:
    ids = {id(s): i for i, s in enumerate(spans)}
    return [{"id": ids[id(s)], "name": s.name, "layer": s.layer,
             "start": s.start, "end": s.end, "probe": s.probe,
             "parent": ids.get(id(s.parent)), "thread": s.thread,
             "analysis": s.analysis,
             "attrs": {k: (v.hex() if isinstance(v, bytes) else v)
                       for k, v in s.attrs.items()}}
            for s in spans]


def _traced_run(args, workdir, checker, info, results, tag) -> dict:
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.analysis = "setup"
        try:
            manifest = corpus.write_corpus(args.workload, args.seed, workdir,
                                           args.tiny)
        finally:
            tracer.analysis = None
        setup_layers = spans.reduce_spans(tracer.spans)
        plain, traced, layers, baseline = measure(
            args, manifest, checker, tracer,
            workdir if args.workload == "spectral" else None)
    finally:
        tracer.uninstall()
    with open(results / f"{tag}-spans.json", "w") as fh:
        json.dump(_span_records(tracer.spans), fh)
    metrics, samples = per_layer(setup_layers, manifest["analyses"], plain,
                                 traced, layers, checker)
    info.update(single_thread_baseline=baseline, samples=samples,
                passes={"untraced": plain, "traced": traced})
    return metrics


def _untraced_run(args, workdir, checker, info) -> dict:
    setup_times = setup_in_children(args, workdir)
    with open(workdir / "manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    plain, _, _, _ = measure(args, manifest, checker)
    metrics, summary = end_to_end(setup_times, manifest["analyses"], plain)
    info.update(setup_times=setup_times, passes={"untraced": plain},
                samples={"setup_s": len(setup_times), "wall_s": len(plain),
                         "peak_rss_mb": 1},
                subcommands={k: v for k, v in summary.items()
                             if k != "wall_s"},
                ops_failed_frac=checker.failed / checker.attempted)
    return metrics


def run(args) -> dict:
    corpus.import_sgs()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + \
        ("-tiny" if args.tiny else "")
    workdir = WORK / f"{tag}-{os.getpid()}"
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    checker = checks.Checker()
    machine = machine_record()
    info: dict = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "tiny": args.tiny}
    try:
        if args.trace:
            metrics = _traced_run(args, workdir, checker, info, results, tag)
        else:
            metrics = _untraced_run(args, workdir, checker, info)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {"correct": checker.failed == 0,
              "attempted": checker.attempted, "failed": checker.failed,
              "metrics": metrics}
    with open(results / f"{tag}.json", "w") as fh:
        json.dump({"machine": machine, **info, **result}, fh, indent=1)
    for key in ("single_thread_baseline", "subcommands", "samples"):
        if info.get(key) is not None:
            print(json.dumps({key: info[key]}))
    print(json.dumps({"machine": machine}))
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "sgs" / "__init__.py").is_file():
        print(f"bench: no sgs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
