"""Benchmark of the platoonplan library: end-to-end and per-layer metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload field --seed 0 --seconds 10 --trace 0

Workloads (see ``workloads.py`` for the instance families):

* ``field``: criterion-8 fleets, 10x10 grids with 50 trucks, planned by the
  iterative heuristic (``run``) with a 25 s limit.  Hundreds of small
  routing and scheduling models that solve at the root node: time goes to
  arc pruning, model assembly, cost shaping and decoding.
* ``hub_cpf``: the hub ladder 5x5/10 .. 8x8/30 solved by ``build_cpf`` and
  ``solve`` with a 30 s limit per rung.  The branch and bound does nearly
  all the work.
* ``hub_tsf``: the same ladder solved by ``build_time_space``,
  ``build_tsf`` and ``solve``: one large LP per rung, no branching.

A run times whole passes over the workload's instance runs, repeating them
until ``--seconds`` have passed (at least one pass; a pass of ``field`` or
``hub_cpf`` alone takes longer than that).  After each pass, outside the
timed region, every plan is gated: it must pass ``check``, its
``total_cost`` must match the reported objective or best cost within 1e-6,
its bound may not exceed it, and exact optima must match the reference.
Breaches are printed by name and counted in ``failed``.

With ``--trace 0`` the last line of output carries the end-to-end metrics;
with ``--trace 1`` the pass runs with spans around each layer's functions
and the last line carries the per-layer metrics instead.  Every time is
wall clock (``perf_counter``); the one CPU figure, ``cpu_s``, comes from
``process_time`` and is only recorded in the result file.  Result files
and spans go to ``.perfbench/`` at the checkout root.

``--quick`` runs the 5x5/10 hub rung or field grid 9 in llcmp only; the
self-test in ``test_perfbench.py`` uses it.
"""

import os

# Pinned before numpy and scipy load: one BLAS/OpenMP thread, so that
# timings do not depend on how many cores the machine lends the run.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_SAMPLES = 3

# name -> (unit, printed meaning); the order of the report
END_TO_END = {
    "wall_s": ("s", "wall time of one pass over the instance runs"),
    "rounds_per_s": ("1/s", "heuristic rounds (one per exact solve) per second of wall_s"),
    "cost_ratio": ("ratio", "sum of plan costs / sum of shortest-path costs"),
    "bound_ratio": ("ratio", "sum of proven bounds / sum of plan costs"),
    "solved_share": ("share", "1 - failed_share"),
    "converged_share": ("share", "1 - time_limited_share"),
    "setup_s": ("s", "import platoonplan + generate the instances, median of 3"),
    "peak_rss_mb": ("MB", "peak resident set of this process"),
}
REPORT_ONLY = {
    "mean_gap": ("ratio", "mean over runs of (cost - proven bound) / cost"),
    "failed_share": ("share", "runs without a valid plan / runs attempted"),
    "time_limited_share": ("share", "runs stopped by a time limit / runs attempted"),
}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("field", "hub_cpf", "hub_tsf"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _setup(args):
    """Import the library from this checkout and generate the instances."""
    if not (SRC / "platoonplan" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no platoonplan sources under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import platoonplan  # noqa: F401
    import workloads

    jobs = workloads.make_jobs(args.workload, args.seed, args.quick)
    elapsed = time.perf_counter() - start
    if Path(platoonplan.__file__).resolve().parent != SRC / "platoonplan":
        raise SystemExit(f"perfbench: imported platoonplan from {platoonplan.__file__}")
    return elapsed, jobs


def _probe_setup(args) -> float:
    """Set-up time of a fresh interpreter, measured inside it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.quick:
        cmd.append("--quick")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def _run_pass(jobs, tracer):
    import workloads

    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        outcomes = []
        for job in jobs:
            if tracer is not None:
                tracer.run_id = job.name
            outcomes.append(workloads.solve_job(job))
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    for out in outcomes:
        workloads.gate(out)
    return outcomes, wall


def _environment(args):
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
    }


def _job_record(out):
    return {
        "run": out.job.name,
        "method": out.job.method,
        "status": out.status,
        "rounds": out.rounds,
        "nodes": out.nodes,
        "reported": out.reported,
        "cost": out.cost,
        "bound": out.bound,
        "baseline": out.baseline,
        "wall_s": out.wall_s,
        "error": out.error,
        "breaches": out.breaches,
    }


def _print_runs(outcomes):
    print(f"  {'run':<26} {'status':<24} {'rounds':>6} {'nodes':>6} "
          f"{'cost':>10} {'bound':>10} {'wall_s':>8}")
    for o in outcomes:
        cost = "-" if o.cost is None else f"{o.cost:.4f}"
        bound = "-" if o.bound is None else f"{o.bound:.4f}"
        nodes = "-" if o.nodes is None else str(o.nodes)
        print(f"  {o.job.name:<26} {o.status or 'error':<24} {o.rounds:>6} {nodes:>6} "
              f"{cost:>10} {bound:>10} {o.wall_s:>8.3f}")
        for breach in o.breaches:
            print(f"  GATE BREACH {o.job.name}: {breach}")


def _label(args):
    return f"{args.workload}{'-quick' if args.quick else ''}-seed{args.seed}"


def _trace_report(args, tracer, passes, origin, record):
    """Print the per-layer metrics, write the spans, extend ``record``."""
    from tracing import metric_names, metric_unit

    layer = tracer.metrics(sum(wall for _outcomes, wall in passes), len(passes))
    untraced = OUT_DIR / f"{_label(args)}-trace0.json"
    overhead = None
    if untraced.is_file():
        base = json.loads(untraced.read_text())["end_to_end"]["wall_s"]
        overhead = layer["trace.wall_s"] - base
    spans_path = OUT_DIR / f"{_label(args)}-spans.jsonl.gz"
    tracer.write(spans_path, origin)
    print("per-layer metrics (traced pass, per pass; the result line keeps the times"
          " of spans every workload enters):")
    for name, value in layer.items():
        print(f"  {name:<40} {value:>14.6g} {metric_unit(name)}")
    if overhead is None:
        print("  tracing overhead: no untraced result for this workload and seed; "
              "run with --trace 0 first")
    else:
        print(f"  tracing overhead: {overhead:.4f} s (traced wall_s - untraced wall_s)")
    for name in sorted(set(metric_names()) - set(layer)):
        print(f"  MISSING {name}")
    for hook, why in tracer.missing.items():
        print(f"  MISSING HOOK {hook}: {why}")
    for counter, why in tracer.broken.items():
        print(f"  MISSING COUNTER {counter}: {why}")
    print(f"  spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    record.update(
        per_layer=layer,
        tracing_overhead_s=overhead,
        missing_hooks=tracer.missing,
        broken_counters=tracer.broken,
        self_s_by_run=tracer.self_by_run(),
        spans=str(spans_path.relative_to(ROOT)),
    )
    return {name: {"value": layer[name], "unit": metric_unit(name)}
            for name in metric_names() if name in layer}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.setup_probe:
        print(f"{_setup(args)[0]!r}")
        return 0

    first_setup, jobs = _setup(args)
    setup_samples = [first_setup] + [_probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
    import workloads
    from tracing import Tracer

    tracer = Tracer() if args.trace else None
    passes = []
    cpu0 = time.process_time()
    start = time.perf_counter()
    while True:
        passes.append(_run_pass(jobs, tracer))
        if time.perf_counter() - start >= args.seconds:
            break
        jobs = workloads.make_jobs(args.workload, args.seed, args.quick)
    cpu_s = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    all_outcomes = [o for outcomes, _wall in passes for o in outcomes]
    attempted = len(all_outcomes)
    failed = sum(o.failed for o in all_outcomes)
    per_pass = [workloads.pass_metrics(outcomes, wall) for outcomes, wall in passes]
    summary = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    summary["setup_s"] = statistics.median(setup_samples)
    summary["peak_rss_mb"] = peak_rss_mb

    print(f"perfbench {args.workload} seed {args.seed}: {len(passes)} pass(es), "
          f"{attempted} instance runs, {failed} failed the gate")
    _print_runs(passes[-1][0])
    print("end-to-end metrics (median over passes; every time is wall clock)"
          + (" of the traced run; the untraced run gives the real ones:" if args.trace else ":"))
    for name, (unit, meaning) in {**END_TO_END, **REPORT_ONLY}.items():
        print(f"  {name:<20} {summary[name]:>12.6g} {unit:<6} {meaning}")

    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "environment": _environment(args),
        "setup_samples_s": setup_samples,
        "cpu_s": {"value": cpu_s, "clock": "process_time", "over": "passes and their gates"},
        "passes": [
            {"wall_s": wall, "runs": [_job_record(o) for o in outcomes]}
            for outcomes, wall in passes
        ],
        "end_to_end": summary,
    }

    if tracer is None:
        metrics = {name: {"value": summary[name], "unit": unit}
                   for name, (unit, _m) in END_TO_END.items()}
    else:
        metrics = _trace_report(args, tracer, passes, start, record)

    (OUT_DIR / f"{_label(args)}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
