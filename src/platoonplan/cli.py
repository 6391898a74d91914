"""Command line front end.

Four subcommands cover the workflow end to end: ``gen`` writes synthetic
instances, ``solve`` runs one method on one instance, ``check`` validates a
saved timetable, and ``bench`` sweeps a manifest of runs into a CSV table.
Exit codes: 0 on success, 1 when ``check`` finds violations, 2 on bad input
or solver-level failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from .decomposition import DecompositionConfig, run
from .errors import ParseError, PlatoonPlanError, ValidationError
from .evaluate import (
    PlatoonSolution,
    check,
    decode,
    indicators,
    shortest_path_cost,
    total_cost,
)
from .formulations import build_cpf, build_tsf
from .instance import (
    Instance,
    generate_fleet,
    instance_text,
    load_instance,
    save_instance,
)
from .mip import SolveConfig, lp_text, solve
from .network import build_time_space, generate_grid, load_network

# each method: None for an exact model, else the iterative (mode, scheduler)
_METHODS = {
    "cpf": None,
    "tsf": None,
    "iheur": ("icmp", "exact"),
    "lliter": ("llcmp", "exact"),
    "pairwise": ("icmp", "pairwise"),
}
_DEFAULTS = DecompositionConfig()


def _parse_q(text: str) -> int | None:
    if text == "inf":
        return None
    return int(text)


def _parse_grid(text: str) -> tuple[int, int]:
    rows, _, cols = text.partition("x")
    try:
        return int(rows), int(cols)
    except ValueError:
        raise ValidationError(f"--grid expects ROWSxCOLS, got {text!r}") from None


def _parse_hubs(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(h) for h in text.split(","))
    except ValueError:
        raise ValidationError(f"--hubs expects comma separated node ids, got {text!r}") from None


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.grid is not None:
        rows, cols = _parse_grid(args.grid)
        net = generate_grid(rows, cols, seed=args.seed)
    else:
        net = load_network(args.network)
    hubs = None
    if args.od_mode == "hub":
        if not args.hubs:
            raise PlatoonPlanError("hub mode needs --hubs")
        hubs = _parse_hubs(args.hubs)
    instance = generate_fleet(
        net,
        args.vehicles,
        seed=args.seed,
        od_mode=args.od_mode,
        hubs=hubs,
        hub_share=args.hub_share,
        eta=args.eta,
        q_limit=args.q,
        time_unit=args.tu,
        horizon=args.horizon,
    )
    if args.out == "-":
        sys.stdout.write(instance_text(instance))
    else:
        save_instance(instance, args.out)
    return 0


def _plan(instance: Instance, method: str, time_limit: float, repeat_limit: int,
          gamma: float, dump_model=None):
    """Plan ``instance`` with ``method``.

    Returns the plan, its cost, a lower bound, the status and, for the
    iterative methods, the round log.
    """
    heuristic = _METHODS[method]
    if heuristic is not None:
        mode, scheduler = heuristic
        cfg = DecompositionConfig(
            mode=mode,
            time_limit=time_limit,
            repeat_limit=repeat_limit,
            scheduler=scheduler,
            gamma=gamma,
        )
        solution, logbook = run(instance, cfg)
        status = "heuristic-" + logbook.termination
        return solution, logbook.best_cost, logbook.lower_bound, status, logbook
    if method == "cpf":
        model = build_cpf(instance)
    else:
        model = build_tsf(instance, build_time_space(instance.network, instance))
    if dump_model:
        with open(dump_model, "w", encoding="ascii") as fh:
            fh.write(lp_text(model))
    res = solve(model, SolveConfig(time_limit=time_limit, gap_tol=1e-9))
    if res.objective is None:
        raise PlatoonPlanError(f"{method} found no timetable: {res.status}")
    # the plan's cost, as check prints it; a TSF incumbent may pay for more platoons
    solution = decode(instance, res, method)
    return solution, total_cost(instance, solution), res.bound, res.status, None


def _cmd_solve(args: argparse.Namespace) -> int:
    if args.dump_model and _METHODS[args.method] is not None:
        raise PlatoonPlanError(
            f"--dump-model needs --method cpf or tsf; {args.method} solves "
            "a routing and a scheduling model every round"
        )
    instance = load_instance(args.instance)
    start = time.perf_counter()
    solution, obj, bound, status, logbook = _plan(
        instance, args.method, args.time_limit, args.repeat_limit, args.gamma, args.dump_model
    )
    elapsed = time.perf_counter() - start

    stats = indicators(instance, obj, bound)
    summary = {
        "method": args.method,
        "status": status,
        "objective": obj,
        "bound": bound,
        "wall_time": elapsed,
        **stats,
    }
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.solution:
        with open(args.solution, "w", encoding="ascii") as fh:
            json.dump(solution.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.log and logbook is not None:
        with open(args.log, "w", encoding="ascii") as fh:
            fh.write(logbook.to_jsonl())

    sav = stats["saving_ratio"]
    gap = stats["relative_gap"]
    print(
        f"method={args.method} status={status} objective={obj:.6g} "
        f"bound={'-' if bound is None else format(bound, '.6g')} "
        f"saving={'-' if sav is None else format(100 * sav, '.2f') + '%'} "
        f"gap={'-' if gap is None else format(gap, '.3g')} "
        f"time={elapsed:.2f}s"
    )
    return 0


def _load_json(path: str):
    with open(path, "r", encoding="ascii") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise ParseError(f"{path}: not JSON: {exc}") from None


def _cmd_check(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    solution = PlatoonSolution.from_json_dict(_load_json(args.solution))
    report = check(instance, solution)
    if report.ok:
        cost = total_cost(instance, solution)
        spc = shortest_path_cost(instance)
        print(f"ok cost={cost:.6g} spc={spc:.6g}")
        return 0
    for v in report.violations:
        print(f"violation {v.kind}: {v.detail}")
    return 1


def _bench_row(row: dict) -> dict:
    """One manifest row solved; always returns a CSV record."""
    path = row["instance"]
    method = row["method"]
    label = row.get("label") or path.rsplit("/", 1)[-1].rsplit(".", 1)[0]
    record = {
        "net": label,
        "V": "",
        "Q": "",
        "TU": "",
        "method": method,
        "gap": "",
        "cpu_s": "",
        "sav": "",
    }
    # CPU seconds of this process, the figure the paper's tables report
    start = time.process_time()
    try:
        instance = load_instance(path)
        record["V"] = len(instance.vehicles)
        record["Q"] = "inf" if instance.q_limit is None else instance.q_limit
        record["TU"] = f"{instance.time_unit:.6g}"
        _sol, obj, bound, _status, _log = _plan(
            instance,
            method,
            float(row.get("time_limit", 60.0)),
            int(row.get("repeat_limit", _DEFAULTS.repeat_limit)),
            float(row.get("gamma", _DEFAULTS.gamma)),
        )
        stats = indicators(instance, obj, bound)
        record["cpu_s"] = f"{time.process_time() - start:.3f}"
        if stats["relative_gap"] is not None:
            record["gap"] = f"{stats['relative_gap']:.6g}"
        if stats["saving_ratio"] is not None:
            record["sav"] = f"{stats['saving_ratio']:.6g}"
    except Exception as exc:  # a broken row must not sink the sweep
        record["cpu_s"] = f"{time.process_time() - start:.3f}"
        record["error"] = f"{type(exc).__name__}: {exc}"
    return record


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise ValidationError(f"--jobs must be at least 1, got {args.jobs}")
    rows = _load_json(args.manifest)
    if not isinstance(rows, list):
        raise PlatoonPlanError("manifest must be a JSON list of run rows")
    for row in rows:
        if not isinstance(row, dict):
            raise ParseError(f"manifest rows must be JSON objects, got {row!r}")
        if "instance" not in row or "method" not in row:
            raise PlatoonPlanError("each row needs 'instance' and 'method'")
        if row["method"] not in _METHODS:
            raise PlatoonPlanError(f"unknown method {row['method']!r}")

    # the pool starts all of its workers at the first submit, so it gets no
    # more than there are rows
    workers = min(args.jobs, len(rows))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_bench_row, rows))
    else:
        records = [_bench_row(row) for row in rows]

    fields = ["net", "V", "Q", "TU", "method", "gap", "cpu_s", "sav"]
    with open(args.out, "w", encoding="ascii", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, extrasaction="ignore")
        writer.writeheader()
        for record in records:
            writer.writerow(record)
    failures = [r for r in records if "error" in r]
    for r in failures:
        print(f"row failed: net={r['net']} method={r['method']} {r['error']}",
              file=sys.stderr)
    print(f"wrote {len(records)} rows to {args.out}"
          + (f" ({len(failures)} failed)" if failures else ""))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="platoonplan",
        description="Joint routing and platoon scheduling for truck fleets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic instance")
    src = gen.add_mutually_exclusive_group(required=True)
    src.add_argument("--grid", help="grid size as ROWSxCOLS, e.g. 10x10")
    src.add_argument("--network", help="read the road network from a file")
    gen.add_argument("--vehicles", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--eta", type=float, default=0.1)
    gen.add_argument("--q", type=_parse_q, default=5,
                     help="platoon size cap, or 'inf' for none")
    gen.add_argument("--tu", type=float, default=10.0,
                     help="minutes represented by one time step")
    gen.add_argument("--horizon", type=int, default=144)
    gen.add_argument("--od-mode", choices=("uniform", "hub"), default="uniform")
    gen.add_argument("--hubs", help="comma separated hub nodes for hub mode")
    gen.add_argument("--hub-share", type=float, default=0.75)
    gen.add_argument("-o", "--out", default="-",
                     help="output file, '-' for stdout")
    gen.set_defaults(func=_cmd_gen)

    slv = sub.add_parser("solve", help="solve one instance with one method")
    slv.add_argument("instance")
    slv.add_argument("--method", choices=_METHODS, required=True)
    slv.add_argument("--time-limit", type=float, default=60.0)
    slv.add_argument("--gamma", type=float, default=_DEFAULTS.gamma,
                     help="pairing budget as a share of the fleet")
    slv.add_argument("--repeat-limit", type=int, default=_DEFAULTS.repeat_limit)
    slv.add_argument("--out", help="write a JSON run summary here")
    slv.add_argument("--solution", help="write the timetable as JSON here")
    slv.add_argument("--log", help="write per-round JSON lines here")
    slv.add_argument("--dump-model", metavar="PATH",
                     help="write the cpf/tsf model as LP text here before solving")
    slv.set_defaults(func=_cmd_solve)

    chk = sub.add_parser("check", help="validate a saved timetable")
    chk.add_argument("instance")
    chk.add_argument("solution")
    chk.set_defaults(func=_cmd_check)

    ben = sub.add_parser("bench", help="run a manifest of solves into CSV")
    ben.add_argument("manifest")
    ben.add_argument("-o", "--out", required=True)
    ben.add_argument("--jobs", type=int, default=1)
    ben.set_defaults(func=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PlatoonPlanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
