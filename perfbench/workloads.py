"""Instance families of the benchmark workloads and the gate on their plans.

Each workload is a fixed list of instance runs (jobs).  The anchors are the
ROADMAP families, identical for every seed, so that the known behaviours
stay in every run: grid 5 in icmp (43 rounds, ends on the repeat rule),
grid 9 in icmp (needs about 100 rounds before a plan repeats, so on a 2-vCPU
machine it ends on the repeat rule or on the 25 s clock depending on CPU
speed: the known defect, shown by ``converged_share`` and
``rounds_per_s``), and the hub ladder whose CPF rungs take 23, 120, 147 and
502 B&B nodes and whose 8x8/30 rung finds no incumbent in 30 s.  The seed adds one small fresh instance per
workload, drawn with that seed, so every seed also plans an input that no
change was tuned on; it is kept small so that it moves the pass time by
about one percent.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import platoonplan as pp

FIELD_LIMIT_S = 25.0
HUB_LIMIT_S = 30.0
TOL = 1e-6

# (grid seed, mode, scheduler).  All ten criterion-8 grids in three ways
# take about 3 minutes, more than a run may last; this subset keeps grid 5
# and grid 9, both iterative modes and the pairwise scheduler.
FIELD_ANCHORS = (
    (5, "icmp", "exact"),
    (5, "icmp", "pairwise"),
    (9, "icmp", "exact"),
    (9, "llcmp", "exact"),
)
FIELD_METHODS = (("icmp", "exact"), ("llcmp", "exact"), ("icmp", "pairwise"))

HUB_LADDER = ((5, 10), (6, 15), (6, 20), (7, 25), (8, 30))
HUB_FLEET_SEED = 1
# Optimal costs of the hub ladder at fleet seed 1; CPF and TSF both prove
# them, except CPF at 8x8/30, which finds no incumbent within 30 s.
HUB_OPTIMA = {(5, 10): 168.2, (6, 15): 301.2, (6, 20): 400.9, (7, 25): 614.0, (8, 30): 892.9}

@dataclass
class Job:
    """One instance run: an instance and the method that plans it."""

    name: str
    instance: pp.Instance
    method: str  # "cpf", "tsf" or "<mode>-<scheduler>" for the heuristic
    reference: float | None = None  # known optimum, if any

    @property
    def exact(self) -> bool:
        return self.method in ("cpf", "tsf")


@dataclass
class Outcome:
    """What one instance run returned, and what the gate made of it."""

    job: Job
    wall_s: float
    plan: pp.PlatoonSolution | None = None
    reported: float | None = None  # the program's own objective or best cost
    bound: float | None = None
    rounds: int = 0
    nodes: int | None = None
    status: str = ""
    converged: bool = False  # ended on the repeat rule or proved optimal
    error: str | None = None
    cost: float | None = None  # plan cost recomputed by total_cost
    baseline: float = 0.0  # every vehicle on its cheapest path, alone
    breaches: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.breaches)

    @property
    def solved(self) -> bool:
        return self.plan is not None and not self.failed

    @property
    def time_limited(self) -> bool:
        return self.error is None and not self.converged


def _hub_instance(n: int, trucks: int, seed: int) -> pp.Instance:
    net = pp.generate_grid(n, n, seed=seed)
    return pp.generate_fleet(net, trucks, seed=seed, od_mode="hub", hubs=[0, n * n - 1])


def _field_instance(n: int, trucks: int, seed: int) -> pp.Instance:
    return pp.generate_fleet(pp.generate_grid(n, n, seed=seed), trucks, seed=seed)


def make_jobs(workload: str, seed: int, quick: bool = False) -> list[Job]:
    """The workload's instance runs; ``quick`` keeps only the smallest."""
    if workload == "field":
        anchors = ((9, "llcmp", "exact"),) if quick else FIELD_ANCHORS
        grids = {g: _field_instance(10, 50, g) for g in sorted({a[0] for a in anchors})}
        jobs = [
            Job(f"grid{g}/{mode}-{sched}", grids[g], f"{mode}-{sched}")
            for g, mode, sched in anchors
        ]
        if not quick:
            fresh = _field_instance(6, 15, seed)
            jobs += [
                Job(f"seed{seed}-6x6/15/{mode}-{sched}", fresh, f"{mode}-{sched}")
                for mode, sched in FIELD_METHODS
            ]
        return jobs
    if workload in ("hub_cpf", "hub_tsf"):
        method = workload[4:]
        ladder = HUB_LADDER[:1] if quick else HUB_LADDER
        jobs = [
            Job(f"{n}x{n}/{k}", _hub_instance(n, k, HUB_FLEET_SEED), method, HUB_OPTIMA[n, k])
            for n, k in ladder
        ]
        if not quick:
            jobs.append(Job(f"seed{seed}-5x5/10", _hub_instance(5, 10, seed), method))
        return jobs
    raise ValueError(f"unknown workload {workload!r}")


def _solve_exact(instance: pp.Instance, method: str):
    if method == "cpf":
        model = pp.build_cpf(instance)
    else:
        model = pp.build_tsf(instance, pp.build_time_space(instance.network, instance))
    res = pp.solve(model, pp.SolveConfig(time_limit=HUB_LIMIT_S, gap_tol=1e-9))
    plan = pp.decode(instance, res, method) if res.objective is not None else None
    return plan, res


def solve_job(job: Job) -> Outcome:
    """Plan one instance run the way a user of the library would."""
    start = time.perf_counter()
    try:
        if job.exact:
            plan, res = _solve_exact(job.instance, job.method)
            out = Outcome(
                job, 0.0, plan, res.objective, res.bound, rounds=1,
                nodes=res.node_count, status=res.status,
                converged=res.status == "optimal",
            )
        else:
            mode, scheduler = job.method.split("-")
            cfg = pp.DecompositionConfig(
                mode=mode, scheduler=scheduler, time_limit=FIELD_LIMIT_S
            )
            plan, log = pp.run(job.instance, cfg)
            out = Outcome(
                job, 0.0, plan, log.best_cost, log.lower_bound,
                rounds=len(log.records), status=log.termination,
                converged=log.termination == "repeat",
            )
    except Exception as exc:  # a failing run is counted, the pass goes on
        out = Outcome(job, 0.0, error=f"{type(exc).__name__}: {exc}")
    out.wall_s = time.perf_counter() - start
    return out


def _reference(job: Job) -> float | None:
    """Optimum to compare an exact run against.

    Known ladder optima are constants; for the seeded rung the other
    formulation is solved here, outside the timed pass.
    """
    if job.reference is not None:
        return job.reference
    other = "tsf" if job.method == "cpf" else "cpf"
    _plan, res = _solve_exact(job.instance, other)
    return res.objective if res.status == "optimal" else None


def gate(out: Outcome) -> None:
    """Check one outcome; fills ``cost``, ``baseline`` and ``breaches``."""
    instance = out.job.instance
    out.baseline = pp.shortest_path_cost(instance)
    if out.error is not None:
        out.breaches.append(f"raised {out.error}")
        return
    if out.plan is None:
        if not out.job.exact:
            out.breaches.append("returned no plan")
        return  # an exact solve stopped by its time limit without incumbent
    report = pp.check(instance, out.plan)
    if not report.ok:
        out.breaches.append(f"plan fails check: {report.violations[0].kind}")
        return
    out.cost = pp.total_cost(instance, out.plan)
    if abs(out.cost - out.reported) > TOL:
        out.breaches.append(f"total_cost {out.cost!r} differs from reported {out.reported!r}")
    if out.bound is not None and out.bound > out.cost + TOL:
        out.breaches.append(f"bound {out.bound!r} exceeds plan cost {out.cost!r}")
    if out.job.exact and out.converged:
        ref = _reference(out.job)
        if ref is not None and abs(out.cost - ref) > TOL:
            out.breaches.append(f"optimum {out.cost!r} differs from reference {ref!r}")


def pass_metrics(outcomes: list[Outcome], wall_s: float) -> dict[str, float]:
    """End-to-end metrics of one gated pass.

    A run without a valid plan is priced at its baseline (no saving) and
    its bound, if it has none, at zero, so it shows in ``cost_ratio`` and
    ``bound_ratio`` instead of dropping out of them.  Both ratios pool the
    runs, weighting each by its cost, so the small seeded instance moves
    them little; ``mean_gap`` is the unweighted mean the report prints.
    """
    n = len(outcomes)
    costs = [o.cost if o.solved else o.baseline for o in outcomes]
    bounds = [o.bound if o.bound is not None and not o.failed else 0.0 for o in outcomes]
    gaps = [(c - b) / c for c, b in zip(costs, bounds)]
    return {
        "wall_s": wall_s,
        "rounds_per_s": sum(o.rounds for o in outcomes if not o.failed) / wall_s,
        "cost_ratio": sum(costs) / sum(o.baseline for o in outcomes),
        "bound_ratio": sum(bounds) / sum(costs),
        "solved_share": sum(o.solved for o in outcomes) / n,
        "converged_share": sum(o.converged and not o.failed for o in outcomes) / n,
        # the same facts as shares that read 0 when all is well
        "mean_gap": sum(gaps) / n,
        "failed_share": sum(not o.solved for o in outcomes) / n,
        "time_limited_share": sum(o.time_limited for o in outcomes) / n,
    }
