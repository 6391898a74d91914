"""Iterative route-then-schedule heuristic with cost shaping.

Each round solves the fixed-charge routing model, freezes the routes, solves
the entry-time scheduling model on them, and keeps the best priced timetable
seen.  Between rounds the routing costs are reshaped on every arc someone
drove: a vehicle that was scheduled into a platoon of size ``n`` sees its
realized per-head cost there, and a vehicle that did not drive the arc sees
an estimate of what joining would cost.  Two estimate flavors exist:

* ``icmp`` charges a joiner the unit share plus an equal slice of the fixed
  share (optimistic only where windows genuinely overlap);
* ``llcmp`` charges a joiner the unit share alone, the lowest value any
  platoon member can ever pay, which steers aggressively toward sharing.

The loop stops once the same routing solution has appeared ``repeat_limit``
times or the time budget runs out.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import logging
import math
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .errors import NoFeasibleSolution
from .evaluate import PlatoonSolution, canonical_schedule, decode, total_cost
from .formulations import (
    FixedRoutes,
    _fcnf_columns,
    build_fcnf,
    build_tif,
    price_fcnf,
    routes_from_result,
    scheduling_preprocess,
)
from .instance import Instance
from .mip import SolveConfig, solve
from .network import Arc

log = logging.getLogger(__name__)


def real_cost(cost: float, eta: float, n: int, q: int | None) -> float:
    """Per-head cost on an arc driven by ``n`` vehicles in minimal groups."""
    groups = 1 if q is None else math.ceil(n / q)
    return ((1.0 - eta) * n * cost + groups * eta * cost) / n


def fingerprint(paths: Mapping[int, Sequence[Arc]]) -> str:
    """Stable key of a routing solution; vehicle order does not matter."""
    canon = tuple(sorted((v, tuple(arcs)) for v, arcs in paths.items()))
    return hashlib.sha256(repr(canon).encode("ascii")).hexdigest()


@dataclass(frozen=True)
class CostTable:
    """Per-vehicle routing coefficients for arcs driven last round.

    Arcs outside ``traversed`` keep the base fixed/unit split; every
    admissible (vehicle, arc) pair inside it carries one shaped coefficient
    in ``modified`` and the scenario tag (1-4) that produced it.
    """

    iteration: int
    traversed: frozenset[Arc]
    modified: Mapping[tuple[int, Arc], float]
    scenarios: Mapping[tuple[int, Arc], int]


@dataclass(frozen=True)
class HistoryEntry:
    """What one finished round leaves behind for cycle detection."""

    compositions: Mapping[Arc, frozenset[frozenset[int]]]
    table: CostTable


def _compositions(solution: PlatoonSolution) -> dict[Arc, frozenset[frozenset[int]]]:
    by_arc: dict[Arc, set[frozenset[int]]] = defaultdict(set)
    for (arc, _t), groups in solution.groups.items():
        for g in groups:
            if len(g) >= 2:
                by_arc[arc].add(frozenset(g))
    return {arc: frozenset(gs) for arc, gs in by_arc.items()}


def modify_costs(
    instance: Instance,
    prev: CostTable | None,
    routes: FixedRoutes,
    solution: PlatoonSolution,
    mode: str,
    history: Sequence[HistoryEntry] = (),
) -> CostTable:
    """Shape next-round routing costs from this round's schedule.

    Exactly one scenario applies per admissible (vehicle, arc-driven) pair:

    1. the vehicle drove the arc: its realized per-head cost there;
    2. it did not, and its window cannot meet any of the arc's drivers:
       the full arc cost (``icmp``) or the unit share (``llcmp``);
    3. it did not, but windows overlap: unit share plus an equal slice of
       the fixed share (``icmp``) or the unit share (``llcmp``);
    4. the platoons on the arc repeat an earlier round's composition that
       already lured this vehicle (its tag was 3 right after round ``k``):
       reuse the cost from the round after the lure failed, breaking the
       two-round cycle the bait would otherwise cause.
    """
    if mode not in ("icmp", "llcmp"):
        raise ValueError(f"unknown cost shaping mode {mode!r}")
    eta = instance.eta
    q = instance.q_limit
    cost = instance.network.cost
    n_round = (prev.iteration + 1) if prev is not None else 1

    adm = instance.admissible
    windows = instance.windows
    traversed = frozenset(routes.arc_union)
    vehicles_on = {arc: frozenset(vs) for arc, vs in routes.vehicles_by_arc.items()}

    group_size: dict[tuple[int, Arc], int] = {}
    for (arc, _t), groups in solution.groups.items():
        for g in groups:
            for v in g:
                group_size[v, arc] = len(g)

    comp_now = _compositions(solution)

    modified: dict[tuple[int, Arc], float] = {}
    scenarios: dict[tuple[int, Arc], int] = {}
    for v in range(len(instance.vehicles)):
        for arc in adm[v]:
            if arc not in traversed:
                continue
            c = cost[arc]
            # one key object for both maps: run keeps every round's table
            key = (v, arc)
            drivers = vehicles_on[arc]
            if v in drivers:
                modified[key] = real_cost(c, eta, group_size[v, arc], q)
                scenarios[key] = 1
                continue

            lo_v, hi_v = windows[v][arc[0]]
            meet = [
                u
                for u in drivers
                if max(lo_v, routes.entry_lo[u, arc]) <= min(hi_v, routes.entry_hi[u, arc])
            ]

            cycled = _cycled_cost(v, arc, c, comp_now, history)
            if cycled is not None:
                modified[key] = cycled
                scenarios[key] = 4
            elif mode == "llcmp":
                modified[key] = (1.0 - eta) * c
                scenarios[key] = 3 if meet else 2
            elif not meet:
                modified[key] = c
                scenarios[key] = 2
            else:
                k = 1 + len(meet)
                if q is not None:
                    k = min(q, k)
                modified[key] = (1.0 - eta) * c + eta * c / k
                scenarios[key] = 3

    return CostTable(
        iteration=n_round,
        traversed=traversed,
        modified=modified,
        scenarios=scenarios,
    )


def _cycled_cost(v, arc, c, comp_now, history):
    """Scenario 4: cost to reuse when a platoon composition repeats.

    If the exact platoons driving ``arc`` now already formed after some
    round ``k``, and this vehicle was then offered the join estimate but
    rerouted away, the estimate would lure it straight back.  Reusing the
    cost it saw one round later breaks that two-round cycle.
    """
    now = comp_now.get(arc)
    if not now or not history:
        return None
    for k, entry in enumerate(history, start=1):
        if entry.compositions.get(arc) != now:
            continue
        if entry.table.scenarios.get((v, arc)) != 3:
            continue
        if k < len(history):
            # history[k] holds the table written after round k + 1,
            # which is exactly what round k + 2 priced this pair at
            return history[k].table.modified.get((v, arc), c)
        log.debug(
            "composition on %s repeats round %d but its follow-up cost is "
            "not recorded yet; falling back to the overlap rule",
            arc,
            k,
        )
        return None
    return None


@dataclass(frozen=True)
class IterationRecord:
    index: int
    fingerprint: str
    routing_objective: float
    routing_bound: float | None
    scheduling_savings: float
    feasible_cost: float

    def to_json_dict(self) -> dict:
        return {
            "iteration": self.index,
            "fingerprint": self.fingerprint,
            "routing_objective": self.routing_objective,
            "routing_bound": self.routing_bound,
            "scheduling_savings": self.scheduling_savings,
            "feasible_cost": self.feasible_cost,
        }


@dataclass
class IterationLog:
    records: list[IterationRecord] = field(default_factory=list)
    best_cost: float = math.inf
    best_iteration: int = 0
    lower_bound: float | None = None
    termination: str = ""
    wall_time: float = 0.0

    def to_jsonl(self) -> str:
        lines = [json.dumps(r.to_json_dict(), sort_keys=True) for r in self.records]
        lines.append(
            json.dumps(
                {
                    "summary": {
                        "best_cost": self.best_cost,
                        "best_iteration": self.best_iteration,
                        "lower_bound": self.lower_bound,
                        "termination": self.termination,
                        "wall_time": self.wall_time,
                    }
                },
                sort_keys=True,
            )
        )
        return "\n".join(lines) + "\n"


@dataclass
class DecompositionConfig:
    mode: str = "icmp"
    time_limit: float = 1800.0
    repeat_limit: int = 3
    scheduler: str = "exact"  # or "pairwise"
    gamma: float = 0.2
    routing_gap: float = 1e-9
    scheduling_gap: float = 1e-9


def _dijkstra(out_arcs, weights, source):
    dist = {source: 0.0}
    prev_arc: dict[int, Arc] = {}
    heap = [(0.0, source)]
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist.get(node, math.inf):
            continue
        for arc in out_arcs.get(node, ()):
            nd = d + weights[arc]
            if nd < dist.get(arc[1], math.inf) - 1e-15:
                dist[arc[1]] = nd
                prev_arc[arc[1]] = arc
                heapq.heappush(heap, (nd, arc[1]))
    return dist, prev_arc


def _trace(prev_arc, source, dest):
    path = []
    node = dest
    while node != source:
        arc = prev_arc[node]
        path.append(arc)
        node = arc[0]
    return tuple(reversed(path))


def _warm_routing(instance, table):
    """Feasible routing start: per-vehicle cheapest path, time-safe fallback.

    Returns a complete 0/1 assignment for the routing model's variables,
    keyed by variable index in :func:`build_fcnf`'s column order.
    """
    adm = instance.admissible
    tt = instance.network.travel_time
    cost = instance.network.cost
    shaped = table.traversed if table is not None else frozenset()
    used: dict[int, set[Arc]] = {}
    for v, veh in enumerate(instance.vehicles):
        out_arcs: dict[int, list[Arc]] = defaultdict(list)
        for arc in sorted(adm[v]):
            out_arcs[arc[0]].append(arc)
        coefs = {}
        for arc in adm[v]:
            if arc in shaped:
                coefs[arc] = table.modified[v, arc]
            else:
                coefs[arc] = cost[arc]  # pessimistic: pay the fixed share too
        window = veh.latest_arrival - veh.earliest_departure
        _dist, prev_arc = _dijkstra(out_arcs, coefs, veh.origin)
        path = None
        if veh.dest in prev_arc:
            cheap = _trace(prev_arc, veh.origin, veh.dest)
            if sum(tt[a] for a in cheap) <= window:
                path = cheap
        if path is None:
            twts = {arc: float(tt[arc]) for arc in adm[v]}
            _d2, prev2 = _dijkstra(out_arcs, twts, veh.origin)
            path = _trace(prev2, veh.origin, veh.dest)
        used[v] = set(path)
    union, xkeys = _fcnf_columns(instance)
    union_used = set().union(*used.values())
    warm = {i: float(arc in union_used) for i, arc in enumerate(union)}
    warm.update({i: float(arc in used[v]) for i, (v, arc) in enumerate(xkeys, start=len(union))})
    return warm


def _warm_schedule(instance, routes, kept):
    """Everyone-earliest start for the scheduling model."""
    warm: dict[str, float] = {}
    slot_count: Counter = Counter()
    q = instance.q_limit
    for v, arc in kept:
        lo, hi = routes.entry_window(v, arc)
        for tm in range(lo, hi + 1):
            warm[f"x_{arc[0]}_{arc[1]}_{v}_{tm}"] = 1.0 if tm == lo else 0.0
        slot_count[arc, lo] += 1
    users: dict[tuple[Arc, int], int] = defaultdict(int)
    for v, arc in kept:
        lo, hi = routes.entry_window(v, arc)
        for tm in range(lo, hi + 1):
            users[arc, tm] += 1
    for (arc, tm) in users:
        n = slot_count.get((arc, tm), 0)
        cap = q if q is not None else max(n, 1)
        warm[f"y_{arc[0]}_{arc[1]}_{tm}"] = float(math.ceil(n / cap)) if n else 0.0
    return warm


def run(instance: Instance, cfg: DecompositionConfig | None = None):
    """Iterate routing and scheduling until repetition or timeout.

    Returns the best feasible :class:`PlatoonSolution` and the per-round
    log.  The first round's routing bound, taken at base costs, is a valid
    lower bound on the joint optimum.
    """
    cfg = cfg or DecompositionConfig()
    if cfg.scheduler not in ("exact", "pairwise"):
        raise ValueError(f"unknown scheduler {cfg.scheduler!r}")
    start = time.perf_counter()
    deadline = start + cfg.time_limit

    # the routing model is built once; each round only reprices it
    model = build_fcnf(instance, None)
    table: CostTable | None = None
    history: list[HistoryEntry] = []
    seen: Counter = Counter()
    logbook = IterationLog()
    best: PlatoonSolution | None = None

    n_round = 0
    while True:
        n_round += 1
        remaining = deadline - time.perf_counter()
        if remaining <= 0 and n_round > 1:
            logbook.termination = "time"
            break
        budget = max(remaining, 1.0)

        warm = _warm_routing(instance, table)
        rres = solve(
            model,
            SolveConfig(time_limit=budget, gap_tol=cfg.routing_gap, warm_start=warm),
        )
        if rres.objective is None:
            if n_round == 1:
                raise NoFeasibleSolution("routing stage found no plan at all")
            logbook.termination = "time"
            break
        routes = routes_from_result(instance, rres)
        if n_round == 1:
            logbook.lower_bound = rres.bound
        fp = fingerprint(routes.paths)
        seen[fp] += 1

        solution, savings = _schedule(instance, routes, cfg, deadline)
        cost = total_cost(instance, solution)
        logbook.records.append(
            IterationRecord(
                index=n_round,
                fingerprint=fp,
                routing_objective=rres.objective,
                routing_bound=rres.bound,
                scheduling_savings=savings,
                feasible_cost=cost,
            )
        )
        if cost < logbook.best_cost - 1e-12:
            logbook.best_cost = cost
            logbook.best_iteration = n_round
            best = solution

        if seen[fp] >= cfg.repeat_limit:
            logbook.termination = "repeat"
            break
        if time.perf_counter() >= deadline:
            logbook.termination = "time"
            break

        table = modify_costs(instance, table, routes, solution, cfg.mode, history)
        price_fcnf(instance, model, table)
        history.append(HistoryEntry(compositions=_compositions(solution), table=table))

    if best is None:
        raise NoFeasibleSolution("no round produced a feasible timetable")
    logbook.wall_time = time.perf_counter() - start
    return best, logbook


def _schedule(instance, routes, cfg, deadline):
    """Schedule fixed routes; returns (solution, achieved savings)."""
    if cfg.scheduler == "pairwise":
        from .pairwise import schedule_with_pairwise

        budget = max(deadline - time.perf_counter(), 1.0)
        solution = schedule_with_pairwise(instance, routes, cfg.gamma, budget)
        base = sum(
            instance.network.cost[arc]
            for path in routes.paths.values()
            for arc in path
        )
        return solution, base - total_cost(instance, solution)

    kept, _alone = scheduling_preprocess(instance, routes)
    if not kept:
        return canonical_schedule(instance, routes), 0.0
    model = build_tif(instance, routes, kept)
    budget = max(deadline - time.perf_counter(), 1.0)
    sres = solve(
        model,
        SolveConfig(
            time_limit=budget,
            gap_tol=cfg.scheduling_gap,
            warm_start=_warm_schedule(instance, routes, kept),
        ),
    )
    if sres.objective is None:
        return canonical_schedule(instance, routes), 0.0
    solution = decode(instance, sres, "tif", routes=routes)
    return solution, sres.objective
