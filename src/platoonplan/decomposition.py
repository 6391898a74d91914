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

:mod:`platoonplan.pairwise` schedules the round's routes part by part and
checks the timetable, which alone prices the round: its savings are the
base cost of the routes minus its cost.  ``run`` keeps the stage's part
memo for its own length.

Between rounds ``run`` holds only the latest cost table.  Its
:class:`History` is one map from (arc, platoon composition, vehicle) to
the follow-up cost that scenario 4 of :func:`modify_costs` reuses, entered
for each vehicle first lured onto an arc under that composition, so a
run's memory does not grow by a table per round.  The routing model is
built once and repriced each round by
:func:`~platoonplan.formulations.price_fcnf`.

Each round's routing solve starts from its own LP, with no seeded plan;
the loop stops once the same routing solution has appeared
``repeat_limit`` times or the time budget runs out.  Each stage of a round
gets at least one second, so a run whose budget is spent before its first
round still returns that round's checked plan.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .errors import NoFeasibleSolution, ValidationError
from .evaluate import PlatoonSolution, _price
from .formulations import FixedRoutes, build_fcnf, price_fcnf, routes_from_result
from .instance import Instance
from .mip import SolveConfig, _check_time_limit, solve
from .network import Arc
from .pairwise import _deadline, _time_left, narrow_windows, schedule_by_part


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

    traversed: frozenset[Arc]
    modified: Mapping[tuple[int, Arc], float]
    scenarios: Mapping[tuple[int, Arc], int]


Composition = frozenset[frozenset[int]]


class History:
    """What finished rounds leave behind for cycle detection.

    Round ``k`` is the ``k``-th :meth:`append`, with the platoons after
    round ``k`` and the cost table written after it.  One map, keyed by
    arc, platoon composition and vehicle, holds every pair some round's
    table first tagged 3 (offered the join estimate) while the arc carried
    those platoons.  Its value is what the next round's table gave the
    pair: the follow-up cost that scenario 4 reuses, or None if that table
    did not price it.  A pair enters the map once that next table is
    appended; until then it waits in a pending list.  No table is kept, so
    memory grows with the lured pairs, not with the rounds.
    """

    def __init__(self) -> None:
        self._follow_up: dict[tuple[Arc, Composition, int], float | None] = {}
        # pairs first lured after the last round appended
        self._pending: list[tuple[Arc, Composition, int]] = []

    def append(self, compositions: Mapping[Arc, Composition], table: CostTable) -> None:
        """Record the next round: its platoons on each arc, and the table
        written after it."""
        for key in self._pending:
            arc, _comp, v = key
            self._follow_up[key] = table.modified.get((v, arc))
        self._pending = []
        for (v, arc), tag in table.scenarios.items():
            if tag == 3 and arc in compositions:
                key = (arc, compositions[arc], v)
                if key not in self._follow_up:
                    self._pending.append(key)

    def cycled_cost(self, v: int, arc: Arc, comp: Composition | None, c: float) -> float | None:
        """Scenario 4: the cost to reuse when ``arc`` carries the platoons
        ``comp`` again.

        If those exact platoons already formed after some round ``k`` and
        lured ``v`` there, the estimate would lure it straight back.  The
        cost the table written after round ``k + 1`` gave the pair, or the
        base cost ``c`` if that table did not price it, breaks the two-round
        cycle.  None if ``v`` was never lured under ``comp``, or while round
        ``k + 1`` is not on record.
        """
        key = (arc, comp, v)
        if key not in self._follow_up:
            return None
        cost = self._follow_up[key]
        return c if cost is None else cost


def _compositions(solution: PlatoonSolution) -> dict[Arc, Composition]:
    by_arc: dict[Arc, set[frozenset[int]]] = defaultdict(set)
    for (arc, _t), groups in solution.groups.items():
        for g in groups:
            if len(g) >= 2:
                by_arc[arc].add(frozenset(g))
    return {arc: frozenset(gs) for arc, gs in by_arc.items()}


def modify_costs(
    instance: Instance,
    routes: FixedRoutes,
    solution: PlatoonSolution,
    mode: str,
    history: History | None = None,
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
       reuse the follow-up cost ``history`` recorded from the table written
       after round ``k + 1``, once the lure had failed, breaking the
       two-round cycle the bait would otherwise cause.
    """
    _check_mode(mode)
    eta = instance.eta
    q = instance.q_limit
    cost = instance.network.cost

    adm = instance.admissible
    windows = instance.windows
    drivers_of = routes.vehicles_by_arc
    traversed = frozenset(drivers_of)

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
            # one key object for both maps, not two equal tuples
            key = (v, arc)
            if key in routes.offset:
                modified[key] = real_cost(c, eta, group_size[v, arc], q)
                scenarios[key] = 1
                continue

            cycled = None if history is None else history.cycled_cost(v, arc, comp_now.get(arc), c)
            if cycled is not None:
                modified[key] = cycled
                scenarios[key] = 4
                continue

            # the drivers of the arc whose entry windows overlap the truck's:
            # llcmp asks whether there is one, icmp how many there are
            lo_v, hi_v = windows[v][arc[0]]
            meets = (
                max(lo_v, lo_u) <= min(hi_v, hi_u)
                for lo_u, hi_u in (routes.entry_window(u, arc) for u in drivers_of[arc])
            )
            met = any(meets) if mode == "llcmp" else sum(meets)
            scenarios[key] = 3 if met else 2
            if mode == "llcmp":
                modified[key] = (1.0 - eta) * c
            elif not met:
                modified[key] = c
            else:
                k = 1 + met
                if q is not None:
                    k = min(q, k)
                modified[key] = (1.0 - eta) * c + eta * c / k

    return CostTable(
        traversed=traversed,
        modified=modified,
        scenarios=scenarios,
    )


def _check_mode(mode):
    if mode not in ("icmp", "llcmp"):
        raise ValidationError(f"unknown cost shaping mode {mode!r}")


@dataclass(frozen=True)
class IterationRecord:
    """What one round of :func:`run` found.

    ``routing_objective`` and ``routing_bound`` are the routing model's
    incumbent and bound at the round's shaped costs.  ``feasible_cost`` is
    the cost of the round's checked timetable, and ``scheduling_savings``
    is the base cost of the round's routes minus that cost, for both
    schedulers.  ``parts`` counts the parts of the round's scheduling model
    and ``parts_reused`` the ones the run had already solved.
    """

    index: int
    fingerprint: str
    routing_objective: float
    routing_bound: float | None
    scheduling_savings: float
    feasible_cost: float
    parts: int = 0
    parts_reused: int = 0

    def to_json_dict(self) -> dict:
        return {
            "iteration": self.index,
            "fingerprint": self.fingerprint,
            "routing_objective": self.routing_objective,
            "routing_bound": self.routing_bound,
            "scheduling_savings": self.scheduling_savings,
            "feasible_cost": self.feasible_cost,
            "parts": self.parts,
            "parts_reused": self.parts_reused,
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


def run(instance: Instance, cfg: DecompositionConfig | None = None):
    """Iterate routing and scheduling until repetition or timeout.

    Returns the best feasible :class:`PlatoonSolution` and the per-round
    log.  The first round's routing bound, taken at base costs, is a valid
    lower bound on the joint optimum.  An unknown mode or scheduler, a
    ``gamma`` outside [0, 1], a ``time_limit`` that is NaN or negative and a
    ``repeat_limit`` below 1 raise :class:`ValidationError` before any work.
    """
    cfg = cfg or DecompositionConfig()
    if cfg.scheduler not in ("exact", "pairwise"):
        raise ValidationError(f"unknown scheduler {cfg.scheduler!r}")
    _check_mode(cfg.mode)
    if not 0.0 <= cfg.gamma <= 1.0:
        raise ValidationError(f"gamma must lie in [0, 1], got {cfg.gamma}")
    _check_time_limit(cfg.time_limit)
    if not cfg.repeat_limit >= 1:
        raise ValidationError(f"repeat_limit must be at least 1, got {cfg.repeat_limit}")
    start = time.perf_counter()
    deadline = start + cfg.time_limit

    # the routing model is built once; each round only reprices it
    model = build_fcnf(instance)
    # optimal schedules of the scheduling model's parts, for this run only
    memo: dict = {}
    history = History()
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

        rres = solve(model, SolveConfig(time_limit=budget))
        if rres.objective is None:
            if n_round == 1:  # a valid instance has a plan: the clock stopped it
                raise NoFeasibleSolution(f"routing ended {rres.status} in its {budget:g} s budget")
            logbook.termination = "time"
            break
        routes = routes_from_result(instance, rres)
        if n_round == 1:
            logbook.lower_bound = rres.bound
        fp = fingerprint(routes.paths)
        seen[fp] += 1

        by_part, savings, cost = _schedule(instance, routes, cfg, deadline, memo)
        solution = by_part.solution
        logbook.records.append(
            IterationRecord(
                index=n_round,
                fingerprint=fp,
                routing_objective=rres.objective,
                routing_bound=rres.bound,
                scheduling_savings=savings,
                feasible_cost=cost,
                parts=by_part.parts,
                parts_reused=by_part.reused,
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

        table = modify_costs(instance, routes, solution, cfg.mode, history)
        price_fcnf(instance, model, table)
        history.append(_compositions(solution), table)

    logbook.wall_time = time.perf_counter() - start
    return best, logbook


def _schedule(instance, routes, cfg, deadline, memo):
    """Schedule fixed routes part by part and price the round.

    Returns the :class:`~platoonplan.pairwise.PartSchedule`, the savings
    (the routes' base cost minus the timetable's cost) and the timetable's
    cost.  The pairwise scheduler first narrows the windows of the pairs it
    picks and drops the size cap.  The stage runs until ``deadline``, or for
    one second if that has passed; its pair matching and its parts share it.
    """
    stage_deadline = max(deadline, _deadline(1.0))
    relax = cfg.scheduler == "pairwise"
    if relax:
        routes = narrow_windows(instance, routes, cfg.gamma, _time_left(stage_deadline))
    by_part = schedule_by_part(instance, routes, relax, stage_deadline, memo)
    # assemble_timetable has checked the timetable
    cost = _price(instance, by_part.solution)
    base = sum(instance.network.cost[arc] for path in routes.paths.values() for arc in path)
    return by_part, base - cost, cost
