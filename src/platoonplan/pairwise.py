"""Scheduling of fixed routes, with either scheduler.

Both schedulers time the trucks of fixed routes through one stage whose
only product is entry times.  The scheduling model splits exactly into
parts: two trucks on a common arc are linked when their entry windows there
overlap (one sweep per arc, :attr:`FixedRoutes.meets`), and every
scheduling row touches one truck or one (arc, slot) that only trucks of one
part can use.  Each part is built and solved on its own
(:func:`schedule_by_part`); a part whose solve ends without an incumbent
rides at its earliest entry times.  A memo keyed by a part's (scheduler,
TIF spec), all that its model reads, spares a recurring part its build and
solve, even when a truck of it drives elsewhere outside the part; ``run``
keeps one for its own length, and public calls use none.

The pairwise scheduler first picks a limited set of truck pairs that share
a stretch of road and narrows each partner's departure window so both must
enter the stretch together, and then drops the size cap: the same columns
and rows, with other ``y`` bounds and slot caps.  Its pair matching and its
parts share one deadline.  Either way
:func:`~platoonplan.evaluate.assemble_timetable` splits the ``n`` trucks
entering an arc at one time into ``ceil(n / q)`` platoons and checks the
timetable once, so the plan is valid.  A call that takes a ``time_limit``
rejects a NaN or negative one with ``ValidationError`` before any work.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Sequence

from .errors import ShrinkInfeasible
from .evaluate import PlatoonSolution, _union_find_groups, assemble_timetable
from .formulations import FixedRoutes, _tif_choice, _tif_spec, build_matching, build_tif
from .instance import Instance
from .mip import OPTIMAL, SolveConfig, _check_time_limit, solve
from .network import Arc


def _deadline(time_limit):
    """The ``perf_counter`` reading ``time_limit`` seconds from now, None for
    no limit; a NaN or negative limit raises ``ValidationError``."""
    _check_time_limit(time_limit)
    return None if time_limit is None else time.perf_counter() + time_limit


def _time_left(deadline):
    """The seconds left until the ``deadline`` reading, at least 0; None for none."""
    return None if deadline is None else max(deadline - time.perf_counter(), 0.0)


def _parts(routes):
    """The independent parts of the scheduling model of ``routes``.

    Two trucks can share a slot of an arc only if their entry windows there
    overlap, so the parts are the chains of :attr:`FixedRoutes.meets`,
    joined over all arcs.  Every scheduling row touches a single truck or a
    single (arc, slot), and every truck whose window holds that slot is in
    one chain, so the model of the kept pairs is the disjoint union of its
    parts' models.  Returns ``(trucks, part_kept)`` pairs, ordered by
    smallest truck.
    """
    of_truck = defaultdict(list)
    links = []
    for arc, chain in routes.meets:
        for v in chain:
            of_truck[v].append((v, arc))
        links += zip(chain, chain[1:])
    return [
        (trucks, frozenset(pair for v in trucks for pair in of_truck[v]))
        for trucks in _union_find_groups(set(of_truck), links)
    ]


@dataclass(frozen=True)
class PartSchedule:
    """A timetable of fixed routes, scheduled one part at a time.

    ``parts`` counts the parts and ``reused`` the ones taken from the memo.
    """

    solution: PlatoonSolution
    parts: int
    reused: int


def schedule_by_part(instance, routes, relax_capacity, deadline, memo):
    """Schedule fixed routes part by part and put the timetable together.

    Each part of :func:`_parts`, a group of trucks that can meet, gets the
    model ``build_tif(instance, routes, part_kept, relax_capacity)``, built
    and solved on its own with the time left until ``deadline`` (a
    ``perf_counter`` reading; None for no limit), and yields the entry
    times of its trucks.  ``memo`` maps each part's (scheduler, TIF spec),
    ``(relax_capacity, _tif_spec(routes, part_kept))``, all that its model
    reads, to its optimal entry times: a part found there is neither built
    nor solved, and only optimal results are stored.  A part whose solve
    ends without an incumbent chooses no times, so its trucks ride at their
    earliest.  :func:`assemble_timetable` puts the timetable together from
    the entry times and checks it against ``instance`` once.
    """
    chosen: dict[tuple[int, Arc], int] = {}
    reused = 0
    parts = _parts(routes)
    for _trucks, part in parts:
        key = (relax_capacity, _tif_spec(routes, part))
        found = memo.get(key)
        if found is None:
            found, optimal = _solve_part(instance, routes, part, relax_capacity, deadline)
            if optimal:
                memo[key] = found
        else:
            reused += 1
        chosen.update(found)
    solution = assemble_timetable(instance, routes, chosen)
    return PartSchedule(solution, len(parts), reused)


def _solve_part(instance, routes, part, relax_capacity, deadline):
    """One part's entry times, and whether its solve proved them optimal."""
    model = build_tif(instance, routes, part, relax_capacity)
    res = solve(model, SolveConfig(time_limit=_time_left(deadline)))
    # a part the clock stops before its first incumbent picks no time
    return (_tif_choice(res) if res.x is not None else {}), res.status == OPTIMAL


@dataclass(frozen=True)
class PairCandidate:
    """A pair of vehicles and their best shared stretch of road.

    The stretch begins at the merge node ``segment[0][0]``, where the two
    vehicles' entry windows on ``segment[0]`` overlap; ``savings`` is what
    platooning over the whole stretch would shave off the pair's combined
    cost.
    """

    u: int
    v: int
    segment: tuple[Arc, ...]
    savings: float


def _common_runs(path_u: Sequence[Arc], path_v: Sequence[Arc]) -> list[tuple[Arc, ...]]:
    """Maximal stretches of arcs consecutive in both paths, in order."""
    pos_u = {arc: k for k, arc in enumerate(path_u)}
    runs: list[tuple[Arc, ...]] = []
    current: list[Arc] = []
    prev_k = None
    for arc in path_v:
        k = pos_u.get(arc)
        if k is not None and prev_k is not None and k == prev_k + 1:
            current.append(arc)
        else:
            if current:
                runs.append(tuple(current))
            current = [arc] if k is not None else []
        prev_k = k
    if current:
        runs.append(tuple(current))
    return runs


def enumerate_pairs(instance: Instance, routes: FixedRoutes) -> list[PairCandidate]:
    """Best joinable shared stretch for every vehicle pair that has one.

    A stretch counts only if both vehicles can be at its first node at a
    common time; each pair keeps its single highest-saving stretch.
    """
    eta = instance.eta
    cost = instance.network.cost
    vehicles = sorted(routes.paths)
    out: list[PairCandidate] = []
    for a, u in enumerate(vehicles):
        for v in vehicles[a + 1 :]:
            best: PairCandidate | None = None
            for seg in _common_runs(routes.paths[u], routes.paths[v]):
                lo_u, hi_u = routes.entry_window(u, seg[0])
                lo_v, hi_v = routes.entry_window(v, seg[0])
                if max(lo_u, lo_v) > min(hi_u, hi_v):
                    continue
                s = eta * sum(cost[arc] for arc in seg)
                if s <= 0.0:
                    continue
                if best is None or s > best.savings:
                    best = PairCandidate(u=u, v=v, segment=seg, savings=s)
            if best is not None:
                out.append(best)
    return out


def select_pairs(
    candidates: Sequence[PairCandidate],
    gamma: float,
    n_vehicles: int,
    time_limit: float | None = None,
) -> list[PairCandidate]:
    """Matching over candidates: each vehicle in at most one chosen pair,
    at most ``floor(gamma * n_vehicles)`` pairs overall, savings maximized.
    A matching that ``time_limit`` stops without an incumbent picks none.
    """
    _check_time_limit(time_limit)
    cap = math.floor(gamma * n_vehicles)
    if cap <= 0 or not candidates:
        return []
    model = build_matching(
        [(c.u, c.v, c.savings) for c in candidates], gamma, n_vehicles
    )
    res = solve(model, SolveConfig(time_limit=time_limit))
    chosen = [] if res.x is None else (res.take("w")[1] > 0.5).tolist()
    return [c for c, on in zip(candidates, chosen) if on]


def shrink_windows(
    routes: FixedRoutes, chosen: Sequence[PairCandidate]
) -> FixedRoutes:
    """Narrow each chosen pair's departure windows so that the two vehicles'
    entry windows at the merge node both become their intersection.

    A vehicle's entry window on an arc is its departure window shifted by
    the path's travel time before the arc, so each vehicle's new departure
    window is the intersection shifted back by its own offset.  Every
    intersection is taken on the windows before narrowing, so a vehicle
    listed in two pairs keeps the last one's.  Returns ``routes`` itself if
    no pair is chosen; raises :class:`ShrinkInfeasible` if an intersection
    is empty.
    """
    if not chosen:
        return routes
    depart = dict(routes.depart)
    for c in chosen:
        arc = c.segment[0]
        (lo_u, hi_u), (lo_v, hi_v) = routes.entry_window(c.u, arc), routes.entry_window(c.v, arc)
        lo, hi = max(lo_u, lo_v), min(hi_u, hi_v)
        if lo > hi:
            raise ShrinkInfeasible(
                f"vehicle {c.u} cannot meet vehicle {c.v} at node {arc[0]}: "
                f"window empties to [{lo}, {hi}]"
            )
        for me in (c.u, c.v):
            off = routes.offset[me, arc]
            depart[me] = (lo - off, hi - off)
    return FixedRoutes(paths=routes.paths, offset=routes.offset, depart=depart)


def narrow_windows(
    instance: Instance, routes: FixedRoutes, gamma: float, time_limit: float | None = None
) -> FixedRoutes:
    """Pick pairs within ``time_limit`` and narrow their windows: ``routes``
    with each chosen pair's departure windows shrunk to meet (itself if no
    pair is chosen)."""
    _check_time_limit(time_limit)
    candidates = enumerate_pairs(instance, routes)
    chosen = select_pairs(candidates, gamma, len(instance.vehicles), time_limit)
    return shrink_windows(routes, chosen)


def solve_relaxed_and_repair(
    instance: Instance,
    narrowed: FixedRoutes,
    time_limit: float | None = None,
) -> PlatoonSolution:
    """Time the narrowed routes without a convoy size cap; the only repair
    is the timetable's own rule, ``ceil(n / q)`` platoons by ascending id
    for the ``n`` vehicles entering an arc at one time.

    :func:`schedule_by_part` schedules ``narrowed`` on ``instance`` with
    the capacity relaxed, one independent part at a time; the parts share
    ``time_limit``.
    """
    return schedule_by_part(instance, narrowed, True, _deadline(time_limit), {}).solution


def schedule_with_pairwise(
    instance: Instance,
    routes: FixedRoutes,
    gamma: float = 0.2,
    time_limit: float | None = None,
) -> PlatoonSolution:
    """Full pipeline within ``time_limit``: pick pairs, narrow windows, time, split meets."""
    deadline = _deadline(time_limit)
    narrowed = narrow_windows(instance, routes, gamma, time_limit)
    return solve_relaxed_and_repair(instance, narrowed, _time_left(deadline))
