"""Pairwise scheduling heuristic for fixed routes.

Instead of timing every vehicle jointly, this pass picks a limited set of
vehicle pairs that share a stretch of road and narrows each partner's
departure window on its fixed route so both must enter the shared stretch
together, and then times everyone with the scheduling model less its size
cap: the same columns and rows, with other ``y`` bounds and slot caps.  Only
the routes' windows change, not the instance.  The model yields entry
times; :func:`~platoonplan.evaluate.assemble_timetable` splits the ``n``
vehicles of every meet into ``ceil(n / q)`` platoons, so the plan is valid.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Sequence

from .decomposition import schedule_by_part
from .errors import ShrinkInfeasible
from .evaluate import PlatoonSolution
from .formulations import FixedRoutes, build_matching
from .instance import Instance
from .mip import SolveConfig, solve
from .network import Arc


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

    :func:`~platoonplan.decomposition.schedule_by_part` schedules
    ``narrowed`` on ``instance`` with the capacity relaxed, one independent
    part at a time; the parts share ``time_limit``.
    """
    deadline = None if time_limit is None else time.perf_counter() + time_limit
    return schedule_by_part(instance, narrowed, True, deadline, {}).solution


def schedule_with_pairwise(
    instance: Instance,
    routes: FixedRoutes,
    gamma: float = 0.2,
    time_limit: float | None = None,
) -> PlatoonSolution:
    """Full pipeline within ``time_limit``: pick pairs, narrow windows, time, split meets."""
    deadline = None if time_limit is None else time.perf_counter() + time_limit
    narrowed = narrow_windows(instance, routes, gamma, time_limit)
    left = None if deadline is None else max(deadline - time.perf_counter(), 0.0)
    return solve_relaxed_and_repair(instance, narrowed, left)
