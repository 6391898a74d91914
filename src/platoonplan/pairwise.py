"""Pairwise scheduling heuristic for fixed routes.

Instead of timing every vehicle jointly, this pass picks a limited set of
vehicle pairs that share a stretch of road, narrows each partner's entry
windows on its fixed route so both must cross the shared stretch together,
and then times everyone with a capacity-relaxed scheduling model that is far
smaller than the exact one.  Only the routes' windows change; the instance
does not.  The model yields entry times only; the timetable put together
from them splits every meet into the fewest legal convoys, so the result is
always a valid timetable for the instance.
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

    The windows are entry windows at the merge node, where the shared
    stretch begins; ``savings`` is what platooning over the whole stretch
    would shave off the pair's combined cost.
    """

    u: int
    v: int
    segment: tuple[Arc, ...]
    merge_node: int
    savings: float
    lo_u: int
    hi_u: int
    lo_v: int
    hi_v: int


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
                merge = seg[0][0]
                lo_u, hi_u = routes.entry_window(u, seg[0])
                lo_v, hi_v = routes.entry_window(v, seg[0])
                if max(lo_u, lo_v) > min(hi_u, hi_v):
                    continue
                s = eta * sum(cost[arc] for arc in seg)
                if s <= 0.0:
                    continue
                if best is None or s > best.savings:
                    best = PairCandidate(
                        u=u,
                        v=v,
                        segment=seg,
                        merge_node=merge,
                        savings=s,
                        lo_u=lo_u,
                        hi_u=hi_u,
                        lo_v=lo_v,
                        hi_v=hi_v,
                    )
            if best is not None:
                out.append(best)
    return out


def select_pairs(
    candidates: Sequence[PairCandidate], gamma: float, n_vehicles: int
) -> list[PairCandidate]:
    """Matching over candidates: each vehicle in at most one chosen pair,
    at most ``floor(gamma * n_vehicles)`` pairs overall, savings maximized.
    """
    cap = math.floor(gamma * n_vehicles)
    if cap <= 0 or not candidates:
        return []
    model = build_matching(
        [(c.u, c.v, c.savings) for c in candidates], gamma, n_vehicles
    )
    res = solve(model, SolveConfig())
    return [c for c in candidates if res.values.get(("w", c.u, c.v), 0.0) > 0.5]


def shrink_windows(
    routes: FixedRoutes, chosen: Sequence[PairCandidate]
) -> FixedRoutes:
    """Narrow each chosen pair's entry windows until the two windows at the
    merge node coincide with their intersection.

    Slack is uniform along a fixed path, so a truck's windows on every arc
    of its path move up by ``max(0, lo_other - lo_mine)`` at the start and
    down by ``max(0, hi_mine - hi_other)`` at the end, the shifts that align
    the merge-node windows.  Every shift is measured on the windows before
    narrowing, so a truck listed in two pairs keeps the last one's.  Returns
    ``routes`` itself if no pair is chosen; raises :class:`ShrinkInfeasible`
    if a window empties.
    """
    shifts: dict[int, tuple[int, int]] = {}
    for c in chosen:
        sides = ((c.u, c.v, c.lo_v, c.hi_v), (c.v, c.u, c.lo_u, c.hi_u))
        for me, other, lo_o, hi_o in sides:
            lo_m, hi_m = routes.entry_window(me, c.segment[0])
            up, down = max(0, lo_o - lo_m), max(0, hi_m - hi_o)
            if lo_m + up > hi_m - down:
                raise ShrinkInfeasible(
                    f"vehicle {me} cannot meet vehicle {other} at node "
                    f"{c.merge_node}: window empties to [{lo_m + up}, {hi_m - down}]"
                )
            shifts[me] = (up, down)
    if not shifts:
        return routes
    entry_lo = dict(routes.entry_lo)
    entry_hi = dict(routes.entry_hi)
    for v, (up, down) in shifts.items():
        for arc in routes.paths[v]:
            entry_lo[v, arc] += up
            entry_hi[v, arc] -= down
    return FixedRoutes(paths=routes.paths, entry_lo=entry_lo, entry_hi=entry_hi)


def narrow_windows(instance: Instance, routes: FixedRoutes, gamma: float) -> FixedRoutes:
    """Pick pairs and narrow their windows: ``routes`` with each chosen
    pair's entry windows shrunk to meet (itself if no pair is chosen)."""
    candidates = enumerate_pairs(instance, routes)
    chosen = select_pairs(candidates, gamma, len(instance.vehicles))
    return shrink_windows(routes, chosen)


def solve_relaxed_and_repair(
    instance: Instance,
    narrowed: FixedRoutes,
    time_limit: float | None = None,
) -> PlatoonSolution:
    """Time the narrowed routes without a convoy size cap, then put the
    timetable together against ``instance``, which splits any oversized
    meet into legal ascending-id convoys.

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
    """Full pipeline: pick pairs, narrow windows, time, repair."""
    narrowed = narrow_windows(instance, routes, gamma)
    return solve_relaxed_and_repair(instance, narrowed, time_limit)
