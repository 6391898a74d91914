"""Timetable container, feasibility checking, costing, and MIP decoding.

A :class:`PlatoonSolution` is the common currency between all solution
methods: per-vehicle timed paths plus, for every (arc, entry time) slot, a
partition of the vehicles entering there into platoons.  ``check`` validates
one against an instance, ``total_cost`` prices it, and ``decode`` builds one
from a solver incumbent of any of the model families.

The time-space and scheduling decoders, and the heuristic's timetables,
read only each vehicle's timed path; one rule then forms their platoons,
``ceil(n / q)`` per slot by ascending id (:func:`split_groups`).  The
continuous-time decoder keeps the model's own pairing links instead: its
entry times are continuous, and its objective prices exactly the platoons
those links form.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import DecodeInconsistent, InvalidSolution, ParseError
from .formulations import FixedRoutes, _x_paths
from .instance import Instance

Arc = tuple[int, int]

_TIME_TOL = 1e-6


@dataclass(frozen=True)
class PlatoonSolution:
    """Timed paths and the platoon partition at every occupied slot.

    ``paths[v]`` is the ordered tuple of ``(arc, entry_time)`` legs of
    vehicle ``v``; ``groups[arc, time]`` partitions exactly the vehicles
    entering that arc at that time into platoons, each sorted ascending so
    the smallest id leads.
    """

    paths: Mapping[int, tuple[tuple[Arc, float], ...]]
    groups: Mapping[tuple[Arc, float], tuple[tuple[int, ...], ...]]

    def to_json_dict(self) -> dict:
        return {
            "vehicles": {
                str(v): [[arc[0], arc[1], t] for arc, t in legs]
                for v, legs in sorted(self.paths.items())
            },
            "platoons": [
                {
                    "arc": [arc[0], arc[1]],
                    "time": t,
                    "groups": [list(g) for g in gs],
                }
                for (arc, t), gs in sorted(self.groups.items())
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "PlatoonSolution":
        """Read what :meth:`to_json_dict` writes; any other shape raises
        :class:`ParseError`."""
        try:
            paths = {
                int(v): tuple(((_int(i), _int(j)), _time(t)) for i, j, t in legs)
                for v, legs in data.get("vehicles", {}).items()
            }
            groups = {
                ((_int(rec["arc"][0]), _int(rec["arc"][1])), _time(rec["time"])): tuple(
                    tuple(map(_int, g)) for g in rec["groups"]
                )
                for rec in data.get("platoons", [])
            }
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed timetable: {exc}") from None
        return cls(paths=paths, groups=groups)


def _int(x) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"expected an integer, got {x!r}")
    return x


def _time(x) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ValueError(f"expected a time, got {x!r}")
    return x


@dataclass(frozen=True)
class Violation:
    kind: str
    detail: str
    vehicle: int | None = None
    arc: Arc | None = None


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "violations": [
                {
                    "kind": v.kind,
                    "detail": v.detail,
                    "vehicle": v.vehicle,
                    "arc": list(v.arc) if v.arc else None,
                }
                for v in self.violations
            ],
        }


def check(instance: Instance, sol: PlatoonSolution) -> ValidationReport:
    """Validate paths, timing, and platoon structure against an instance.

    Times are compared with tolerance 1e-6 (continuous-time models report
    floats), except group membership, which requires the stored entry time
    and the group's slot key to agree exactly.
    """
    net = instance.network
    tt = net.travel_time
    bad: list[Violation] = []

    expected = set(range(len(instance.vehicles)))
    got = set(sol.paths)
    for v in sorted(expected - got):
        bad.append(Violation("missing-vehicle", f"vehicle {v} has no path", vehicle=v))
    for v in sorted(got - expected):
        bad.append(Violation("unknown-vehicle", f"vehicle {v} is not in the fleet", vehicle=v))

    traversals: dict[tuple[Arc, float], set[int]] = defaultdict(set)
    for v in sorted(got & expected):
        veh = instance.vehicles[v]
        legs = sol.paths[v]
        if not legs:
            bad.append(Violation("empty-path", f"vehicle {v} drives nowhere", vehicle=v))
            continue
        node = veh.origin
        seen = {node}
        ok_path = True
        for arc, _t in legs:
            if arc not in net.cost:
                bad.append(Violation("arc-missing", f"vehicle {v} uses unknown arc {arc}", v, arc))
                ok_path = False
                break
            if arc[0] != node:
                bad.append(Violation("path-broken", f"vehicle {v} jumps to arc {arc}", v, arc))
                ok_path = False
                break
            node = arc[1]
            if node in seen:
                bad.append(Violation("path-revisit", f"vehicle {v} revisits node {node}", v, arc))
                ok_path = False
                break
            seen.add(node)
        if ok_path and node != veh.dest:
            bad.append(
                Violation("wrong-destination", f"vehicle {v} ends at {node}, not {veh.dest}", v)
            )
            ok_path = False
        if not ok_path:
            continue

        if legs[0][1] < veh.earliest_departure - _TIME_TOL:
            bad.append(
                Violation(
                    "window-departure",
                    f"vehicle {v} departs at {legs[0][1]} before {veh.earliest_departure}",
                    v,
                )
            )
        for (arc_a, t_a), (arc_b, t_b) in zip(legs, legs[1:]):
            if t_b < t_a + tt[arc_a] - _TIME_TOL:
                bad.append(
                    Violation(
                        "travel-time",
                        f"vehicle {v} enters {arc_b} at {t_b}, needs {t_a} + {tt[arc_a]}",
                        v,
                        arc_b,
                    )
                )
        last_arc, last_t = legs[-1]
        if last_t + tt[last_arc] > veh.latest_arrival + _TIME_TOL:
            bad.append(
                Violation(
                    "window-arrival",
                    f"vehicle {v} arrives at {last_t + tt[last_arc]} after {veh.latest_arrival}",
                    v,
                )
            )
        for arc, t in legs:
            traversals[arc, t].add(v)

    q = instance.q_limit
    covered: dict[tuple[Arc, float], set[int]] = defaultdict(set)
    for (arc, t), groups in sorted(sol.groups.items()):
        here = traversals.get((arc, t), set())
        for g in groups:
            if not g:
                bad.append(Violation("empty-group", f"empty group at {arc} t={t}", arc=arc))
                continue
            if list(g) != sorted(g):
                bad.append(
                    Violation(
                        "leader",
                        f"group {g} at {arc} t={t} is not led by its smallest id",
                        arc=arc,
                    )
                )
            if q is not None and len(g) > q:
                bad.append(
                    Violation(
                        "group-size", f"group {g} at {arc} t={t} exceeds cap {q}", arc=arc
                    )
                )
            for v in g:
                if v in covered[arc, t]:
                    bad.append(
                        Violation(
                            "group-duplicate",
                            f"vehicle {v} appears twice at {arc} t={t}",
                            v,
                            arc,
                        )
                    )
                if v not in here:
                    bad.append(
                        Violation(
                            "group-membership",
                            f"vehicle {v} grouped at {arc} t={t} but not driving there then",
                            v,
                            arc,
                        )
                    )
                covered[arc, t].add(v)

    for (arc, t), here in sorted(traversals.items()):
        missing = here - covered.get((arc, t), set())
        for v in sorted(missing):
            bad.append(
                Violation(
                    "uncovered-traversal",
                    f"vehicle {v} at {arc} t={t} belongs to no group",
                    v,
                    arc,
                )
            )

    return ValidationReport(ok=not bad, violations=tuple(bad))


def total_cost(instance: Instance, sol: PlatoonSolution) -> float:
    """Fleet cost of a valid timetable: every follower saves the eta share."""
    report = check(instance, sol)
    if not report.ok:
        raise InvalidSolution(
            f"solution fails validation ({report.violations[0].kind})", report
        )
    return _price(instance, sol)


def _price(instance: Instance, sol: PlatoonSolution) -> float:
    """The cost :func:`total_cost` gives a timetable already checked."""
    eta = instance.eta
    cost = instance.network.cost
    total = 0.0
    for (arc, _t), groups in sol.groups.items():
        c = cost[arc]
        for g in groups:
            total += c * (len(g) - eta * (len(g) - 1))
    return total


def shortest_path_cost(instance: Instance) -> float:
    """Fleet cost if every vehicle drives its cheapest path alone."""
    sc = instance.network.shortest_costs
    return float(sum(sc[veh.origin, veh.dest] for veh in instance.vehicles))


def indicators(
    instance: Instance,
    objective: float,
    bound: float | None = None,
    optimum: float | None = None,
) -> dict:
    """Quality ratios; fields whose denominator is zero come back as None."""
    spc = shortest_path_cost(instance)
    out = {
        "objective": objective,
        "bound": bound,
        "spc": spc,
        "saving_ratio": None,
        "ub_saving_ratio": None,
        "relative_gap": None,
        "optimality_gap": None,
    }
    if spc != 0.0:
        out["saving_ratio"] = abs(spc - objective) / spc
        if bound is not None:
            out["ub_saving_ratio"] = abs(spc - bound) / spc
    if bound is not None and bound != 0.0:
        out["relative_gap"] = abs(objective - bound) / abs(bound)
    if optimum is not None and optimum != 0.0:
        out["optimality_gap"] = abs(objective - optimum) / abs(optimum)
    return out


# -- decoding ----------------------------------------------------------------


def split_groups(ids: Sequence[int], q: int | None) -> tuple[tuple[int, ...], ...]:
    """The platoons of the vehicles entering one slot: the fewest the cap
    allows, ``ceil(n / q)``, filled in ascending id order."""
    ids = sorted(ids)
    if q is None:
        return (tuple(ids),)
    return tuple(tuple(ids[p : p + q]) for p in range(0, len(ids), q))


def _union_find_groups(vehicles: set[int], links: list[tuple[int, int]]) -> list[tuple[int, ...]]:
    parent = {v: v for v in vehicles}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in links:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    classes: dict[int, list[int]] = defaultdict(list)
    for v in vehicles:
        classes[find(v)].append(v)
    return [tuple(sorted(vs)) for _r, vs in sorted(classes.items())]


def _decode_cpf(instance: Instance, result) -> PlatoonSolution:
    times: dict[tuple[int, int], float] = {}
    links: dict[Arc, list[tuple[int, int]]] = defaultdict(list)
    for key, val in result.values.items():
        match key:
            case ("t", i, v):
                times[v, i] = val
            case ("y", i, j, v, w) if val > 0.5:
                links[i, j].append((v, w))
    paths = _x_paths(instance, result.values, DecodeInconsistent)

    on_arc: dict[Arc, set[int]] = defaultdict(set)
    for v, path in paths.items():
        for arc in path:
            on_arc[arc].add(v)

    # platoons pin every member to the leader's (smallest id) entry time
    slot_time: dict[tuple[int, Arc], float] = {}
    groups: dict[tuple[Arc, float], list[tuple[int, ...]]] = defaultdict(list)
    for arc in sorted(on_arc):
        here = on_arc[arc]
        pair_links = [(v, w) for (v, w) in links.get(arc, ()) if v in here and w in here]
        for g in _union_find_groups(here, pair_links):
            t_g = times[g[0], arc[0]]
            for v in g:
                slot_time[v, arc] = t_g
            groups[arc, t_g].append(g)

    timed_paths = {
        v: tuple((arc, slot_time[v, arc]) for arc in path) for v, path in paths.items()
    }
    return PlatoonSolution(
        paths=timed_paths,
        groups={k: tuple(gs) for k, gs in groups.items()},
    )


def _decode_tsf(instance: Instance, result) -> dict[int, tuple[tuple[Arc, int], ...]]:
    """Each vehicle's timed path along the moves of a time-space incumbent;
    the model's platoon counts are not read."""
    moves: dict[int, list[tuple[int, Arc]]] = defaultdict(list)
    for key, val in result.values.items():
        match key:
            # waiting legs (i == j) carry no cost and join no platoon
            case ("x", i, tm, j, _, v) if val > 0.5 and i != j:
                moves[v].append((tm, (i, j)))

    paths = {}
    for v, veh in enumerate(instance.vehicles):
        node = veh.origin
        ordered = []
        for tm, arc in sorted(moves.get(v, ())):
            if arc[0] != node:
                raise DecodeInconsistent(f"vehicle {v}: time-expanded legs do not chain")
            ordered.append((arc, tm))
            node = arc[1]
        paths[v] = tuple(ordered)
    return paths


def _tif_choice(result) -> dict[tuple[int, Arc], int]:
    """The entry time a scheduling incumbent picks for each modeled
    (vehicle, arc) pair, as :func:`assemble_timetable` takes them; the
    model's platoon counts are not read."""
    chosen: dict[tuple[int, Arc], int] = {}
    for key, val in result.values.items():
        match key:
            case ("x", i, j, v, tm) if val > 0.5:
                chosen[v, (i, j)] = tm
    return chosen


def _timetable(
    instance: Instance, paths: Mapping[int, tuple[tuple[Arc, int], ...]]
) -> PlatoonSolution:
    """The checked timetable of timed paths: the vehicles entering an arc at
    one time form the platoons :func:`split_groups` gives them."""
    slots: dict[tuple[Arc, int], list[int]] = defaultdict(list)
    for v, legs in paths.items():
        for slot in legs:
            slots[slot].append(v)
    groups = {slot: split_groups(vs, instance.q_limit) for slot, vs in sorted(slots.items())}
    return _consistent(instance, PlatoonSolution(paths=paths, groups=groups))


def decode(instance: Instance, result, which: str, routes: FixedRoutes | None = None) -> PlatoonSolution:
    """Turn a solver incumbent into a validated :class:`PlatoonSolution`.

    ``which`` names the model family whose column keys ``result.values``
    holds: ``"cpf"``, ``"tsf"``, or ``"tif"`` (the latter needs the fixed
    ``routes`` the model was built on).  ``"tsf"`` and ``"tif"`` read only
    each vehicle's timed path, not the model's platoon counts: every slot
    holds the fewest platoons the cap allows, as in
    :func:`assemble_timetable`.  So their plan costs the model's objective
    at an optimum, and at most that at an incumbent that pays for more
    platoons than it needs.  ``"cpf"`` groups the vehicles of an arc by the
    model's pairing links, so its plan costs the objective exactly.
    A decoded timetable that fails :func:`check` raises
    :class:`DecodeInconsistent`: feasible models only produce feasible
    incumbents, so that signals a solver or builder bug.
    """
    if not result.values:
        raise InvalidSolution("result carries no incumbent to decode")
    if which == "cpf":
        return _consistent(instance, _decode_cpf(instance, result))
    if which == "tsf":
        return _timetable(instance, _decode_tsf(instance, result))
    if which == "tif":
        if routes is None:
            raise InvalidSolution("decoding a scheduling incumbent requires routes")
        return assemble_timetable(instance, routes, _tif_choice(result))
    raise InvalidSolution(f"unknown decode dialect {which!r}")


def assemble_timetable(
    instance: Instance,
    routes: FixedRoutes,
    chosen: Mapping[tuple[int, Arc], int],
) -> PlatoonSolution:
    """The timetable of fixed routes with the given entry times, checked.

    ``chosen[v, arc]`` is the entry time picked for each modeled (vehicle,
    arc) pair.  Unmodeled legs ride as early as their chain allows, so
    with nothing chosen this is :func:`canonical_schedule`.  Platoons form
    by the one rule the time-space decoder uses too: the vehicles entering
    an arc at one time split into ``ceil(n / q)`` platoons by ascending id.
    The result is checked as :func:`decode` checks it, with the same error.
    """
    tt = instance.network.travel_time
    paths = {}
    for v, path in sorted(routes.paths.items()):
        legs = []
        prev_end: int | None = None
        for arc in path:
            if (v, arc) in chosen:
                tm = chosen[v, arc]
            else:
                tm = routes.entry_lo[v, arc]
                if prev_end is not None:
                    tm = max(tm, prev_end)
            legs.append((arc, tm))
            prev_end = tm + tt[arc]
        paths[v] = tuple(legs)
    return _timetable(instance, paths)


def _consistent(instance: Instance, sol: PlatoonSolution) -> PlatoonSolution:
    report = check(instance, sol)
    if not report.ok:
        raise DecodeInconsistent(
            f"decoded timetable violates {report.violations[0].kind}", report
        )
    return sol


def canonical_schedule(instance: Instance, routes: FixedRoutes) -> PlatoonSolution:
    """Everyone departs as early as possible; platoons form only by accident."""
    return assemble_timetable(instance, routes, {})
