"""MIP builders for joint platoon routing and scheduling.

Four models, all over the same instance data:

* ``build_cpf``: routes and continuous entry times together; platoon pairs
  are synchronized through big-M constraints on the entry times.
* ``build_tsf``: routes over the time-expanded network; simultaneity is
  structural, platooning is counted by integer usage variables per time arc.
* ``build_fcnf``: routing only, as fixed-charge network flow; its base-cost
  optimum is a lower bound on the joint problem.  With a shaped cost table it
  becomes the routing stage of the iterative heuristic.
* ``build_tif``: scheduling only, on fixed routes, with one binary per
  admissible arc entry time; maximizes the fixed-cost share saved.

Every column is keyed by a tuple, a tag and then integer ids, and the
decoders unpack these keys:

* ``("x", i, j, v)`` and ``("t", i, v)`` for routing and time variables,
  ``("y", i, j, v, w)`` for pair pledges;
* ``("x", i, t, j, t2, v)`` and ``("y", i, t, j, t2)`` on the time-expanded
  network;
* ``("y", i, j)`` for the routing model's arc flags;
* ``("x", i, j, v, t)`` and ``("y", i, j, t)`` in the scheduling model;
* ``("w", u, v)`` in the pair matching.

``("y", i, t, j, t2)`` exists only for time arcs that two or more trucks
can use; a truck alone on a time arc drives it as a platoon of one.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

from .errors import (
    EmptyEntrySet,
    InfeasibleNode,
    InfeasibleVehicle,
    MissingCost,
    ModelInvalid,
    ValidationError,
)
from .instance import Instance, admissible_arcs  # admissible_arcs is re-exported
from .mip import BINARY, CONTINUOUS, INTEGER, MipModel
from .network import Arc, TimeSpaceNetwork


def build_cpf(instance: Instance) -> MipModel:
    """Joint routing/scheduling model with continuous entry times.

    Minimizes total arc cost minus ``eta`` times the cost refunded on every
    pledged follower arc.  A pair variable ``("y", i, j, v, w)`` (``v``
    leads ``w``) may switch on only if both trucks drive the arc, and then
    their entry times at the arc's tail are forced equal.  Pair variables
    are only created where the trucks' node windows can overlap at all.

    The big-M constants come from the node windows in ``instance.windows``
    and are exactly the largest values the time differences they relax can
    take, so the rows are tight but never cut a valid schedule: ``hi_w -
    lo_v`` and ``hi_v - lo_w`` for the two synchronization rows of a pair
    at node ``i``, and ``max(0, hi_i - lo_j + T_ij)`` for the travel-time
    propagation of a truck along arc ``(i, j)``.
    """
    net = instance.network
    eta = instance.eta
    q = instance.q_limit
    n_veh = len(instance.vehicles)
    adm = instance.admissible
    bounds = instance.windows
    m = MipModel("cpf")

    x: dict[tuple[int, Arc], int] = {}
    t: dict[tuple[int, int], int] = {}
    for v, veh in enumerate(instance.vehicles):
        nodes = {veh.origin, veh.dest}
        for (i, j) in adm[v]:
            nodes.add(i)
            nodes.add(j)
        for i in sorted(nodes):
            lo, hi = bounds[v][i]
            t[v, i] = m.add_var(("t", i, v), CONTINUOUS, lo, hi)
        for arc in sorted(adm[v]):
            x[v, arc] = m.add_var(("x", *arc, v), BINARY)

    y: dict[tuple[Arc, int, int], int] = {}
    for v in range(n_veh):
        for w in range(v + 1, n_veh):
            for arc in sorted(adm[v] & adm[w]):
                i = arc[0]
                if max(bounds[v][i][0], bounds[w][i][0]) > min(
                    bounds[v][i][1], bounds[w][i][1]
                ):
                    continue  # the two trucks can never be at i together
                y[arc, v, w] = m.add_var(("y", *arc, v, w), BINARY)

    obj = [(idx, net.cost[arc]) for (v, arc), idx in x.items()]
    obj += [(idx, -eta * net.cost[arc]) for (arc, _v, _w), idx in y.items()]
    m.set_objective(obj, sense="min")

    for v in range(n_veh):
        _flow_rows(m, instance, v, x)

    # a pledge needs both trucks on the arc, and synchronized entry times
    for (arc, v, w), idx in y.items():
        i = arc[0]
        m.add_constr([(idx, 1.0), (x[w, arc], -1.0)], "<=", 0.0)
        m.add_constr([(idx, 1.0), (x[v, arc], -1.0)], "<=", 0.0)
        lo_v, hi_v = bounds[v][i]
        lo_w, hi_w = bounds[w][i]
        m0 = hi_w - lo_v
        m1 = hi_v - lo_w
        m.add_constr(
            [(t[w, i], 1.0), (t[v, i], -1.0), (idx, m0)], "<=", m0
        )
        m.add_constr(
            [(t[v, i], 1.0), (t[w, i], -1.0), (idx, m1)], "<=", m1
        )

    # each follower has at most one leader per arc
    followers = defaultdict(list)
    leaders = defaultdict(list)
    for (arc, v, w), idx in y.items():
        followers[w, arc].append(idx)
        leaders[v, arc].append(idx)
    for (w, arc), idxs in sorted(followers.items()):
        m.add_constr([(i, 1.0) for i in idxs], "<=", 1.0)

    # a leader's platoon stays within the size cap, and a follower leads no one
    if q is not None:
        for (v, arc), idxs in sorted(leaders.items()):
            terms = [(i, 1.0) for i in idxs]
            terms += [(i, float(q - 1)) for i in followers.get((v, arc), ())]
            m.add_constr(terms, "<=", float(q - 1))

    # entry times propagate along every used arc (including into the
    # destination, so the arrival deadline binds on the final leg)
    tt = net.travel_time
    for v, veh in enumerate(instance.vehicles):
        for arc in sorted(adm[v]):
            i, j = arc
            if j == veh.origin:
                continue
            m2 = max(0, bounds[v][i][1] - bounds[v][j][0] + tt[arc])
            m.add_constr(
                [(t[v, j], 1.0), (t[v, i], -1.0), (x[v, arc], -m2)],
                ">=",
                tt[arc] - m2,
            )
    return m


def _flow_rows(m: MipModel, instance: Instance, v: int, x: Mapping[tuple[int, Arc], int]) -> None:
    """Flow conservation of vehicle ``v`` over its admissible arcs.

    ``x[v, arc]`` is the column of the vehicle's arc variable.  One row per
    node an admissible arc touches, plus the origin and destination, in
    node order; a row lists the out-arcs and then the in-arcs, each in the
    iteration order of ``instance.admissible[v]``.
    """
    veh = instance.vehicles[v]
    outs: dict[int, list[tuple[int, float]]] = defaultdict(list)
    ins: dict[int, list[tuple[int, float]]] = defaultdict(list)
    for arc in instance.admissible[v]:
        outs[arc[0]].append((x[v, arc], 1.0))
        ins[arc[1]].append((x[v, arc], -1.0))
    for node in sorted(outs.keys() | ins.keys() | {veh.origin, veh.dest}):
        terms = outs.get(node, []) + ins.get(node, [])
        rhs = 1.0 if node == veh.origin else -1.0 if node == veh.dest else 0.0
        if terms or rhs:
            m.add_constr(terms, "=", rhs)


def build_tsf(instance: Instance, tsn: TimeSpaceNetwork) -> MipModel:
    """Joint model on the time-expanded network.

    One binary per vehicle and admissible time-arc copy (waiting arcs are the
    ``i == j`` case), plus an integer ``y`` per shared move arc counting how
    many platoons drive it; each platoon pays the fixed share ``eta * c`` of
    the arc cost once, each vehicle pays the unit share ``(1 - eta) * c``.
    Time arcs span ``tsn.horizon``; the node windows are the instance's
    (``instance.windows``), and so are the cost shares.

    Three reductions leave out rows and columns that cannot change a
    solution, so the LP bound and the optimum are those of the full model:

    * a vehicle waits only at nodes it can reach: its origin, its
      destination and the ends of its admissible arcs;
    * a time arc that only one vehicle can use gets no ``y``; its fixed share
      is charged on that vehicle's ``x``, which folds ``y = x`` in;
    * the slot row ``sum_v x_v <= cap * y`` is stated only where more than
      ``cap`` vehicles can use the time arc; elsewhere the per-vehicle rows
      ``x_v <= y`` imply it.
    """
    net = instance.network
    eta = instance.eta
    q = instance.q_limit
    adm = instance.admissible
    tt = net.travel_time
    horizon = tsn.horizon
    m = MipModel("tsf")

    move_users: dict[tuple[int, int, int, int], list[int]] = defaultdict(list)
    xvar: dict[tuple[int, tuple], int] = {}
    out_at: list[dict[tuple[int, int], list[int]]] = []
    in_at: list[dict[tuple[int, int], list[int]]] = []

    for v, veh in enumerate(instance.vehicles):
        win = instance.windows[v]
        outs: dict[tuple[int, int], list[int]] = defaultdict(list)
        ins: dict[tuple[int, int], list[int]] = defaultdict(list)
        for arc in net.arcs:
            if arc not in adm[v]:
                continue
            i, j = arc
            t_ij = tt[arc]
            (lo_i, hi_i), (lo_j, hi_j) = win[i], win[j]
            last = min(hi_i, hi_j - t_ij, horizon - t_ij)
            for tm in range(max(lo_i, lo_j - t_ij), last + 1):
                t2 = tm + t_ij
                idx = m.add_var(("x", i, tm, j, t2, v), BINARY)
                xvar[v, (i, tm, j, t2)] = idx
                move_users[(i, tm, j, t2)].append(v)
                outs[(i, tm)].append(idx)
                ins[(j, t2)].append(idx)
        reach = {n for arc in adm[v] for n in arc} | {veh.origin, veh.dest}
        for i in sorted(reach):
            lo_i, hi_i = win[i]
            for tm in range(lo_i, min(hi_i, horizon)):
                idx = m.add_var(("x", i, tm, i, tm + 1, v), BINARY)
                outs[(i, tm)].append(idx)
                ins[(i, tm + 1)].append(idx)
        out_at.append(outs)
        in_at.append(ins)

    yvar: dict[tuple[int, int, int, int], int] = {}
    for ts_arc in sorted(move_users):
        k = len(move_users[ts_arc])
        if k == 1:
            continue
        cap = q if q is not None else k
        yvar[ts_arc] = m.add_var(("y", *ts_arc), INTEGER, 0, math.ceil(k / cap))

    obj = []
    for (_v, ts_arc), idx in xvar.items():
        c = net.cost[ts_arc[0], ts_arc[2]]
        coef = (1.0 - eta) * c
        if ts_arc not in yvar:
            coef += eta * c
        obj.append((idx, coef))
    for ts_arc, idx in yvar.items():
        obj.append((idx, eta * net.cost[ts_arc[0], ts_arc[2]]))
    m.set_objective(obj, sense="min")

    for v, veh in enumerate(instance.vehicles):
        source = (veh.origin, veh.earliest_departure)
        sink = (veh.dest, veh.latest_arrival)
        ts_nodes = sorted(set(out_at[v]) | set(in_at[v]) | {source, sink})
        for node in ts_nodes:
            terms = [(idx, 1.0) for idx in out_at[v].get(node, ())]
            terms += [(idx, -1.0) for idx in in_at[v].get(node, ())]
            rhs = 1.0 if node == source else -1.0 if node == sink else 0.0
            m.add_constr(terms, "=", rhs)

    for ts_arc, yidx in yvar.items():
        vs = move_users[ts_arc]
        if q is not None and len(vs) > q:
            m.add_constr(
                [(xvar[v, ts_arc], 1.0) for v in vs] + [(yidx, -float(q))],
                "<=",
                0.0,
            )
        for v in vs:
            m.add_constr([(xvar[v, ts_arc], 1.0), (yidx, -1.0)], "<=", 0.0)
    return m


# -- routing stage ----------------------------------------------------------


def _fcnf_columns(instance: Instance) -> tuple[list[Arc], list[tuple[int, Arc]]]:
    """Variable order of the routing model.

    One ``y`` per arc of the admissible union, sorted, then one ``x`` per
    vehicle and admissible arc, sorted by vehicle and arc.
    """
    adm = instance.admissible
    union = sorted(set().union(*adm.values())) if adm else []
    xkeys = [(v, arc) for v in range(len(instance.vehicles)) for arc in sorted(adm[v])]
    return union, xkeys


def build_fcnf(instance: Instance, cost_table=None) -> MipModel:
    """Fixed-charge flow model for the routing stage.

    Base mode (``cost_table is None``) splits every arc cost into a fixed
    share ``eta * c`` paid once if anyone drives the arc and a unit share
    ``(1 - eta) * c`` per vehicle; its optimum underestimates every feasible
    platoon plan.  With a cost table, arcs the table marks as traversed in
    the previous round instead charge each vehicle its shaped coefficient.
    Only the objective depends on the table, so one model can be repriced
    for each round with :func:`price_fcnf`.
    """
    net = instance.network
    adm = instance.admissible
    m = MipModel("fcnf")

    union, xkeys = _fcnf_columns(instance)
    yvar = {arc: m.add_var(("y", *arc), BINARY) for arc in union}
    xvar = {(v, arc): m.add_var(("x", *arc, v), BINARY) for v, arc in xkeys}
    price_fcnf(instance, m, cost_table)

    tt = net.travel_time
    for v, veh in enumerate(instance.vehicles):
        _flow_rows(m, instance, v, xvar)
        # the route must fit the vehicle's time window even at full speed
        window = float(veh.latest_arrival - veh.earliest_departure)
        m.add_constr(
            [(xvar[v, a], float(tt[a])) for a in sorted(adm[v])], "<=", window
        )

    for (v, arc), idx in xvar.items():
        m.add_constr([(idx, 1.0), (yvar[arc], -1.0)], "<=", 0.0)
    return m


def price_fcnf(instance: Instance, model: MipModel, cost_table=None) -> None:
    """Set the objective of a :func:`build_fcnf` model of ``instance``.

    Prices exactly as ``build_fcnf(instance, cost_table)`` does, so the
    repriced model and a freshly built one compile to the same arrays.
    Raises :class:`MissingCost` if the table marks an arc as traversed but
    lacks a vehicle's coefficient on it.
    """
    union, xkeys = _fcnf_columns(instance)
    if model.num_vars != len(union) + len(xkeys):
        raise ModelInvalid(
            f"model {model.name!r} has {model.num_vars} variables; "
            f"the routing model of this instance has {len(union) + len(xkeys)}"
        )
    cost = instance.network.cost
    eta = instance.eta
    shaped = cost_table.traversed if cost_table is not None else frozenset()
    obj = []
    for idx, (v, arc) in enumerate(xkeys, start=len(union)):
        if arc in shaped:
            try:
                coef = cost_table.modified[(v, arc)]
            except KeyError:
                raise MissingCost(
                    f"cost table lacks a coefficient for vehicle {v} on arc {arc}"
                ) from None
            obj.append((idx, coef))
        else:
            obj.append((idx, (1.0 - eta) * cost[arc]))
    for idx, arc in enumerate(union):
        if arc not in shaped:
            obj.append((idx, eta * cost[arc]))
    model.set_objective(obj, sense="min")


@dataclass(frozen=True, eq=False)
class FixedRoutes:
    """Ordered per-vehicle paths plus their rigid entry-time windows.

    Entry windows come from cumulative travel time along the fixed path, so
    every arc of one vehicle has the same amount of slack; waiting anywhere
    shifts all later entries.
    """

    paths: Mapping[int, tuple[Arc, ...]]
    entry_lo: Mapping[tuple[int, Arc], int]
    entry_hi: Mapping[tuple[int, Arc], int]

    @classmethod
    def build(cls, instance: Instance, paths: Mapping[int, Sequence[Arc]]) -> "FixedRoutes":
        tt = instance.network.travel_time
        entry_lo = {}
        entry_hi = {}
        ordered = {}
        for v, path in sorted(paths.items()):
            veh = instance.vehicles[v]
            path = tuple(path)
            node = veh.origin
            seen = {node}
            cum = 0
            offsets = []
            for arc in path:
                if arc not in instance.network.cost:
                    raise ValidationError(f"vehicle {v}: arc {arc} is not in the network")
                if arc[0] != node:
                    raise ValidationError(f"vehicle {v}: path breaks at {arc}")
                node = arc[1]
                if node in seen:
                    raise ValidationError(f"vehicle {v}: path revisits node {node}")
                seen.add(node)
                offsets.append(cum)
                cum += tt[arc]
            if node != veh.dest:
                raise ValidationError(f"vehicle {v}: path ends at {node}, not {veh.dest}")
            slack = (veh.latest_arrival - veh.earliest_departure) - cum
            if slack < 0:
                raise InfeasibleNode(
                    f"vehicle {v}: fixed path takes {cum}, window allows only {cum + slack}"
                )
            ordered[v] = path
            for arc, off in zip(path, offsets):
                entry_lo[v, arc] = veh.earliest_departure + off
                entry_hi[v, arc] = veh.earliest_departure + off + slack
        return cls(paths=ordered, entry_lo=entry_lo, entry_hi=entry_hi)

    def entry_window(self, v: int, arc: Arc) -> tuple[int, int]:
        return self.entry_lo[v, arc], self.entry_hi[v, arc]

    @cached_property
    def vehicles_by_arc(self) -> dict[Arc, tuple[int, ...]]:
        by_arc: dict[Arc, list[int]] = defaultdict(list)
        for v, path in sorted(self.paths.items()):
            for arc in path:
                by_arc[arc].append(v)
        return {arc: tuple(vs) for arc, vs in by_arc.items()}

    @cached_property
    def arc_union(self) -> set[Arc]:
        return set(self.vehicles_by_arc)

    @cached_property
    def meets(self) -> tuple[tuple[Arc, tuple[int, ...]], ...]:
        """The trucks that can share a slot: ``(arc, chain)`` pairs.

        On each arc, a sweep in order of window start adds each truck to the
        current chain if its window starts by the latest end seen in the
        chain, and starts a new chain otherwise.  So two trucks share a
        chain iff a run of overlapping windows joins them, and a truck is in
        a chain of two or more iff its window overlaps another truck's.
        Only those chains are returned, each in sweep order, arcs in the
        order of :attr:`vehicles_by_arc`.
        """
        chains: list[tuple[Arc, list[int]]] = []
        for arc, vs in self.vehicles_by_arc.items():
            reach = -math.inf
            for lo, v in sorted((self.entry_lo[v, arc], v) for v in vs):
                if lo > reach:
                    chains.append((arc, []))
                chains[-1][1].append(v)
                reach = max(reach, self.entry_hi[v, arc])
        return tuple((arc, tuple(chain)) for arc, chain in chains if len(chain) > 1)


def routes_from_result(instance: Instance, result) -> FixedRoutes:
    """Turn a routing incumbent (``("x", i, j, v)`` values) into fixed routes."""
    return FixedRoutes.build(instance, _x_paths(instance, result.values, InfeasibleVehicle))


def _x_paths(instance: Instance, values, error: type[Exception]) -> dict[int, tuple[Arc, ...]]:
    """Each vehicle's path along the arcs its ``("x", i, j, v)`` values pick.

    A depth-first walk from origin to destination drops spurious cycles; a
    vehicle that has no such path raises ``error``.
    """
    nxt: dict[int, dict[int, list[Arc]]] = defaultdict(lambda: defaultdict(list))
    for key, val in values.items():
        if val > 0.5:
            match key:
                case ("x", i, j, v):
                    nxt[v][i].append((i, j))
    paths = {}
    for v, veh in enumerate(instance.vehicles):
        outs = nxt.get(v, {})
        for arcs in outs.values():
            arcs.sort()
        path = _walk(veh.origin, veh.dest, outs)
        if path is None:
            raise error(f"vehicle {v}: incumbent has no {veh.origin}->{veh.dest} path")
        paths[v] = path
    return paths


def _walk(origin: int, dest: int, nxt: Mapping[int, list[Arc]]) -> tuple[Arc, ...] | None:
    stack = [(origin, ())]
    seen = set()
    while stack:
        node, path = stack.pop()
        if node == dest:
            return path
        if node in seen:
            continue
        seen.add(node)
        for arc in reversed(nxt.get(node, ())):
            if arc[1] not in seen:
                stack.append((arc[1], path + (arc,)))
    return None


# -- scheduling stage -------------------------------------------------------


def scheduling_preprocess(routes: FixedRoutes) -> frozenset[tuple[int, Arc]]:
    """The (vehicle, arc) pairs worth scheduling: those whose entry window
    overlaps another vehicle's on the same arc (see
    :attr:`FixedRoutes.meets`).  Every other pair drives alone and saves
    nothing."""
    return frozenset((v, arc) for arc, chain in routes.meets for v in chain)


def build_tif(
    instance: Instance,
    routes: FixedRoutes,
    kept=None,
    relax_capacity: bool = False,
) -> MipModel:
    """Entry-time scheduling on fixed routes, maximizing saved fixed cost.

    The objective equals the total platooning saving: the constant counts
    each modeled (vehicle, arc) fixed share as if saved, and every platoon
    that actually drives (one ``y`` unit per group and time slot) buys its
    share back.  ``relax_capacity`` drops the size cap and uses ``y`` as a
    0/1 usage flag, which is the relaxation the pairwise heuristic solves.
    """
    net = instance.network
    eta = instance.eta
    q = instance.q_limit
    if kept is None:
        kept = frozenset(
            (v, arc) for v, path in routes.paths.items() for arc in path
        )
    m = MipModel("tif")

    for v, arc in sorted(kept):
        lo, hi = routes.entry_window(v, arc)
        if lo > hi:
            raise EmptyEntrySet(f"vehicle {v} has no admissible entry time on {arc}")
    # one x per kept (vehicle, arc) pair and entry time in its window, then
    # one y per (arc, entry time) slot that some x uses, each sorted
    xvar: dict[tuple[int, Arc, int], int] = {}
    slot_users: dict[tuple[Arc, int], list[int]] = defaultdict(list)
    for v, arc in sorted(kept):
        for tm in range(routes.entry_lo[v, arc], routes.entry_hi[v, arc] + 1):
            xvar[v, arc, tm] = m.add_var(("x", *arc, v, tm), BINARY)
            slot_users[arc, tm].append(v)

    yvar: dict[tuple[Arc, int], int] = {}
    for (arc, tm) in sorted(slot_users):
        k = len(slot_users[arc, tm])
        cap = q if q is not None else k
        ub = 1 if relax_capacity else math.ceil(k / cap)
        yvar[arc, tm] = m.add_var(("y", *arc, tm), INTEGER, 0, ub)

    constant = sum(eta * net.cost[arc] for (_v, arc) in kept)
    m.set_objective(
        [(idx, -eta * net.cost[arc]) for (arc, _tm), idx in yvar.items()],
        sense="max",
        constant=constant,
    )

    # exactly one entry time per kept traversal
    for v, arc in sorted(kept):
        lo, hi = routes.entry_window(v, arc)
        m.add_constr(
            [(xvar[v, arc, tm], 1.0) for tm in range(lo, hi + 1)], "=", 1.0
        )

    # a vehicle cannot enter a later arc before driving the earlier ones;
    # offsets use cumulative path time, also across arcs modeled as loners
    for v, path in sorted(routes.paths.items()):
        kept_arcs = [arc for arc in path if (v, arc) in kept]
        for a, b in zip(kept_arcs, kept_arcs[1:]):
            lo_a, hi_a = routes.entry_window(v, a)
            delta = routes.entry_lo[v, b] - lo_a
            for tm in range(lo_a, hi_a):
                terms = [(xvar[v, a, tau], 1.0) for tau in range(lo_a, tm + 1)]
                terms += [
                    (xvar[v, b, tau], -1.0)
                    for tau in range(routes.entry_lo[v, b], tm + delta + 1)
                ]
                m.add_constr(terms, ">=", 0.0)

    for (arc, tm), vs in sorted(slot_users.items()):
        cap = q if q is not None else len(vs)
        if relax_capacity:
            cap = len(vs)
        yidx = yvar[arc, tm]
        m.add_constr(
            [(xvar[v, arc, tm], 1.0) for v in vs] + [(yidx, -float(cap))],
            "<=",
            0.0,
        )
        for v in vs:
            m.add_constr([(xvar[v, arc, tm], 1.0), (yidx, -1.0)], "<=", 0.0)
    return m


def build_matching(pairs: Sequence[tuple[int, int, float]], gamma: float, n_vehicles: int) -> MipModel:
    """Cardinality-capped matching over candidate pair savings.

    At most ``gamma * n_vehicles`` pairs may be chosen and no vehicle may
    appear in two of them; maximizes total pledged savings.
    """
    m = MipModel("pairing")
    wvar = []
    touching: dict[int, list[int]] = defaultdict(list)
    for u, v, _s in pairs:
        idx = m.add_var(("w", u, v), BINARY)
        wvar.append(idx)
        touching[u].append(idx)
        touching[v].append(idx)
    m.set_objective(
        [(idx, float(s)) for idx, (_u, _v, s) in zip(wvar, pairs)], sense="max"
    )
    for veh in sorted(touching):
        m.add_constr([(idx, 1.0) for idx in touching[veh]], "<=", 1.0)
    if wvar:
        m.add_constr([(idx, 1.0) for idx in wvar], "<=", gamma * n_vehicles)
    return m
