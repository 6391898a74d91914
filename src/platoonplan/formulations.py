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

Every builder adds its columns in blocks of integer ids under a tag, and
the decoders read them back by tag (:meth:`~platoonplan.mip.MipResult.take`).
The ids of a column, by model and tag, in this order:

* CPF: ``t`` ``(i, v)``, ``x`` ``(i, j, v)``, pledge ``y`` ``(i, j, v, w)``;
* TSF: ``x`` ``(i, t, j, t2, v)``, platoon count ``y`` ``(i, t, j, t2)``;
* FCNF: arc flag ``y`` ``(i, j)``, ``x`` ``(i, j, v)``;
* TIF: ``x`` ``(i, j, v, t)``, platoon count ``y`` ``(i, j, t)``;
* the pair matching: ``w`` ``(u, v)``.

A column's key is its tag and ids, such as ``("x", i, j, v)``.  TSF's ``y``
exists only for time arcs that two or more trucks can use; a truck alone on
a time arc drives it as a platoon of one.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    EmptyEntrySet,
    InfeasibleNode,
    InfeasibleVehicle,
    MissingCost,
    ModelInvalid,
    ValidationError,
)
from .instance import Instance, admissible_arcs, path_fault  # admissible_arcs is re-exported
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

    The model is built in blocks.  Each truck's columns are its entry times
    ``t`` (reachable nodes in order) and then its arcs ``x`` (admissible
    arcs in order); the pledges ``y`` follow, by leader, follower and arc.
    The rows are the flow rows, truck by truck and node by node; four rows
    per pledge ``k`` at rows ``4k`` to ``4k + 3``: ``y <= x_w``, ``y <=
    x_v`` and the two synchronization rows; one row per follower and arc,
    in that order, allowing one leader; with a size cap, one row per leader
    and arc, listing its pledges as leader and then as follower; and the
    propagation row of every ``x`` whose arc does not enter the truck's
    origin.
    """
    net = instance.network
    eta = instance.eta
    q = instance.q_limit
    n_veh = len(instance.vehicles)
    n_nodes = net.n_nodes
    adm = instance.admissible
    bounds = instance.windows
    tt = net.travel_time
    m = MipModel("cpf")

    # per truck, t over its reachable nodes, then x over its admissible arcs;
    # a truck's t or x is found by its encoded key, which grows with its column
    t_win = []
    for v, veh in enumerate(instance.vehicles):
        nodes = sorted({veh.origin, veh.dest}.union(*adm[v]))
        t_win.append(np.array([bounds[v][i] for i in nodes], dtype=np.int64))
        m.add_vars("t", np.column_stack([nodes, np.full(len(nodes), v)]), CONTINUOUS, *t_win[-1].T)
        arcs = np.array(sorted(adm[v]), dtype=np.int64).reshape(-1, 2)
        m.add_vars("x", np.column_stack([arcs, np.full(len(arcs), v)]), BINARY)
    tcols, t_ids = m.columns("t")
    xcols, x_ids = m.columns("x")
    lo, hi = np.concatenate(t_win).T
    x_i, x_j, x_v = x_ids.T
    t_key = t_ids[:, 1] * n_nodes + t_ids[:, 0]
    x_key = (x_v * n_nodes + x_i) * n_nodes + x_j

    # (i, j, leader, follower) per pledge, where both can be at the tail together
    pledges = [
        (*arc, v, w)
        for v in range(n_veh)
        for w in range(v + 1, n_veh)
        for arc in sorted(adm[v] & adm[w])
        if max(bounds[v][arc[0]][0], bounds[w][arc[0]][0])
        <= min(bounds[v][arc[0]][1], bounds[w][arc[0]][1])
    ]
    y_ids = np.array(pledges, dtype=np.int64).reshape(-1, 4)
    ycols = m.add_vars("y", y_ids, BINARY)
    p_i, p_j, p_v, p_w = y_ids.T

    x_cost = np.array([net.cost[arc] for arc in zip(x_i.tolist(), x_j.tolist())], dtype=np.float64)
    y_cost = np.array([net.cost[i, j] for i, j, _v, _w in pledges], dtype=np.float64)
    m.set_objective(np.concatenate([xcols, ycols]), np.concatenate([x_cost, -eta * y_cost]))

    v_all = np.arange(n_veh)
    _flow_rows(
        m, xcols, x_v * n_nodes + x_i, x_v * n_nodes + x_j,
        v_all * n_nodes + [veh.origin for veh in instance.vehicles],
        v_all * n_nodes + [veh.dest for veh in instance.vehicles],
    )

    # a pledge needs both trucks on the arc, and synchronized entry times;
    # the big-Ms are integers, so a zero one compiles as +0.0
    lead_key = (p_v * n_nodes + p_i) * n_nodes + p_j
    follow_key = (p_w * n_nodes + p_i) * n_nodes + p_j
    x_lead = xcols[np.searchsorted(x_key, lead_key)]
    x_follow = xcols[np.searchsorted(x_key, follow_key)]
    at_v = np.searchsorted(t_key, p_v * n_nodes + p_i)
    at_w = np.searchsorted(t_key, p_w * n_nodes + p_i)
    t_lead, t_follow = tcols[at_v], tcols[at_w]
    m0, m1 = hi[at_w] - lo[at_v], hi[at_v] - lo[at_w]
    one, zero = np.ones_like(p_v), np.zeros_like(p_v)
    m.add_rows(
        (4 * np.arange(len(pledges))[:, None] + [0, 0, 1, 1, 2, 2, 2, 3, 3, 3]).ravel(),
        np.column_stack([
            ycols, x_follow, ycols, x_lead, t_follow, t_lead, ycols, t_lead, t_follow, ycols,
        ]).ravel(),
        np.column_stack([one, -one, one, -one, one, -one, m0, one, -one, m1]).ravel(),
        "<=",
        np.column_stack([zero, zero, m0, m1]).ravel(),
    )

    # each follower has at most one leader per arc
    order, _starts, counts = _groups(follow_key)
    m.add_rows(
        np.repeat(np.arange(len(counts)), counts), ycols[order], one, "<=", np.ones(len(counts))
    )

    # a leader's platoon stays within the size cap, and a follower leads no one
    if q is not None:
        order, starts, counts = _groups(lead_key)
        led = lead_key[order[starts]]
        also = np.isin(follow_key, led)
        m.add_rows(
            np.concatenate([
                np.repeat(np.arange(len(counts)), counts), np.searchsorted(led, follow_key[also]),
            ]),
            np.concatenate([ycols[order], ycols[also]]),
            np.concatenate([one, np.full(int(also.sum()), q - 1)]),
            "<=",
            np.full(len(counts), q - 1),
        )

    # entry times propagate along every used arc (including into the
    # destination, so the arrival deadline binds on the final leg)
    used = x_j != np.array([veh.origin for veh in instance.vehicles])[x_v]
    at_i = np.searchsorted(t_key, x_v[used] * n_nodes + x_i[used])
    at_j = np.searchsorted(t_key, x_v[used] * n_nodes + x_j[used])
    travel = np.array([tt[a] for a in zip(x_i[used].tolist(), x_j[used].tolist())], dtype=np.int64)
    m2 = np.maximum(0, hi[at_i] - lo[at_j] + travel)
    one = np.ones_like(m2)
    m.add_rows(
        np.repeat(np.arange(len(m2)), 3),
        np.column_stack([tcols[at_j], tcols[at_i], xcols[used]]).ravel(),
        np.column_stack([one, -one, -m2]).ravel(),
        ">=",
        travel - m2,
    )
    return m


def _flow_rows(m: MipModel, cols, tails, heads, sources, sinks) -> None:
    """Flow conservation: one ``=`` row per node key, in key order.

    Column ``cols[e]`` leaves node key ``tails[e]`` and enters ``heads[e]``;
    a row lists its out-columns and then its in-columns, each in the order
    given.  The nodes are every key in ``tails``, ``heads``, ``sources``
    and ``sinks``; a source's row has right-hand side 1, a sink's -1 and
    any other row 0.
    """
    nodes = np.unique(np.concatenate([tails, heads, sources, sinks]))
    rhs = np.zeros(len(nodes))
    rhs[np.searchsorted(nodes, sinks)] = -1.0
    rhs[np.searchsorted(nodes, sources)] = 1.0
    m.add_rows(
        np.concatenate([np.searchsorted(nodes, tails), np.searchsorted(nodes, heads)]),
        np.concatenate([cols, cols]),
        np.concatenate([np.ones(len(cols)), np.full(len(cols), -1.0)]),
        "=",
        rhs,
    )


def _ragged(first: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated ranges ``first[k], first[k] + 1, ...``, ``counts[k]``
    long each: returns ``(k, value)`` per element."""
    seg = np.repeat(np.arange(len(counts)), counts)
    starts = np.cumsum(counts) - counts
    return seg, first[seg] + np.arange(len(seg)) - starts[seg]


def _groups(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group positions by key: ``(order, starts, counts)``.

    ``order`` lists the positions by ascending key, equal keys in position
    order; group ``g`` is ``order[starts[g]:starts[g] + counts[g]]``, and
    the groups come in key order.
    """
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    new = np.ones(len(keys), dtype=bool)
    new[1:] = ranked[1:] != ranked[:-1]
    starts = np.flatnonzero(new)
    return order, starts, np.diff(np.append(starts, len(keys)))


def _usage_rows(m: MipModel, users, counts, ycols, slot, caps) -> None:
    """Rows tying user columns to their group's usage column ``y``.

    Group ``g`` owns the next ``counts[g]`` columns of ``users`` and the
    column ``ycols[g]``.  Its rows, groups in order: if ``slot[g]``, the
    slot row ``sum(x) - caps[g] * y <= 0``; then ``x - y <= 0`` per user.
    """
    n_groups = len(counts)
    group = np.repeat(np.arange(n_groups), counts)
    rank = np.arange(len(users)) - np.repeat(np.cumsum(counts) - counts, counts)
    per_group = slot + counts
    base = np.cumsum(per_group) - per_group
    user_rows = base[group] + slot[group] + rank
    in_slot = slot[group]
    slot_groups = np.flatnonzero(slot)
    m.add_rows(
        np.concatenate([base[group[in_slot]], base[slot_groups], user_rows, user_rows]),
        np.concatenate([users[in_slot], ycols[slot_groups], users, ycols[group]]),
        np.concatenate([
            np.ones(int(in_slot.sum())), -caps[slot_groups],
            np.ones(len(users)), np.full(len(users), -1.0),
        ]),
        "<=",
        np.zeros(int(per_group.sum())),
    )


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

    The model is built in blocks.  Each vehicle's columns are its move arcs
    (road arcs in network order, each over its range of entry times) and
    then its waiting arcs (reachable nodes in order, each over its times).
    The ``y`` columns follow, one per shared time arc, found by a stable
    sort of the move columns by encoded ``(i, t, j)``.  The rows are the
    flow rows, vehicle by vehicle and time-space node by node, each listing
    its out-arcs and then its in-arcs, and then the usage rows of each
    shared time arc.
    """
    net = instance.network
    eta = instance.eta
    q = instance.q_limit
    adm = instance.admissible
    tt = net.travel_time
    horizon = tsn.horizon
    m = MipModel("tsf")

    # one segment per vehicle and arc: (v, i, j, travel time, first entry,
    # entries, cost); a waiting arc has j == i, travel time 1 and cost 0
    segs = []
    for v, veh in enumerate(instance.vehicles):
        win = instance.windows[v]
        for arc in net.arcs:
            if arc not in adm[v]:
                continue
            i, j = arc
            t_ij = tt[arc]
            (lo_i, hi_i), (lo_j, hi_j) = win[i], win[j]
            first = max(lo_i, lo_j - t_ij)
            last = min(hi_i, hi_j - t_ij, horizon - t_ij)
            segs.append((v, i, j, t_ij, first, last - first + 1, net.cost[arc]))
        reach = {n for arc in adm[v] for n in arc} | {veh.origin, veh.dest}
        for i in sorted(reach):
            lo_i, hi_i = win[i]
            segs.append((v, i, i, 1, lo_i, min(hi_i, horizon) - lo_i, 0.0))
    seg_v, seg_i, seg_j, seg_t, seg_first, seg_count = (
        np.array([s[:6] for s in segs], dtype=np.int64).reshape(-1, 6).T
    )
    seg_cost = np.array([s[6] for s in segs], dtype=np.float64)
    seg, tm = _ragged(seg_first, np.maximum(seg_count, 0))
    xv, xi, xj, t2 = seg_v[seg], seg_i[seg], seg_j[seg], tm + seg_t[seg]
    xids = np.column_stack([xi, tm, xj, t2, xv])
    xcols = m.add_vars("x", xids, BINARY)

    # y per move time arc with two or more possible users, in (i, t, j) order
    moves = np.flatnonzero(xi != xj)
    # every time in the model is below span: keys encode (i, t, j) and (v, i, t)
    span = 1 + max([horizon] + [veh.latest_arrival for veh in instance.vehicles])
    order, starts, counts = _groups((xi[moves] * span + tm[moves]) * net.n_nodes + xj[moves])
    shared = counts >= 2
    first_user = moves[order[starts[shared]]]
    k = counts[shared]
    upper = np.ones(len(k)) if q is None else -(-k // q)
    ycols = m.add_vars("y", xids[first_user, :4], INTEGER, 0.0, upper)

    # each vehicle pays its unit share; a lone user also the fixed share
    c = seg_cost[seg[moves]]
    coef = (1.0 - eta) * c
    alone = np.empty(len(moves), dtype=bool)
    alone[order] = np.repeat(~shared, counts)
    coef[alone] = coef[alone] + eta * c[alone]
    m.set_objective(
        cols=np.concatenate([xcols[moves], ycols]),
        coefs=np.concatenate([coef, eta * seg_cost[seg[first_user]]]),
        sense="min",
    )

    # flow conservation per vehicle and time-space node (i, t), in order
    def node_key(v, i, t):
        return (v * net.n_nodes + i) * span + t

    v_all = np.arange(len(instance.vehicles))
    source = node_key(v_all, np.array([veh.origin for veh in instance.vehicles]),
                      np.array([veh.earliest_departure for veh in instance.vehicles]))
    sink = node_key(v_all, np.array([veh.dest for veh in instance.vehicles]),
                    np.array([veh.latest_arrival for veh in instance.vehicles]))
    _flow_rows(m, xcols, node_key(xv, xi, tm), node_key(xv, xj, t2), source, sink)

    users = moves[order[np.repeat(shared, counts)]]
    cap = np.full(len(k), math.inf if q is None else float(q))
    _usage_rows(m, xcols[users], k, ycols, k > cap, cap)
    return m


# -- routing stage ----------------------------------------------------------


def build_fcnf(instance: Instance, cost_table=None) -> MipModel:
    """Fixed-charge flow model for the routing stage.

    Base mode (``cost_table is None``) splits every arc cost into a fixed
    share ``eta * c`` paid once if anyone drives the arc and a unit share
    ``(1 - eta) * c`` per vehicle; its optimum underestimates every feasible
    platoon plan.  With a cost table, arcs the table marks as traversed in
    the previous round instead charge each vehicle its shaped coefficient.
    Only the objective depends on the table, so one model can be repriced
    for each round with :func:`price_fcnf`.

    The columns are one ``y`` per arc of the admissible union, sorted, then
    one ``x`` per vehicle and admissible arc, sorted by vehicle and arc.
    The rows are, vehicle by vehicle, one flow row per node its admissible
    arcs touch (out-arcs then in-arcs, each by column) and its window row,
    then ``x <= y`` per ``x`` column; all are added as one block.
    """
    net = instance.network
    adm = instance.admissible
    m = MipModel("fcnf")

    union = sorted(set().union(*adm.values())) if adm else []
    position = {arc: k for k, arc in enumerate(union)}
    x_v, x_arc = [], []
    for v in range(len(instance.vehicles)):
        arcs = sorted(position[arc] for arc in adm[v])
        x_v += [v] * len(arcs)
        x_arc += arcs
    x_v, x_arc = np.array(x_v, dtype=np.int64), np.array(x_arc, dtype=np.int64)
    arcs = np.array(union, dtype=np.int64).reshape(-1, 2)
    tails, heads = arcs.T
    ycols = m.add_vars("y", arcs, BINARY)
    xcols = m.add_vars("x", np.column_stack([tails[x_arc], heads[x_arc], x_v]), BINARY)
    price_fcnf(instance, m, cost_table)

    # one row key per (vehicle, node), and (vehicle, n_nodes) for its window row
    vehicles = instance.vehicles
    n_x = len(xcols)
    stride = net.n_nodes + 1
    v_all = np.arange(len(vehicles))
    origins = v_all * stride + np.array([veh.origin for veh in vehicles], dtype=np.int64)
    dests = v_all * stride + np.array([veh.dest for veh in vehicles], dtype=np.int64)
    windows = v_all * stride + net.n_nodes
    outs = x_v * stride + tails[x_arc]
    ins = x_v * stride + heads[x_arc]
    keys = np.unique(np.concatenate([outs, ins, origins, dests, windows]))
    rhs = np.zeros(len(keys))
    rhs[np.searchsorted(keys, dests)] = -1.0
    rhs[np.searchsorted(keys, origins)] = 1.0
    at_window = np.searchsorted(keys, windows)
    # the route must fit the vehicle's time window even at full speed
    rhs[at_window] = [float(veh.latest_arrival - veh.earliest_departure) for veh in vehicles]
    sense = np.full(len(keys), "=", dtype="<U2")
    sense[at_window] = "<="
    travel = np.array([net.travel_time[arc] for arc in union], dtype=np.float64)
    n_flow = len(keys)
    m.add_rows(
        np.concatenate([
            np.searchsorted(keys, outs), np.searchsorted(keys, ins),
            at_window[x_v], n_flow + np.arange(n_x), n_flow + np.arange(n_x),
        ]),
        np.concatenate([xcols, xcols, xcols, xcols, ycols[x_arc]]),
        np.concatenate([
            np.ones(n_x), np.full(n_x, -1.0), travel[x_arc], np.ones(n_x), np.full(n_x, -1.0),
        ]),
        np.concatenate([sense, np.full(n_x, "<=")]),
        np.concatenate([rhs, np.zeros(n_x)]),
    )
    return m


def price_fcnf(instance: Instance, model: MipModel, cost_table=None) -> None:
    """Set the objective of a :func:`build_fcnf` model of ``instance``.

    Prices exactly as ``build_fcnf(instance, cost_table)`` does, so the
    repriced model and a freshly built one compile to the same arrays.  The
    arcs and vehicles come from the model's ``y`` and ``x`` blocks, and the
    base costs are computed on arrays; the table's coefficients then
    replace the ``x`` costs on the arcs it marks as traversed, whose ``y``
    costs drop to 0.  Raises :class:`MissingCost` if the table lacks one of
    those coefficients, and :class:`ModelInvalid` if the model's column
    counts are not those of this instance's routing model.
    """
    ycols, arcs = model.columns("y")
    xcols, xs = model.columns("x")
    n_x = sum(map(len, instance.admissible.values()))
    if len(xs) != n_x or model.num_vars != len(ycols) + n_x:
        raise ModelInvalid(
            f"model {model.name!r} has {model.num_vars} variables, {len(xs)} of them x; "
            f"the routing model of this instance has {n_x} x"
        )
    eta = instance.eta
    union = list(map(tuple, arcs.tolist()))
    arc_cost = np.array([instance.network.cost[arc] for arc in union], dtype=np.float64)
    # the y block lists the arcs sorted, so an arc's key is its rank there
    n = instance.network.n_nodes
    x_arc = np.searchsorted(arcs[:, 0] * n + arcs[:, 1], xs[:, 0] * n + xs[:, 1])
    y_cost = eta * arc_cost
    x_cost = (1.0 - eta) * arc_cost[x_arc]
    if cost_table is not None and cost_table.traversed:
        shaped = np.array([arc in cost_table.traversed for arc in union], dtype=bool)
        y_cost[shaped] = 0.0
        at = np.flatnonzero(shaped[x_arc])
        for k, (i, j, v) in zip(at.tolist(), xs[at].tolist()):
            try:
                x_cost[k] = cost_table.modified[(v, (i, j))]
            except KeyError:
                raise MissingCost(
                    f"cost table lacks a coefficient for vehicle {v} on arc {(i, j)}"
                ) from None
    model.set_objective(
        cols=np.concatenate([ycols, xcols]),
        coefs=np.concatenate([y_cost, x_cost]),
        sense="min",
    )


@dataclass(frozen=True, eq=False)
class FixedRoutes:
    """Ordered per-vehicle paths and one departure window per vehicle.

    A vehicle on a fixed path enters each arc a fixed travel time after it
    departs, so its whole timing is its departure window ``depart[v] =
    (lo, hi)``: it enters ``arc`` in that window shifted by ``offset[v,
    arc]``, the path's travel time before the arc (:meth:`entry_window`).
    Every arc of one vehicle has the same slack; waiting anywhere shifts all
    later entries.
    """

    paths: Mapping[int, tuple[Arc, ...]]
    offset: Mapping[tuple[int, Arc], int]
    depart: Mapping[int, tuple[int, int]]

    @classmethod
    def build(cls, instance: Instance, paths: Mapping[int, Sequence[Arc]]) -> "FixedRoutes":
        """Check each path against ``instance`` and give its vehicle the
        widest departure window that still arrives in time."""
        tt = instance.network.travel_time
        offset = {}
        depart = {}
        ordered = {}
        for v, path in sorted(paths.items()):
            if not 0 <= v < len(instance.vehicles):
                raise ValidationError(f"vehicle {v} is not in the fleet")
            veh = instance.vehicles[v]
            path = tuple(path)
            fault = path_fault(instance, v, path)
            if fault is not None:
                raise ValidationError(fault[1])
            cum = 0
            for arc in path:
                offset[v, arc] = cum
                cum += tt[arc]
            if veh.latest_arrival - cum < veh.earliest_departure:
                raise InfeasibleNode(
                    f"vehicle {v}: fixed path takes {cum}, window allows only "
                    f"{veh.latest_arrival - veh.earliest_departure}"
                )
            ordered[v] = path
            depart[v] = (veh.earliest_departure, veh.latest_arrival - cum)
        return cls(paths=ordered, offset=offset, depart=depart)

    def entry_window(self, v: int, arc: Arc) -> tuple[int, int]:
        """The times at which vehicle ``v`` may enter ``arc`` of its path."""
        lo, hi = self.depart[v]
        off = self.offset[v, arc]
        return lo + off, hi + off

    @cached_property
    def vehicles_by_arc(self) -> dict[Arc, tuple[int, ...]]:
        by_arc: dict[Arc, list[int]] = defaultdict(list)
        for v, path in sorted(self.paths.items()):
            for arc in path:
                by_arc[arc].append(v)
        return {arc: tuple(vs) for arc, vs in by_arc.items()}

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
            windows = ((lo, v, hi) for v in vs for lo, hi in [self.entry_window(v, arc)])
            for lo, v, hi in sorted(windows):
                if lo > reach:
                    chains.append((arc, []))
                chains[-1][1].append(v)
                reach = max(reach, hi)
        return tuple((arc, tuple(chain)) for arc, chain in chains if len(chain) > 1)


def routes_from_result(instance: Instance, result) -> FixedRoutes:
    """Turn a routing incumbent (its ``x`` columns) into fixed routes."""
    return FixedRoutes.build(instance, _x_paths(instance, result, InfeasibleVehicle))


def _x_paths(instance: Instance, result, error: type[Exception]) -> dict[int, tuple[Arc, ...]]:
    """Each vehicle's path along the arcs its ``x`` columns ``(i, j, v)``
    pick in ``result``.

    A depth-first walk from origin to destination drops spurious cycles; a
    vehicle that has no such path raises ``error``.
    """
    ids, values = result.take("x")
    nxt: dict[int, dict[int, list[Arc]]] = defaultdict(lambda: defaultdict(list))
    for i, j, v in sorted(ids[values > 0.5].tolist()):
        nxt[v][i].append((i, j))
    paths = {}
    for v, veh in enumerate(instance.vehicles):
        path = _walk(veh.origin, veh.dest, nxt.get(v, {}))
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


def _tif_spec(routes: FixedRoutes, kept) -> tuple:
    """All that :func:`build_tif` reads of ``routes`` for the pairs ``kept``:
    for each truck with a kept pair, in ascending id, its kept arcs in path
    order, each with its entry window, as ``(v, ((arc, lo, hi), ...))``."""
    return tuple(
        (v, tuple((arc, *routes.entry_window(v, arc))
                  for arc in routes.paths[v] if (v, arc) in kept))
        for v in sorted({v for v, _arc in kept})
    )


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
    ``kept`` defaults to every pair of the routes, and one off its truck's
    path raises :class:`ValidationError`.  The model, constant included,
    reads ``routes`` and ``kept`` only through their TIF spec
    (:func:`_tif_spec`); (scheduler, TIF spec) keys the part memo of
    :func:`~platoonplan.decomposition.schedule_by_part`.

    The model is built in blocks.  The columns are one ``x`` per kept
    (vehicle, arc) pair, in sorted order, and entry time in its window, then
    one ``y`` per (arc, entry time) slot that some ``x`` uses, found by a
    stable sort of the ``x`` columns by encoded slot.  The rows are one
    entry-time choice per kept pair; the precedence rows of each truck's
    consecutive kept arcs ``a`` and ``b``, where row ``r`` reads
    ``sum(x_a[:r+1]) - sum(x_b[:r+1]) >= 0`` over the two entry windows (a
    triangle of terms, from ``tril_indices``); and the usage rows of each
    slot.
    """
    net = instance.network
    eta = instance.eta
    q = instance.q_limit
    if kept is None:
        kept = frozenset((v, arc) for v, path in routes.paths.items() for arc in path)
    m = MipModel("tif")

    spec = _tif_spec(routes, kept)
    pairs = sorted((v, *arc, lo, hi) for v, arcs in spec for arc, lo, hi in arcs)
    if len(pairs) != len(kept):
        raise ValidationError("kept holds a (vehicle, arc) pair off the vehicle's path")
    pair_v, pair_i, pair_j, lo, hi = np.array(pairs, dtype=np.int64).reshape(-1, 5).T
    if (lo > hi).any():
        v, i, j, _lo, _hi = pairs[int(np.argmax(lo > hi))]
        raise EmptyEntrySet(f"vehicle {v} has no admissible entry time on {(i, j)}")
    # one x per kept pair and entry time in its window
    width = hi - lo + 1
    base = np.cumsum(width) - width
    seg, tm = _ragged(lo, width)
    xv, xi, xj = pair_v[seg], pair_i[seg], pair_j[seg]
    m.add_vars("x", np.column_stack([xi, xj, xv, tm]), BINARY)

    # one y per (arc, entry time) slot, in that order; users by vehicle
    span = int(hi.max(initial=0)) + 1
    order, starts, counts = _groups((xi * net.n_nodes + xj) * span + tm)
    first = order[starts]
    cap = counts if q is None or relax_capacity else np.full(len(counts), q)
    upper = np.ones(len(counts)) if relax_capacity else -(-counts // cap)
    ycols = m.add_vars("y", np.column_stack([xi, xj, tm])[first], INTEGER, 0.0, upper)

    constant = sum(eta * net.cost[i, j] for _v, i, j, _lo, _hi in pairs)
    arc_cost = np.array([net.cost[i, j] for i, j in zip(xi[first].tolist(), xj[first].tolist())])
    m.set_objective(cols=ycols, coefs=-eta * arc_cost, sense="max", constant=constant)

    # exactly one entry time per kept traversal
    m.add_rows(seg, np.arange(len(seg)), np.ones(len(seg)), "=", np.ones(len(pairs)))

    # a vehicle cannot enter a later arc before driving the earlier ones;
    # offsets use cumulative path time, also across arcs modeled as loners.
    # Row r of consecutive kept arcs a and b reads
    # sum(x_a[:r + 1]) - sum(x_b[:r + 1]) >= 0, for r below the width of
    # a's window minus one, so the rows' terms form a lower triangle.
    index = {(v, (i, j)): k for k, (v, i, j, _lo, _hi) in enumerate(pairs)}
    links = [(index[v, a], index[v, b]) for v, arcs in spec
             for (a, *_), (b, *_) in zip(arcs, arcs[1:])]
    pa, pb = np.array(links, dtype=np.int64).reshape(-1, 2).T
    n_rows = width[pa] - 1
    tri_r, tri_s = np.tril_indices(int(n_rows.max(initial=0)))
    link, entry = _ragged(np.zeros(len(n_rows), dtype=np.int64), n_rows * (n_rows + 1) // 2)
    row = (np.cumsum(n_rows) - n_rows)[link] + tri_r[entry]
    m.add_rows(
        np.tile(row, 2),
        np.concatenate([base[pa[link]], base[pb[link]]]) + np.tile(tri_s[entry], 2),
        np.concatenate([np.ones(len(row)), np.full(len(row), -1.0)]),
        ">=",
        np.zeros(int(n_rows.sum())),
    )

    _usage_rows(m, order, counts, ycols, np.ones(len(counts), dtype=bool), cap.astype(np.float64))
    return m


def _tif_choice(result) -> dict[tuple[int, Arc], int]:
    """The entry time a :func:`build_tif` incumbent picks for each modeled
    (vehicle, arc) pair, as ``evaluate.assemble_timetable`` takes them; the
    model's platoon counts are not read."""
    ids, values = result.take("x")
    return {(v, (i, j)): tm for i, j, v, tm in ids[values > 0.5].tolist()}


def build_matching(pairs: Sequence[tuple[int, int, float]], gamma: float, n_vehicles: int) -> MipModel:
    """Cardinality-capped matching over candidate pair savings.

    At most ``gamma * n_vehicles`` pairs may be chosen and no vehicle may
    appear in two of them; maximizes total pledged savings.  The rows are
    one per vehicle that some pair names, in vehicle order, each listing
    its pairs in order, and then the budget row if there is any pair.
    """
    m = MipModel("pairing")
    ends = np.array([(u, v) for u, v, _s in pairs], dtype=np.int64).reshape(-1, 2)
    wcols = m.add_vars("w", ends, BINARY)
    m.set_objective(wcols, [float(s) for _u, _v, s in pairs], sense="max")
    order, _starts, counts = _groups(ends.ravel())
    m.add_rows(
        np.repeat(np.arange(len(counts)), counts),
        np.repeat(wcols, 2)[order],
        np.ones(len(order)),
        "<=",
        np.ones(len(counts)),
    )
    if len(wcols):
        m.add_rows(
            np.zeros(len(wcols), dtype=np.int64), wcols, np.ones(len(wcols)), "<=",
            [gamma * n_vehicles],
        )
    return m
