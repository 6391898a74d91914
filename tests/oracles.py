"""Independent reference implementations used to pin expected test values.

Everything here is deliberately written from scratch against the problem
statement, not against the package internals: exhaustive enumeration where
the instance is small enough and scipy's own integer solver for model
files.  Tests compare the package's fast paths to these slow certainties.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, defaultdict
from dataclasses import replace

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, linprog, milp
from scipy.sparse import csc_matrix, csr_matrix, vstack

from platoonplan.errors import (
    DecodeInconsistent,
    InfeasibleVehicle,
    InvalidSolution,
    ShrinkInfeasible,
)
from platoonplan.evaluate import (
    PlatoonSolution,
    _consistent,
    _timetable,
    _union_find_groups,
    assemble_timetable,
)
from platoonplan.formulations import FixedRoutes, _walk, build_matching
from platoonplan.instance import Instance
from platoonplan.mip import (
    _EQ,
    _GE,
    _INT_TOL,
    BINARY,
    CONTINUOUS,
    INTEGER,
    OPTIMAL,
    MipModel,
    MipResult,
    SolveConfig,
    _Compiled,
    solve,
)


# -- graph primitives -------------------------------------------------------


def bellman_ford(n_nodes, weights, source):
    """Shortest weights from ``source``; ``weights`` maps (i, j) to w >= 0."""
    dist = [math.inf] * n_nodes
    dist[source] = 0.0
    for _ in range(n_nodes - 1):
        changed = False
        for (i, j), w in weights.items():
            if dist[i] + w < dist[j] - 1e-15:
                dist[j] = dist[i] + w
                changed = True
        if not changed:
            break
    return dist


def simple_paths(arcs, origin, dest, max_arcs=None):
    """Every simple path from origin to dest as a tuple of arcs."""
    out_map = {}
    for i, j in arcs:
        out_map.setdefault(i, []).append((i, j))
    for outs in out_map.values():
        outs.sort()
    found = []

    def walk(node, seen, trail):
        if node == dest:
            found.append(tuple(trail))
            return
        if max_arcs is not None and len(trail) >= max_arcs:
            return
        for arc in out_map.get(node, ()):
            if arc[1] in seen:
                continue
            seen.add(arc[1])
            trail.append(arc)
            walk(arc[1], seen, trail)
            trail.pop()
            seen.remove(arc[1])

    walk(origin, {origin}, [])
    return found


# -- exhaustive platooning optima -------------------------------------------


def timed_trajectories(instance, v, paths=None):
    """All integer-time drives of one vehicle: tuples of (arc, entry time).

    Waiting is allowed before any arc, so entry times are any integer
    vectors that respect travel times, the departure bound, and the
    arrival deadline.
    """
    veh = instance.vehicles[v]
    tt = instance.network.travel_time
    if paths is None:
        paths = simple_paths(instance.network.arcs, veh.origin, veh.dest)
    out = []
    for path in paths:
        times = [tt[a] for a in path]
        tail = [0] * len(path)
        acc = 0
        for k in range(len(path) - 1, -1, -1):
            acc += times[k]
            tail[k] = acc
        if veh.earliest_departure + tail[0] > veh.latest_arrival:
            continue

        def assign(k, earliest, chosen):
            if k == len(path):
                out.append(tuple(zip(path, chosen)))
                return
            latest = veh.latest_arrival - tail[k]
            for t in range(earliest, latest + 1):
                chosen.append(t)
                assign(k + 1, t + times[k], chosen)
                chosen.pop()

        assign(0, veh.earliest_departure, [])
    return out


def combination_cost(instance, combo):
    """Cost of one trajectory per vehicle, platoons formed greedily.

    Vehicles on the same arc at the same time split into the fewest legal
    convoys; the cost of a slot with n vehicles does not depend on who
    rides with whom, only on the number of convoys.
    """
    eta = instance.eta
    q = instance.q_limit
    cost = instance.network.cost
    slots = Counter()
    for traj in combo:
        for arc, t in traj:
            slots[arc, t] += 1
    total = 0.0
    for (arc, _t), n in slots.items():
        groups = 1 if q is None else math.ceil(n / q)
        total += cost[arc] * (n - eta * (n - groups))
    return total


def brute_force_joint(instance, budget=200_000):
    """Exact joint optimum by full enumeration, or None when too large."""
    per_vehicle = []
    size = 1
    for v in range(len(instance.vehicles)):
        trajs = timed_trajectories(instance, v)
        if not trajs:
            return None
        size *= len(trajs)
        if size > budget:
            return None
        per_vehicle.append(trajs)
    best = math.inf
    for combo in itertools.product(*per_vehicle):
        c = combination_cost(instance, combo)
        if c < best:
            best = c
    return best


def brute_force_schedule(instance, paths, budget=200_000):
    """Exact best timetable for fixed paths, or None when too large."""
    per_vehicle = []
    size = 1
    for v in sorted(paths):
        trajs = timed_trajectories(instance, v, paths=[paths[v]])
        if not trajs:
            return None
        size *= len(trajs)
        if size > budget:
            return None
        per_vehicle.append(trajs)
    best = math.inf
    for combo in itertools.product(*per_vehicle):
        c = combination_cost(instance, combo)
        if c < best:
            best = c
    return best


# -- scheduling screen ------------------------------------------------------


def _drivers_by_arc(routes):
    by_arc = defaultdict(list)
    for v, path in sorted(routes.paths.items()):
        for arc in path:
            by_arc[arc].append(v)
    return by_arc


def _windows_overlap(routes, u, v, arc):
    (lo_u, hi_u), (lo_v, hi_v) = routes.entry_window(u, arc), routes.entry_window(v, arc)
    return max(lo_u, lo_v) <= min(hi_u, hi_v)


def overlapping_pairs(routes):
    """Every ``(u, v, arc)`` with ``u < v`` both driving ``arc`` and their
    entry windows there overlapping, found by comparing all pairs."""
    return [
        (u, v, arc)
        for arc, vs in _drivers_by_arc(routes).items()
        for u, v in itertools.combinations(vs, 2)
        if _windows_overlap(routes, u, v, arc)
    ]


def kept_pairs(routes):
    """The (truck, arc) pairs worth scheduling: a pair is kept iff another
    driver's entry window on that arc overlaps its own (O(k^2) per arc)."""
    return frozenset(
        (v, arc)
        for arc, vs in _drivers_by_arc(routes).items()
        for v in vs
        if any(_windows_overlap(routes, u, v, arc) for u in vs if u != v)
    )


def overlap_components(routes):
    """Trucks joined by overlapping windows on any arc, each component as a
    sorted tuple, ordered by smallest truck; trucks that overlap no one are
    left out."""
    neighbours = defaultdict(set)
    for u, v, _arc in overlapping_pairs(routes):
        neighbours[u].add(v)
        neighbours[v].add(u)
    seen = set()
    out = []
    for start in sorted(neighbours):
        if start in seen:
            continue
        seen.add(start)
        stack, comp = [start], []
        while stack:
            u = stack.pop()
            comp.append(u)
            for w in neighbours[u] - seen:
                seen.add(w)
                stack.append(w)
        out.append(tuple(sorted(comp)))
    return out


# -- independent integer solving --------------------------------------------


def model_arrays(model: MipModel):
    """A model as plain arrays, built row by row from its term lists.

    Returns ``(c, lower, upper, integrality, a, lo, hi)``: ``c`` in
    minimize space without the constant, and ``a`` as one CSR matrix with
    every constraint row in model order, ranged by ``lo <= a @ x <= hi``.
    """
    n = model.num_vars
    c = np.zeros(n)
    for idx, coef in model.objective.items():
        c[idx] = coef
    if model.sense == "max":
        c = -c
    lower = np.array([v.lower for v in model.variables])
    upper = np.array([v.upper for v in model.variables])
    integrality = np.array(
        [1 if v.kind in (BINARY, INTEGER) else 0 for v in model.variables]
    )
    rows, cols, vals, lo, hi = [], [], [], [], []
    for r, (idxs, coefs, sense, rhs) in enumerate(model.constraints):
        for idx, coef in zip(idxs, coefs):
            rows.append(r)
            cols.append(idx)
            vals.append(coef)
        if sense == "<=":
            lo.append(-np.inf)
            hi.append(rhs)
        elif sense == ">=":
            lo.append(rhs)
            hi.append(np.inf)
        else:
            lo.append(rhs)
            hi.append(rhs)
    a = csr_matrix((vals, (rows, cols)), shape=(len(model.constraints), n))
    return c, lower, upper, integrality, a, np.array(lo), np.array(hi)


def milp_oracle(model: MipModel):
    """Solve a model with scipy's own branch and cut.

    Returns (found, objective); found is False for infeasible models.
    """
    c, lower, upper, integrality, a, lo, hi = model_arrays(model)
    constraints = [LinearConstraint(a, lo, hi)] if model.constraints else []
    # presolve stays off: with it on, this scipy build returns provably
    # suboptimal points on some mixed binary/continuous models
    res = milp(
        c,
        constraints=constraints,
        integrality=integrality,
        bounds=Bounds(lower, upper),
        options={"presolve": False},
    )
    if res.status != 0:
        return False, None
    value = float(res.fun)
    if model.sense == "max":
        value = -value
    return True, value + model.objective_constant


def enumerate_mip(model: MipModel):
    """Optimal objective of a small all-integer model by full enumeration."""
    ranges = []
    for v in model.variables:
        if v.kind == CONTINUOUS:
            raise ValueError("enumeration needs an all-integer model")
        if not (math.isfinite(v.lower) and math.isfinite(v.upper)):
            raise ValueError(f"variable {v.name} is unbounded")
        ranges.append(range(int(v.lower), int(v.upper) + 1))
    flip = -1.0 if model.sense == "max" else 1.0
    best = None
    for point in itertools.product(*ranges):
        ok = True
        for idxs, coefs, sense, rhs in model.constraints:
            lhs = sum(point[i] * c for i, c in zip(idxs, coefs))
            if sense == "<=" and lhs > rhs + 1e-9:
                ok = False
            elif sense == ">=" and lhs < rhs - 1e-9:
                ok = False
            elif sense == "=" and abs(lhs - rhs) > 1e-9:
                ok = False
            if not ok:
                break
        if not ok:
            continue
        val = sum(point[i] * c for i, c in model.objective.items())
        if best is None or flip * val < flip * best:
            best = val
    if best is None:
        return False, None
    return True, best + model.objective_constant


def scipy_csc(a) -> csc_matrix:
    """A compiled model's matrix ``a`` as a scipy CSC matrix on its arrays."""
    return csc_matrix((a.data, a.indices, a.indptr), shape=a.shape)


def _lp(comp: _Compiled, lower: np.ndarray, upper: np.ndarray):
    """Cold ``linprog`` solve of the relaxation under column bounds: the
    reference for the package's hot-started node LPs.

    Returns ``(status, x, fun)`` with ``linprog``'s status codes."""
    a = scipy_csc(comp.a)
    ub = np.isneginf(comp.row_lower)
    res = linprog(
        comp.c,
        A_ub=a[ub],
        b_ub=comp.row_upper[ub],
        A_eq=a[~ub],
        b_eq=comp.row_upper[~ub],
        bounds=np.column_stack([lower, upper]),
        method="highs",
    )
    return res.status, res.x, res.fun


# the per-constraint tolerance solve promises for every reported incumbent;
# integrality is checked at the solver's own _INT_TOL
_FEAS_TOL = 1e-6


def _feasible_point(comp: _Compiled, x: np.ndarray) -> bool:
    if np.any(x < comp.lower - _FEAS_TOL) or np.any(x > comp.upper + _FEAS_TOL):
        return False
    if comp.int_mask.any():
        xi = x[comp.int_mask]
        if np.max(np.abs(xi - np.round(xi)), initial=0.0) > _INT_TOL:
            return False
    ax = scipy_csc(comp.a) @ x
    return not (
        np.any(ax > comp.row_upper + _FEAS_TOL) or np.any(ax < comp.row_lower - _FEAS_TOL)
    )


# -- one column and one row at a time ------------------------------------------


def one_col(m, key, kind=CONTINUOUS, lower=0.0, upper=math.inf) -> int:
    """Add the column ``key = (tag, *ids)`` and return its index."""
    return int(m.add_vars(key[0], [key[1:]], kind, lower, upper)[0])


class KeyedColumns:
    """Columns named one key ``(tag, *ids)`` at a time.

    Calling it returns the index the column will have; :meth:`flush` adds
    the columns named so far to the model, one ``add_vars`` block per run of
    one tag and kind.  The row-by-row builders name every column before
    their first row, so they add as many blocks as the columnar builders;
    one block per column would make the model's duplicate check, which
    reads every earlier block of the tag, quadratic in the columns.
    """

    def __init__(self, m: MipModel):
        self.m = m
        self.pending = []

    def __call__(self, key, kind=CONTINUOUS, lower=0.0, upper=math.inf) -> int:
        self.pending.append((key, kind, lower, upper))
        return self.m.num_vars + len(self.pending) - 1

    def flush(self) -> None:
        for (tag, kind), run in itertools.groupby(self.pending, lambda p: (p[0][0], p[1])):
            run = list(run)
            self.m.add_vars(
                tag, [key[1:] for key, *_ in run], kind, [p[2] for p in run], [p[3] for p in run]
            )
        self.pending = []


def terms_arrays(terms):
    """(column, coefficient) pairs as the arrays ``(cols, coefs)``, the
    form ``add_rows`` and ``set_objective`` take."""
    cols = np.array([col for col, _coef in terms], dtype=np.int64)
    return cols, np.array([coef for _col, coef in terms], dtype=np.float64)


def one_row(m, terms, sense, rhs) -> int:
    """Add one row of (column, coefficient) terms and return its index."""
    cols, coefs = terms_arrays(terms)
    return m.add_rows(np.zeros(len(cols), dtype=np.int64), cols, coefs, sense, [rhs])


# -- the full time-expanded model --------------------------------------------


def full_tsf(instance, tsn):
    """The time-expanded model with every redundant row and column kept.

    This is ``build_tsf`` as it was before it left out the implied slot
    rows, the ``y`` of single-user time arcs and the waiting arcs at nodes a
    truck cannot reach.  The reduced model must have the same LP bound and
    optimum as this one.
    """
    eta = instance.eta
    q = instance.q_limit
    adm = instance.admissible
    net, horizon = tsn.net, tsn.horizon
    m = MipModel("tsf")
    col = KeyedColumns(m)

    # every time copy of every road arc that fits the horizon, and every
    # waiting arc, in the order the time-space network once listed them
    move_arcs = [
        (i, tm, j, tm + net.travel_time[i, j])
        for (i, j) in net.arcs
        for tm in range(horizon - net.travel_time[i, j] + 1)
    ]
    time_arcs = [(i, tm) for i in range(net.n_nodes) for tm in range(horizon)]

    move_users = defaultdict(list)
    xvar = {}
    out_at = []
    in_at = []

    for v, veh in enumerate(instance.vehicles):
        win = instance.windows[v]
        outs = defaultdict(list)
        ins = defaultdict(list)
        for (i, tm, j, t2) in move_arcs:
            if (i, j) not in adm[v]:
                continue
            wi = win.get(i)
            wj = win.get(j)
            if wi is None or wj is None:
                continue
            if wi[0] <= tm <= wi[1] and wj[0] <= t2 <= wj[1]:
                idx = col(("x", i, tm, j, t2, v), BINARY)
                xvar[v, (i, tm, j, t2)] = idx
                move_users[(i, tm, j, t2)].append(v)
                outs[(i, tm)].append(idx)
                ins[(j, t2)].append(idx)
        for (i, tm) in time_arcs:
            wi = win.get(i)
            if wi is not None and wi[0] <= tm and tm + 1 <= wi[1]:
                idx = col(("x", i, tm, i, tm + 1, v), BINARY)
                outs[(i, tm)].append(idx)
                ins[(i, tm + 1)].append(idx)
        out_at.append(outs)
        in_at.append(ins)

    yvar = {}
    for ts_arc in sorted(move_users):
        k = len(move_users[ts_arc])
        cap = q if q is not None else k
        ub = math.ceil(k / cap)
        yvar[ts_arc] = col(("y", *ts_arc), INTEGER, 0, ub)

    col.flush()
    obj = []
    for (v, (i, tm, j, t2)), idx in xvar.items():
        obj.append((idx, (1.0 - eta) * net.cost[i, j]))
    for ts_arc, idx in yvar.items():
        obj.append((idx, eta * net.cost[ts_arc[0], ts_arc[2]]))
    m.set_objective(*terms_arrays(obj), sense="min")

    for v, veh in enumerate(instance.vehicles):
        source = (veh.origin, veh.earliest_departure)
        sink = (veh.dest, veh.latest_arrival)
        ts_nodes = sorted(set(out_at[v]) | set(in_at[v]) | {source, sink})
        for node in ts_nodes:
            terms = [(idx, 1.0) for idx in out_at[v].get(node, ())]
            terms += [(idx, -1.0) for idx in in_at[v].get(node, ())]
            rhs = 1.0 if node == source else -1.0 if node == sink else 0.0
            one_row(m, terms, "=", rhs)

    for ts_arc, vs in sorted(move_users.items()):
        cap = q if q is not None else len(vs)
        yidx = yvar[ts_arc]
        one_row(m, 
            [(xvar[v, ts_arc], 1.0) for v in vs] + [(yidx, -float(cap))],
            "<=",
            0.0,
        )
        for v in vs:
            one_row(m, [(xvar[v, ts_arc], 1.0), (yidx, -1.0)], "<=", 0.0)
    return m


# -- the cost-shaping history that kept every table ----------------------------


class FullTableHistory:
    """The cycle-detection history as it was when it kept every round's
    cost table, with scenario 4's follow-up lookup read straight from the
    tables.

    ``tables[k - 1]`` is the cost table written after round ``k``.  An
    index maps each arc and platoon composition that arc had after some
    round to the vehicles that round's table tagged 3 there (offered the
    join estimate), each with the first such round.  It offers the same
    calls as ``decomposition.History``, so ``modify_costs`` accepts either.
    """

    def __init__(self):
        self.tables = []
        self._lured = {}

    def append(self, compositions, table):
        """Record the next round: its platoons on each arc, and the table
        written after it."""
        self.tables.append(table)
        k = len(self.tables)
        lured = defaultdict(list)
        for (v, arc), tag in table.scenarios.items():
            if tag == 3:
                lured[arc].append(v)
        for arc, comp in compositions.items():
            first = self._lured.setdefault((arc, comp), {})
            for v in lured.get(arc, ()):
                first.setdefault(v, k)

    def first_lure(self, v, arc, comp):
        """The first round after which ``arc`` carried the platoons ``comp``
        and the table tagged ``(v, arc)`` 3, if any."""
        return self._lured.get((arc, comp), {}).get(v)

    def follow_up(self, v, arc, k, c):
        """The cost round ``k + 2`` priced ``(v, arc)`` at, or None while
        that table is not on record."""
        if k < len(self.tables):
            # tables[k] was written after round k + 1, which is exactly what
            # round k + 2 priced this pair at
            return self.tables[k].modified.get((v, arc), c)
        return None


# -- entry windows, one arc at a time ------------------------------------------


def windows_by_arc(instance, paths):
    """``{(v, arc): (lo, hi)}``: each truck's entry window on every arc of
    its path, from the cumulative travel time before the arc and the slack
    its journey window leaves over the whole path."""
    tt = instance.network.travel_time
    windows = {}
    for v, path in paths.items():
        veh = instance.vehicles[v]
        offsets = list(itertools.accumulate((tt[arc] for arc in path), initial=0))
        slack = (veh.latest_arrival - veh.earliest_departure) - offsets[-1]
        for arc, off in zip(path, offsets):
            windows[v, arc] = (veh.earliest_departure + off, veh.earliest_departure + off + slack)
    return windows


# -- pairwise narrowing through a copied instance -----------------------------


def shrink_by_instance(instance, routes, chosen):
    """Pairwise window narrowing the long way: shift each chosen truck's
    journey window on a copy of ``instance``, then recompute every entry
    window from that copy with :func:`windows_by_arc`.

    ``routes`` are the fixed routes of ``instance``.  The truck's departure
    moves up by ``max(0, lo_other - lo_mine)`` and its arrival deadline down
    by ``max(0, hi_mine - hi_other)``, from the pair's entry windows at the
    merge node; a truck in two pairs keeps the last.  A journey window that
    empties raises ``ShrinkInfeasible``; one shorter than the fastest trip
    raises ``ValidationError`` from the copied ``Instance``.
    """
    before = windows_by_arc(instance, routes.paths)
    windows = {}
    for c in chosen:
        arc = c.segment[0]
        for me, other in ((c.u, c.v), (c.v, c.u)):
            (lo_m, hi_m), (lo_o, hi_o) = before[me, arc], before[other, arc]
            veh = instance.vehicles[me]
            ted = veh.earliest_departure + max(0, lo_o - lo_m)
            tla = veh.latest_arrival - max(0, hi_m - hi_o)
            if tla < ted:
                raise ShrinkInfeasible(f"vehicle {me} cannot meet vehicle {other}")
            windows[me] = (ted, tla)
    vehicles = tuple(
        replace(v, earliest_departure=windows[v.id][0], latest_arrival=windows[v.id][1])
        if v.id in windows
        else v
        for v in instance.vehicles
    )
    shrunk = Instance(
        network=instance.network,
        vehicles=vehicles,
        eta=instance.eta,
        q_limit=instance.q_limit,
        time_unit=instance.time_unit,
        horizon=instance.horizon,
    )
    return windows_by_arc(shrunk, routes.paths)


# -- the row-by-row builders ---------------------------------------------------
#
# build_tsf, build_tif, build_fcnf, build_cpf and build_matching as they were
# when they added one column and one row at a time.  The columnar builders
# must compile to the same arrays and names.


def tsf_by_rows(instance, tsn):
    """``build_tsf``, one column and one row at a time."""
    net = instance.network
    eta = instance.eta
    q = instance.q_limit
    adm = instance.admissible
    tt = net.travel_time
    horizon = tsn.horizon
    m = MipModel("tsf")
    col = KeyedColumns(m)

    move_users = defaultdict(list)
    xvar = {}
    out_at = []
    in_at = []

    for v, veh in enumerate(instance.vehicles):
        win = instance.windows[v]
        outs = defaultdict(list)
        ins = defaultdict(list)
        for arc in net.arcs:
            if arc not in adm[v]:
                continue
            i, j = arc
            t_ij = tt[arc]
            (lo_i, hi_i), (lo_j, hi_j) = win[i], win[j]
            last = min(hi_i, hi_j - t_ij, horizon - t_ij)
            for tm in range(max(lo_i, lo_j - t_ij), last + 1):
                t2 = tm + t_ij
                idx = col(("x", i, tm, j, t2, v), BINARY)
                xvar[v, (i, tm, j, t2)] = idx
                move_users[(i, tm, j, t2)].append(v)
                outs[(i, tm)].append(idx)
                ins[(j, t2)].append(idx)
        reach = {n for arc in adm[v] for n in arc} | {veh.origin, veh.dest}
        for i in sorted(reach):
            lo_i, hi_i = win[i]
            for tm in range(lo_i, min(hi_i, horizon)):
                idx = col(("x", i, tm, i, tm + 1, v), BINARY)
                outs[(i, tm)].append(idx)
                ins[(i, tm + 1)].append(idx)
        out_at.append(outs)
        in_at.append(ins)

    yvar = {}
    for ts_arc in sorted(move_users):
        k = len(move_users[ts_arc])
        if k == 1:
            continue
        cap = q if q is not None else k
        yvar[ts_arc] = col(("y", *ts_arc), INTEGER, 0, math.ceil(k / cap))

    col.flush()
    obj = []
    for (_v, ts_arc), idx in xvar.items():
        c = net.cost[ts_arc[0], ts_arc[2]]
        coef = (1.0 - eta) * c
        if ts_arc not in yvar:
            coef += eta * c
        obj.append((idx, coef))
    for ts_arc, idx in yvar.items():
        obj.append((idx, eta * net.cost[ts_arc[0], ts_arc[2]]))
    m.set_objective(*terms_arrays(obj), sense="min")

    for v, veh in enumerate(instance.vehicles):
        source = (veh.origin, veh.earliest_departure)
        sink = (veh.dest, veh.latest_arrival)
        ts_nodes = sorted(set(out_at[v]) | set(in_at[v]) | {source, sink})
        for node in ts_nodes:
            terms = [(idx, 1.0) for idx in out_at[v].get(node, ())]
            terms += [(idx, -1.0) for idx in in_at[v].get(node, ())]
            rhs = 1.0 if node == source else -1.0 if node == sink else 0.0
            one_row(m, terms, "=", rhs)

    for ts_arc, yidx in yvar.items():
        vs = move_users[ts_arc]
        if q is not None and len(vs) > q:
            one_row(m, 
                [(xvar[v, ts_arc], 1.0) for v in vs] + [(yidx, -float(q))],
                "<=",
                0.0,
            )
        for v in vs:
            one_row(m, [(xvar[v, ts_arc], 1.0), (yidx, -1.0)], "<=", 0.0)
    return m


def _flow_rows_by_rows(m, instance, v, x):
    veh = instance.vehicles[v]
    outs = defaultdict(list)
    ins = defaultdict(list)
    for arc in instance.admissible[v]:
        outs[arc[0]].append((x[v, arc], 1.0))
        ins[arc[1]].append((x[v, arc], -1.0))
    for node in sorted(outs.keys() | ins.keys() | {veh.origin, veh.dest}):
        terms = outs.get(node, []) + ins.get(node, [])
        rhs = 1.0 if node == veh.origin else -1.0 if node == veh.dest else 0.0
        if terms or rhs:
            one_row(m, terms, "=", rhs)


def fcnf_by_rows(instance, cost_table=None):
    """``build_fcnf``, one column and one row at a time, priced term by
    term."""
    net = instance.network
    adm = instance.admissible
    cost = net.cost
    eta = instance.eta
    m = MipModel("fcnf")
    col = KeyedColumns(m)

    union = sorted(set().union(*adm.values())) if adm else []
    xkeys = [(v, arc) for v in range(len(instance.vehicles)) for arc in sorted(adm[v])]
    yvar = {arc: col(("y", *arc), BINARY) for arc in union}
    xvar = {(v, arc): col(("x", *arc, v), BINARY) for v, arc in xkeys}

    col.flush()
    shaped = cost_table.traversed if cost_table is not None else frozenset()
    obj = []
    for (v, arc), idx in xvar.items():
        if arc in shaped:
            obj.append((idx, cost_table.modified[(v, arc)]))
        else:
            obj.append((idx, (1.0 - eta) * cost[arc]))
    for arc, idx in yvar.items():
        if arc not in shaped:
            obj.append((idx, eta * cost[arc]))
    m.set_objective(*terms_arrays(obj), sense="min")

    tt = net.travel_time
    for v, veh in enumerate(instance.vehicles):
        _flow_rows_by_rows(m, instance, v, xvar)
        window = float(veh.latest_arrival - veh.earliest_departure)
        one_row(m, [(xvar[v, a], float(tt[a])) for a in sorted(adm[v])], "<=", window)

    for (v, arc), idx in xvar.items():
        one_row(m, [(idx, 1.0), (yvar[arc], -1.0)], "<=", 0.0)
    return m


def tif_by_rows(instance, routes, kept=None, relax_capacity=False):
    """``build_tif``, one column and one row at a time."""
    net = instance.network
    eta = instance.eta
    q = instance.q_limit
    if kept is None:
        kept = frozenset((v, arc) for v, path in routes.paths.items() for arc in path)
    m = MipModel("tif")
    col = KeyedColumns(m)

    xvar = {}
    slot_users = defaultdict(list)
    for v, arc in sorted(kept):
        lo, hi = routes.entry_window(v, arc)
        for tm in range(lo, hi + 1):
            xvar[v, arc, tm] = col(("x", *arc, v, tm), BINARY)
            slot_users[arc, tm].append(v)

    yvar = {}
    for (arc, tm) in sorted(slot_users):
        k = len(slot_users[arc, tm])
        cap = q if q is not None else k
        ub = 1 if relax_capacity else math.ceil(k / cap)
        yvar[arc, tm] = col(("y", *arc, tm), INTEGER, 0, ub)

    col.flush()
    constant = sum(eta * net.cost[arc] for (_v, arc) in sorted(kept))
    m.set_objective(
        *terms_arrays([(idx, -eta * net.cost[arc]) for (arc, _tm), idx in yvar.items()]),
        sense="max",
        constant=constant,
    )

    for v, arc in sorted(kept):
        lo, hi = routes.entry_window(v, arc)
        one_row(m, [(xvar[v, arc, tm], 1.0) for tm in range(lo, hi + 1)], "=", 1.0)

    for v, path in sorted(routes.paths.items()):
        kept_arcs = [arc for arc in path if (v, arc) in kept]
        for a, b in zip(kept_arcs, kept_arcs[1:]):
            lo_a, hi_a = routes.entry_window(v, a)
            lo_b, _hi_b = routes.entry_window(v, b)
            delta = lo_b - lo_a
            for tm in range(lo_a, hi_a):
                terms = [(xvar[v, a, tau], 1.0) for tau in range(lo_a, tm + 1)]
                terms += [(xvar[v, b, tau], -1.0) for tau in range(lo_b, tm + delta + 1)]
                one_row(m, terms, ">=", 0.0)

    for (arc, tm), vs in sorted(slot_users.items()):
        cap = q if q is not None else len(vs)
        if relax_capacity:
            cap = len(vs)
        yidx = yvar[arc, tm]
        one_row(m, 
            [(xvar[v, arc, tm], 1.0) for v in vs] + [(yidx, -float(cap))], "<=", 0.0
        )
        for v in vs:
            one_row(m, [(xvar[v, arc, tm], 1.0), (yidx, -1.0)], "<=", 0.0)
    return m


def cpf_by_rows(instance):
    """``build_cpf``, one column and one row at a time."""
    net = instance.network
    eta = instance.eta
    q = instance.q_limit
    n_veh = len(instance.vehicles)
    adm = instance.admissible
    bounds = instance.windows
    m = MipModel("cpf")
    col = KeyedColumns(m)

    x = {}
    t = {}
    for v, veh in enumerate(instance.vehicles):
        nodes = {veh.origin, veh.dest}
        for (i, j) in adm[v]:
            nodes.add(i)
            nodes.add(j)
        for i in sorted(nodes):
            lo, hi = bounds[v][i]
            t[v, i] = col(("t", i, v), CONTINUOUS, lo, hi)
        for arc in sorted(adm[v]):
            x[v, arc] = col(("x", *arc, v), BINARY)

    y = {}
    for v in range(n_veh):
        for w in range(v + 1, n_veh):
            for arc in sorted(adm[v] & adm[w]):
                i = arc[0]
                if max(bounds[v][i][0], bounds[w][i][0]) > min(
                    bounds[v][i][1], bounds[w][i][1]
                ):
                    continue
                y[arc, v, w] = col(("y", *arc, v, w), BINARY)

    col.flush()
    obj = [(idx, net.cost[arc]) for (v, arc), idx in x.items()]
    obj += [(idx, -eta * net.cost[arc]) for (arc, _v, _w), idx in y.items()]
    m.set_objective(*terms_arrays(obj), sense="min")

    for v in range(n_veh):
        _flow_rows_by_rows(m, instance, v, x)

    for (arc, v, w), idx in y.items():
        i = arc[0]
        one_row(m, [(idx, 1.0), (x[w, arc], -1.0)], "<=", 0.0)
        one_row(m, [(idx, 1.0), (x[v, arc], -1.0)], "<=", 0.0)
        lo_v, hi_v = bounds[v][i]
        lo_w, hi_w = bounds[w][i]
        m0 = hi_w - lo_v
        m1 = hi_v - lo_w
        one_row(m, [(t[w, i], 1.0), (t[v, i], -1.0), (idx, m0)], "<=", m0)
        one_row(m, [(t[v, i], 1.0), (t[w, i], -1.0), (idx, m1)], "<=", m1)

    followers = defaultdict(list)
    leaders = defaultdict(list)
    for (arc, v, w), idx in y.items():
        followers[w, arc].append(idx)
        leaders[v, arc].append(idx)
    for (w, arc), idxs in sorted(followers.items()):
        one_row(m, [(i, 1.0) for i in idxs], "<=", 1.0)

    if q is not None:
        for (v, arc), idxs in sorted(leaders.items()):
            terms = [(i, 1.0) for i in idxs]
            terms += [(i, float(q - 1)) for i in followers.get((v, arc), ())]
            one_row(m, terms, "<=", float(q - 1))

    tt = net.travel_time
    for v, veh in enumerate(instance.vehicles):
        for arc in sorted(adm[v]):
            i, j = arc
            if j == veh.origin:
                continue
            m2 = max(0, bounds[v][i][1] - bounds[v][j][0] + tt[arc])
            one_row(m, [(t[v, j], 1.0), (t[v, i], -1.0), (x[v, arc], -m2)], ">=", tt[arc] - m2)
    return m


def matching_by_rows(pairs, gamma, n_vehicles):
    """``build_matching``, one column and one row at a time."""
    m = MipModel("pairing")
    col = KeyedColumns(m)
    wvar = []
    touching = defaultdict(list)
    for u, v, _s in pairs:
        idx = col(("w", u, v), BINARY)
        wvar.append(idx)
        touching[u].append(idx)
        touching[v].append(idx)
    col.flush()
    m.set_objective(
        *terms_arrays([(idx, float(s)) for idx, (_u, _v, s) in zip(wvar, pairs)]), sense="max"
    )
    for veh in sorted(touching):
        one_row(m, [(idx, 1.0) for idx in touching[veh]], "<=", 1.0)
    if wvar:
        one_row(m, [(idx, 1.0) for idx in wvar], "<=", gamma * n_vehicles)
    return m


def assert_same_arrays(got: _Compiled, want: _Compiled) -> None:
    """Two compiled models are identical: every array's dtype and bytes,
    the sparse structure, the constant and the sense."""
    for name in ("c", "row_lower", "row_upper", "lower", "upper", "int_mask"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert got.a.shape == want.a.shape
    for part in ("indptr", "indices", "data"):
        x, y = getattr(got.a, part), getattr(want.a, part)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), part
    assert (got.const, got.flip) == (want.const, want.flip)


# -- the two-block compile -----------------------------------------------------


def _block(keep, pos, row, col, coef, rhs, n: int, signs):
    """The rows ``keep`` selects as one CSR matrix, each row at its ``pos``
    and scaled by its sign in ``signs``, and their right-hand sides."""
    count = int(keep.sum())
    if not count:
        return None, None
    entries = keep[row]
    row = row[entries]
    vals = coef[entries]
    rhs = rhs[keep]
    if signs is not None:
        vals = signs[row] * vals
        rhs = signs[keep] * rhs
    return csr_matrix((vals, (pos[row], col[entries])), shape=(count, n)), rhs


def two_block_load(model: MipModel) -> dict[str, np.ndarray]:
    """The arrays the LP of ``model`` was handed to HiGHS's ``passModel`` as
    when the package compiled a model to ``linprog``'s form.

    The rows split into a "<=" block (">=" rows negated) and an "=" block,
    each a CSR matrix in model order; the LP stacked the two and converted
    the result to CSC, and concatenated the blocks' right-hand sides into
    row bounds.  The columns' arrays are those of the same compile.  That
    LP swapped each infinite bound for HiGHS's ``kHighsInf``, which is the
    float infinity (importing the package checks it), so none is swapped
    here.
    """
    n = model.num_vars
    sense = np.array(model._sense, dtype=np.int8)
    rhs = np.array(model._rhs, dtype=np.float64)
    row = np.array(model._row, dtype=np.int64)
    col = np.array(model._col, dtype=np.int64)
    coef = np.array(model._coef, dtype=np.float64)
    is_eq = sense == _EQ
    pos = np.where(is_eq, np.cumsum(is_eq), np.cumsum(~is_eq)) - 1
    signs = np.where(sense == _GE, -1.0, 1.0)
    a_ub, b_ub = _block(~is_eq, pos, row, col, coef, rhs, n, signs)
    a_eq, b_eq = _block(is_eq, pos, row, col, coef, rhs, n, None)
    b_ub = b_ub if b_ub is not None else np.empty(0)
    b_eq = b_eq if b_eq is not None else np.empty(0)
    blocks = [a for a in (a_ub, a_eq) if a is not None]
    a = csc_matrix(vstack(blocks)) if blocks else csc_matrix((0, n))
    cost = np.zeros(n)
    cost[: len(model._cost)] = model._cost
    return {
        "num_col_": np.array([n]),
        "num_row_": np.array([len(b_ub) + len(b_eq)]),
        "start_": a.indptr,
        "index_": a.indices,
        "value_": a.data,
        "col_cost_": -cost if model.sense == "max" else cost,
        "col_lower_": np.array(model._lower, dtype=np.float64),
        "col_upper_": np.array(model._upper, dtype=np.float64),
        "row_lower_": np.concatenate([np.full(len(b_ub), -np.inf), b_eq]),
        "row_upper_": np.concatenate([b_ub, b_eq]),
    }


# -- the readers that scanned keys ----------------------------------------------
#
# The decoders once read ``solve``'s incumbent as a dict from column key to
# value and matched each key against its tag and arity.  These are those
# readers, kept to check the readers that take columns by tag; they share
# the package's path walk, grouping and timetable assembly, which read no
# incumbent.


def keyed_values(model: MipModel, result: MipResult) -> dict:
    """The incumbent of ``result`` by column key ``(tag, *ids)``."""
    return dict(zip((v.name for v in model.variables), result.x.tolist()))


def keyed_result(values: dict, status: str = OPTIMAL) -> MipResult:
    """A result whose incumbent gives each key of ``values`` its value: one
    block per tag, the keys of a tag in the order given."""
    by_tag = defaultdict(list)
    for key, val in values.items():
        by_tag[key[0]].append((key[1:], val))
    m = MipModel()
    x = []
    for tag, items in by_tag.items():
        m.add_vars(tag, [ids for ids, _val in items])
        x += [val for _ids, val in items]
    return MipResult(status, None, None, np.array(x, dtype=np.float64), 0.0, 0, tuple(m._blocks))


def x_paths_by_key(instance, values, error):
    nxt = defaultdict(lambda: defaultdict(list))
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


def routes_by_key(instance, values) -> FixedRoutes:
    return FixedRoutes.build(instance, x_paths_by_key(instance, values, InfeasibleVehicle))


def _decode_cpf_by_key(instance, values):
    times = {}
    links = defaultdict(list)
    for key, val in values.items():
        match key:
            case ("t", i, v):
                times[v, i] = val
            case ("y", i, j, v, w) if val > 0.5:
                links[i, j].append((v, w))
    paths = x_paths_by_key(instance, values, DecodeInconsistent)
    on_arc = defaultdict(set)
    for v, path in paths.items():
        for arc in path:
            on_arc[arc].add(v)
    slot_time = {}
    groups = defaultdict(list)
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
    return PlatoonSolution(paths=timed_paths, groups={k: tuple(gs) for k, gs in groups.items()})


def _decode_tsf_by_key(instance, values):
    moves = defaultdict(list)
    for key, val in values.items():
        match key:
            case ("x", i, tm, j, _, v) if val > 0.5 and i != j:
                moves[v].append((tm, (i, j)))
    return {
        v: tuple((arc, tm) for tm, arc in sorted(moves.get(v, ())))
        for v in range(len(instance.vehicles))
    }


def tif_choice_by_key(values):
    chosen = {}
    for key, val in values.items():
        match key:
            case ("x", i, j, v, tm) if val > 0.5:
                chosen[v, (i, j)] = tm
    return chosen


def decode_by_key(instance, values, which, routes=None):
    """``decode`` as it read an incumbent by key."""
    if not values:
        raise InvalidSolution("result carries no incumbent to decode")
    if which == "cpf":
        return _consistent(instance, _decode_cpf_by_key(instance, values))
    if which == "tsf":
        return _timetable(instance, _decode_tsf_by_key(instance, values))
    return assemble_timetable(instance, routes, tif_choice_by_key(values))


def select_pairs_by_key(candidates, gamma, n_vehicles):
    """``select_pairs`` as it read the matching's incumbent by key."""
    if math.floor(gamma * n_vehicles) <= 0 or not candidates:
        return []
    model = build_matching([(c.u, c.v, c.savings) for c in candidates], gamma, n_vehicles)
    values = keyed_values(model, solve(model, SolveConfig()))
    return [c for c in candidates if values.get(("w", c.u, c.v), 0.0) > 0.5]
