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

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csr_matrix

from platoonplan.mip import BINARY, CONTINUOUS, INTEGER, MipModel


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
    lo = max(routes.entry_lo[u, arc], routes.entry_lo[v, arc])
    return lo <= min(routes.entry_hi[u, arc], routes.entry_hi[v, arc])


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
    for r, (idxs, coefs, sense, rhs, _name) in enumerate(model.constraints):
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
        for idxs, coefs, sense, rhs, _name in model.constraints:
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
                idx = m.add_var(("x", i, tm, j, t2, v), BINARY)
                xvar[v, (i, tm, j, t2)] = idx
                move_users[(i, tm, j, t2)].append(v)
                outs[(i, tm)].append(idx)
                ins[(j, t2)].append(idx)
        for (i, tm) in time_arcs:
            wi = win.get(i)
            if wi is not None and wi[0] <= tm and tm + 1 <= wi[1]:
                idx = m.add_var(("x", i, tm, i, tm + 1, v), BINARY)
                outs[(i, tm)].append(idx)
                ins[(i, tm + 1)].append(idx)
        out_at.append(outs)
        in_at.append(ins)

    yvar = {}
    for ts_arc in sorted(move_users):
        k = len(move_users[ts_arc])
        cap = q if q is not None else k
        ub = math.ceil(k / cap)
        yvar[ts_arc] = m.add_var(("y", *ts_arc), INTEGER, 0, ub)

    obj = []
    for (v, (i, tm, j, t2)), idx in xvar.items():
        obj.append((idx, (1.0 - eta) * net.cost[i, j]))
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

    for ts_arc, vs in sorted(move_users.items()):
        cap = q if q is not None else len(vs)
        yidx = yvar[ts_arc]
        m.add_constr(
            [(xvar[v, ts_arc], 1.0) for v in vs] + [(yidx, -float(cap))],
            "<=",
            0.0,
        )
        for v in vs:
            m.add_constr([(xvar[v, ts_arc], 1.0), (yidx, -1.0)], "<=", 0.0)
    return m
