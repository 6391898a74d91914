"""Deterministic random instances small enough for exhaustive checking."""

from __future__ import annotations

import math

import numpy as np

from oracles import simple_paths, timed_trajectories
from platoonplan.formulations import build_tsf
from platoonplan.instance import Instance, Vehicle
from platoonplan.mip import FEASIBLE_TIME_LIMIT, MipResult
from platoonplan.network import build_time_space, make_network


def small_network(rng, n_nodes):
    """Strongly connected digraph: a ring plus random chords.

    A few arcs get cost zero so the zero-cost corner stays exercised.
    """
    arc_data = []
    seen = set()
    order = list(rng.permutation(n_nodes))
    for k, u in enumerate(order):
        v = order[(k + 1) % n_nodes]
        seen.add((u, v))
        arc_data.append((u, v, _cost(rng), int(rng.integers(1, 4))))
    n_extra = int(rng.integers(n_nodes // 2, n_nodes + 1))
    for _ in range(n_extra):
        u, v = (int(x) for x in rng.integers(0, n_nodes, size=2))
        if u == v or (u, v) in seen:
            continue
        seen.add((u, v))
        arc_data.append((u, v, _cost(rng), int(rng.integers(1, 4))))
    return make_network(n_nodes, arc_data)


def _cost(rng):
    if rng.random() < 0.08:
        return 0.0
    return float(rng.integers(1, 11))


def small_instance(seed, max_nodes=8, max_vehicles=6, slack_max=3,
                   q_pool=(2, 3, None), budget=200_000):
    """One brute-forceable instance, or None when the draw is too big.

    Windows get at most ``slack_max`` spare time steps, which caps how many
    timed drives each vehicle has, and the product across vehicles is
    checked against ``budget`` before accepting the draw.
    """
    rng = np.random.default_rng(seed)
    n_nodes = int(rng.integers(4, max_nodes + 1))
    net = small_network(rng, n_nodes)
    st = net.shortest_times
    n_veh = int(rng.integers(2, max_vehicles + 1))
    vehicles = []
    for v in range(n_veh):
        for _ in range(50):
            o, d = (int(x) for x in rng.integers(0, n_nodes, size=2))
            if o != d and math.isfinite(st[o, d]):
                break
        else:
            return None
        ted = int(rng.integers(0, 4))
        tla = ted + int(st[o, d]) + int(rng.integers(0, slack_max + 1))
        vehicles.append(Vehicle(v, o, d, ted, tla))
    horizon = max(v.latest_arrival for v in vehicles)
    instance = Instance(
        network=net,
        vehicles=tuple(vehicles),
        eta=float(rng.choice((0.1, 0.2))),
        q_limit=q_pool[int(rng.integers(0, len(q_pool)))],
        time_unit=1.0,
        horizon=horizon,
    )
    size = 1
    for v in range(n_veh):
        count = len(timed_trajectories(instance, v))
        if count == 0:
            return None
        size *= count
        if size > budget:
            return None
    return instance


def collect_instances(n, seed_start=0, **kwargs):
    """First ``n`` acceptable draws from consecutive seeds."""
    out = []
    seed = seed_start
    while len(out) < n:
        if seed - seed_start > 500 * n:
            raise RuntimeError("instance generation is rejecting too much")
        inst = small_instance(seed, **kwargs)
        seed += 1
        if inst is not None:
            out.append((seed - 1, inst))
    return out


def time_shortest_paths(instance):
    """One fastest path per vehicle; always window-feasible."""
    tt = instance.network.travel_time
    paths = {}
    for v, veh in enumerate(instance.vehicles):
        best = None
        for path in simple_paths(instance.network.arcs, veh.origin, veh.dest):
            dur = sum(tt[a] for a in path)
            if best is None or dur < best[0]:
                best = (dur, path)
        paths[v] = best[1]
    return paths


def surplus_tsf_incumbent():
    """A time-space incumbent that pays for a platoon it does not need.

    Three trucks drive 0 -> 1 (cost 10, one step) and may enter at time 0
    or 1, under a cap of two, so the time arc at 0 has a platoon count
    ``y`` and a slot row.  Trucks 0 and 1 enter at 0 with ``y = 2`` there;
    truck 2 waits and enters alone at 1.  The point is feasible for the
    model and costs 30 in it; its plan is one platoon of two and a loner,
    29, which is also the optimum.  Returns the instance, the model and the
    incumbent as a clock-stopped result with bound 29.
    """
    net = make_network(2, [(0, 1, 10.0, 1)])
    instance = Instance(
        network=net,
        vehicles=tuple(Vehicle(v, 0, 1, 0, 2) for v in range(3)),
        eta=0.1,
        q_limit=2,
        time_unit=1.0,
        horizon=2,
    )
    model = build_tsf(instance, build_time_space(net, instance))
    values = {var.name: 0.0 for var in model.variables}
    for v in (0, 1):
        values["x", 0, 0, 1, 1, v] = 1.0  # drive together at 0
        values["x", 1, 1, 1, 2, v] = 1.0  # then wait at the destination
    values["x", 0, 0, 0, 1, 2] = 1.0
    values["x", 0, 1, 1, 2, 2] = 1.0
    values["y", 0, 0, 1, 1] = 2.0
    values["y", 0, 1, 1, 2] = 1.0
    objective = sum(
        coef * values[model.variables[idx].name] for idx, coef in model.objective.items()
    )
    result = MipResult(FEASIBLE_TIME_LIMIT, objective, 29.0, values, 0.0, 1)
    return instance, model, result
