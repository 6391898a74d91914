"""Deterministic random instances small enough for exhaustive checking."""

from __future__ import annotations

import math

import numpy as np

from oracles import simple_paths, timed_trajectories
from platoonplan.instance import Instance, Vehicle
from platoonplan.network import make_network


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
