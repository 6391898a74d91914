"""Problem instances: vehicles, shared parameters, generators, file I/O.

An instance couples a road network with a fleet.  Each vehicle has an origin,
a destination, an earliest departure and a latest arrival, all in the same
integral scheduling units the network's travel times use.  Fleet-wide
parameters: ``eta`` is the cost share a platoon follower saves, ``q_limit``
caps platoon size (``None`` means unlimited), ``time_unit`` records how many
minutes one scheduling unit represents, and ``horizon`` bounds the clock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    GenerationFailed,
    InfeasibleNode,
    ParseError,
    ValidationError,
)
from .network import (
    Arc,
    RoadNetwork,
    TravelTimeMatrix,
    _parse_network_lines,
    _read_lines,
    all_pairs_shortest_times,
    make_network,
    network_text,
    shortest_cost_matrix,
)


@dataclass(frozen=True)
class Vehicle:
    id: int
    origin: int
    dest: int
    earliest_departure: int
    latest_arrival: int


@dataclass(frozen=True, eq=False)
class Instance:
    network: RoadNetwork
    vehicles: tuple[Vehicle, ...]
    eta: float = 0.1
    q_limit: int | None = 5
    time_unit: float = 10.0
    horizon: int = 144

    def __post_init__(self):
        if not (0.0 <= self.eta < 1.0):
            raise ValidationError(f"eta must lie in [0, 1), got {self.eta}")
        if self.q_limit is not None and self.q_limit < 2:
            raise ValidationError("q_limit must be >= 2 or None for unlimited")
        if not (math.isfinite(self.time_unit) and self.time_unit > 0):
            raise ValidationError("time_unit must be finite and positive")
        if self.horizon < 0:
            raise ValidationError("horizon must be non-negative")
        st = all_pairs_shortest_times(self.network)
        n = self.network.n_nodes
        for pos, veh in enumerate(self.vehicles):
            if veh.id != pos:
                raise ValidationError("vehicle ids must be dense 0..k-1 in order")
            if not (0 <= veh.origin < n and 0 <= veh.dest < n):
                raise ValidationError(f"vehicle {veh.id} references unknown nodes")
            if veh.origin == veh.dest:
                raise ValidationError(f"vehicle {veh.id} has origin == destination")
            if veh.earliest_departure < 0 or veh.latest_arrival > self.horizon:
                raise ValidationError(
                    f"vehicle {veh.id} window outside [0, horizon={self.horizon}]"
                )
            window = veh.latest_arrival - veh.earliest_departure
            if st[veh.origin, veh.dest] > window:
                raise ValidationError(
                    f"vehicle {veh.id} window {window} is shorter than its "
                    f"fastest trip {st[veh.origin, veh.dest]:g}"
                )

    @cached_property
    def st(self) -> TravelTimeMatrix:
        return all_pairs_shortest_times(self.network)

    @cached_property
    def shortest_costs(self) -> np.ndarray:
        return shortest_cost_matrix(self.network)

    def vehicle(self, vid: int) -> Vehicle:
        return self.vehicles[vid]


@dataclass(frozen=True)
class TimeBounds:
    """Per-node earliest/latest visit times for one vehicle."""

    vehicle: int
    bounds: Mapping[int, tuple[int, int]]

    def __getitem__(self, node: int) -> tuple[int, int]:
        return self.bounds[node]

    def __contains__(self, node: int) -> bool:
        return node in self.bounds


def node_time_bounds(instance: Instance, vehicle: Vehicle, path: Sequence[Arc] | None = None) -> TimeBounds:
    """Earliest and latest times a vehicle can occupy nodes.

    Without ``path`` the bounds use shortest travel times through the whole
    network and nodes the window rules out entirely are omitted.  With
    ``path`` (the vehicle's fixed ordered arcs) the bounds use the cumulative
    travel time along that path, which is tighter; an inverted bound there is
    a genuine error because the vehicle must visit every path node.
    """
    if path is None:
        st = instance.st
        bounds = {}
        for i in range(instance.network.n_nodes):
            lo = vehicle.earliest_departure + st[vehicle.origin, i]
            hi = vehicle.latest_arrival - st[i, vehicle.dest]
            if math.isfinite(lo) and math.isfinite(hi) and lo <= hi:
                bounds[i] = (int(lo), int(hi))
        return TimeBounds(vehicle.id, bounds)

    tt = instance.network.travel_time
    nodes = [vehicle.origin]
    for arc in path:
        if arc[0] != nodes[-1]:
            raise ValidationError(f"path of vehicle {vehicle.id} is not connected")
        nodes.append(arc[1])
    if nodes[-1] != vehicle.dest:
        raise ValidationError(f"path of vehicle {vehicle.id} does not end at its destination")
    cum = [0]
    for arc in path:
        cum.append(cum[-1] + tt[arc])
    total = cum[-1]
    bounds = {}
    for node, offset in zip(nodes, cum):
        lo = vehicle.earliest_departure + offset
        hi = vehicle.latest_arrival - (total - offset)
        if lo > hi:
            raise InfeasibleNode(
                f"vehicle {vehicle.id} cannot visit node {node} inside its window"
            )
        bounds[node] = (lo, hi)
    return TimeBounds(vehicle.id, bounds)


def generate_fleet(
    net: RoadNetwork,
    n: int,
    seed: int,
    od_mode: str = "uniform",
    *,
    hubs: Sequence[int] | None = None,
    hub_share: float = 0.75,
    hub_radius: float | None = None,
    eta: float = 0.1,
    q_limit: int | None = 5,
    time_unit: float = 10.0,
    horizon: int = 144,
    max_attempts: int = 200,
) -> Instance:
    """Draw a random fleet on ``net``.

    Departures are uniform over the first half of the horizon and every
    window allows 1.2 times the fastest trip (rounded up), so each vehicle
    has some slack to wait for partners.  ``od_mode='hub'`` biases a
    ``hub_share`` fraction of origin/destination draws to nodes within
    ``hub_radius`` scheduling units of a hub (default: one hour of driving).
    """
    if n < 1:
        raise ValidationError("fleet size must be >= 1")
    if od_mode not in ("uniform", "hub"):
        raise ValidationError(f"unknown od_mode {od_mode!r}")
    if od_mode == "hub":
        if not hubs:
            raise ValidationError("od_mode='hub' requires a non-empty hub list")
        if hub_radius is None:
            hub_radius = 60.0 / time_unit
    rng = np.random.default_rng(seed)
    st = all_pairs_shortest_times(net)

    near_hub = None
    if od_mode == "hub":
        near_hub = {
            h: [i for i in range(net.n_nodes) if st[h, i] <= hub_radius]
            for h in hubs
        }
        for h, pool in near_hub.items():
            if not pool:
                raise ValidationError(f"hub {h} has no nodes within radius")

    def hub_node() -> int:
        pool = near_hub[hubs[int(rng.integers(len(hubs)))]]
        return int(pool[int(rng.integers(len(pool)))])

    vehicles = []
    for vid in range(n):
        for _ in range(max_attempts):
            if near_hub is not None and rng.random() < hub_share:
                o, d = hub_node(), hub_node()
            else:
                o = int(rng.integers(net.n_nodes))
                d = int(rng.integers(net.n_nodes))
            if o == d or not math.isfinite(st[o, d]):
                continue
            drive = math.ceil(1.2 * st[o, d])
            if drive > horizon:
                continue
            ted = int(rng.integers(0, horizon // 2 + 1))
            if ted + drive > horizon:
                continue
            vehicles.append(Vehicle(vid, o, d, ted, ted + drive))
            break
        else:
            raise GenerationFailed(
                f"could not place vehicle {vid} after {max_attempts} attempts"
            )
    return Instance(
        network=net,
        vehicles=tuple(vehicles),
        eta=eta,
        q_limit=q_limit,
        time_unit=time_unit,
        horizon=horizon,
    )


def three_truck_demo() -> Instance:
    """Classic six-node demo with three trucks and one 0.99-cost shortcut.

    Clock times run in hundredths of an hour from the earliest departure, so
    the travel times stay integral while costs keep their decimal values.
    Truck 2 can reach its destination cheapest alone (cost 2.99) or dearer
    but platooned with truck 1 on the first arc (total 4.9 for the fleet).
    """
    edges = [
        (0, 1, 1.0),
        (0, 2, 1.0),
        (1, 2, 1.0),
        (1, 4, 1.0),
        (2, 3, 1.0),
        (2, 4, 1.5),
        (3, 4, 1.0),
        (3, 5, 1.0),
        (4, 5, 0.99),
    ]
    arc_data = []
    for u, v, length in edges:
        t = int(round(length * 100))
        arc_data.append((u, v, length, t))
        arc_data.append((v, u, length, t))
    net = make_network(6, arc_data)
    vehicles = (
        Vehicle(0, 0, 1, 0, 100),
        Vehicle(1, 0, 2, 500, 600),
        Vehicle(2, 0, 5, 500, 1000),
    )
    return Instance(
        network=net,
        vehicles=vehicles,
        eta=0.1,
        q_limit=None,
        time_unit=0.6,
        horizon=1000,
    )


def _fmt(x: float) -> str:
    return str(int(x)) if float(x).is_integer() else repr(float(x))


def instance_text(instance: Instance) -> str:
    lines = [network_text(instance.network).rstrip("\n")]
    for v in instance.vehicles:
        lines.append(
            f"vehicle {v.id} {v.origin} {v.dest} "
            f"{v.earliest_departure} {v.latest_arrival}"
        )
    q = "inf" if instance.q_limit is None else str(instance.q_limit)
    lines.append(
        f"params {_fmt(instance.eta)} {q} {_fmt(instance.time_unit)} {instance.horizon}"
    )
    return "\n".join(lines) + "\n"


def save_instance(instance: Instance, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(instance_text(instance))


def load_instance(path) -> Instance:
    lines = _read_lines(path)
    n_nodes, arc_data, extra = _parse_network_lines(lines, str(path))
    net = make_network(n_nodes, arc_data)
    vehicles = []
    params = None
    for line_no, parts in extra:
        if parts[0] == "vehicle":
            if len(parts) != 6:
                raise ParseError("'vehicle' expects id origin dest t_ed t_la", line_no)
            try:
                vid, o, d, ted, tla = (int(p) for p in parts[1:])
            except ValueError:
                raise ParseError(f"bad vehicle record {' '.join(parts)!r}", line_no) from None
            vehicles.append(Vehicle(vid, o, d, ted, tla))
        elif parts[0] == "params":
            if params is not None:
                raise ParseError("duplicate 'params' line", line_no)
            if len(parts) != 5:
                raise ParseError("'params' expects eta q time_unit horizon", line_no)
            try:
                q = None if parts[2] == "inf" else int(parts[2])
                params = (float(parts[1]), q, float(parts[3]), int(parts[4]))
            except ValueError:
                raise ParseError(f"bad params record {' '.join(parts)!r}", line_no) from None
        else:
            raise ParseError(f"unknown record {parts[0]!r}", line_no)
    if params is None:
        raise ParseError(f"{path}: missing 'params' line")
    eta, q, tu, horizon = params
    return Instance(
        network=net,
        vehicles=tuple(vehicles),
        eta=eta,
        q_limit=q,
        time_unit=tu,
        horizon=horizon,
    )


def with_windows(instance: Instance, windows: Mapping[int, tuple[int, int]]) -> Instance:
    """Copy of ``instance`` with some vehicles' windows replaced."""
    vehicles = tuple(
        replace(v, earliest_departure=windows[v.id][0], latest_arrival=windows[v.id][1])
        if v.id in windows
        else v
        for v in instance.vehicles
    )
    return Instance(
        network=instance.network,
        vehicles=vehicles,
        eta=instance.eta,
        q_limit=instance.q_limit,
        time_unit=instance.time_unit,
        horizon=instance.horizon,
    )
