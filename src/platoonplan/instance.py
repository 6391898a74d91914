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
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import (
    EmptyPathSet,
    GenerationFailed,
    InfeasibleVehicle,
    ParseError,
    ValidationError,
)
from .network import (
    Arc,
    RoadNetwork,
    _fmt,
    _parse_network_lines,
    _read_lines,
    make_network,
    network_text,
    prune_arcs,
    undirected,
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
        st = self.network.shortest_times
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

    # Admissibility is a fixed fact of the instance: every builder and the
    # cost shaping read these two caches.  The sets and dicts are shared, so
    # callers must not mutate them.
    @cached_property
    def windows(self) -> tuple[dict[int, tuple[int, int]], ...]:
        """Whole-network node windows, one :func:`node_time_bounds` dict per
        vehicle."""
        return tuple(node_time_bounds(self, veh) for veh in self.vehicles)

    @cached_property
    def admissible(self) -> dict[int, set[Arc]]:
        """Per-vehicle admissible arcs, as :func:`admissible_arcs` returns them."""
        return admissible_arcs(self)


def node_time_bounds(instance: Instance, vehicle: Vehicle) -> dict[int, tuple[int, int]]:
    """Earliest and latest times a vehicle can occupy nodes, ``{node: (lo, hi)}``.

    The bounds use shortest travel times through the whole network; nodes
    the window rules out entirely are omitted.  Windows along a fixed path
    are :class:`~platoonplan.formulations.FixedRoutes` entry windows.
    """
    st = instance.network.shortest_times
    bounds = {}
    for i in range(instance.network.n_nodes):
        lo = vehicle.earliest_departure + st[vehicle.origin, i]
        hi = vehicle.latest_arrival - st[i, vehicle.dest]
        if math.isfinite(lo) and math.isfinite(hi) and lo <= hi:
            bounds[i] = (int(lo), int(hi))
    return bounds


def admissible_arcs(instance: Instance) -> dict[int, set[Arc]]:
    """Per-vehicle arc sets that survive the detour and time screens."""
    out = {}
    for v, veh in enumerate(instance.vehicles):
        try:
            out[v] = prune_arcs(instance.network, veh, instance.eta)
        except EmptyPathSet as exc:
            raise InfeasibleVehicle(str(exc)) from exc
    return out


def path_fault(
    instance: Instance, v: int, path: Sequence[Arc]
) -> tuple[str, str, Arc | None] | None:
    """The first fault of ``path`` as a route of vehicle ``v`` as ``(kind,
    detail, arc)``, or None: a route uses network arcs, chains from the
    origin, visits no node twice and ends at the destination (arc None)."""
    veh = instance.vehicles[v]
    node = veh.origin
    seen = {node}
    for arc in path:
        if arc not in instance.network.cost:
            return "arc-missing", f"vehicle {v}: arc {arc} is not in the network", arc
        if arc[0] != node:
            return "path-broken", f"vehicle {v}: path breaks at {arc}", arc
        node = arc[1]
        if node in seen:
            return "path-revisit", f"vehicle {v}: path revisits node {node}", arc
        seen.add(node)
    if node != veh.dest:
        return "wrong-destination", f"vehicle {v}: path ends at {node}, not {veh.dest}", None
    return None


# origin/destination draws per vehicle before generate_fleet gives up
PLACE_ATTEMPTS = 200


def generate_fleet(
    net: RoadNetwork,
    n: int,
    seed: int,
    od_mode: str = "uniform",
    *,
    hubs: Sequence[int] | None = None,
    hub_share: float = 0.75,
    eta: float = 0.1,
    q_limit: int | None = 5,
    time_unit: float = 10.0,
    horizon: int = 144,
) -> Instance:
    """Draw a random fleet on ``net``.

    Departures are uniform over the first half of the horizon and every
    window allows 1.2 times the fastest trip (rounded up), so each vehicle
    has some slack to wait for partners.  ``od_mode='hub'`` biases a
    ``hub_share`` fraction of origin/destination draws to nodes within one
    hour of driving (``60 / time_unit`` scheduling units) of a hub.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValidationError(f"fleet size must be an integer >= 1, got {n!r}")
    if not (math.isfinite(time_unit) and time_unit > 0):
        raise ValidationError("time_unit must be finite and positive")
    if horizon < 0:
        raise ValidationError("horizon must be non-negative")
    if not 0.0 <= hub_share <= 1.0:
        raise ValidationError(f"hub_share must be in [0, 1], got {hub_share}")
    if od_mode not in ("uniform", "hub"):
        raise ValidationError(f"unknown od_mode {od_mode!r}")
    if od_mode == "hub":
        if not hubs:
            raise ValidationError("od_mode='hub' requires a non-empty hub list")
        for h in hubs:
            if not 0 <= h < net.n_nodes:
                raise ValidationError(f"hub {h} is not a node of the network")
    rng = np.random.default_rng(seed)
    st = net.shortest_times

    near_hub = None
    if od_mode == "hub":
        radius = 60.0 / time_unit  # one hour of driving, so each pool holds its hub
        near_hub = {
            h: [i for i in range(net.n_nodes) if st[h, i] <= radius]
            for h in hubs
        }

    def hub_node() -> int:
        pool = near_hub[hubs[int(rng.integers(len(hubs)))]]
        return int(pool[int(rng.integers(len(pool)))])

    vehicles = []
    for vid in range(n):
        for _ in range(PLACE_ATTEMPTS):
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
                f"could not place vehicle {vid} after {PLACE_ATTEMPTS} attempts"
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
    net = make_network(
        6, undirected((u, v, length, int(round(length * 100))) for u, v, length in edges)
    )
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

