"""Road networks, shortest travel times, detour pruning, and time expansion.

Nodes are dense integer ids ``0..n-1``.  Every arc is directed and carries a
real-valued transport cost plus an integral travel time measured in scheduling
units.  Undirected road segments are represented by one arc per direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

from .errors import EmptyPathSet, HorizonExceeded, ParseError, ValidationError

Arc = tuple[int, int]

_PRUNE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class RoadNetwork:
    """Directed road graph with per-arc cost and integral travel time."""

    n_nodes: int
    arcs: tuple[Arc, ...]
    cost: Mapping[Arc, float]
    travel_time: Mapping[Arc, int]

    def __post_init__(self):
        if self.n_nodes <= 0:
            raise ValidationError("network needs at least one node")
        if not self.arcs:
            raise ValidationError("network needs at least one arc")
        seen = set()
        for arc in self.arcs:
            i, j = arc
            if not (0 <= i < self.n_nodes and 0 <= j < self.n_nodes):
                raise ValidationError(f"arc {arc} references an unknown node")
            if i == j:
                raise ValidationError(f"arc {arc} is a self-loop")
            if arc in seen:
                raise ValidationError(f"arc {arc} appears twice")
            seen.add(arc)
            c = self.cost[arc]
            if not (c >= 0 and math.isfinite(c)):
                raise ValidationError(f"arc {arc} has negative or non-finite cost")
            t = self.travel_time[arc]
            if not isinstance(t, (int, np.integer)) or t < 1:
                raise ValidationError(f"arc {arc} needs an integral travel time >= 1")

    @cached_property
    def out_arcs(self) -> dict[int, tuple[Arc, ...]]:
        out: dict[int, list[Arc]] = {i: [] for i in range(self.n_nodes)}
        for arc in self.arcs:
            out[arc[0]].append(arc)
        return {i: tuple(v) for i, v in out.items()}

    @cached_property
    def in_arcs(self) -> dict[int, tuple[Arc, ...]]:
        inc: dict[int, list[Arc]] = {i: [] for i in range(self.n_nodes)}
        for arc in self.arcs:
            inc[arc[1]].append(arc)
        return {i: tuple(v) for i, v in inc.items()}

    # The shortest-path closures live on the network itself, so they are
    # freed with it; RoadNetwork is frozen, so they never go stale.
    @cached_property
    def shortest_times(self) -> TravelTimeMatrix:
        return TravelTimeMatrix(_min_plus_closure(self.n_nodes, self.travel_time))

    @cached_property
    def shortest_costs(self) -> np.ndarray:
        return _min_plus_closure(self.n_nodes, self.cost)


def make_network(n_nodes: int, arc_data: Iterable[tuple[int, int, float, float]]) -> RoadNetwork:
    """Build a network from ``(tail, head, cost, travel_time)`` records.

    Fractional travel times are rounded up: schedules are integral and a
    conservative rounding never promises an arrival the road cannot deliver.
    """
    arcs = []
    cost = {}
    times = {}
    for tail, head, c, t in arc_data:
        arc = (int(tail), int(head))
        if not math.isfinite(t):
            # checked here because rounding up a NaN or inf cannot give an int
            raise ValidationError(f"arc {arc} has a non-finite travel time")
        arcs.append(arc)
        cost[arc] = float(c)
        times[arc] = int(math.ceil(t - 1e-12))
    return RoadNetwork(n_nodes=n_nodes, arcs=tuple(arcs), cost=cost, travel_time=times)


def undirected(edge_data: Iterable[tuple[int, int, float, float]]):
    """Expand ``(u, v, cost, time)`` edges into arcs in both directions."""
    out = []
    for u, v, c, t in edge_data:
        out.append((u, v, c, t))
        out.append((v, u, c, t))
    return out


@dataclass(frozen=True, eq=False)
class TravelTimeMatrix:
    """All-pairs shortest travel times; ``inf`` marks unreachable pairs."""

    st: np.ndarray

    def __getitem__(self, key):
        return self.st[key]


def _min_plus_closure(n: int, weights: Mapping[Arc, float]) -> np.ndarray:
    # Floyd-Warshall; handles zero-cost arcs, which sparse Dijkstra wrappers
    # silently drop as absent entries.
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for (i, j), w in weights.items():
        if w < d[i, j]:
            d[i, j] = w
    for k in range(n):
        np.minimum(d, d[:, k : k + 1] + d[k : k + 1, :], out=d)
    return d


def all_pairs_shortest_times(net: RoadNetwork) -> TravelTimeMatrix:
    """Shortest travel time between every node pair."""
    return net.shortest_times


def shortest_cost_matrix(net: RoadNetwork) -> np.ndarray:
    """Shortest transport cost between every node pair."""
    return net.shortest_costs


def min_cost_within_time(net: RoadNetwork, origin: int, budget: int) -> np.ndarray:
    """Cheapest cost from ``origin`` to every node in at most ``budget`` time.

    Dynamic program over elapsed time; travel times are integral and at
    least one, so every prefix of a path finishes strictly earlier than the
    path itself and one sweep per time step suffices.
    """
    budget = int(budget)
    best = np.full((net.n_nodes, max(budget, 0) + 1), np.inf)
    best[origin, :] = 0.0
    if budget <= 0 or not net.arcs:
        return best[:, -1]
    tails = np.array([a[0] for a in net.arcs])
    heads = np.array([a[1] for a in net.arcs])
    costs = np.array([net.cost[a] for a in net.arcs])
    times = np.array([net.travel_time[a] for a in net.arcs])
    for tau in range(1, budget + 1):
        best[:, tau] = best[:, tau - 1]
        ready = times <= tau
        if not ready.any():
            continue
        cand = best[tails[ready], tau - times[ready]] + costs[ready]
        np.minimum.at(best[:, tau], heads[ready], cand)
    return best[:, -1]


def prune_arcs(net: RoadNetwork, vehicle, st: TravelTimeMatrix, eta: float) -> set[Arc]:
    """Arcs a vehicle can use in some optimal joint plan.

    An arc survives when a path through it exists whose cost stays within
    ``1/(1-eta)`` of the cheapest path that fits the vehicle's window and
    whose travel time also fits the window.  A pricier detour can never pay
    for itself: platooning refunds at most the ``eta`` share of each arc
    driven, so past that bound the vehicle would rather drive its cheapest
    window-feasible path alone.  The cheapest unrestricted path is not a
    sound anchor here; it may be too slow for the window, and a feasible
    vehicle would then lose every arc it could actually use.
    """
    sc = shortest_cost_matrix(net)
    o, d = vehicle.origin, vehicle.dest
    window = vehicle.latest_arrival - vehicle.earliest_departure
    if st[o, d] > window:
        raise EmptyPathSet(
            f"vehicle {vehicle.id}: shortest travel time {st[o, d]:g} "
            f"exceeds window {window:g}"
        )
    base = min_cost_within_time(net, o, int(window))[d]
    if not math.isfinite(base):
        raise EmptyPathSet(f"vehicle {vehicle.id}: no path from {o} to {d}")
    bound = base / (1.0 - eta)
    keep = set()
    for arc in net.arcs:
        i, j = arc
        if sc[o, i] + net.cost[arc] + sc[j, d] > bound + _PRUNE_TOL:
            continue
        if st[o, i] + net.travel_time[arc] + st[j, d] > window:
            continue
        keep.add(arc)
    return keep


def generate_grid(rows: int, cols: int, seed: int) -> RoadNetwork:
    """Rectangular grid with bidirectional edges of random length 3..5.

    Length doubles as cost and travel time, the usual desk approximation of
    a highway mesh with uniform speeds.
    """
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise ValidationError("grid needs at least two nodes")
    rng = np.random.default_rng(seed)
    arc_data = []
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            if c + 1 < cols:
                length = int(rng.integers(3, 6))
                arc_data.append((u, u + 1, float(length), length))
                arc_data.append((u + 1, u, float(length), length))
            if r + 1 < rows:
                length = int(rng.integers(3, 6))
                arc_data.append((u, u + cols, float(length), length))
                arc_data.append((u + cols, u, float(length), length))
    return make_network(rows * cols, arc_data)


def _fmt(x: float) -> str:
    # repr round-trips doubles; integral values print without the trailing .0
    return str(int(x)) if float(x).is_integer() else repr(float(x))


def save_network(net: RoadNetwork, path) -> None:
    """Write the one-record-per-line text form, arcs sorted by (tail, head)."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(network_text(net))


def network_text(net: RoadNetwork) -> str:
    lines = [f"nodes {net.n_nodes}"]
    for arc in sorted(net.arcs):
        lines.append(
            f"arc {arc[0]} {arc[1]} {_fmt(net.cost[arc])} {_fmt(net.travel_time[arc])}"
        )
    return "\n".join(lines) + "\n"


def _parse_network_lines(lines, path_label):
    n_nodes = None
    arc_data = []
    extra = []
    for line_no, raw in lines:
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        kind = parts[0]
        if kind == "nodes":
            if n_nodes is not None:
                raise ParseError("duplicate 'nodes' header", line_no)
            if len(parts) != 2:
                raise ParseError("'nodes' expects one count", line_no)
            try:
                n_nodes = int(parts[1])
            except ValueError:
                raise ParseError(f"bad node count {parts[1]!r}", line_no) from None
        elif kind == "arc":
            if n_nodes is None:
                raise ParseError("'arc' record before 'nodes' header", line_no)
            if len(parts) != 5:
                raise ParseError("'arc' expects tail head cost travel_time", line_no)
            try:
                arc_data.append(
                    (int(parts[1]), int(parts[2]), float(parts[3]), float(parts[4]))
                )
            except ValueError:
                raise ParseError(f"bad arc record {raw!r}", line_no) from None
        else:
            extra.append((line_no, parts))
    if n_nodes is None:
        raise ParseError(f"{path_label}: missing 'nodes' header")
    return n_nodes, arc_data, extra


def _read_lines(path) -> list[tuple[int, str]]:
    """Numbered lines of an ASCII text file; other bytes raise ParseError."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            return list(enumerate(fh, start=1))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not ASCII text ({exc})") from None


def load_network(path) -> RoadNetwork:
    """Parse a network file; raises :class:`ParseError` with a line number."""
    lines = _read_lines(path)
    n_nodes, arc_data, extra = _parse_network_lines(lines, str(path))
    if extra:
        line_no, parts = extra[0]
        raise ParseError(f"unknown record {parts[0]!r}", line_no)
    return make_network(n_nodes, arc_data)


@dataclass(frozen=True, eq=False)
class TimeSpaceNetwork:
    """Time-expanded copy of a road network over an integral horizon.

    ``move_arcs`` holds every ``(i, t) -> (j, t + T_ij)`` copy of a road arc
    that fits the horizon; waiting arcs ``(i, t) -> (i, t + 1)`` are listed as
    their tail.  ``admissible`` gives, per vehicle, the time window in which
    the vehicle may occupy each node, already narrowed by shortest travel
    times from its origin and to its destination.
    """

    net: RoadNetwork
    horizon: int
    move_arcs: tuple[tuple[int, int, int, int], ...]
    time_arcs: tuple[tuple[int, int], ...]
    fixed_cost: Mapping[Arc, float]
    unit_cost: Mapping[Arc, float]
    admissible: tuple[dict[int, tuple[int, int]], ...]

    @cached_property
    def ts_nodes(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (i, t) for i in range(self.net.n_nodes) for t in range(self.horizon + 1)
        )


def build_time_space(net: RoadNetwork, instance) -> TimeSpaceNetwork:
    """Expand a network over ``instance.horizon`` scheduling units."""
    horizon = instance.horizon
    st = all_pairs_shortest_times(net)
    admissible = []
    for veh in instance.vehicles:
        if veh.latest_arrival > horizon:
            raise HorizonExceeded(
                f"vehicle {veh.id} arrives up to {veh.latest_arrival}, "
                f"horizon is {horizon}"
            )
        windows = {}
        for i in range(net.n_nodes):
            lo = veh.earliest_departure + st[veh.origin, i]
            hi = veh.latest_arrival - st[i, veh.dest]
            if math.isfinite(lo) and math.isfinite(hi) and lo <= hi:
                windows[i] = (int(lo), int(hi))
        admissible.append(windows)

    move_arcs = []
    for arc in net.arcs:
        i, j = arc
        t_ij = net.travel_time[arc]
        for t in range(0, horizon - t_ij + 1):
            move_arcs.append((i, t, j, t + t_ij))
    time_arcs = tuple(
        (i, t) for i in range(net.n_nodes) for t in range(horizon)
    )
    eta = instance.eta
    fixed = {arc: eta * net.cost[arc] for arc in net.arcs}
    unit = {arc: (1.0 - eta) * net.cost[arc] for arc in net.arcs}
    return TimeSpaceNetwork(
        net=net,
        horizon=horizon,
        move_arcs=tuple(move_arcs),
        time_arcs=time_arcs,
        fixed_cost=fixed,
        unit_cost=unit,
        admissible=tuple(admissible),
    )
