"""Instance validation, generation, node windows, and serialization."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from platoonplan.errors import (
    GenerationFailed,
    ParseError,
    ValidationError,
)
from platoonplan.formulations import FixedRoutes
from platoonplan.instance import (
    Instance,
    Vehicle,
    generate_fleet,
    instance_text,
    load_instance,
    node_time_bounds,
    save_instance,
    three_truck_demo,
)
from platoonplan.network import generate_grid, make_network

LINE = make_network(3, [(0, 1, 1.0, 2), (1, 2, 1.0, 2)])


def _inst(vehicles, **kw):
    args = dict(network=LINE, vehicles=vehicles, eta=0.1, q_limit=None,
                time_unit=1.0, horizon=20)
    args.update(kw)
    return Instance(**args)


def test_validation_rejects_bad_parameters():
    ok = (Vehicle(0, 0, 2, 0, 10),)
    with pytest.raises(ValidationError):
        _inst(ok, eta=1.0)
    with pytest.raises(ValidationError):
        _inst(ok, eta=-0.1)
    with pytest.raises(ValidationError):
        _inst(ok, q_limit=1)
    with pytest.raises(ValidationError):
        _inst((Vehicle(1, 0, 2, 0, 10),))  # ids must start at 0
    with pytest.raises(ValidationError):
        _inst((Vehicle(0, 0, 2, 0, 10), Vehicle(2, 0, 2, 0, 10)))  # gap
    with pytest.raises(ValidationError):
        _inst((Vehicle(0, 1, 1, 0, 10),))  # origin equals destination
    with pytest.raises(ValidationError):
        _inst((Vehicle(0, 0, 2, -1, 10),))  # departs before time zero
    with pytest.raises(ValidationError):
        _inst((Vehicle(0, 0, 2, 0, 30),))  # arrives past the horizon
    with pytest.raises(ValidationError):
        _inst((Vehicle(0, 0, 2, 0, 3),))  # window shorter than the trip
    with pytest.raises(ValidationError):
        _inst((Vehicle(0, 2, 0, 0, 10),))  # destination unreachable


def test_demo_shape(demo):
    assert len(demo.network.arcs) == 18
    assert len(demo.vehicles) == 3
    assert demo.network.cost[(4, 5)] == 0.99
    assert demo.network.travel_time[(2, 4)] == 150
    assert demo.eta == 0.1 and demo.q_limit is None
    assert demo.horizon == 1000


def test_node_time_bounds_whole_graph(demo):
    b1 = node_time_bounds(demo, demo.vehicles[1])
    assert b1[0] == (500, 500)
    assert b1[2] == (600, 600)
    b0 = node_time_bounds(demo, demo.vehicles[0])
    assert b0[1] == (100, 100)
    assert 3 not in b0  # any ride through node 3 overshoots the window
    b2 = node_time_bounds(demo, demo.vehicles[2])
    assert b2[0] == (500, 701)
    assert b2[5] == (799, 1000)


def test_fixed_route_windows_along_path(demo):
    routes = FixedRoutes.build(demo, {2: ((0, 2), (2, 3), (3, 5))})
    assert routes.entry_window(2, (0, 2)) == (500, 700)
    assert routes.entry_window(2, (2, 3)) == (600, 800)
    assert routes.entry_window(2, (3, 5)) == (700, 900)


def test_generate_fleet_is_deterministic():
    net = generate_grid(5, 5, seed=1)
    a = generate_fleet(net, 8, seed=9)
    b = generate_fleet(net, 8, seed=9)
    assert a.vehicles == b.vehicles
    c = generate_fleet(net, 8, seed=10)
    assert c.vehicles != a.vehicles


def test_generate_fleet_window_rule():
    net = generate_grid(6, 6, seed=2)
    st = net.shortest_times
    inst = generate_fleet(net, 12, seed=5, horizon=144)
    for v in inst.vehicles:
        drive = v.latest_arrival - v.earliest_departure
        assert drive == math.ceil(1.2 * st[v.origin, v.dest])
        assert 0 <= v.earliest_departure <= 72
        assert v.latest_arrival <= 144


def test_generate_fleet_hub_bias():
    net = generate_grid(6, 6, seed=3)
    st = net.shortest_times
    hub = 14
    # the radius is one hour of driving: 6 units of 10 minutes
    inst = generate_fleet(net, 15, seed=4, od_mode="hub", hubs=(hub,), hub_share=1.0)
    for v in inst.vehicles:
        assert st[hub, v.origin] <= 6.0
        assert st[hub, v.dest] <= 6.0


def test_generate_fleet_failure_paths():
    slow = make_network(2, [(0, 1, 1.0, 200), (1, 0, 1.0, 200)])
    with pytest.raises(GenerationFailed):
        generate_fleet(slow, 1, seed=0, horizon=144)
    net = generate_grid(3, 3, seed=0)
    with pytest.raises(ValidationError):
        generate_fleet(net, 2, seed=0, od_mode="hub")
    with pytest.raises(ValidationError):
        generate_fleet(net, 2, seed=0, od_mode="nearest")
    # the default hub radius, one hour of driving, divides by time_unit
    with pytest.raises(ValidationError, match="time_unit"):
        generate_fleet(net, 2, seed=0, od_mode="hub", hubs=[0], time_unit=0.0)


@pytest.mark.parametrize("od_mode", ["uniform", "hub"])
@pytest.mark.parametrize("time_unit", [math.nan, math.inf, 0.0, -10.0])
def test_generate_fleet_rejects_a_time_unit_that_is_not_finite_and_positive(time_unit, od_mode):
    # a NaN passed the hub branch's old test and surfaced as "hub 0 has no
    # nodes within radius"
    net = generate_grid(3, 3, seed=0)
    with pytest.raises(ValidationError, match="time_unit must be finite and positive"):
        generate_fleet(net, 2, seed=0, od_mode=od_mode, hubs=[0], time_unit=time_unit)


@pytest.mark.parametrize("n", [2.0, 2.5, "2"])
def test_generate_fleet_rejects_a_fleet_size_that_is_not_an_integer(n):
    # range() raised a bare TypeError
    net = generate_grid(3, 3, seed=0)
    with pytest.raises(ValidationError, match="fleet size must be an integer"):
        generate_fleet(net, n, seed=0)
    assert len(generate_fleet(net, np.int64(2), seed=0).vehicles) == 2


@pytest.mark.parametrize("hub", [99, 9, -1])
def test_generate_fleet_rejects_hubs_outside_the_network(hub):
    # -1 would otherwise index the last node, and 99 raise a bare IndexError
    net = generate_grid(3, 3, seed=0)
    with pytest.raises(ValidationError, match=f"hub {hub} "):
        generate_fleet(net, 2, seed=0, od_mode="hub", hubs=[hub])


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"hub_share": 2.0}, "hub_share"),
        ({"hub_share": -0.1}, "hub_share"),
        ({"hub_share": math.nan}, "hub_share"),
        ({"horizon": -1}, "horizon"),
    ],
)
def test_generate_fleet_rejects_out_of_range_parameters(kwargs, match):
    net = generate_grid(3, 3, seed=0)
    with pytest.raises(ValidationError, match=match):
        generate_fleet(net, 2, seed=0, od_mode="hub", hubs=[0], **kwargs)


def test_instance_text_round_trip(tmp_path, demo):
    path = tmp_path / "demo.txt"
    save_instance(demo, path)
    back = load_instance(path)
    assert back.vehicles == demo.vehicles
    # the writer sorts arcs, so order canonicalizes but the set survives
    assert sorted(back.network.arcs) == sorted(demo.network.arcs)
    assert back.network.cost == demo.network.cost
    assert back.eta == demo.eta
    assert back.q_limit is None
    assert back.time_unit == demo.time_unit
    assert back.horizon == demo.horizon
    assert instance_text(back) == instance_text(demo)


def test_instance_text_spells_q_inf(demo):
    assert "params 0.1 inf 0.6 1000" in instance_text(demo)


@pytest.mark.parametrize(
    "extra, fragment",
    [
        ("vehicle 0 0 1\n", "expects"),
        ("vehicle 0 0 one 0 9\n", "bad vehicle"),
        ("params 0.1 inf 1 20\nparams 0.1 inf 1 20\n", "duplicate"),
        ("params 0.1\n", "expects"),
        ("params 0.1 soon 1 20\n", "bad params"),
        ("convoy 1 2\n", "unknown record"),
        ("", "missing 'params'"),
    ],
)
def test_load_instance_parse_errors(tmp_path, extra, fragment):
    path = tmp_path / "bad.txt"
    path.write_text("nodes 2\narc 0 1 1 1\n" + extra, encoding="ascii")
    with pytest.raises(ParseError) as err:
        load_instance(path)
    assert fragment in str(err.value)


# Replacement tokens for the loader property test: non-finite and negative
# numbers, a comment marker, a word, and a non-ASCII letter.
_TOKENS = ("nan", "inf", "-inf", "-1", "0", "1", "2.5", "#", "x", "\u00e9")
_DEMO_LINES = instance_text(three_truck_demo()).splitlines()


# An edit (line, field, token) replaces one field of the demo's text; line
# and field wrap around, so line -1 is the params record.
@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.lists(st.tuples(st.integers(-30, 30), st.integers(0, 5), st.sampled_from(_TOKENS)),
                min_size=1, max_size=3))
@example([(1, 4, "nan")])  # arc travel time
@example([(1, 4, "inf")])
@example([(1, 0, "\u00e9")])
@example([(-1, 3, "nan")])  # params time_unit
@example([(-1, 3, "inf")])
def test_load_instance_fails_only_with_typed_errors(tmp_path_factory, edits):
    lines = [line.split() for line in _DEMO_LINES]
    for line, field, token in edits:
        parts = lines[line % len(lines)]
        parts[field % len(parts)] = token
    path = tmp_path_factory.getbasetemp() / "mutated.txt"
    path.write_text("\n".join(" ".join(p) for p in lines) + "\n", encoding="utf-8")
    try:
        instance = load_instance(path)
    except (ParseError, ValidationError):
        return
    assert isinstance(instance, Instance)
    assert 0.0 <= instance.eta < 1.0
    assert math.isfinite(instance.time_unit) and instance.time_unit > 0
    assert all(math.isfinite(c) for c in instance.network.cost.values())
