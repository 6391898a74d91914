"""The reduced time-expanded model against the full one, and its shape."""

import time
from collections import defaultdict

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from instgen import BRANCHING_DRAW, FIELD_OPTIMA, field_fleet, hub_fleet, small_instance
from oracles import brute_force_joint, full_tsf
from platoonplan.evaluate import check, decode, total_cost
from platoonplan.formulations import build_tsf
from platoonplan.instance import Instance, Vehicle, three_truck_demo
from platoonplan.mip import SolveConfig, lp_bound, solve
from platoonplan.network import build_time_space, make_network

# Optimal costs of the hub ladder at fleet seed 1 (the benchmark's ladder).
HUB_OPTIMA = {(5, 10): 168.2, (6, 15): 301.2, (6, 20): 400.9, (7, 25): 614.0, (8, 30): 892.9}


def both_models(instance):
    tsn = build_time_space(instance.network, instance)
    return build_tsf(instance, tsn), full_tsf(instance, tsn)


def assert_same_bound_and_optimum(instance):
    model, full = both_models(instance)
    assert model.num_vars <= full.num_vars
    assert model.num_constrs <= full.num_constrs
    assert lp_bound(model) == pytest.approx(lp_bound(full), abs=1e-9)
    cfg = SolveConfig(gap_tol=1e-9)
    res, ref = solve(model, cfg), solve(full, cfg)
    assert res.status == ref.status == "optimal"
    assert res.objective == pytest.approx(ref.objective, abs=1e-9)
    assert check(instance, decode(instance, res, "tsf")).ok
    return model, full


def structure(model):
    """Users per move time arc, waiting nodes per truck, and slot-row arcs."""
    users = defaultdict(list)
    waits = defaultdict(set)
    names = [var.name for var in model.variables]
    for kind, *ids in names:
        if kind != "x":
            continue
        i, tm, j, t2, v = ids
        if i == j:
            waits[v].add(i)
        else:
            users[i, tm, j, t2].append(v)
    slot_rows = set()
    for idxs, coefs, _sense, _rhs in model.constraints:
        if len(idxs) > 2:
            ys = [names[i] for i, c in zip(idxs, coefs) if c < 0]
            if len(ys) == 1 and ys[0][0] == "y":
                slot_rows.add(ys[0][1:])
    return users, waits, slot_rows


def waits_off_reach(instance, model):
    """(truck, node) waiting arcs at nodes the truck cannot reach."""
    _users, waits, _slots = structure(model)
    off = set()
    for v, nodes in waits.items():
        veh = instance.vehicles[v]
        reach = {n for arc in instance.admissible[v] for n in arc}
        off |= {(v, i) for i in nodes - reach - {veh.origin, veh.dest}}
    return off


def assert_reduced_shape(instance, model):
    users, _waits, slot_rows = structure(model)
    names = {var.name for var in model.variables}
    cap = instance.q_limit
    for (i, tm, j, t2), vs in users.items():
        assert (("y", i, tm, j, t2) in names) == (len(vs) >= 2)
    assert slot_rows == {
        arc for arc, vs in users.items() if cap is not None and len(vs) > cap
    }
    assert waits_off_reach(instance, model) == set()


@pytest.mark.parametrize(
    "instance",
    [three_truck_demo(), hub_fleet(5, 10), hub_fleet(6, 15)],
    ids=["demo", "hub-5x5/10", "hub-6x6/15"],
)
def test_reduction_keeps_bound_and_optimum(instance):
    model, _full = assert_same_bound_and_optimum(instance)
    assert_reduced_shape(instance, model)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.integers(0, 2**16), st.sampled_from([2, 3, None]))
def test_reduction_keeps_bound_and_optimum_property(seed, q_limit):
    instance = small_instance(seed, q_pool=(q_limit,))
    assume(instance is not None)
    model, _full = assert_same_bound_and_optimum(instance)
    assert_reduced_shape(instance, model)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(st.integers(0, 2**16))
def test_reduction_keeps_bound_and_optimum_on_branching_draws(seed):
    """More trucks, more slack and a cap of two: draws whose models branch."""
    instance = small_instance(seed, **BRANCHING_DRAW)
    assume(instance is not None)
    model, _full = assert_same_bound_and_optimum(instance)
    assert_reduced_shape(instance, model)


def shared_corridor():
    """Three trucks on 0 -> 1 -> 2 under a cap of two, and a loner on (2, 3).

    Trucks 0 and 1 may enter (0, 1) at 0 or 1, truck 2 only at 1: time arc
    (0, 0, 1, 1) has two possible users, (0, 1, 1, 2) has three.  Truck 3
    is the only possible user of (2, 3) at time 0.
    """
    net = make_network(
        4, [(0, 1, 1.0, 1), (1, 2, 1.0, 1), (2, 3, 1.0, 1), (3, 2, 1.0, 1)]
    )
    vehicles = (
        Vehicle(0, 0, 2, 0, 3),
        Vehicle(1, 0, 2, 0, 3),
        Vehicle(2, 0, 2, 1, 3),
        Vehicle(3, 2, 3, 0, 1),
    )
    return Instance(
        network=net, vehicles=vehicles, eta=0.1, q_limit=2, time_unit=1.0, horizon=3
    )


def test_slot_rows_exactly_where_users_exceed_the_cap():
    instance = shared_corridor()
    model, full = assert_same_bound_and_optimum(instance)
    assert_reduced_shape(instance, model)
    users, _waits, slot_rows = structure(model)
    assert len(users[0, 0, 1, 1]) == 2 and len(users[0, 1, 1, 2]) == 3
    assert (0, 1, 1, 2) in slot_rows
    assert (0, 0, 1, 1) not in slot_rows
    names = {var.name for var in model.variables}
    assert ("y", 0, 0, 1, 1) in names
    assert ("y", 2, 0, 3, 1) not in names
    assert ("y", 2, 0, 3, 1) in {var.name for var in full.variables}
    res = solve(model, SolveConfig(gap_tol=1e-9))
    assert res.objective == pytest.approx(brute_force_joint(instance), abs=1e-9)


def test_no_waiting_off_the_admissible_arcs():
    instance = hub_fleet(5, 10)
    model, full = both_models(instance)
    assert waits_off_reach(instance, model) == set()
    assert waits_off_reach(instance, full)  # the full model waits there


@pytest.mark.parametrize(
    "rung",
    [
        (5, 10),
        (6, 15),
        (6, 20),
        (7, 25),
        pytest.param((8, 30), marks=pytest.mark.slow),
    ],
    ids=lambda r: f"{r[0]}x{r[0]}/{r[1]}",
)
def test_hub_ladder_proves_optimum_at_the_root(rung):
    instance = hub_fleet(*rung)
    model = build_tsf(instance, build_time_space(instance.network, instance))
    res = solve(model, SolveConfig(gap_tol=1e-9))
    assert res.status == "optimal"
    assert res.node_count == 1
    assert res.objective == pytest.approx(HUB_OPTIMA[rung], abs=1e-6)
    plan = decode(instance, res, "tsf")
    assert check(instance, plan).ok
    assert total_cost(instance, plan) == pytest.approx(res.objective, abs=1e-6)


def test_a_time_limit_stops_the_8x8_30_root_lp():
    """The root LP of this rung takes about 2 s.  The clock once stopped a
    search only between its LPs, so a 0.2 s limit returned the optimum
    after the whole LP; HiGHS now stops the LP itself at the deadline."""
    instance = hub_fleet(8, 30)
    model = build_tsf(instance, build_time_space(instance.network, instance))
    start = time.perf_counter()
    res = solve(model, SolveConfig(time_limit=0.2))
    assert time.perf_counter() - start < 1.0
    assert res.status in ("no_solution_time_limit", "feasible_time_limit")
    assert res.bound is None or res.bound <= HUB_OPTIMA[8, 30] + 1e-6


@pytest.mark.slow
@pytest.mark.parametrize("grid", range(10))
def test_field_fleets_prove_optimum_at_the_root(grid):
    """The criterion-8 optima, the yardstick of every heuristic plan there."""
    instance = field_fleet(grid)
    model = build_tsf(instance, build_time_space(instance.network, instance))
    res = solve(model, SolveConfig(gap_tol=1e-9))
    assert res.status == "optimal"
    assert res.node_count == 1
    assert res.objective == pytest.approx(FIELD_OPTIMA[grid], abs=1e-6)
    plan = decode(instance, res, "tsf")
    assert check(instance, plan).ok
    assert total_cost(instance, plan) == pytest.approx(res.objective, abs=1e-6)
