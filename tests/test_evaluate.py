"""Timetable validation, costing, quality ratios, and incumbent decoding."""

import dataclasses
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import platoonplan.mip as mip_module
from instgen import small_instance, surplus_tsf_incumbent, time_shortest_paths
from platoonplan.errors import DecodeInconsistent, InvalidSolution
from platoonplan.evaluate import (
    PlatoonSolution,
    assemble_timetable,
    canonical_schedule,
    check,
    decode,
    indicators,
    shortest_path_cost,
    split_groups,
    total_cost,
)
from platoonplan.formulations import FixedRoutes, build_cpf, build_tif, build_tsf
from platoonplan.instance import Instance, Vehicle
from platoonplan.mip import SolveConfig, _compile, _feasible_point, solve
from platoonplan.network import build_time_space, make_network
from test_mip import watch_node_lps


def demo_solution():
    """The fleet optimum: trucks 1 and 2 platoon on (0, 2) at time 500."""
    return PlatoonSolution(
        paths={
            0: (((0, 1), 0),),
            1: (((0, 2), 500),),
            2: (((0, 2), 500), ((2, 3), 600), ((3, 5), 700)),
        },
        groups={
            ((0, 1), 0): ((0,),),
            ((0, 2), 500): ((1, 2),),
            ((2, 3), 600): ((2,),),
            ((3, 5), 700): ((2,),),
        },
    )


def mutated(sol, paths=None, groups=None):
    return dataclasses.replace(
        sol,
        paths={**sol.paths, **(paths or {})},
        groups={**sol.groups, **(groups or {})},
    )


def kinds(instance, sol):
    return {v.kind for v in check(instance, sol).violations}


def tiny_shared_arc(n_vehicles, q_limit):
    net = make_network(2, [(0, 1, 1.0, 1)])
    return Instance(
        network=net,
        vehicles=tuple(Vehicle(v, 0, 1, 0, 1) for v in range(n_vehicles)),
        eta=0.1,
        q_limit=q_limit,
        time_unit=1.0,
        horizon=1,
    )


# -- checking and costing -----------------------------------------------------


def test_demo_solution_checks_and_costs(demo):
    sol = demo_solution()
    assert check(demo, sol).ok
    # 1 alone + (2 - 0.1) * 1 shared + 1 + 1 alone
    assert total_cost(demo, sol) == pytest.approx(4.9, abs=1e-12)
    assert shortest_path_cost(demo) == pytest.approx(4.99, abs=1e-12)


def test_check_missing_and_unknown_vehicle(demo):
    sol = demo_solution()
    paths = dict(sol.paths)
    del paths[0]
    gone = dataclasses.replace(
        sol, paths=paths, groups={k: g for k, g in sol.groups.items() if k != ((0, 1), 0)}
    )
    assert kinds(demo, gone) == {"missing-vehicle"}
    extra = mutated(sol, paths={7: (((0, 1), 0),)})
    assert "unknown-vehicle" in kinds(demo, extra)


def test_check_path_violations(demo):
    sol = demo_solution()
    assert "empty-path" in kinds(demo, mutated(sol, paths={0: ()}))
    assert "arc-missing" in kinds(demo, mutated(sol, paths={0: (((0, 5), 0),)}))
    assert "path-broken" in kinds(
        demo, mutated(sol, paths={2: (((0, 2), 500), ((3, 5), 700))})
    )
    assert "path-revisit" in kinds(
        demo, mutated(sol, paths={0: (((0, 1), 0), ((1, 0), 100))})
    )
    wrong = mutated(
        sol,
        paths={1: (((0, 1), 500),)},
        groups={((0, 2), 500): ((2,),), ((0, 1), 500): ((1,),)},
    )
    assert "wrong-destination" in kinds(demo, wrong)


def test_check_timing_violations(demo):
    sol = demo_solution()
    early = mutated(sol, paths={0: (((0, 1), -5),)}, groups={((0, 1), -5): ((0,),)})
    assert "window-departure" in kinds(demo, early)
    rushed = mutated(
        sol,
        paths={2: (((0, 2), 500), ((2, 3), 550), ((3, 5), 700))},
        groups={((2, 3), 550): ((2,),)},
    )
    assert "travel-time" in kinds(demo, rushed)
    late = mutated(
        sol,
        paths={2: (((0, 2), 500), ((2, 3), 600), ((3, 5), 950))},
        groups={((3, 5), 950): ((2,),)},
    )
    assert "window-arrival" in kinds(demo, late)


def test_check_group_violations(demo):
    sol = demo_solution()
    assert "empty-group" in kinds(
        demo, mutated(sol, groups={((0, 2), 500): ((1, 2), ())})
    )
    assert "leader" in kinds(demo, mutated(sol, groups={((0, 2), 500): ((2, 1),)}))
    assert "group-duplicate" in kinds(
        demo, mutated(sol, groups={((0, 2), 500): ((1,), (1, 2))})
    )
    assert "group-membership" in kinds(
        demo, mutated(sol, groups={((2, 3), 600): ((1, 2),)})
    )
    # dropping truck 2 from its group leaves the traversal uncovered
    assert "uncovered-traversal" in kinds(
        demo, mutated(sol, groups={((0, 2), 500): ((1,),)})
    )


def test_check_group_size_cap():
    instance = tiny_shared_arc(3, q_limit=2)
    sol = PlatoonSolution(
        paths={v: (((0, 1), 0),) for v in range(3)},
        groups={((0, 1), 0): ((0, 1, 2),)},
    )
    assert kinds(instance, sol) == {"group-size"}
    ok = dataclasses.replace(sol, groups={((0, 1), 0): ((0, 1), (2,))})
    assert check(instance, ok).ok
    assert total_cost(instance, ok) == pytest.approx(2.9, abs=1e-12)


def test_total_cost_rejects_invalid(demo):
    sol = mutated(demo_solution(), paths={0: ()})
    with pytest.raises(InvalidSolution):
        total_cost(demo, sol)


def test_check_tolerates_float_times(demo):
    sol = demo_solution()
    near = mutated(
        sol,
        paths={1: (((0, 2), 500.0000003),)},
        groups={((0, 2), 500): ((2,),), ((0, 2), 500.0000003): ((1,),)},
    )
    # within 1e-6 of the window; group membership keys stay exact
    assert check(demo, near).ok


# -- indicators ---------------------------------------------------------------


def test_indicators_demo(demo):
    out = indicators(demo, objective=4.9, bound=4.89, optimum=4.9)
    assert out["spc"] == pytest.approx(4.99, abs=1e-12)
    assert out["saving_ratio"] == pytest.approx(0.09 / 4.99, abs=1e-12)
    assert out["ub_saving_ratio"] == pytest.approx(0.1 / 4.99, abs=1e-12)
    assert out["relative_gap"] == pytest.approx(0.01 / 4.89, abs=1e-12)
    assert out["optimality_gap"] == pytest.approx(0.0, abs=1e-12)


def test_indicators_zero_denominators():
    net = make_network(2, [(0, 1, 0.0, 1)])
    instance = Instance(
        network=net,
        vehicles=(Vehicle(0, 0, 1, 0, 1),),
        eta=0.1,
        q_limit=None,
        time_unit=1.0,
        horizon=1,
    )
    out = indicators(instance, objective=0.0, bound=0.0)
    assert out["spc"] == 0.0
    assert out["saving_ratio"] is None
    assert out["ub_saving_ratio"] is None
    assert out["relative_gap"] is None
    assert out["optimality_gap"] is None


# -- group splitting ----------------------------------------------------------


def test_split_groups_minimum_count():
    assert split_groups([5, 1], q=2) == ((1, 5),)
    assert split_groups([3, 1, 2], q=2) == ((1, 2), (3,))
    assert split_groups([0, 1, 2, 3, 4], q=2) == ((0, 1), (2, 3), (4,))
    assert split_groups([2, 0, 1], q=None) == ((0, 1, 2),)


# -- JSON round trips ---------------------------------------------------------


def test_solution_json_round_trip(demo):
    sol = demo_solution()
    data = json.loads(json.dumps(sol.to_json_dict()))
    back = PlatoonSolution.from_json_dict(data)
    assert back.paths == sol.paths
    assert back.groups == sol.groups
    assert check(demo, back).ok


def test_report_json_shape(demo):
    report = check(demo, mutated(demo_solution(), paths={0: ()}))
    data = report.to_json_dict()
    assert data["ok"] is False
    assert data["violations"][0]["kind"] == "empty-path"
    assert data["violations"][0]["vehicle"] == 0


# -- decoding -----------------------------------------------------------------


def test_decode_cpf_demo_matches_objective(demo):
    res = solve(build_cpf(demo), SolveConfig(gap_tol=1e-9))
    sol = decode(demo, res, "cpf")
    assert total_cost(demo, sol) == pytest.approx(res.objective, abs=1e-6)
    assert sol.groups[((0, 2), 500.0)] == ((1, 2),)


def test_decode_tsf_demo_matches_objective(demo):
    model = build_tsf(demo, build_time_space(demo.network, demo))
    res = solve(model, SolveConfig(gap_tol=1e-9))
    sol = decode(demo, res, "tsf")
    assert total_cost(demo, sol) == pytest.approx(res.objective, abs=1e-6)


def test_decode_tif_demo(demo):
    routes = FixedRoutes.build(
        demo, {0: ((0, 1),), 1: ((0, 2),), 2: ((0, 2), (2, 3), (3, 5))}
    )
    res = solve(build_tif(demo, routes), SolveConfig(gap_tol=1e-9))
    sol = decode(demo, res, "tif", routes=routes)
    route_cost = 1.0 + 1.0 + 3.0
    assert total_cost(demo, sol) == pytest.approx(route_cost - res.objective, abs=1e-6)


def test_decode_argument_errors(demo):
    empty = SimpleNamespace(values={})
    with pytest.raises(InvalidSolution, match="no incumbent"):
        decode(demo, empty, "cpf")
    res = SimpleNamespace(values={("x", 0, 1, 0): 1.0})
    with pytest.raises(InvalidSolution, match="dialect"):
        decode(demo, res, "mystery")
    with pytest.raises(InvalidSolution, match="routes"):
        decode(demo, res, "tif")


def test_decode_rejects_tampered_incumbent(demo):
    res = solve(build_cpf(demo), SolveConfig(gap_tol=1e-9))
    broken = dict(res.values)
    for key, val in res.values.items():
        if key[0] == "x" and key[-1] == 0 and val > 0.5:
            broken[key] = 0.0  # truck 0 loses its route entirely
    with pytest.raises(DecodeInconsistent):
        decode(demo, SimpleNamespace(values=broken), "cpf")


def test_decode_tsf_rejects_broken_chain(demo):
    values = {("x", 0, 100, 2, 200, 0): 1.0, ("x", 3, 400, 5, 500, 0): 1.0}
    with pytest.raises(DecodeInconsistent):
        decode(demo, SimpleNamespace(values=values), "tsf")


def test_tif_timetable_ignores_surplus_platoon_counts():
    # an incumbent that pays for two platoons where one holds both trucks
    instance = tiny_shared_arc(2, q_limit=None)
    routes = FixedRoutes.build(instance, {0: ((0, 1),), 1: ((0, 1),)})
    values = {("x", 0, 1, 0, 0): 1.0, ("x", 0, 1, 1, 0): 1.0, ("y", 0, 1, 0): 2.0}
    decoded = decode(instance, SimpleNamespace(values=values), "tif", routes)
    assembled = assemble_timetable(instance, routes, {(0, (0, 1)): 0, (1, (0, 1)): 0})
    for sol in (decoded, assembled):
        assert sol.groups == {((0, 1), 0): ((0, 1),)}
        assert total_cost(instance, sol) == pytest.approx(1.9, abs=1e-12)


def test_decode_tsf_forms_the_fewest_platoons_whatever_the_count():
    # the incumbent pays for two platoons where one holds both trucks
    instance, model, res = surplus_tsf_incumbent()
    x = np.array([res.values[var.name] for var in model.variables])
    assert _feasible_point(_compile(model), x)
    assert res.objective == pytest.approx(30.0, abs=1e-9)
    sol = decode(instance, res, "tsf")
    assert sol.groups == {((0, 1), 0): ((0, 1),), ((0, 1), 1): ((2,),)}
    eta_c = instance.eta * instance.network.cost[0, 1]
    assert total_cost(instance, sol) == pytest.approx(res.objective - eta_c, abs=1e-9)


def solve_until_first_incumbent(model):
    """``solve`` under a clock that runs out at the first integral node LP,
    so a search that has not yet proven it returns its first incumbent."""
    clock = [0.0]

    def expire_at_integral_point(comp, result):
        status, x, _fun = result
        if status == 0 and mip_module._fractionality(comp, x).max(initial=0.0) <= 1e-6:
            clock[0] = 10.0

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mip_module, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
        watch_node_lps(mp, expire_at_integral_point)
        return solve(model, SolveConfig(time_limit=1.0, gap_tol=1e-9))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.integers(0, 2**16), st.sampled_from([2, 3, None]))
def test_decoded_plans_cost_at_most_the_objective(seed, q_limit):
    """Proven and first incumbents of all three models decode to checked
    plans: CPF's costs its objective, TSF's at most its objective, and
    TIF's at most the routes' base cost minus the saving it reports.

    The draws are larger than brute force allows: at the default size the
    time-space and scheduling models nearly always prove at the root, and
    these let some of their searches branch before the first incumbent."""
    instance = small_instance(
        seed, max_vehicles=10, slack_max=4, q_pool=(q_limit,), budget=math.inf
    )
    assume(instance is not None)
    routes = FixedRoutes.build(instance, time_shortest_paths(instance))
    base = sum(instance.network.cost[arc] for path in routes.paths.values() for arc in path)
    models = {
        "cpf": build_cpf(instance),
        "tsf": build_tsf(instance, build_time_space(instance.network, instance)),
        "tif": build_tif(instance, routes),
    }
    for which, model in models.items():
        for res in (solve(model, SolveConfig(gap_tol=1e-9)), solve_until_first_incumbent(model)):
            sol = decode(instance, res, which, routes)
            assert check(instance, sol).ok
            cost = total_cost(instance, sol)
            if which == "cpf":
                assert cost == pytest.approx(res.objective, abs=1e-6)
            elif which == "tsf":
                assert cost <= res.objective + 1e-6
            else:
                assert cost <= base - res.objective + 1e-6


# -- canonical schedule -------------------------------------------------------


def test_canonical_schedule_demo(demo):
    routes = FixedRoutes.build(
        demo, {0: ((0, 1),), 1: ((0, 2),), 2: ((0, 2), (2, 3), (3, 5))}
    )
    sol = canonical_schedule(demo, routes)
    # departing at the earliest happens to platoon trucks 1 and 2 here
    assert sol.groups[((0, 2), 500)] == ((1, 2),)
    assert total_cost(demo, sol) == pytest.approx(4.9, abs=1e-12)


def test_canonical_schedule_no_accidental_meet(demo):
    routes = FixedRoutes.build(
        demo, {0: ((0, 1),), 1: ((0, 2),), 2: ((0, 1), (1, 4), (4, 5))}
    )
    sol = canonical_schedule(demo, routes)
    # trucks 0 and 2 share the arc but depart 500 apart
    assert total_cost(demo, sol) == pytest.approx(4.99, abs=1e-12)
