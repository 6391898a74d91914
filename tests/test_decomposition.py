"""Cost shaping, iteration bookkeeping, and the route-then-schedule loop."""

import json

import numpy as np
import pytest

import platoonplan.decomposition as decomposition_module
import platoonplan.instance as instance_module
from platoonplan.decomposition import (
    CostTable,
    DecompositionConfig,
    HistoryEntry,
    IterationLog,
    IterationRecord,
    _warm_routing,
    _warm_schedule,
    fingerprint,
    modify_costs,
    real_cost,
    run,
)
from platoonplan.errors import MissingCost, ModelInvalid
from platoonplan.evaluate import canonical_schedule, check, total_cost
from platoonplan.formulations import (
    FixedRoutes,
    admissible_arcs,
    build_fcnf,
    build_tif,
    price_fcnf,
    scheduling_preprocess,
)
from platoonplan.instance import (
    Instance,
    Vehicle,
    generate_fleet,
    node_time_bounds,
    three_truck_demo,
)
from platoonplan.mip import SolveConfig, _compile, solve
from platoonplan.network import generate_grid, make_network

TOP = ((0, 1), (1, 4), (4, 5))
BOTTOM = ((0, 2), (2, 3), (3, 5))


def demo_routes(demo, truck2):
    return FixedRoutes.build(demo, {0: ((0, 1),), 1: ((0, 2),), 2: truck2})


# -- per-head cost and fingerprints -------------------------------------------


def test_real_cost_values():
    # five trucks, cap five: one platoon, fixed share split five ways
    assert real_cost(1.0, 0.1, 5, 5) == pytest.approx(0.92, abs=1e-12)
    # a pair with no cap: half the fixed share each
    assert real_cost(1.0, 0.1, 2, None) == pytest.approx(0.95, abs=1e-12)
    # driving alone costs the full arc
    assert real_cost(1.0, 0.1, 1, None) == pytest.approx(1.0, abs=1e-12)
    # four trucks, cap three: two groups pay the fixed share twice
    assert real_cost(2.0, 0.2, 4, 3) == pytest.approx(1.8, abs=1e-12)


def test_fingerprint_ignores_vehicle_order():
    a = {0: ((0, 1),), 1: ((0, 2), (2, 3))}
    b = {1: ((0, 2), (2, 3)), 0: ((0, 1),)}
    assert fingerprint(a) == fingerprint(b)
    assert fingerprint(a) != fingerprint({0: ((0, 1),), 1: ((0, 2),)})


# -- cost shaping -------------------------------------------------------------


def test_modify_costs_first_round(demo):
    """Truck 2 rode the top corridor; (0, 2) gets the join estimate."""
    routes = demo_routes(demo, TOP)
    solution = canonical_schedule(demo, routes)
    table = modify_costs(demo, None, routes, solution, "icmp")
    assert table.iteration == 1
    assert table.traversed == {(0, 1), (0, 2), (1, 4), (4, 5)}
    # every driven leg was a singleton group: realized cost is the full arc
    assert table.scenarios[0, (0, 1)] == 1
    assert table.modified[0, (0, 1)] == pytest.approx(1.0)
    assert table.modified[2, (4, 5)] == pytest.approx(0.99)
    # truck 2 skipped (0, 2) but can meet truck 1 there: unit share plus
    # half the fixed share, the estimate that makes round two reroute it
    assert table.scenarios[2, (0, 2)] == 3
    assert table.modified[2, (0, 2)] == pytest.approx(0.95, abs=1e-12)
    lazy = modify_costs(demo, None, routes, solution, "llcmp")
    assert lazy.scenarios[2, (0, 2)] == 3
    assert lazy.modified[2, (0, 2)] == pytest.approx(0.9, abs=1e-12)


def test_modify_costs_second_round(demo):
    """After rerouting, truck 2 platoons with 1 and can never meet truck 0."""
    routes = demo_routes(demo, BOTTOM)
    solution = canonical_schedule(demo, routes)  # meets at 500 by accident
    prev = CostTable(1, frozenset(), {}, {})
    table = modify_costs(demo, prev, routes, solution, "icmp")
    assert table.iteration == 2
    # realized pair cost on the shared arc
    assert table.scenarios[1, (0, 2)] == 1
    assert table.modified[1, (0, 2)] == pytest.approx(0.95, abs=1e-12)
    assert table.modified[2, (0, 2)] == pytest.approx(0.95, abs=1e-12)
    # truck 2 cannot meet truck 0 on (0, 1): full price under icmp
    assert table.scenarios[2, (0, 1)] == 2
    assert table.modified[2, (0, 1)] == pytest.approx(1.0, abs=1e-12)
    lazy = modify_costs(demo, prev, routes, solution, "llcmp")
    assert lazy.scenarios[2, (0, 1)] == 2
    assert lazy.modified[2, (0, 1)] == pytest.approx(0.9, abs=1e-12)


def test_modify_costs_rejects_unknown_mode(demo):
    routes = demo_routes(demo, TOP)
    solution = canonical_schedule(demo, routes)
    with pytest.raises(ValueError, match="mode"):
        modify_costs(demo, None, routes, solution, "eager")


def lure_instance():
    """Two trucks platoon on the cheap corridor; a third watches from afar.

    Both corridors take two steps; the top one is cheaper.  Trucks 0 and 1
    are on the top, truck 2 on the bottom, and truck 2's window overlaps
    the platoon's entry slot, so the join estimate applies.
    """
    net = make_network(
        4,
        [
            (0, 1, 0.8, 1),
            (1, 3, 0.8, 1),
            (0, 2, 1.0, 1),
            (2, 3, 1.0, 1),
        ],
    )
    vehicles = (
        Vehicle(0, 0, 3, 0, 2),
        Vehicle(1, 0, 3, 0, 2),
        Vehicle(2, 0, 3, 0, 4),
    )
    return Instance(
        network=net,
        vehicles=vehicles,
        eta=0.25,
        q_limit=None,
        time_unit=1.0,
        horizon=4,
    )


def test_modify_costs_composition_repeat():
    instance = lure_instance()
    routes = FixedRoutes.build(
        instance,
        {0: ((0, 1), (1, 3)), 1: ((0, 1), (1, 3)), 2: ((0, 2), (2, 3))},
    )
    solution = canonical_schedule(instance, routes)
    pair = frozenset({frozenset({0, 1})})
    comps = {(0, 1): pair, (1, 3): pair}

    def table(iteration, scenario, modified):
        return CostTable(
            iteration=iteration,
            traversed=frozenset(routes.arc_union),
            modified={(2, (0, 1)): modified},
            scenarios={(2, (0, 1)): scenario},
        )

    # the same platoon formed after round 1, lured truck 2 (tag 3), and the
    # post-lure round 2 priced the pair at 0.777: round 3 must reuse that
    history = [
        HistoryEntry(compositions=comps, table=table(1, 3, 0.9)),
        HistoryEntry(compositions=comps, table=table(2, 2, 0.777)),
    ]
    out = modify_costs(instance, history[-1].table, routes, solution, "icmp", history)
    assert out.scenarios[2, (0, 1)] == 4
    assert out.modified[2, (0, 1)] == pytest.approx(0.777, abs=1e-12)

    # without the follow-up round on record the overlap rule stays in force
    short = history[:1]
    out = modify_costs(instance, short[-1].table, routes, solution, "icmp", short)
    assert out.scenarios[2, (0, 1)] == 3

    # a lure tag other than 3 means the estimate never rerouted anyone
    unlured = [
        HistoryEntry(compositions=comps, table=table(1, 2, 0.9)),
        HistoryEntry(compositions=comps, table=table(2, 2, 0.777)),
    ]
    out = modify_costs(
        instance, unlured[-1].table, routes, solution, "icmp", unlured
    )
    assert out.scenarios[2, (0, 1)] == 3


def test_modify_costs_join_estimate_splits_among_meeting_drivers():
    instance = lure_instance()
    routes = FixedRoutes.build(
        instance,
        {0: ((0, 1), (1, 3)), 1: ((0, 1), (1, 3)), 2: ((0, 2), (2, 3))},
    )
    solution = canonical_schedule(instance, routes)
    table = modify_costs(instance, None, routes, solution, "icmp")
    # truck 2 meets both drivers: unit share plus a third of the fixed share
    want = 0.75 * 0.8 + 0.25 * 0.8 / 3
    assert table.scenarios[2, (0, 1)] == 3
    assert table.modified[2, (0, 1)] == pytest.approx(want, abs=1e-12)


# -- warm starts --------------------------------------------------------------


def test_warm_routing_covers_model_and_is_feasible(demo):
    warm = _warm_routing(demo, None)
    model = build_fcnf(demo)
    assert list(warm) == list(range(model.num_vars))
    # accepted as an incumbent without any branching
    res = solve(model, SolveConfig(time_limit=0.0, warm_start=warm))
    assert res.objective == pytest.approx(4.89, abs=1e-9)


@pytest.mark.parametrize("which", ["demo", "grid4"])
def test_warm_start_by_index_equals_by_name(which):
    if which == "demo":
        instance = three_truck_demo()
    else:
        instance = generate_fleet(generate_grid(4, 4, seed=4), 8, seed=4)
    model = build_fcnf(instance)
    by_index = _warm_routing(instance, None)
    by_name = {model.var_name(i): val for i, val in by_index.items()}
    for time_limit in (0.0, None):
        r_index = solve(model, SolveConfig(time_limit=time_limit, warm_start=by_index))
        r_name = solve(model, SolveConfig(time_limit=time_limit, warm_start=by_name))
        assert r_index.objective is not None
        for field in ("status", "objective", "bound", "values", "node_count"):
            assert getattr(r_index, field) == getattr(r_name, field)


def test_warm_schedule_covers_model_and_is_feasible(demo):
    routes = demo_routes(demo, BOTTOM)
    kept, _ = scheduling_preprocess(demo, routes)
    warm = _warm_schedule(demo, routes, kept)
    model = build_tif(demo, routes, kept)
    assert set(warm) == {v.name for v in model.variables}
    res = solve(model, SolveConfig(time_limit=0.0, warm_start=warm))
    # everyone-earliest already meets at 500 here
    assert res.objective == pytest.approx(0.1, abs=1e-9)


# -- the full loop ------------------------------------------------------------


def test_run_icmp_demo_trace(demo):
    best, log = run(demo, DecompositionConfig(mode="icmp"))
    assert check(demo, best).ok
    assert total_cost(demo, best) == pytest.approx(4.9, abs=1e-9)
    assert log.best_cost == pytest.approx(4.9, abs=1e-9)
    assert log.best_iteration == 2
    assert log.lower_bound == pytest.approx(4.89, abs=1e-9)
    assert log.termination == "repeat"
    # round 1 finds the schedule-blind plan, round 2 the rerouted one, and
    # the plan then stays put until the repeat rule fires
    assert [r.routing_objective for r in log.records] == pytest.approx(
        [4.89, 4.95, 4.9, 4.9], abs=1e-9
    )
    assert [r.feasible_cost for r in log.records] == pytest.approx(
        [4.99, 4.9, 4.9, 4.9], abs=1e-9
    )
    assert log.records[0].scheduling_savings == pytest.approx(0.0, abs=1e-12)
    assert log.records[1].scheduling_savings == pytest.approx(0.1, abs=1e-9)
    fps = [r.fingerprint for r in log.records]
    assert fps[1] == fps[2] == fps[3] != fps[0]


def test_run_llcmp_demo_cycles_until_repeat(demo):
    """The lazy estimate starts a two-route cycle; the repeat rule ends it."""
    best, log = run(demo, DecompositionConfig(mode="llcmp"))
    assert total_cost(demo, best) == pytest.approx(4.9, abs=1e-9)
    assert log.termination == "repeat"
    assert log.best_iteration == 2
    assert [r.feasible_cost for r in log.records] == pytest.approx(
        [4.99, 4.9, 4.99, 4.9, 4.99], abs=1e-9
    )
    # shaped routing objectives are estimates, not bounds: round 3 dips
    # below the true optimum because the lure is priced too optimistically
    assert log.records[2].routing_objective == pytest.approx(4.84, abs=1e-9)
    fps = [r.fingerprint for r in log.records]
    assert fps[0] == fps[2] == fps[4] != fps[1]
    assert fps[1] == fps[3]


def test_run_pairwise_scheduler(demo):
    best, log = run(demo, DecompositionConfig(scheduler="pairwise", gamma=0.5))
    assert check(demo, best).ok
    assert total_cost(demo, best) == pytest.approx(4.9, abs=1e-9)
    assert log.termination == "repeat"


def test_run_computes_admissibility_once_per_instance(demo, monkeypatch):
    calls = {"prune_arcs": [], "node_time_bounds": []}

    def counting(name):
        real = getattr(instance_module, name)

        def wrapper(*args):
            calls[name].append(args[1].id)  # both take the vehicle second
            return real(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(instance_module, name, counting(name))
    assert demo.admissible is demo.admissible
    _best, log = run(demo, DecompositionConfig(mode="icmp"))
    assert len(log.records) > 1
    # every round's routing model, warm start and cost shaping share one pass
    assert sorted(calls["prune_arcs"]) == [0, 1, 2]
    assert sorted(calls["node_time_bounds"]) == [0, 1, 2]
    monkeypatch.undo()
    # no caller mutated the shared sets or windows
    assert demo.admissible == admissible_arcs(demo)
    assert [w.bounds for w in demo.windows] == [
        node_time_bounds(demo, veh).bounds for veh in demo.vehicles
    ]


def test_run_builds_routing_model_once(demo, monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return build_fcnf(*args)

    monkeypatch.setattr(decomposition_module, "build_fcnf", counting)
    _best, log = run(demo, DecompositionConfig(mode="icmp"))
    assert len(log.records) > 1
    assert calls == [(demo, None)]


def assert_same_arrays(got, want):
    for name in ("c", "b_ub", "b_eq", "lower", "upper", "int_mask"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.dtype == b.dtype and np.array_equal(a, b), name
    for name in ("a_ub", "a_eq"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.shape == b.shape, name
            for part in ("indptr", "indices", "data"):
                x, y = getattr(a, part), getattr(b, part)
                assert x.dtype == y.dtype and np.array_equal(x, y), (name, part)
    assert (got.const, got.flip, got.names) == (want.const, want.flip, want.names)


@pytest.mark.parametrize("mode", ["icmp", "llcmp"])
@pytest.mark.parametrize("which", ["demo", "grid4"])
def test_repriced_routing_model_equals_fresh_build(mode, which, monkeypatch):
    """Every round solves what build_fcnf would build for that round's table."""
    if which == "demo":
        instance = three_truck_demo()
    else:
        instance = generate_fleet(generate_grid(4, 4, seed=4), 8, seed=4)
    tables = [None]
    routing_models = []

    def recording_modify(*args, **kwargs):
        tables.append(modify_costs(*args, **kwargs))
        return tables[-1]

    def checking_solve(model, cfg=None):
        if model.name == "fcnf":
            routing_models.append(model)
            fresh = build_fcnf(instance, tables[-1])
            assert_same_arrays(_compile(model), _compile(fresh))
        return solve(model, cfg)

    monkeypatch.setattr(decomposition_module, "modify_costs", recording_modify)
    monkeypatch.setattr(decomposition_module, "solve", checking_solve)
    _best, log = run(instance, DecompositionConfig(mode=mode))
    assert len(routing_models) == len(log.records) == len(tables) > 2
    assert all(model is routing_models[0] for model in routing_models)
    # the shaping changed some prices, so the check compared moving targets
    assert len({tuple(_compile(build_fcnf(instance, t)).c) for t in tables}) > 1


def test_price_fcnf_missing_cost_and_wrong_model(demo):
    model = build_fcnf(demo)
    lacking = CostTable(1, frozenset({(0, 1)}), {}, {})
    with pytest.raises(MissingCost):
        price_fcnf(demo, model, lacking)
    with pytest.raises(MissingCost):
        build_fcnf(demo, lacking)
    other = generate_fleet(generate_grid(3, 3, seed=0), 2, seed=0)
    with pytest.raises(ModelInvalid):
        price_fcnf(other, model, None)


def test_run_rejects_unknown_scheduler(demo):
    with pytest.raises(ValueError, match="scheduler"):
        run(demo, DecompositionConfig(scheduler="greedy"))


def test_iteration_log_jsonl_shape():
    log = IterationLog(
        records=[
            IterationRecord(
                index=1,
                fingerprint="abc",
                routing_objective=4.89,
                routing_bound=4.89,
                scheduling_savings=0.0,
                feasible_cost=4.99,
            )
        ],
        best_cost=4.99,
        best_iteration=1,
        lower_bound=4.89,
        termination="repeat",
        wall_time=0.25,
    )
    lines = log.to_jsonl().splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first["iteration"] == 1
    assert first["feasible_cost"] == 4.99
    summary = json.loads(lines[1])["summary"]
    assert summary["termination"] == "repeat"
    assert summary["best_cost"] == 4.99
