"""Cost shaping, iteration bookkeeping, and the route-then-schedule loop."""

import hashlib
import json
import math
import weakref
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import platoonplan.decomposition as decomposition_module
import platoonplan.evaluate as evaluate_module
import platoonplan.instance as instance_module
import platoonplan.pairwise as pairwise_module
from instgen import FIELD_OPTIMA, field_fleet, small_instance, time_shortest_paths
from oracles import (
    FullTableHistory,
    assert_same_arrays,
    kept_pairs,
    overlap_components,
    simple_paths,
)
from platoonplan.decomposition import (
    CostTable,
    DecompositionConfig,
    History,
    IterationLog,
    IterationRecord,
    _schedule,
    fingerprint,
    modify_costs,
    real_cost,
    run,
)
from platoonplan.errors import MissingCost, ModelInvalid, NoFeasibleSolution, ValidationError
from platoonplan.evaluate import canonical_schedule, check, total_cost
from platoonplan.formulations import (
    FixedRoutes,
    _tif_spec,
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
from platoonplan.mip import NO_SOLUTION_TIME_LIMIT, MipResult, SolveConfig, _compile, lp_text, solve
from platoonplan.network import generate_grid, make_network
from platoonplan.pairwise import _parts, narrow_windows, schedule_by_part

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
    table = modify_costs(demo, routes, solution, "icmp")
    assert table.traversed == {(0, 1), (0, 2), (1, 4), (4, 5)}
    # every driven leg was a singleton group: realized cost is the full arc
    assert table.scenarios[0, (0, 1)] == 1
    assert table.modified[0, (0, 1)] == pytest.approx(1.0)
    assert table.modified[2, (4, 5)] == pytest.approx(0.99)
    # truck 2 skipped (0, 2) but can meet truck 1 there: unit share plus
    # half the fixed share, the estimate that makes round two reroute it
    assert table.scenarios[2, (0, 2)] == 3
    assert table.modified[2, (0, 2)] == pytest.approx(0.95, abs=1e-12)
    lazy = modify_costs(demo, routes, solution, "llcmp")
    assert lazy.scenarios[2, (0, 2)] == 3
    assert lazy.modified[2, (0, 2)] == pytest.approx(0.9, abs=1e-12)


def test_modify_costs_second_round(demo):
    """After rerouting, truck 2 platoons with 1 and can never meet truck 0."""
    routes = demo_routes(demo, BOTTOM)
    solution = canonical_schedule(demo, routes)  # meets at 500 by accident
    table = modify_costs(demo, routes, solution, "icmp")
    # realized pair cost on the shared arc
    assert table.scenarios[1, (0, 2)] == 1
    assert table.modified[1, (0, 2)] == pytest.approx(0.95, abs=1e-12)
    assert table.modified[2, (0, 2)] == pytest.approx(0.95, abs=1e-12)
    # truck 2 cannot meet truck 0 on (0, 1): full price under icmp
    assert table.scenarios[2, (0, 1)] == 2
    assert table.modified[2, (0, 1)] == pytest.approx(1.0, abs=1e-12)
    lazy = modify_costs(demo, routes, solution, "llcmp")
    assert lazy.scenarios[2, (0, 1)] == 2
    assert lazy.modified[2, (0, 1)] == pytest.approx(0.9, abs=1e-12)


def test_modify_costs_rejects_unknown_mode(demo):
    routes = demo_routes(demo, TOP)
    solution = canonical_schedule(demo, routes)
    with pytest.raises(ValidationError, match="mode"):
        modify_costs(demo, routes, solution, "eager")


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

    def table(scenario, modified):
        return CostTable(
            traversed=frozenset(routes.vehicles_by_arc),
            modified={(2, (0, 1)): modified},
            scenarios={(2, (0, 1)): scenario},
        )

    def history(*tables, compositions=None):
        """The history of these rounds."""
        recorded = History()
        for t, comp in zip(tables, compositions or [comps] * len(tables)):
            recorded.append(comp, t)
        return recorded

    # the same platoon formed after round 1, lured truck 2 (tag 3), and the
    # post-lure round 2 priced the pair at 0.777: round 3 must reuse that
    lured = history(table(3, 0.9), table(2, 0.777))
    out = modify_costs(instance, routes, solution, "icmp", lured)
    assert out.scenarios[2, (0, 1)] == 4
    assert out.modified[2, (0, 1)] == pytest.approx(0.777, abs=1e-12)

    # without the follow-up round on record the overlap rule stays in force
    short = history(table(3, 0.9))
    out = modify_costs(instance, routes, solution, "icmp", short)
    assert out.scenarios[2, (0, 1)] == 3

    # a lure tag other than 3 means the estimate never rerouted anyone
    unlured = history(table(2, 0.9), table(2, 0.777))
    out = modify_costs(instance, routes, solution, "icmp", unlured)
    assert out.scenarios[2, (0, 1)] == 3

    # only the first lure counts: a later one does not move the reused cost
    relured = history(table(3, 0.9), table(3, 0.777), table(2, 0.6))
    out = modify_costs(instance, routes, solution, "icmp", relured)
    assert out.scenarios[2, (0, 1)] == 4
    assert out.modified[2, (0, 1)] == pytest.approx(0.777, abs=1e-12)

    # the pair is first lured under this platoon after round 1 and under
    # another composition of the arc after round 2: this platoon reuses
    # the cost of round 2's table, not that of the later lure's follow-up
    other = frozenset({frozenset({0, 1}), frozenset({3, 4})})
    twice = history(
        table(3, 0.9),
        table(3, 0.777),
        table(2, 0.6),
        compositions=[comps, {(0, 1): other}, comps],
    )
    out = modify_costs(instance, routes, solution, "icmp", twice)
    assert out.scenarios[2, (0, 1)] == 4
    assert out.modified[2, (0, 1)] == pytest.approx(0.777, abs=1e-12)


LURE_FLEETS = [
    pytest.param("icmp", 8, 30, 1, id="8x8/30-icmp"),
    pytest.param("llcmp", 8, 30, 1, id="8x8/30-llcmp"),
    pytest.param("llcmp", 6, 15, 2, id="6x6/15-llcmp"),
]


@pytest.mark.parametrize("mode,n,k,seed", LURE_FLEETS)
def test_history_shapes_costs_as_the_full_table_history(mode, n, k, seed, monkeypatch):
    """Every round of a run is also shaped against the history that kept
    every table; both give the same coefficients and scenario tags."""
    instance = generate_fleet(generate_grid(n, n, seed=seed), k, seed=seed)
    oracle = FullTableHistory()
    fired = []
    real = decomposition_module.modify_costs

    def both(instance, routes, solution, mode, history):
        out = real(instance, routes, solution, mode, history)
        want = real(instance, routes, solution, mode, oracle)
        oracle.append(decomposition_module._compositions(solution), want)
        assert out.modified == want.modified
        assert out.scenarios == want.scenarios
        fired.append(sum(tag == 4 for tag in out.scenarios.values()))
        return out

    monkeypatch.setattr(decomposition_module, "modify_costs", both)
    run(instance, DecompositionConfig(mode=mode))
    assert len(fired) > 2
    # the follow-up lookup was exercised, not only the lure index
    assert sum(fired) > 0


LURE_ARCS = [(0, 1), (1, 2), (0, 2)]
LURE_TRUCKS = range(3)
LURE_PLATOONS = [
    frozenset({frozenset({0, 1})}),
    frozenset({frozenset({1, 2})}),
    frozenset({frozenset({0, 1, 2})}),
]
# one round: the platoons on some arcs, and a table that tags and prices
# some (truck, arc) pairs and leaves the others unpriced
LURE_ROUND = st.tuples(
    st.dictionaries(st.sampled_from(LURE_ARCS), st.sampled_from(LURE_PLATOONS)),
    st.dictionaries(
        st.tuples(st.sampled_from(LURE_TRUCKS), st.sampled_from(LURE_ARCS)),
        st.tuples(st.integers(1, 4), st.integers(1, 20).map(float)),
    ),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(LURE_ROUND, max_size=8))
def test_history_answers_the_cycle_rule_as_the_full_table_history(rounds):
    """After every round, the lure map and the history that kept every
    table give the same scenario 4 cost for every truck, arc and platoon
    composition, the arc's lack of platoons included."""
    history, oracle = History(), FullTableHistory()
    for compositions, tagged in rounds:
        table = CostTable(
            traversed=frozenset(LURE_ARCS),
            modified={pair: cost for pair, (_tag, cost) in tagged.items()},
            scenarios={pair: tag for pair, (tag, _cost) in tagged.items()},
        )
        history.append(compositions, table)
        oracle.append(compositions, table)
        for v in LURE_TRUCKS:
            for arc in LURE_ARCS:
                for comp in LURE_PLATOONS + [None]:
                    want = oracle.cycled_cost(v, arc, comp, 99.0)
                    assert history.cycled_cost(v, arc, comp, 99.0) == want, (v, arc, comp)


def test_no_cost_table_outlives_the_round_after_it(monkeypatch):
    """When a round's costs are shaped, only the previous round's table is
    still held; the history keeps numbers, not tables."""
    instance = generate_fleet(generate_grid(8, 8, seed=1), 30, seed=1)
    made = []
    real = decomposition_module.modify_costs

    def watched(instance, routes, solution, mode, history):
        alive = [ref() for ref in made if ref() is not None]
        assert all(table is made[-1]() for table in alive), (
            f"{len(alive)} tables alive at round {len(made) + 1}"
        )
        out = real(instance, routes, solution, mode, history)
        made.append(weakref.ref(out))
        return out

    monkeypatch.setattr(decomposition_module, "modify_costs", watched)
    run(instance, DecompositionConfig(mode="icmp"))
    assert len(made) > 2


def test_modify_costs_join_estimate_splits_among_meeting_drivers():
    instance = lure_instance()
    routes = FixedRoutes.build(
        instance,
        {0: ((0, 1), (1, 3)), 1: ((0, 1), (1, 3)), 2: ((0, 2), (2, 3))},
    )
    solution = canonical_schedule(instance, routes)
    table = modify_costs(instance, routes, solution, "icmp")
    # truck 2 meets both drivers: unit share plus a third of the fixed share
    want = 0.75 * 0.8 + 0.25 * 0.8 / 3
    assert table.scenarios[2, (0, 1)] == 3
    assert table.modified[2, (0, 1)] == pytest.approx(want, abs=1e-12)


# -- scheduling by part ---------------------------------------------------------


def two_pairs_instance():
    """Two trucks on each of two disjoint corridors: two scheduling parts."""
    net = make_network(
        6,
        [
            (0, 1, 1.0, 1),
            (1, 2, 1.0, 1),
            (3, 4, 2.0, 1),
            (4, 5, 2.0, 1),
        ],
    )
    vehicles = (
        Vehicle(0, 0, 2, 0, 4),
        Vehicle(1, 0, 2, 1, 4),
        Vehicle(2, 3, 5, 0, 4),
        Vehicle(3, 3, 5, 0, 3),
    )
    instance = Instance(
        network=net, vehicles=vehicles, eta=0.25, q_limit=None, time_unit=1.0, horizon=4
    )
    paths = {0: ((0, 1), (1, 2)), 1: ((0, 1), (1, 2)), 2: ((3, 4), (4, 5)), 3: ((3, 4), (4, 5))}
    return instance, FixedRoutes.build(instance, paths)


def one_arc_instance():
    """Five trucks on one arc: a pair, then three whose windows all meet the
    widest one but not each other.  Two scheduling parts."""
    net = make_network(2, [(0, 1, 1.0, 1)])
    vehicles = (
        Vehicle(0, 0, 1, 0, 2),  # enters in [0, 1]
        Vehicle(1, 0, 1, 0, 2),  # [0, 1]
        Vehicle(2, 0, 1, 4, 10),  # [4, 9]
        Vehicle(3, 0, 1, 5, 6),  # [5, 5]
        Vehicle(4, 0, 1, 7, 8),  # [7, 7]
    )
    instance = Instance(
        network=net, vehicles=vehicles, eta=0.25, q_limit=None, time_unit=1.0, horizon=10
    )
    return instance, FixedRoutes.build(instance, {v: ((0, 1),) for v in range(5)})


def fork_instance(via):
    """Trucks 0 and 1 meet on arc (0, 1), then truck 0 drives alone to node
    4 through node ``via`` (2 or 3, equally fast) and truck 1 to node 5."""
    net = make_network(
        6,
        [(0, 1, 1.0, 1), (1, 2, 1.0, 1), (1, 3, 1.0, 1), (2, 4, 1.0, 1), (3, 4, 1.0, 1),
         (1, 5, 1.0, 1)],
    )
    vehicles = (Vehicle(0, 0, 4, 0, 4), Vehicle(1, 0, 5, 0, 3))
    instance = Instance(
        network=net, vehicles=vehicles, eta=0.25, q_limit=None, time_unit=1.0, horizon=4
    )
    paths = {0: ((0, 1), (1, via), (via, 4)), 1: ((0, 1), (1, 5))}
    return instance, FixedRoutes.build(instance, paths)


def assert_screen_matches_oracle(routes):
    """The sweep keeps and joins the trucks that comparing every two entry
    windows on an arc does."""
    kept = kept_pairs(routes)
    assert scheduling_preprocess(routes) == kept
    assert _parts(routes) == [
        (trucks, frozenset((v, arc) for v, arc in kept if v in trucks))
        for trucks in overlap_components(routes)
    ]


def assert_parts_match_whole(instance, routes):
    """The part-wise timetable saves what the single scheduling model does."""
    assert_screen_matches_oracle(routes)
    kept = scheduling_preprocess(routes)
    parts = _parts(routes)
    assert sorted(pair for _trucks, part in parts for pair in part) == sorted(kept)
    # no (arc, slot) is open to trucks of two parts
    slots = [
        {(arc, tm) for v, arc in part
         for lo, hi in [routes.entry_window(v, arc)] for tm in range(lo, hi + 1)}
        for _trucks, part in parts
    ]
    assert sum(map(len, slots)) == len(set().union(*slots))
    eta, c = instance.eta, instance.network.cost
    base = sum(c[a] for path in routes.paths.values() for a in path)
    for relax in (False, True):
        by_part = schedule_by_part(instance, routes, relax, None, {})
        sol = by_part.solution
        assert by_part.parts == len(parts) and by_part.reused == 0
        assert check(instance, sol).ok
        if relax:
            # without a cap, every slot of n trucks saves n - 1 fixed shares
            savings = sum(
                eta * c[arc] * (sum(map(len, gs)) - 1) for (arc, _t), gs in sol.groups.items()
            )
        else:
            savings = base - total_cost(instance, sol)
        if kept:
            whole = solve(build_tif(instance, routes, kept, relax), SolveConfig())
            assert whole.status == "optimal"
            assert abs(savings - whole.objective) <= 1e-9 * max(1.0, abs(whole.objective))
        else:
            assert savings == pytest.approx(0.0, abs=1e-9)
            assert sol == canonical_schedule(instance, routes)


def test_part_wise_savings_equal_single_model_on_demo_and_two_pairs(demo):
    for truck2 in (TOP, BOTTOM):
        assert_parts_match_whole(demo, demo_routes(demo, truck2))
    instance, routes = two_pairs_instance()
    assert [trucks for trucks, _part in _parts(routes)] == [(0, 1), (2, 3)]
    assert_parts_match_whole(instance, routes)


def test_trucks_whose_windows_never_meet_on_an_arc_are_apart():
    instance, routes = one_arc_instance()
    assert len(scheduling_preprocess(routes)) == 5
    # truck 4 shares no slot with truck 3, but slot 7 with truck 2
    assert [trucks for trucks, _part in _parts(routes)] == [(0, 1), (2, 3, 4)]
    assert_parts_match_whole(instance, routes)


def test_part_is_reused_after_a_truck_reroutes_outside_its_kept_arcs(monkeypatch):
    builds = []

    def counting(*args):
        builds.append(args)
        return build_tif(*args)

    monkeypatch.setattr(pairwise_module, "build_tif", counting)
    memo = {}
    instance, first = fork_instance(2)
    by_part = schedule_by_part(instance, first, False, None, memo)
    assert (by_part.parts, by_part.reused, len(builds)) == (1, 0, 1)
    _instance, second = fork_instance(3)
    assert second.entry_window(0, (0, 1)) == first.entry_window(0, (0, 1))
    by_part = schedule_by_part(instance, second, False, None, memo)
    assert (by_part.parts, by_part.reused, len(builds)) == (1, 1, 1)
    # the pair platoons on (0, 1): one of its two fixed shares is saved
    assert total_cost(instance, by_part.solution) == pytest.approx(5.0 - 0.25, abs=1e-12)
    assert_parts_match_whole(instance, second)


@pytest.mark.parametrize("mode", ["icmp", "llcmp"])
def test_part_wise_savings_equal_single_model_every_round(mode, monkeypatch):
    """On every round's routes of a 4x4/8 fleet and a 6x6/15 fleet."""
    seen = []

    def recording(instance, routes, *args):
        seen.append(routes)
        return _schedule(instance, routes, *args)

    monkeypatch.setattr(decomposition_module, "_schedule", recording)
    for n, k, seed in ((4, 8, 4), (6, 15, 1)):
        instance = generate_fleet(generate_grid(n, n, seed=seed), k, seed=seed)
        seen.clear()
        run(instance, DecompositionConfig(mode=mode))
        assert len(seen) > 2
        for routes in seen:
            assert_parts_match_whole(instance, routes)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(0, 100_000))
def test_part_wise_savings_equal_single_model_on_random_draws(seed):
    # the second draw's larger, looser fleets with pairs capped branch the
    # scheduling search more often: on seeds 0-99, 9 of its 54 accepted
    # draws against 7 of the default draw's 96
    draws = [
        small_instance(seed),
        small_instance(seed, max_vehicles=10, slack_max=4, q_pool=(2,)),
    ]
    draws = [instance for instance in draws if instance is not None]
    assume(draws)
    for instance in draws:
        assert_parts_match_whole(instance, FixedRoutes.build(instance, time_shortest_paths(instance)))


def outside_changes(instance, routes, trucks):
    """Routes that differ from ``routes`` only in the trucks outside
    ``trucks``: they leave one unit later, they take another path the
    instance admits, or they are gone."""
    outside = [v for v in routes.paths if v not in trucks]
    if not outside:
        return []
    later = replace(routes, depart={
        v: (lo + 1, hi + 1) if v in outside else (lo, hi) for v, (lo, hi) in routes.depart.items()
    })
    paths = dict(routes.paths)
    for v in outside:
        veh = instance.vehicles[v]
        for path in simple_paths(instance.network.arcs, veh.origin, veh.dest):
            if path != paths[v] and sum(map(instance.network.travel_time.get, path)) <= (
                veh.latest_arrival - veh.earliest_departure
            ):
                paths[v] = path
                break
    moved = FixedRoutes.build(instance, paths)
    moved = replace(moved, depart={**moved.depart, **{v: routes.depart[v] for v in trucks}})
    gone = replace(routes, paths={v: routes.paths[v] for v in trucks})
    return [later, moved, gone]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(0, 100_000), st.sampled_from(["exact", "pairwise"]))
def test_a_part_model_reads_the_routes_only_through_its_tif_spec(seed, scheduler):
    """Routes that differ only outside a part give it the same TIF spec and
    the same model; moving one kept arc's entry window changes both."""
    instance = small_instance(seed, max_vehicles=10, slack_max=4)
    assume(instance is not None)
    routes = FixedRoutes.build(instance, time_shortest_paths(instance))
    if scheduler == "pairwise":
        routes = narrow_windows(instance, routes, 0.5)
    relax = scheduler == "pairwise"
    for trucks, part in _parts(routes):
        spec = _tif_spec(routes, part)
        text = lp_text(build_tif(instance, routes, part, relax))
        for other in outside_changes(instance, routes, trucks):
            assert _tif_spec(other, part) == spec
            assert lp_text(build_tif(instance, other, part, relax)) == text
        v, arc = min(part)
        shifted = replace(routes, offset={**routes.offset, (v, arc): routes.offset[v, arc] + 1})
        assert _tif_spec(shifted, part) != spec
        assert lp_text(build_tif(instance, shifted, part, relax)) != text


@pytest.mark.parametrize("seed", [9, 18])
def test_one_memo_keeps_the_two_schedulers_apart(seed):
    """A part solved with the size cap is not reused once the cap is
    dropped: the scheduler is part of the memo key.  Seed 9 has one part,
    whose relaxed timetable differs from the capped one; seed 18 has three."""
    instance = small_instance(seed)
    routes = FixedRoutes.build(instance, time_shortest_paths(instance))
    memo = {}
    capped = schedule_by_part(instance, routes, False, None, memo)
    assert capped.parts > 0 and capped.reused == 0
    relaxed = schedule_by_part(instance, routes, True, None, memo)
    assert (relaxed.parts, relaxed.reused) == (capped.parts, 0)
    assert relaxed.solution == schedule_by_part(instance, routes, True, None, {}).solution
    assert len(memo) == 2 * capped.parts


def test_every_part_model_of_a_field_run_is_a_function_of_its_spec(monkeypatch):
    """Criterion-8 grid 5 in icmp: each part model's objective constant is
    summed over its spec's pairs in sorted order, and building the part from
    its kept pairs inserted in either order gives the same model."""
    instance = field_fleet(5)
    built = []

    def checked(instance, routes, kept, relax_capacity):
        model = build_tif(instance, routes, kept, relax_capacity)
        spec = _tif_spec(routes, kept)
        pairs = sorted((v, arc) for v, arcs in spec for arc, _lo, _hi in arcs)
        assert model.objective_constant == sum(
            instance.eta * instance.network.cost[arc] for _v, arc in pairs
        )
        text = lp_text(model)
        for order in (sorted(kept), sorted(kept, reverse=True)):
            assert lp_text(build_tif(instance, routes, frozenset(order), relax_capacity)) == text
        built.append(kept)
        return model

    monkeypatch.setattr(pairwise_module, "build_tif", checked)
    _best, log = run(instance, DecompositionConfig(mode="icmp", time_limit=math.inf))
    assert len(log.records) == 27
    assert len(built) == sum(r.parts - r.parts_reused for r in log.records) > 0


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.integers(0, 100_000))
def test_screen_matches_pairwise_window_comparison_on_random_draws(seed):
    instance = small_instance(seed)
    assume(instance is not None)
    assert_screen_matches_oracle(FixedRoutes.build(instance, time_shortest_paths(instance)))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from((0, 1)), st.integers(0, 12), st.integers(0, 4)),
        min_size=1,
        max_size=12,
    )
)
def test_screen_matches_pairwise_window_comparison_on_a_crowded_road(trucks):
    """Up to twelve trucks with random windows on a two-arc road, some
    joining at its middle node: long chains and many breaks between them."""
    net = make_network(3, [(0, 1, 1.0, 1), (1, 2, 1.0, 2)])
    paths = {0: ((0, 1), (1, 2)), 1: ((1, 2),)}
    vehicles = tuple(
        Vehicle(v, origin, 2, ed, ed + 3 - origin + slack)
        for v, (origin, ed, slack) in enumerate(trucks)
    )
    instance = Instance(
        network=net, vehicles=vehicles, eta=0.25, q_limit=None, time_unit=1.0, horizon=20
    )
    routes = FixedRoutes.build(instance, {veh.id: paths[veh.origin] for veh in vehicles})
    assert_screen_matches_oracle(routes)


@pytest.mark.parametrize("scheduler", ["exact", "pairwise"])
def test_second_schedule_of_same_routes_builds_no_model(scheduler, monkeypatch):
    instance, routes = two_pairs_instance()
    builds = []

    def counting(*args):
        builds.append(args)
        return build_tif(*args)

    monkeypatch.setattr(pairwise_module, "build_tif", counting)
    cfg = DecompositionConfig(scheduler=scheduler, gamma=0.5)
    memo = {}
    first = _schedule(instance, routes, cfg, math.inf, memo)
    assert len(builds) == 2 and len(memo) == 2
    assert (first[0].parts, first[0].reused) == (2, 0)
    second = _schedule(instance, routes, cfg, math.inf, memo)
    assert len(builds) == 2
    assert (second[0].parts, second[0].reused) == (2, 2)
    assert second[0].solution == first[0].solution
    assert second[1:] == first[1:]
    # both pairs platoon over their whole corridor: 12 alone, 1.5 saved
    assert first[1] == pytest.approx(1.5, abs=1e-12)
    assert first[2] == pytest.approx(10.5, abs=1e-12)
    assert first[2] == pytest.approx(total_cost(instance, first[0].solution), abs=1e-12)


@pytest.mark.parametrize("scheduler", ["exact", "pairwise"])
def test_parts_share_one_stage_deadline(scheduler, monkeypatch):
    """A stage that starts after the deadline gets one second in all."""
    instance, routes = two_pairs_instance()
    clock = [100.0]
    limits = []

    def spending_solve(model, cfg):
        if model.name == "pairing":
            return solve(model, cfg)
        limits.append(cfg.time_limit)
        clock[0] += cfg.time_limit  # the part takes all the time it gets
        return solve(model, replace(cfg, time_limit=0.0))

    monkeypatch.setattr(pairwise_module, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
    monkeypatch.setattr(pairwise_module, "solve", spending_solve)
    memo = {}
    cfg = DecompositionConfig(scheduler=scheduler, gamma=0.5)
    by_part, _savings, cost = _schedule(instance, routes, cfg, 50.0, memo)
    assert limits == [1.0, 0.0]
    # parts that reach the deadline have no incumbent and ride at their
    # earliest times, which are not memoized
    assert by_part.parts == 2 and memo == {}
    if scheduler == "pairwise":
        routes = narrow_windows(instance, routes, 0.5)
    assert by_part.solution == canonical_schedule(instance, routes)
    assert cost == pytest.approx(total_cost(instance, by_part.solution), abs=1e-12)


def test_a_pair_matching_without_a_plan_leaves_the_routes_unnarrowed(monkeypatch):
    """The pair matching gets what the stage's clock has left, and one that
    ends without an incumbent picks no pair: the round then schedules its
    routes with their widest windows."""
    instance, routes = two_pairs_instance()
    # with a plan, the matching narrows these routes
    assert narrow_windows(instance, routes, 0.5).depart != routes.depart
    limits = []

    def stopped(model, cfg):
        if model.name != "pairing":
            return solve(model, cfg)
        limits.append(cfg.time_limit)
        return MipResult(NO_SOLUTION_TIME_LIMIT, None, None, None, 0.0, 0)

    scheduled = []

    def scheduling(instance, routes, *args):
        scheduled.append(routes)
        return schedule_by_part(instance, routes, *args)

    monkeypatch.setattr(pairwise_module, "time", SimpleNamespace(perf_counter=lambda: 100.0))
    monkeypatch.setattr(decomposition_module, "schedule_by_part", scheduling)
    monkeypatch.setattr(pairwise_module, "solve", stopped)
    cfg = DecompositionConfig(scheduler="pairwise", gamma=0.5)
    by_part, _savings, cost = _schedule(instance, routes, cfg, 130.0, {})
    assert limits == [30.0]
    assert scheduled == [routes]
    assert check(instance, by_part.solution).ok
    assert cost == pytest.approx(total_cost(instance, by_part.solution), abs=1e-12)


@pytest.mark.parametrize("scheduler", ["exact", "pairwise"])
def test_memo_does_not_outlive_run(scheduler, monkeypatch):
    builds = []

    def counting(*args):
        builds.append(args)
        return build_tif(*args)

    monkeypatch.setattr(pairwise_module, "build_tif", counting)
    instance = generate_fleet(generate_grid(6, 6, seed=1), 15, seed=1)
    runs = []
    for _ in range(2):
        before = len(builds)
        _best, log = run(instance, DecompositionConfig(mode="llcmp", scheduler=scheduler))
        runs.append(([r.to_json_dict() for r in log.records], len(builds) - before))
    assert runs[0] == runs[1]
    records, n_builds = runs[0]
    parts = sum(r["parts"] for r in records)
    reused = sum(r["parts_reused"] for r in records)
    assert reused > 0 and n_builds == parts - reused


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
    # every round's routing model and cost shaping share one pass
    assert sorted(calls["prune_arcs"]) == [0, 1, 2]
    assert sorted(calls["node_time_bounds"]) == [0, 1, 2]
    monkeypatch.undo()
    # no caller mutated the shared sets or windows
    assert demo.admissible == admissible_arcs(demo)
    assert list(demo.windows) == [node_time_bounds(demo, veh) for veh in demo.vehicles]


@pytest.mark.parametrize("scheduler", ["exact", "pairwise"])
def test_run_checks_each_round_timetable_once(demo, monkeypatch, scheduler):
    checked = []
    real = evaluate_module.check

    def counting(instance, sol):
        checked.append(sol)
        return real(instance, sol)

    monkeypatch.setattr(evaluate_module, "check", counting)
    _best, log = run(demo, DecompositionConfig(scheduler=scheduler, gamma=0.5))
    assert len(log.records) > 1
    assert len(checked) == len(log.records)


def test_run_builds_routing_model_once(demo, monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return build_fcnf(*args)

    monkeypatch.setattr(decomposition_module, "build_fcnf", counting)
    _best, log = run(demo, DecompositionConfig(mode="icmp"))
    assert len(log.records) > 1
    assert calls == [(demo,)]


@pytest.mark.parametrize("mode", ["icmp", "llcmp"])
@pytest.mark.parametrize("which", ["demo", "grid4"])
def test_repriced_routing_model_equals_fresh_build(mode, which, monkeypatch):
    """Every round solves what a fresh build_fcnf model priced once with
    that round's table would be."""
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
            assert_same_arrays(_compile(model), _compile(priced(instance, tables[-1])))
        return solve(model, cfg)

    monkeypatch.setattr(decomposition_module, "modify_costs", recording_modify)
    monkeypatch.setattr(decomposition_module, "solve", checking_solve)
    _best, log = run(instance, DecompositionConfig(mode=mode))
    assert len(routing_models) == len(log.records) == len(tables) > 2
    assert all(model is routing_models[0] for model in routing_models)
    # the shaping changed some prices, so the check compared moving targets
    assert len({tuple(_compile(priced(instance, t)).c) for t in tables}) > 1


def priced(instance, table):
    """A fresh routing model of ``instance``, priced once from ``table``."""
    model = build_fcnf(instance)
    price_fcnf(instance, model, table)
    return model


def test_price_fcnf_missing_cost_and_wrong_model(demo):
    model = build_fcnf(demo)
    lacking = CostTable(frozenset({(0, 1)}), {}, {})
    with pytest.raises(MissingCost):
        price_fcnf(demo, model, lacking)
    other = generate_fleet(generate_grid(3, 3, seed=0), 2, seed=0)
    with pytest.raises(ModelInvalid):
        price_fcnf(other, model, None)


FIELD_RECORD_DIGESTS = {
    (5, "icmp", "exact"): "995ce4caf4f22bcc69fd634baabe991ff2aee136b88dbe3f0dadd322b57374ae",
    (5, "icmp", "pairwise"): "840d2eb5f6e4619355b2a7eb5ddc6f866861b19879051d615ad8e2dd4cda0c00",
    (9, "icmp", "exact"): "4db207b0524dcd6f3bd1c6a697c1425147ada3cff2ef9e0aee65a29a75af59bd",
    (9, "llcmp", "exact"): "ffc43ae757581e2320904952d22f41f2557d8770deed9d3b396454ccaef81917",
}


@pytest.mark.parametrize(
    "grid, mode, scheduler, rounds, best_cost",
    [
        (5, "icmp", "exact", 27, 1211.2),
        (5, "icmp", "pairwise", 46, 1212.5),
        (9, "icmp", "exact", 89, 1180.3),
        (9, "llcmp", "exact", 16, 1183.2),
    ],
)
def test_field_anchor_trajectories(grid, mode, scheduler, rounds, best_cost):
    """The benchmark's four field anchors, run with no time limit.  The
    digest pins every round's record, which holds no times."""
    instance = field_fleet(grid)
    best, log = run(
        instance, DecompositionConfig(mode=mode, scheduler=scheduler, time_limit=math.inf)
    )
    assert (len(log.records), log.termination) == (rounds, "repeat")
    records = "\n".join(json.dumps(r.to_json_dict(), sort_keys=True) for r in log.records)
    digest = hashlib.sha256(records.encode()).hexdigest()
    assert digest == FIELD_RECORD_DIGESTS[grid, mode, scheduler]
    assert log.best_cost == pytest.approx(best_cost, abs=1e-9)
    assert log.best_cost >= FIELD_OPTIMA[grid] - 1e-6
    assert total_cost(instance, best) == pytest.approx(log.best_cost, abs=1e-9)


def test_run_names_the_clock_when_the_first_routing_solve_has_no_plan(demo, monkeypatch):
    """Only the clock can leave the first routing solve without a plan; the
    error says so, with the status and the stage's budget."""
    budgets = []

    def stopped(model, cfg):
        budgets.append(cfg.time_limit)
        return MipResult(NO_SOLUTION_TIME_LIMIT, None, None, None, 0.0, 0)

    monkeypatch.setattr(decomposition_module, "solve", stopped)
    with pytest.raises(NoFeasibleSolution, match=NO_SOLUTION_TIME_LIMIT) as err:
        run(demo, DecompositionConfig(time_limit=0.0))
    assert budgets == [1.0]
    assert "1 s budget" in str(err.value)


def test_run_rejects_unknown_scheduler(demo):
    with pytest.raises(ValidationError, match="scheduler"):
        run(demo, DecompositionConfig(scheduler="greedy"))


def test_run_rejects_unknown_mode_before_any_work(demo, monkeypatch):
    built = []

    def counting(*args):
        built.append(args)
        return build_fcnf(*args)

    monkeypatch.setattr(decomposition_module, "build_fcnf", counting)
    with pytest.raises(ValidationError, match="mode"):
        run(demo, DecompositionConfig(mode="eager"))
    assert built == []


@pytest.mark.parametrize("scheduler", ["exact", "pairwise"])
@pytest.mark.parametrize(
    "field, value",
    [
        ("gamma", math.nan),
        ("gamma", math.inf),
        ("gamma", -1.0),
        ("gamma", 1.5),
        ("time_limit", math.nan),
        ("time_limit", -1.0),
        ("repeat_limit", 0),
        ("repeat_limit", -2),
    ],
)
def test_run_rejects_bad_settings_before_any_work(field, value, scheduler, demo, monkeypatch):
    """A NaN gamma once crashed select_pairs and an infinite one overflowed;
    a negative gamma picked no pairs, a NaN time limit never expired and a
    repeat limit of 0 acted as 1."""
    built = []

    def counting(*args):
        built.append(args)
        return build_fcnf(*args)

    monkeypatch.setattr(decomposition_module, "build_fcnf", counting)
    cfg = DecompositionConfig(mode="icmp", scheduler=scheduler, **{field: value})
    with pytest.raises(ValidationError, match=field):
        run(demo, cfg)
    assert built == []


def test_run_accepts_the_edges_of_its_settings(demo):
    for cfg in (
        DecompositionConfig(scheduler="pairwise", gamma=0.0, time_limit=math.inf, repeat_limit=1),
        DecompositionConfig(scheduler="pairwise", gamma=1.0, time_limit=0.0),
    ):
        _best, log = run(demo, cfg)
        assert log.records


@pytest.mark.parametrize("which", ["demo", "grid9"])
def test_round_cut_by_the_clock_still_returns_a_plan(which):
    """A run whose deadline has passed before it starts still routes and
    schedules one round, on the one-second floor each stage gets, and
    returns that round's checked plan."""
    if which == "demo":
        instance = three_truck_demo()
    else:
        instance = field_fleet(9)
    best, log = run(instance, DecompositionConfig(time_limit=0.0))
    assert (len(log.records), log.termination) == (1, "time")
    assert check(instance, best).ok
    assert total_cost(instance, best) == pytest.approx(log.best_cost, abs=1e-9)
    assert log.lower_bound <= log.best_cost


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
                parts=3,
                parts_reused=2,
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
    assert (first["parts"], first["parts_reused"]) == (3, 2)
    assert IterationRecord(1, "abc", 4.89, None, 0.0, 4.99).to_json_dict()["parts"] == 0
    summary = json.loads(lines[1])["summary"]
    assert summary["termination"] == "repeat"
    assert summary["best_cost"] == 4.99
