"""Pair enumeration, matching, window shrinking, and the relaxed scheduler."""

import math
from functools import cache
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import platoonplan.pairwise as pairwise_module
from instgen import field_fleet, small_instance, time_shortest_paths
from oracles import shrink_by_instance, windows_by_arc
from platoonplan.decomposition import DecompositionConfig, _schedule
from platoonplan.errors import ShrinkInfeasible, ValidationError
from platoonplan.evaluate import check, total_cost
from platoonplan.formulations import FixedRoutes, build_fcnf, routes_from_result
from platoonplan.instance import Instance, Vehicle
from platoonplan.mip import NO_SOLUTION_TIME_LIMIT, MipResult, SolveConfig, solve
from platoonplan.network import make_network
from platoonplan.pairwise import (
    PairCandidate,
    _common_runs,
    enumerate_pairs,
    narrow_windows,
    schedule_with_pairwise,
    select_pairs,
    shrink_windows,
    solve_relaxed_and_repair,
)

BOTTOM = {0: ((0, 1),), 1: ((0, 2),), 2: ((0, 2), (2, 3), (3, 5))}
TOP = {0: ((0, 1),), 1: ((0, 2),), 2: ((0, 1), (1, 4), (4, 5))}


def all_windows(routes):
    """``{(v, arc): entry_window(v, arc)}`` over every arc of every path."""
    return {
        (v, arc): routes.entry_window(v, arc) for v, path in routes.paths.items() for arc in path
    }


@cache
def field_round_one(grid):
    """A criterion-8 fleet and its first routes."""
    instance = field_fleet(grid)
    return instance, routes_from_result(instance, solve(build_fcnf(instance), SolveConfig()))


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


# -- shared stretches ---------------------------------------------------------


def test_common_runs_keeps_maximal_stretches():
    u = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5))
    v = ((7, 0), (0, 1), (1, 2), (2, 9), (9, 3), (3, 4))
    assert _common_runs(u, v) == [((0, 1), (1, 2)), ((3, 4),)]


def test_common_runs_requires_consecutive_in_both():
    u = ((0, 1), (1, 2), (2, 3))
    # (0, 1) then (2, 3) is a jump in u even though adjacent in v
    v = ((0, 1), (2, 3))
    assert _common_runs(u, v) == [((0, 1),), ((2, 3),)]
    assert _common_runs(u, ()) == []


def test_enumerate_pairs_demo(demo):
    routes = FixedRoutes.build(demo, BOTTOM)
    cands = enumerate_pairs(demo, routes)
    assert len(cands) == 1
    c = cands[0]
    assert (c.u, c.v) == (1, 2)
    assert c.segment == ((0, 2),)
    assert c.segment[0][0] == 0  # the merge node
    assert c.savings == pytest.approx(0.1, abs=1e-12)
    assert routes.entry_window(c.u, c.segment[0]) == (500, 500)
    assert routes.entry_window(c.v, c.segment[0]) == (500, 700)


def test_enumerate_pairs_needs_a_common_time(demo):
    # trucks 0 and 2 share (0, 1) but are 500 time units apart
    routes = FixedRoutes.build(demo, TOP)
    assert enumerate_pairs(demo, routes) == []


def test_enumerate_pairs_skips_zero_savings():
    net = make_network(2, [(0, 1, 0.0, 1)])
    instance = Instance(
        network=net,
        vehicles=(Vehicle(0, 0, 1, 0, 1), Vehicle(1, 0, 1, 0, 1)),
        eta=0.1,
        q_limit=None,
        time_unit=1.0,
        horizon=1,
    )
    routes = FixedRoutes.build(instance, {0: ((0, 1),), 1: ((0, 1),)})
    assert enumerate_pairs(instance, routes) == []


# -- pair selection -----------------------------------------------------------


def test_select_pairs_cardinality_budget(demo):
    routes = FixedRoutes.build(demo, BOTTOM)
    cands = enumerate_pairs(demo, routes)
    # floor(0.2 * 3) = 0 pairs allowed
    assert select_pairs(cands, gamma=0.2, n_vehicles=3) == []
    chosen = select_pairs(cands, gamma=0.5, n_vehicles=3)
    assert [(c.u, c.v) for c in chosen] == [(1, 2)]


def test_select_pairs_respects_degree():
    def cand(u, v, s):
        return PairCandidate(u=u, v=v, segment=((0, 1),), savings=s)

    cands = [cand(0, 1, 5.0), cand(1, 2, 4.0), cand(2, 3, 3.0)]
    chosen = select_pairs(cands, gamma=0.5, n_vehicles=4)
    assert {(c.u, c.v) for c in chosen} == {(0, 1), (2, 3)}


# -- window shrinking ---------------------------------------------------------


def test_shrink_windows_demo(demo):
    routes = FixedRoutes.build(demo, BOTTOM)
    chosen = select_pairs(enumerate_pairs(demo, routes), 0.5, 3)
    narrowed = shrink_windows(routes, chosen)
    # truck 1 had no slack and keeps its window
    assert narrowed.entry_window(1, (0, 2)) == (500, 500)
    # truck 2 gives up the slack that would let it dodge the meet, on every
    # arc of its path: it may still leave at 500 but must arrive by 800
    assert [narrowed.entry_window(2, arc) for arc in BOTTOM[2]] == [
        (500, 500),
        (600, 600),
        (700, 700),
    ]
    assert narrowed.entry_window(0, (0, 1)) == routes.entry_window(0, (0, 1))
    assert routes.entry_window(2, (0, 2)) == (500, 700)  # original untouched
    assert narrowed.depart[2] == (500, 500)
    assert narrowed.paths == routes.paths
    # the long way round, through a copied instance, gives the same windows
    assert all_windows(narrowed) == shrink_by_instance(demo, routes, chosen)


def test_shrink_windows_no_pairs_returns_routes(demo):
    routes = FixedRoutes.build(demo, BOTTOM)
    assert shrink_windows(routes, []) is routes


def test_shrink_windows_infeasible(demo):
    # trucks 0 and 2 share (0, 1) but enter it in [0, 0] and [500, 700]: a
    # meet no narrowing can make (synthetic: real candidates always overlap)
    routes = FixedRoutes.build(demo, TOP)
    bogus = PairCandidate(u=0, v=2, segment=((0, 1),), savings=0.1)
    empties = r"vehicle 0 cannot meet vehicle 2 at node 0: window empties to \[500, 0\]"
    with pytest.raises(ShrinkInfeasible, match=empties):
        shrink_windows(routes, [bogus])
    with pytest.raises(ShrinkInfeasible, match="vehicle 0"):
        shrink_by_instance(demo, routes, [bogus])


def assert_narrowing_matches_reference(instance, routes, chosen):
    """Route-shift narrowing equals the copied-instance rebuild, and every
    narrowed window is a non-empty part of the original one."""
    narrowed = shrink_windows(routes, chosen)
    assert narrowed.paths == routes.paths
    assert all_windows(narrowed) == shrink_by_instance(instance, routes, chosen)
    for key, (lo, hi) in all_windows(narrowed).items():
        assert routes.entry_window(*key)[0] <= lo <= hi <= routes.entry_window(*key)[1]
    for c in chosen:
        # the pair's windows at the merge node now coincide
        assert narrowed.entry_window(c.u, c.segment[0]) == narrowed.entry_window(
            c.v, c.segment[0]
        )
    return narrowed


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.integers(0, 2**16), st.sampled_from([0.2, 0.5, 1.0]))
def test_shrink_windows_matches_reference_on_random_draws(seed, gamma):
    draws = [
        small_instance(seed),
        small_instance(seed, max_vehicles=10, slack_max=4, q_pool=(2,)),
    ]
    draws = [instance for instance in draws if instance is not None]
    assume(draws)
    for instance in draws:
        routes = FixedRoutes.build(instance, time_shortest_paths(instance))
        candidates = enumerate_pairs(instance, routes)
        chosen = select_pairs(candidates, gamma, len(instance.vehicles))
        assert_narrowing_matches_reference(instance, routes, chosen)
        # every candidate at once lists trucks in several pairs: the last
        # pair's shifts win in both, and no window empties
        narrowed = shrink_windows(routes, candidates)
        assert all_windows(narrowed) == shrink_by_instance(instance, routes, candidates)


@pytest.mark.parametrize("grid", range(10))
def test_shrink_windows_matches_reference_on_field_round_one(grid):
    """The criterion-8 fleets' first routes, narrowed at three budgets."""
    instance, routes = field_round_one(grid)
    candidates = enumerate_pairs(instance, routes)
    for gamma in (0.2, 0.4, 1.0):
        chosen = select_pairs(candidates, gamma, len(instance.vehicles))
        assert chosen
        assert_narrowing_matches_reference(instance, routes, chosen)


def small_routes(seed):
    """A small instance and its time-shortest routes, or None."""
    instance = small_instance(seed, max_vehicles=10, slack_max=4)
    if instance is None:
        return None
    return instance, FixedRoutes.build(instance, time_shortest_paths(instance))


@settings(derandomize=True, deadline=None, max_examples=80)
@given(
    st.one_of(st.integers(0, 2**16).map(small_routes), st.integers(0, 9).map(field_round_one)),
    st.sampled_from([0.2, 0.5, 1.0]),
)
def test_entry_windows_match_the_per_arc_reference(drawn, gamma):
    """Every entry window, before and after narrowing, is the one computed
    arc by arc from the (narrowed) journey windows."""
    assume(drawn is not None)
    instance, routes = drawn
    assert all_windows(routes) == windows_by_arc(instance, routes.paths)
    chosen = select_pairs(enumerate_pairs(instance, routes), gamma, len(instance.vehicles))
    assert all_windows(shrink_windows(routes, chosen)) == shrink_by_instance(
        instance, routes, chosen
    )


# -- full pipeline ------------------------------------------------------------


def test_pipeline_demo(demo):
    routes = FixedRoutes.build(demo, BOTTOM)
    sol = schedule_with_pairwise(demo, routes, gamma=0.5)
    assert check(demo, sol).ok
    assert total_cost(demo, sol) == pytest.approx(4.9, abs=1e-9)


def test_pipeline_without_candidates_is_canonical(demo):
    routes = FixedRoutes.build(demo, TOP)
    sol = schedule_with_pairwise(demo, routes, gamma=1.0)
    assert check(demo, sol).ok
    assert total_cost(demo, sol) == pytest.approx(4.99, abs=1e-9)


def test_pipeline_matching_and_parts_share_one_budget(demo, monkeypatch):
    """The parts get what the pair matching leaves of ``time_limit``."""
    clock = [0.0]
    limits = []

    def slow_matching(model, cfg):
        if model.name != "pairing":
            return solve(model, cfg)
        limits.append(cfg.time_limit)
        clock[0] += 2.0
        return MipResult(NO_SOLUTION_TIME_LIMIT, None, None, None, 2.0, 0)

    repair = pairwise_module.solve_relaxed_and_repair

    def timing(instance, narrowed, time_limit):
        limits.append(time_limit)
        return repair(instance, narrowed, time_limit)

    monkeypatch.setattr(pairwise_module, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
    monkeypatch.setattr(pairwise_module, "solve", slow_matching)
    monkeypatch.setattr(pairwise_module, "solve_relaxed_and_repair", timing)
    sol = schedule_with_pairwise(demo, FixedRoutes.build(demo, BOTTOM), 0.5, time_limit=5.0)
    assert limits == [5.0, 3.0]
    assert check(demo, sol).ok


@pytest.mark.parametrize("source", ["field5", 8, 14, 18, 27])
def test_pipeline_gives_the_timetable_of_runs_pairwise_stage(source):
    """On the round-1 routes of criterion-8 grid 5 and on four small draws,
    whose matchings pick two or three pairs."""
    if source == "field5":
        instance, routes = field_round_one(5)
    else:
        instance = small_instance(source, max_vehicles=10, slack_max=4)
        routes = FixedRoutes.build(instance, time_shortest_paths(instance))
    cfg = DecompositionConfig(scheduler="pairwise", gamma=0.5)
    by_part, _savings, _cost = _schedule(instance, routes, cfg, math.inf, {})
    assert schedule_with_pairwise(instance, routes, cfg.gamma) == by_part.solution


@pytest.mark.parametrize("limit", [-1.0, math.nan])
@pytest.mark.parametrize(
    "call",
    [
        "select_pairs",
        "select_pairs without candidates",
        "narrow_windows",
        "solve_relaxed_and_repair",
        "schedule_with_pairwise",
    ],
)
def test_a_nan_or_negative_time_limit_raises_before_any_work(call, limit, demo, monkeypatch):
    """With no pair to match (``gamma=0``, or no candidates) no solve would
    reject the limit, so each function checks it itself."""
    routes = FixedRoutes.build(demo, BOTTOM)
    candidates = enumerate_pairs(demo, routes)
    assert candidates
    calls = {
        "select_pairs": lambda: select_pairs(candidates, 0.0, 3, limit),
        "select_pairs without candidates": lambda: select_pairs([], 0.5, 3, limit),
        "narrow_windows": lambda: narrow_windows(demo, routes, 0.0, limit),
        "solve_relaxed_and_repair": lambda: solve_relaxed_and_repair(demo, routes, limit),
        "schedule_with_pairwise": lambda: schedule_with_pairwise(demo, routes, 0.0, limit),
    }
    for name in ("enumerate_pairs", "build_matching", "build_tif", "solve"):
        monkeypatch.setattr(pairwise_module, name, lambda *args, name=name: pytest.fail(name))
    with pytest.raises(ValidationError, match="time_limit"):
        calls[call]()


def test_oversized_meet_is_split_to_legal_convoys():
    """Three trucks coincide, the cap is two: the repair must split them."""
    instance = tiny_shared_arc(3, q_limit=2)
    routes = FixedRoutes.build(instance, {v: ((0, 1),) for v in range(3)})
    sol = schedule_with_pairwise(instance, routes, gamma=1.0)
    assert check(instance, sol).ok
    assert sol.groups[((0, 1), 0)] == ((0, 1), (2,))
    assert total_cost(instance, sol) == pytest.approx(2.9, abs=1e-9)
