"""Pair enumeration, matching, window shrinking, and the relaxed scheduler."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from instgen import field_fleet, small_instance, time_shortest_paths
from oracles import shrink_by_instance
from platoonplan.errors import ShrinkInfeasible, ValidationError
from platoonplan.evaluate import check, total_cost
from platoonplan.formulations import FixedRoutes, build_fcnf, routes_from_result
from platoonplan.instance import Instance, Vehicle
from platoonplan.mip import SolveConfig, solve
from platoonplan.network import make_network
from platoonplan.pairwise import (
    PairCandidate,
    _common_runs,
    enumerate_pairs,
    schedule_with_pairwise,
    select_pairs,
    shrink_windows,
)

BOTTOM = {0: ((0, 1),), 1: ((0, 2),), 2: ((0, 2), (2, 3), (3, 5))}
TOP = {0: ((0, 1),), 1: ((0, 2),), 2: ((0, 1), (1, 4), (4, 5))}


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
    assert c.merge_node == 0
    assert c.savings == pytest.approx(0.1, abs=1e-12)
    assert (c.lo_u, c.hi_u) == (500, 500)
    assert (c.lo_v, c.hi_v) == (500, 700)


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
        return PairCandidate(
            u=u, v=v, segment=((0, 1),), merge_node=0, savings=s,
            lo_u=0, hi_u=0, lo_v=0, hi_v=0,
        )

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
    assert narrowed.paths == routes.paths
    # the long way round, through a copied instance, gives the same windows
    reference = shrink_by_instance(demo, routes, chosen)
    assert narrowed.entry_lo == reference.entry_lo
    assert narrowed.entry_hi == reference.entry_hi


def test_shrink_windows_no_pairs_returns_routes(demo):
    routes = FixedRoutes.build(demo, BOTTOM)
    assert shrink_windows(routes, []) is routes


def test_shrink_windows_infeasible(demo):
    # a meet the vehicles' windows cannot absorb (synthetic: real candidates
    # always overlap, this guards the arithmetic)
    routes = FixedRoutes.build(demo, BOTTOM)
    bogus = PairCandidate(
        u=1, v=2, segment=((0, 2),), merge_node=0, savings=0.1,
        lo_u=500, hi_u=500, lo_v=999, hi_v=1500,
    )
    with pytest.raises(ShrinkInfeasible, match="vehicle 1"):
        shrink_windows(routes, [bogus])


def test_shrink_windows_empty_entry_window_is_shrink_infeasible(demo):
    # truck 2's slack is 200 and the bogus partner window [650, 550] shifts
    # it by 150 at each end: its journey window [650, 850] is not empty, but
    # too short for the 300-step path, so every entry window empties; the
    # copied instance rejects that window as shorter than the fastest trip
    routes = FixedRoutes.build(demo, BOTTOM)
    bogus = PairCandidate(
        u=2, v=1, segment=((0, 2),), merge_node=0, savings=0.1,
        lo_u=500, hi_u=700, lo_v=650, hi_v=550,
    )
    with pytest.raises(ShrinkInfeasible, match="vehicle 2"):
        shrink_windows(routes, [bogus])
    with pytest.raises(ValidationError, match="fastest trip"):
        shrink_by_instance(demo, routes, [bogus])


def assert_narrowing_matches_reference(instance, routes, chosen):
    """Route-shift narrowing equals the copied-instance rebuild, and every
    narrowed window is a non-empty part of the original one."""
    narrowed = shrink_windows(routes, chosen)
    reference = shrink_by_instance(instance, routes, chosen)
    assert narrowed.paths == reference.paths
    assert narrowed.entry_lo == reference.entry_lo
    assert narrowed.entry_hi == reference.entry_hi
    for key, lo in narrowed.entry_lo.items():
        assert routes.entry_lo[key] <= lo <= narrowed.entry_hi[key] <= routes.entry_hi[key]
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
        reference = shrink_by_instance(instance, routes, candidates)
        assert (narrowed.entry_lo, narrowed.entry_hi) == (reference.entry_lo, reference.entry_hi)


@pytest.mark.parametrize("grid", range(10))
def test_shrink_windows_matches_reference_on_field_round_one(grid):
    """The criterion-8 fleets' first routes, narrowed at three budgets."""
    instance = field_fleet(grid)
    routes = routes_from_result(instance, solve(build_fcnf(instance), SolveConfig()))
    candidates = enumerate_pairs(instance, routes)
    for gamma in (0.2, 0.4, 1.0):
        chosen = select_pairs(candidates, gamma, len(instance.vehicles))
        assert chosen
        assert_narrowing_matches_reference(instance, routes, chosen)


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


def test_oversized_meet_is_split_to_legal_convoys():
    """Three trucks coincide, the cap is two: the repair must split them."""
    instance = tiny_shared_arc(3, q_limit=2)
    routes = FixedRoutes.build(instance, {v: ((0, 1),) for v in range(3)})
    sol = schedule_with_pairwise(instance, routes, gamma=1.0)
    assert check(instance, sol).ok
    assert sol.groups[((0, 1), 0)] == ((0, 1), (2,))
    assert total_cost(instance, sol) == pytest.approx(2.9, abs=1e-9)
