"""Acceptance criteria for the whole library, one visible verdict per test.

Every test prints a single ``criterion N (...): pass|FAIL`` line even under
captured output, then asserts.  Tolerances are part of the contract and are
stated inline; the reference values come from independent enumeration
oracles and hand-checked arithmetic on the three truck demo.
"""

import math
import time

import pytest

from instgen import collect_instances, time_shortest_paths
from oracles import brute_force_joint, brute_force_schedule
from platoonplan.decomposition import (
    DecompositionConfig,
    modify_costs,
    real_cost,
    run,
)
from platoonplan.evaluate import (
    canonical_schedule,
    check,
    decode,
    shortest_path_cost,
    total_cost,
)
from platoonplan.formulations import (
    FixedRoutes,
    admissible_arcs,
    build_cpf,
    build_fcnf,
    build_tif,
    build_tsf,
    scheduling_preprocess,
)
from platoonplan.instance import generate_fleet
from platoonplan.mip import SolveConfig, solve
from platoonplan.network import build_time_space, generate_grid


def verdict(capsys, index, title, ok, detail):
    with capsys.disabled():
        print(f"criterion {index} ({title}): {'pass' if ok else 'FAIL'} [{detail}]")


def solve_exact(instance, which):
    if which == "cpf":
        model = build_cpf(instance)
    else:
        model = build_tsf(instance, build_time_space(instance.network, instance))
    res = solve(model, SolveConfig(gap_tol=1e-9))
    return res


def schedule_exact(instance, routes):
    kept = scheduling_preprocess(routes)
    if not kept:
        return canonical_schedule(instance, routes)
    res = solve(
        build_tif(instance, routes, kept), SolveConfig(gap_tol=1e-9)
    )
    if res.objective is None:
        return canonical_schedule(instance, routes)
    return decode(instance, res, "tif", routes=routes)


def test_criterion_1_demo_golden_values(demo, capsys):
    """Both exact models and the heuristic hit 4.9 on the demo, fast."""
    times, objs = {}, {}
    for which in ("cpf", "tsf"):
        t0 = time.perf_counter()
        objs[which] = solve_exact(demo, which).objective
        times[which] = time.perf_counter() - t0
    t0 = time.perf_counter()
    best, log = run(demo, DecompositionConfig())
    times["iheur"] = time.perf_counter() - t0
    objs["iheur"] = log.best_cost

    spc = shortest_path_cost(demo)
    ratio = (spc - objs["cpf"]) / spc
    ok = (
        all(abs(objs[m] - 4.9) <= 1e-9 for m in objs)
        and abs(ratio - 0.09 / 4.99) <= 1e-6
        and all(t < 10.0 for t in times.values())
    )
    verdict(
        capsys,
        1,
        "demo golden values",
        ok,
        f"cpf={objs['cpf']:.10g} tsf={objs['tsf']:.10g} "
        f"iheur={objs['iheur']:.10g} saving={ratio:.6g} "
        f"max_time={max(times.values()):.2f}s",
    )
    assert ok


def test_criterion_2_exact_methods_match_enumeration(capsys):
    """CPF and TSF equal full enumeration on 20 generated instances."""
    worst = 0.0
    agreed = 0
    for _seed, instance in collect_instances(20, seed_start=0):
        reference = brute_force_joint(instance)
        assert reference is not None
        for which in ("cpf", "tsf"):
            obj = solve_exact(instance, which).objective
            worst = max(worst, abs(obj - reference))
        if worst <= 1e-6:
            agreed += 1
    ok = worst <= 1e-6
    verdict(
        capsys,
        2,
        "exact methods match enumeration",
        ok,
        f"20 instances, max deviation {worst:.3g}, tolerance 1e-6",
    )
    assert ok


def test_criterion_3_bound_sandwich(capsys):
    """Routing relaxation <= optimum <= heuristic on 20 instances."""
    violations = []
    for seed, instance in collect_instances(20, seed_start=100):
        relax = solve(build_fcnf(instance), SolveConfig(gap_tol=1e-9)).objective
        optimum = brute_force_joint(instance)
        assert optimum is not None
        _best, log = run(instance, DecompositionConfig())
        if not (relax <= optimum + 1e-6 <= log.best_cost + 2e-6):
            violations.append(seed)
        if log.lower_bound is not None and log.lower_bound > optimum + 1e-6:
            violations.append(seed)
    ok = not violations
    verdict(
        capsys,
        3,
        "relaxation and heuristic sandwich the optimum",
        ok,
        f"20 instances, violations: {violations or 'none'}, tolerance 1e-6",
    )
    assert ok


def test_criterion_4_per_head_platoon_cost(demo, capsys):
    """Realized per-head cost: slot shares for capped and free platoons."""
    five = real_cost(1.0, 0.1, 5, 5)
    pair = real_cost(1.0, 0.1, 2, None)
    routes = FixedRoutes.build(
        demo, {0: ((0, 1),), 1: ((0, 2),), 2: ((0, 1), (1, 4), (4, 5))}
    )
    table = modify_costs(
        demo, None, routes, canonical_schedule(demo, routes), "icmp"
    )
    estimate = table.modified[2, (0, 2)]
    ok = (
        abs(five - 0.92) <= 1e-12
        and abs(pair - 0.95) <= 1e-12
        and abs(estimate - 0.95) <= 1e-12
    )
    verdict(
        capsys,
        4,
        "per-head platoon cost",
        ok,
        f"five-of-five={five:.12g} pair={pair:.12g} "
        f"join-estimate={estimate:.12g}, tolerance 1e-12",
    )
    assert ok


def test_criterion_5_scheduling_matches_enumeration(capsys):
    """Exact entry-time scheduling equals brute force on 20 micro instances."""
    t0 = time.perf_counter()
    worst = 0.0
    nontrivial = 0
    for _seed, instance in collect_instances(
        20, seed_start=300, max_nodes=5, max_vehicles=3, slack_max=2
    ):
        paths = time_shortest_paths(instance)
        routes = FixedRoutes.build(instance, paths)
        kept = scheduling_preprocess(routes)
        if kept:
            nontrivial += 1
        cost = total_cost(instance, schedule_exact(instance, routes))
        reference = brute_force_schedule(instance, paths)
        assert reference is not None
        worst = max(worst, abs(cost - reference))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and nontrivial >= 5 and elapsed < 60.0
    verdict(
        capsys,
        5,
        "scheduling matches enumeration",
        ok,
        f"20 instances ({nontrivial} with possible meets), max deviation "
        f"{worst:.3g}, tolerance 1e-6, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_6_pairwise_contracts(capsys):
    """The pairwise pass obeys its budget and never beats exact scheduling."""
    from platoonplan.pairwise import (
        enumerate_pairs,
        schedule_with_pairwise,
        select_pairs,
        shrink_windows,
    )

    gamma = 0.4
    problems = []
    for seed, instance in collect_instances(20, seed_start=900):
        paths = time_shortest_paths(instance)
        routes = FixedRoutes.build(instance, paths)
        chosen = select_pairs(
            enumerate_pairs(instance, routes), gamma, len(instance.vehicles)
        )
        touched = [v for c in chosen for v in (c.u, c.v)]
        if len(chosen) > math.floor(gamma * len(instance.vehicles)):
            problems.append((seed, "budget"))
        if len(touched) != len(set(touched)):
            problems.append((seed, "degree"))
        shrunk = shrink_windows(instance, chosen)
        for old, new in zip(instance.vehicles, shrunk.vehicles):
            if (
                new.earliest_departure < old.earliest_departure
                or new.latest_arrival > old.latest_arrival
            ):
                problems.append((seed, "window"))
        sol = schedule_with_pairwise(instance, routes, gamma)
        if not check(instance, sol).ok:
            problems.append((seed, "invalid"))
        exact_cost = total_cost(instance, schedule_exact(instance, routes))
        if total_cost(instance, sol) < exact_cost - 1e-6:
            problems.append((seed, "beats-exact"))
    ok = not problems
    verdict(
        capsys,
        6,
        "pairwise scheduling contracts",
        ok,
        f"20 instances at gamma=0.4, violations: {problems or 'none'}",
    )
    assert ok


def test_criterion_7_decoded_timetables_are_consistent(capsys):
    """Decoded incumbents validate and reprice to the reported objective."""
    worst = 0.0
    checked = 0
    for _seed, instance in collect_instances(100, seed_start=600):
        admissible_arcs(instance)  # must never raise on generated instances
        for which in ("cpf", "tsf"):
            res = solve_exact(instance, which)
            sol = decode(instance, res, which)
            assert check(instance, sol).ok
            worst = max(worst, abs(total_cost(instance, sol) - res.objective))
            checked += 1
    ok = worst <= 1e-6
    verdict(
        capsys,
        7,
        "decoded timetables are consistent",
        ok,
        f"{checked} decodes over 100 instances, max repricing deviation "
        f"{worst:.3g}, tolerance 1e-6",
    )
    assert ok


@pytest.mark.slow
def test_criterion_8_field_scale_comparison(capsys):
    """On 10x10 grids with 50 trucks the eager shaping beats the lazy one."""
    wins, losses = 0, 0
    savings = []
    slowest = 0.0
    for seed in range(10):
        net = generate_grid(10, 10, seed=seed)
        instance = generate_fleet(
            net, 50, seed=seed, q_limit=5, time_unit=10.0, horizon=144
        )
        best = {}
        for mode in ("icmp", "llcmp"):
            t0 = time.perf_counter()
            _sol, log = run(
                instance, DecompositionConfig(mode=mode, time_limit=25.0)
            )
            slowest = max(slowest, time.perf_counter() - t0)
            best[mode] = log.best_cost
        spc = shortest_path_cost(instance)
        savings.append((spc - best["icmp"]) / spc)
        if best["icmp"] < best["llcmp"] - 1e-9:
            wins += 1
        elif best["llcmp"] < best["icmp"] - 1e-9:
            losses += 1
    ok = (
        slowest <= 60.0
        and all(0.0 < s <= 0.1 for s in savings)
        and wins > losses
    )
    verdict(
        capsys,
        8,
        "field scale comparison",
        ok,
        f"10 grids, icmp wins {wins} losses {losses}, savings "
        f"{min(savings):.4f}..{max(savings):.4f}, slowest run {slowest:.1f}s",
    )
    assert ok
