"""
Exact models and bounds side by side
====================================

The same planning question can be posed as a continuous-time model, a
time-expanded model, or a schedule-blind routing relaxation.  The first
two agree on the optimum; the relaxation brackets it from below.  This
script sizes and solves all three on the bundled demo and on a random
grid fleet.  Solve times go to stderr, so stdout is the same on every run.
"""

import sys
import time

from platoonplan import (
    DecompositionConfig,
    SolveConfig,
    build_cpf,
    build_fcnf,
    build_time_space,
    build_tsf,
    generate_fleet,
    generate_grid,
    run,
    shortest_path_cost,
    solve,
    three_truck_demo,
    total_cost,
)


def timed_solve(model):
    t0 = time.perf_counter()
    res = solve(model, SolveConfig(gap_tol=1e-9))
    return res, time.perf_counter() - t0


def report(name, inst):
    print(f"== {name}: {len(inst.vehicles)} trucks, "
          f"{inst.network.n_nodes} nodes, everyone alone {shortest_path_cost(inst):.3f}")
    print(f"{'model':<12}{'vars':>7}{'rows':>7}{'objective':>12}")
    rows = [
        ("continuous", build_cpf(inst)),
        ("time-grid", build_tsf(inst, build_time_space(inst.network, inst))),
        ("routing-lb", build_fcnf(inst)),
    ]
    values = {}
    for label, model in rows:
        res, secs = timed_solve(model)
        values[label] = res.objective
        print(f"{label:<12}{model.num_vars:>7}{model.num_constrs:>7}{res.objective:>12.4f}")
        print(f"{name}, {label}: solved in {secs:.2f} s", file=sys.stderr)
    # The two exact models must land on the same optimum; the routing
    # relaxation drops the meeting times and can only be cheaper.
    assert abs(values["continuous"] - values["time-grid"]) < 1e-6
    assert values["routing-lb"] <= values["continuous"] + 1e-6
    return values


demo_values = report("demo instance", three_truck_demo())
print()

# A random fleet on a 4x4 grid.  Short time windows keep the
# time-expanded model at a readable size.
net = generate_grid(4, 4, seed=7)
inst = generate_fleet(net, 6, seed=7, q_limit=3, time_unit=10.0, horizon=60)
grid_values = report("grid fleet", inst)
print()

# The iterative heuristic needs only the cheap relaxation per round, so it
# is the tool of choice once the exact models stop fitting.  Here it finds
# the optimum on both instances.
for name, inst, target in (
    ("demo", three_truck_demo(), demo_values["continuous"]),
    ("grid", inst, grid_values["continuous"]),
):
    best, log = run(inst, DecompositionConfig(mode="icmp", time_limit=60.0))
    cost = total_cost(inst, best)
    print(f"heuristic on {name}: {cost:.4f} after {len(log.records)} rounds "
          f"(exact {target:.4f}, stop: {log.termination})")
