"""
Pairwise scheduling stage by stage
==================================

Exact scheduling prices every possible meet at once; the pairwise
shortcut commits early instead.  It picks disjoint truck pairs worth the
most, narrows each pair's departure windows until they must meet, times the
fleet without a size cap, and repairs whatever comes out.  This script
runs each stage by hand on a hub-and-spoke grid fleet and compares the
result against the do-nothing schedule and the exact one.
"""

from platoonplan import (
    SolveConfig,
    build_fcnf,
    build_tif,
    canonical_schedule,
    check,
    decode,
    enumerate_pairs,
    generate_fleet,
    generate_grid,
    routes_from_result,
    schedule_with_pairwise,
    scheduling_preprocess,
    select_pairs,
    shrink_windows,
    solve,
    solve_relaxed_and_repair,
    total_cost,
)

# A 6x6 grid where most trucks pass near the central hub, so many routes
# share corridors and the pair supply is rich.
net = generate_grid(6, 6, seed=12)
inst = generate_fleet(net, 30, seed=12, od_mode="hub", hubs=[14], hub_share=0.9)
print(f"{len(inst.vehicles)} trucks on {net.n_nodes} nodes, cap {inst.q_limit}")

# Routes come from the schedule-blind relaxation and stay fixed below;
# pairwise scheduling only decides timing.
routes = routes_from_result(inst, solve(build_fcnf(inst), SolveConfig(gap_tol=1e-9)))

# Stage 1: every pair of trucks sharing a consecutive stretch of arcs,
# tagged with the saving a follower would earn over the whole stretch.
candidates = enumerate_pairs(inst, routes)
print(f"\n{len(candidates)} candidate pairs, the five richest:")
for c in sorted(candidates, key=lambda c: -c.savings)[:5]:
    print(
        f"  trucks {c.u} and {c.v}: {len(c.segment)} shared arcs from node "
        f"{c.segment[0][0]}, saving {c.savings:.3f}"
    )

# Stage 2: a matching keeps each truck in at most one pair and the count
# under gamma times the fleet size.
gamma = 0.4
chosen = select_pairs(candidates, gamma, len(inst.vehicles))
print(f"\nmatching with gamma={gamma} keeps {len(chosen)} pairs:")
for c in chosen:
    print(f"  trucks {c.u} and {c.v}, saving {c.savings:.3f}")

# Stage 3: narrow each chosen pair's departure windows until their entry
# windows at the merge node coincide; the platoon becomes unavoidable.  A
# truck on a fixed route enters every arc a fixed time after it departs, so
# its departure window is all that changes.
narrowed = shrink_windows(routes, chosen)


def journey(r, v):
    """Truck v's earliest departure and latest arrival on routes r."""
    lo, hi = r.depart[v]
    return lo, hi + sum(net.travel_time[arc] for arc in r.paths[v])


tightened = [
    (v, journey(routes, v), journey(narrowed, v))
    for v in range(len(inst.vehicles))
    if journey(routes, v) != journey(narrowed, v)
]
print(f"\n{len(tightened)} trucks had their windows narrowed:")
for v, (lo, hi), (new_lo, new_hi) in tightened:
    print(f"  truck {v}: [{lo}, {hi}] -> [{new_lo}, {new_hi}]")

# Stage 4: time the narrowed routes with the size cap relaxed, then put
# the timetable together against the original instance, which splits any
# oversized meet into legal convoys.
sol = solve_relaxed_and_repair(inst, narrowed)
report = check(inst, sol)
cost = total_cost(inst, sol)
print(f"\npairwise schedule: cost {cost:.3f}, valid {report.ok}")

# The one-call wrapper runs the same four stages.
wrapped = schedule_with_pairwise(inst, routes, gamma=gamma)
assert abs(total_cost(inst, wrapped) - cost) < 1e-9

# Reference points on the same fixed routes: everyone departing as early
# as possible, and the exact scheduler.  Committing to pairs early
# recovers most of the coordination value but not quite all of it; the
# exact model can form platoons the matching had to pass up.
lazy = total_cost(inst, canonical_schedule(inst, routes))
kept = scheduling_preprocess(routes)
eres = solve(build_tif(inst, routes, kept), SolveConfig(gap_tol=1e-9))
exact = total_cost(inst, decode(inst, eres, "tif", routes))
print(f"no coordination {lazy:.3f}, pairwise {cost:.3f}, exact {exact:.3f}")
