"""
How the iterative heuristic changes its mind
============================================

Schedule-blind routing picks paths as if every shared arc meant a shared
drive.  The heuristic lets that optimism fail, reprices arcs from the
schedule that actually came out, and reroutes.  On the demo fleet this
takes exactly one correction: truck 2 starts on the top corridor chasing
a partner it can never catch, gets lured to the bottom corridor by a
half-saving estimate, and finds a real partner there.
"""

from platoonplan import (
    DecompositionConfig,
    SolveConfig,
    build_fcnf,
    build_tif,
    canonical_schedule,
    decode,
    modify_costs,
    price_fcnf,
    routes_from_result,
    run,
    scheduling_preprocess,
    solve,
    three_truck_demo,
    total_cost,
)

inst = three_truck_demo()
base = inst.network.cost

# --- the packaged loop -------------------------------------------------

best, log = run(inst, DecompositionConfig(mode="icmp"))
print("packaged loop:")
print(f"{'round':>5}  {'routing':>8}  {'scheduled':>9}  {'saved':>6}  plan")
for rec in log.records:
    print(
        f"{rec.index:>5}  {rec.routing_objective:>8.3f}  {rec.feasible_cost:>9.3f}"
        f"  {rec.scheduling_savings:>6.2f}  {rec.fingerprint[:8]}"
    )
print(
    f"best {log.best_cost:.2f} in round {log.best_iteration}, "
    f"lower bound {log.lower_bound:.2f}, stopped on {log.termination}"
)

# --- round 1 replayed by hand ------------------------------------------

# Routing at base costs: truck 2 takes the top corridor because the model
# prices sharing (0, 1) with truck 0 as a saving.
print()
print("round 1 by hand:")
routing = build_fcnf(inst)
rres = solve(routing, SolveConfig(gap_tol=1e-9))
routes = routes_from_result(inst, rres)
for v, path in sorted(routes.paths.items()):
    print(f"  truck {v}: {' '.join(map(str, path))}")
print(f"  routing objective {rres.objective:.2f} (pretends the meeting happens)")

# Scheduling exposes the lie: truck 0 must enter (0, 1) by 100, truck 2
# cannot get there before 500, so no candidate pair survives and everyone
# drives alone.
kept = scheduling_preprocess(routes)
print(f"  platoon candidates after window screening: {sorted(kept) or 'none'}")
sol = canonical_schedule(inst, routes)
print(f"  scheduled cost {total_cost(inst, sol):.2f}")

# Repricing: scenario 1 is a realized per-head cost, 2 a hopeless arc at
# full price, 3 a reachable partner priced as an equal split of the fixed
# share.  Truck 2's entry for (0, 2) is the lure: 0.9 + 0.1 / 2 = 0.95.
table = modify_costs(inst, routes, sol, "icmp")
print("  shaped prices for next round (truck, arc, base -> shaped, scenario):")
for (v, arc), price in sorted(table.modified.items()):
    print(
        f"    truck {v} {arc}: {base[arc]:.2f} -> {price:.3f}"
        f"  [{table.scenarios[v, arc]}]"
    )

# --- round 2 replayed by hand ------------------------------------------

# With (0, 2) discounted, the bottom corridor wins and truck 2 now shares
# an arc with truck 1 inside overlapping windows.  Only the routing model's
# objective depends on the table, so round 1's model is repriced in place.
print()
print("round 2 by hand:")
price_fcnf(inst, routing, table)
rres2 = solve(routing, SolveConfig(gap_tol=1e-9))
routes2 = routes_from_result(inst, rres2)
for v, path in sorted(routes2.paths.items()):
    print(f"  truck {v}: {' '.join(map(str, path))}")
kept2 = scheduling_preprocess(routes2)
print(f"  platoon candidates after window screening: {sorted(kept2)}")

sres = solve(build_tif(inst, routes2, kept2), SolveConfig(gap_tol=1e-9))
sol2 = decode(inst, sres, "tif", routes2)
print(f"  scheduled cost {total_cost(inst, sol2):.2f}")
for (arc, tm), groups in sorted(sol2.groups.items()):
    for members in groups:
        if len(members) > 1:
            print(f"  trucks {members} platoon on {arc} at t={tm:g}")

# Repricing the new plan reproduces the same routes, the fingerprint
# repeats, and the loop stops with the round-2 timetable as its answer.
