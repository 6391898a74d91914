"""Joint routing and platoon scheduling for truck fleets.

Trucks driving closely behind a leader spend less fuel, so carriers want
routes and departure times that put vehicles on shared road stretches at
shared times.  This package models that planning problem over a road
network with travel times and per-arc costs, solves it exactly on small
fleets and heuristically on larger ones, and validates the resulting
timetables.

Typical use::

    from platoonplan import three_truck_demo, build_cpf, solve, decode

    instance = three_truck_demo()
    result = solve(build_cpf(instance))
    timetable = decode(instance, result, "cpf")
"""

from .decomposition import (
    CostTable,
    DecompositionConfig,
    IterationLog,
    IterationRecord,
    fingerprint,
    modify_costs,
    real_cost,
    run,
)
from .errors import (
    DecodeInconsistent,
    EmptyEntrySet,
    EmptyPathSet,
    GenerationFailed,
    InfeasibleNode,
    InfeasibleVehicle,
    InvalidSolution,
    MissingCost,
    ModelInfeasible,
    ModelInvalid,
    NoFeasibleSolution,
    ParseError,
    PlatoonPlanError,
    ShrinkInfeasible,
    Unbounded,
    ValidationError,
)
from .evaluate import (
    PlatoonSolution,
    ValidationReport,
    Violation,
    canonical_schedule,
    check,
    decode,
    indicators,
    shortest_path_cost,
    total_cost,
)
from .formulations import (
    FixedRoutes,
    admissible_arcs,
    build_cpf,
    build_fcnf,
    build_matching,
    build_tif,
    build_tsf,
    routes_from_result,
    scheduling_preprocess,
)
from .instance import (
    Instance,
    Vehicle,
    generate_fleet,
    load_instance,
    node_time_bounds,
    save_instance,
    three_truck_demo,
)
from .mip import (
    BINARY,
    CONTINUOUS,
    INTEGER,
    MipModel,
    MipResult,
    SolveConfig,
    lp_bound,
    solve,
)
from .network import (
    RoadNetwork,
    TimeSpaceNetwork,
    build_time_space,
    generate_grid,
    load_network,
    make_network,
    prune_arcs,
    save_network,
)
from .pairwise import (
    PairCandidate,
    enumerate_pairs,
    schedule_with_pairwise,
    select_pairs,
    shrink_windows,
    solve_relaxed_and_repair,
)

__version__ = "0.1.0"

__all__ = [
    "BINARY",
    "CONTINUOUS",
    "INTEGER",
    "CostTable",
    "DecodeInconsistent",
    "DecompositionConfig",
    "EmptyEntrySet",
    "EmptyPathSet",
    "FixedRoutes",
    "GenerationFailed",
    "InfeasibleNode",
    "InfeasibleVehicle",
    "Instance",
    "InvalidSolution",
    "IterationLog",
    "IterationRecord",
    "MipModel",
    "MipResult",
    "MissingCost",
    "ModelInfeasible",
    "ModelInvalid",
    "NoFeasibleSolution",
    "PairCandidate",
    "ParseError",
    "PlatoonPlanError",
    "PlatoonSolution",
    "RoadNetwork",
    "ShrinkInfeasible",
    "SolveConfig",
    "TimeSpaceNetwork",
    "Unbounded",
    "ValidationError",
    "ValidationReport",
    "Vehicle",
    "Violation",
    "admissible_arcs",
    "build_cpf",
    "build_fcnf",
    "build_matching",
    "build_tif",
    "build_time_space",
    "build_tsf",
    "canonical_schedule",
    "check",
    "decode",
    "enumerate_pairs",
    "fingerprint",
    "generate_fleet",
    "generate_grid",
    "indicators",
    "load_instance",
    "load_network",
    "lp_bound",
    "make_network",
    "modify_costs",
    "node_time_bounds",
    "prune_arcs",
    "real_cost",
    "routes_from_result",
    "run",
    "save_instance",
    "save_network",
    "schedule_with_pairwise",
    "scheduling_preprocess",
    "select_pairs",
    "shortest_path_cost",
    "shrink_windows",
    "solve",
    "solve_relaxed_and_repair",
    "three_truck_demo",
    "total_cost",
]
