"""Model builders: admissible arcs, big-M constants, and the four MIPs."""

import math
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from instgen import small_instance, time_shortest_paths
from oracles import brute_force_joint, keyed_result, keyed_values
from platoonplan import formulations
from platoonplan.errors import (
    EmptyEntrySet,
    InfeasibleNode,
    InfeasibleVehicle,
    MissingCost,
    ValidationError,
)
from platoonplan.evaluate import check, decode
from platoonplan.formulations import (
    FixedRoutes,
    admissible_arcs,
    build_cpf,
    build_fcnf,
    build_matching,
    build_tif,
    build_tsf,
    price_fcnf,
    routes_from_result,
    scheduling_preprocess,
)
from platoonplan.instance import Instance, Vehicle
from platoonplan.mip import SolveConfig, _label, solve
from platoonplan.network import build_time_space, make_network
from platoonplan.pairwise import enumerate_pairs


def exact(model):
    res = solve(model, SolveConfig(gap_tol=1e-9))
    assert res.objective is not None
    return res


def var_names(model):
    return {v.name for v in model.variables}


def column(model, key):
    """The index of the column named ``key``."""
    return [v.name for v in model.variables].index(key)


def line_instance(n_vehicles, q_limit, window=1):
    """All trucks share the single arc (0, 1); only grouping matters."""
    net = make_network(2, [(0, 1, 1.0, 1)])
    vehicles = tuple(Vehicle(v, 0, 1, 0, window) for v in range(n_vehicles))
    return Instance(
        network=net,
        vehicles=vehicles,
        eta=0.1,
        q_limit=q_limit,
        time_unit=1.0,
        horizon=window,
    )


def late_partner_instance():
    """A platoon that only works by entering the last arc too late to finish.

    Truck 0 rides 0 -> 1 -> 2 inside [0, 13]; the slow arc (1, 2) takes 10,
    so it must enter it by time 3.  Truck 1 can only enter (1, 2) from time
    11 on.  Any model that stops propagating entry times into the
    destination node would let truck 0 linger at node 1 until 11, platoon,
    and claim a saving that no physical schedule realizes.
    """
    net = make_network(
        4,
        [
            (0, 1, 1.0, 1),
            (1, 2, 1.0, 10),
            (1, 3, 10.0, 1),
            (3, 2, 10.0, 1),
        ],
    )
    vehicles = (Vehicle(0, 0, 2, 0, 13), Vehicle(1, 1, 2, 11, 21))
    return Instance(
        network=net,
        vehicles=vehicles,
        eta=0.1,
        q_limit=None,
        time_unit=1.0,
        horizon=21,
    )


# -- admissible arcs and big-M constants -------------------------------------


def test_admissible_arcs_demo(demo):
    adm = admissible_arcs(demo)
    assert adm[0] == {(0, 1)}
    assert adm[1] == {(0, 2)}
    # truck 2 keeps both corridors: top via 1-4, bottom via 2-3
    assert adm[2] == {(0, 1), (0, 2), (1, 4), (2, 3), (3, 5), (4, 5)}


def test_admissible_arcs_wraps_empty_path_set(demo):
    # windows this tight never pass instance validation, so fake the shape
    broke = SimpleNamespace(
        network=demo.network,
        vehicles=(Vehicle(0, 0, 5, 0, 100),),
        eta=0.1,
    )
    with pytest.raises(InfeasibleVehicle):
        admissible_arcs(broke)


def big_m_row(model, plus, minus, switch):
    """The big-M coefficient and right-hand side of the CPF row that reads
    ``plus - minus`` against the 0/1 column ``switch``."""
    cols = {column(model, plus): 1.0, column(model, minus): -1.0}
    s = column(model, switch)
    for idxs, coefs, _sense, rhs in model.constraints:
        row = dict(zip(idxs, coefs))
        if row.keys() == cols.keys() | {s} and all(row[i] == c for i, c in cols.items()):
            return abs(row[s]), rhs
    raise AssertionError(f"no row {plus} - {minus} with {switch}")


def test_big_m_demo_values(demo):
    model = build_cpf(demo)
    pledge = ("y", 0, 2, 1, 2)
    # trucks 1 and 2 share node 0: windows [500, 500] and [500, 701]
    assert big_m_row(model, ("t", 0, 2), ("t", 0, 1), pledge) == (201, 201)
    assert big_m_row(model, ("t", 0, 1), ("t", 0, 2), pledge) == (0, 0)
    # truck 2 on (0, 2): window tops 701 at the tail, opens 600 at the head
    # (0, 2) takes 100, so the row reads t_2 - t_0 - 201 x >= 100 - 201
    assert big_m_row(model, ("t", 2, 2), ("t", 0, 2), ("x", 0, 2, 2)) == (201, 100 - 201)
    # truck 1 has zero slack, so its propagation constant clamps at zero
    assert big_m_row(model, ("t", 2, 1), ("t", 0, 1), ("x", 0, 2, 1)) == (0, 100)


# -- continuous-time joint model ----------------------------------------------


def test_cpf_demo_structure(demo):
    model = build_cpf(demo)
    names = var_names(model)
    # trucks 1 and 2 can meet at node 0, trucks 0 and 2 never can
    assert ("y", 0, 2, 1, 2) in names
    assert ("y", 0, 1, 0, 2) not in names
    t1 = model.variables[column(model, ("t", 0, 1))]
    assert (t1.lower, t1.upper) == (500.0, 500.0)
    t2 = model.variables[column(model, ("t", 2, 2))]
    assert (t2.lower, t2.upper) == (600.0, 800.0)


def test_cpf_demo_objective(demo):
    res = exact(build_cpf(demo))
    assert res.objective == pytest.approx(4.9, abs=1e-9)


def test_tsf_demo_objective(demo):
    model = build_tsf(demo, build_time_space(demo.network, demo))
    res = exact(model)
    assert res.objective == pytest.approx(4.9, abs=1e-9)


@pytest.mark.parametrize(
    "n_vehicles, q_limit, expected",
    [
        # one arc of cost 1: every follower refunds 0.1
        (3, None, 2.8),  # one platoon of three, two followers
        (3, 2, 2.9),  # cap forces two groups, one follower
        (4, 3, 3.8),  # four trucks split 3 + 1, two followers
    ],
)
def test_size_cap_binds(n_vehicles, q_limit, expected):
    instance = line_instance(n_vehicles, q_limit)
    assert exact(build_cpf(instance)).objective == pytest.approx(expected, abs=1e-9)
    tsn = build_time_space(instance.network, instance)
    assert exact(build_tsf(instance, tsn)).objective == pytest.approx(
        expected, abs=1e-9
    )


def test_deadline_binds_on_final_arc():
    """A pledge on the last leg must not outrun the arrival deadline."""
    instance = late_partner_instance()
    assert brute_force_joint(instance) == pytest.approx(3.0, abs=1e-9)
    assert exact(build_cpf(instance)).objective == pytest.approx(3.0, abs=1e-9)
    tsn = build_time_space(instance.network, instance)
    assert exact(build_tsf(instance, tsn)).objective == pytest.approx(3.0, abs=1e-9)


# -- routing stage ------------------------------------------------------------


def test_fcnf_demo_is_a_lower_bound(demo):
    # schedule-blind optimum: truck 2 rides the top corridor and shares
    # (0, 1) with truck 0, which no feasible schedule allows
    res = exact(build_fcnf(demo))
    assert res.objective == pytest.approx(4.89, abs=1e-9)
    assert res.objective <= 4.9


def test_fcnf_missing_cost(demo):
    table = SimpleNamespace(traversed=frozenset({(0, 2)}), modified={})
    with pytest.raises(MissingCost):
        price_fcnf(demo, build_fcnf(demo), table)


def test_fcnf_shaped_costs_steer_routing(demo):
    # price (0, 2) out of the market: truck 2 flips to the top corridor
    # and truck 1, with no alternative, pays the shaped coefficient
    table = SimpleNamespace(
        traversed=frozenset({(0, 2)}),
        modified={(1, (0, 2)): 100.0, (2, (0, 2)): 100.0},
    )
    model = build_fcnf(demo)
    price_fcnf(demo, model, table)
    res = exact(model)
    # 100 + 0.9 + 0.9 (1 + 1 + 0.99) + y on (0,1), (1,4), (4,5)
    assert res.objective == pytest.approx(103.89, abs=1e-9)
    routes = routes_from_result(demo, res)
    assert routes.paths[2] == ((0, 1), (1, 4), (4, 5))


def test_fcnf_duration_budget(demo):
    # every FCNF route must fit its window even though entry times are
    # not modeled; check on the demo and on a handful of random instances
    from instgen import collect_instances

    tt = demo.network.travel_time
    drawn = [inst for _seed, inst in collect_instances(5, seed_start=40)]
    for instance in [demo] + drawn:
        res = exact(build_fcnf(instance))
        routes = routes_from_result(instance, res)
        for v, path in routes.paths.items():
            veh = instance.vehicles[v]
            window = veh.latest_arrival - veh.earliest_departure
            assert sum(instance.network.travel_time[a] for a in path) <= window
    assert tt[(0, 1)] == 100  # guard against silent demo edits


# -- fixed routes -------------------------------------------------------------


DEMO_ROUTES = {0: ((0, 1),), 1: ((0, 2),), 2: ((0, 2), (2, 3), (3, 5))}


def test_fixed_routes_demo_windows(demo):
    routes = FixedRoutes.build(demo, DEMO_ROUTES)
    # truck 2 has 200 slack, rigid along the whole path
    assert routes.entry_window(2, (0, 2)) == (500, 700)
    assert routes.entry_window(2, (2, 3)) == (600, 800)
    assert routes.entry_window(2, (3, 5)) == (700, 900)
    assert routes.entry_window(1, (0, 2)) == (500, 500)
    assert routes.depart[2] == (500, 700)
    assert routes.vehicles_by_arc[(0, 2)] == (1, 2)
    assert set(routes.vehicles_by_arc) == {(0, 1), (0, 2), (2, 3), (3, 5)}


@pytest.mark.parametrize(
    "path, message",
    [
        (((0, 5),), "not in the network"),
        (((0, 2), (3, 5)), "breaks"),
        (((0, 1), (1, 0)), "revisits"),
        (((0, 2),), "ends at"),
    ],
)
def test_fixed_routes_rejects_bad_paths(demo, path, message):
    with pytest.raises(ValidationError, match=message):
        FixedRoutes.build(demo, {0: path})


@pytest.mark.parametrize("v", [-1, 3])
def test_fixed_routes_rejects_vehicles_outside_the_fleet(demo, v):
    # -1 must not stand for the last truck, nor 3 fail as a bare IndexError
    with pytest.raises(ValidationError, match=f"vehicle {v} is not in the fleet"):
        FixedRoutes.build(demo, {v: DEMO_ROUTES[2]})


def test_fixed_routes_rejects_slow_path(demo):
    # 0 -> 2 -> 1 takes 200 but truck 0 only has 100
    with pytest.raises(InfeasibleNode):
        FixedRoutes.build(demo, {0: ((0, 2), (2, 1))})


def test_routes_from_result_drops_spurious_cycles(demo):
    values = {
        ("x", 0, 1, 0): 1.0,
        ("x", 2, 3, 0): 1.0,  # detached cycle, never reached from node 0
        ("x", 3, 2, 0): 1.0,
        ("x", 0, 2, 1): 1.0,
        ("x", 0, 1, 2): 1.0,
        ("x", 1, 4, 2): 1.0,
        ("x", 4, 5, 2): 1.0,
        ("x", 2, 4, 2): 0.4,  # fractional noise stays ignored
        ("t", 0, 1): 500.0,  # unrelated variables as well
        ("y", 0, 1): 1.0,
    }
    routes = routes_from_result(demo, keyed_result(values))
    assert routes.paths[0] == ((0, 1),)
    assert routes.paths[2] == ((0, 1), (1, 4), (4, 5))


def test_routes_from_result_requires_every_vehicle(demo):
    with pytest.raises(InfeasibleVehicle):
        routes_from_result(demo, keyed_result({("x", 0, 1, 0): 1.0}))


# -- scheduling stage ---------------------------------------------------------


def test_scheduling_preprocess_demo(demo):
    routes = FixedRoutes.build(demo, DEMO_ROUTES)
    kept = scheduling_preprocess(routes)
    # only the (0, 2) legs of trucks 1 and 2 can ever meet
    assert kept == {(1, (0, 2)), (2, (0, 2))}
    assert routes.meets == (((0, 2), (1, 2)),)


def test_tif_demo(demo):
    routes = FixedRoutes.build(demo, DEMO_ROUTES)
    kept = scheduling_preprocess(routes)
    model = build_tif(demo, routes, kept)
    names = var_names(model)
    assert ("x", 0, 2, 1, 500) in names
    assert ("x", 0, 2, 2, 500) in names and ("x", 0, 2, 2, 700) in names
    # 1 entry slot for truck 1, 201 for truck 2, one y per open slot
    assert sum(n[0] == "x" for n in names) == 202
    assert sum(n[0] == "y" for n in names) == 201
    res = exact(model)
    # both trucks enter (0, 2) at 500 and save one fixed share of 0.1
    assert res.objective == pytest.approx(0.1, abs=1e-9)
    values = keyed_values(model, res)
    assert values["x", 0, 2, 1, 500] == pytest.approx(1.0)
    assert values["x", 0, 2, 2, 500] == pytest.approx(1.0)


def test_tif_empty_entry_window():
    net = make_network(2, [(0, 1, 1.0, 1)])
    instance = Instance(
        network=net,
        vehicles=(Vehicle(0, 0, 1, 0, 2),),
        eta=0.1,
        q_limit=None,
        time_unit=1.0,
        horizon=2,
    )
    # hand-built: FixedRoutes.build never gives an empty departure window
    routes = FixedRoutes(paths={0: ((0, 1),)}, offset={(0, (0, 1)): 0}, depart={0: (2, 1)})
    with pytest.raises(EmptyEntrySet):
        build_tif(instance, routes)


def test_tif_rejects_a_kept_pair_off_its_vehicles_path(demo):
    # the model reads the routes through its spec, which holds path arcs only
    routes = FixedRoutes.build(demo, DEMO_ROUTES)
    with pytest.raises(ValidationError, match="off the vehicle's path"):
        build_tif(demo, routes, {(0, (0, 2)), (1, (0, 2))})


def test_tif_relax_capacity_lifts_the_cap():
    # three trucks, cap 2: exact grouping needs two slots (or two y units),
    # the relaxation lets one y unit cover all three
    instance = line_instance(3, q_limit=2)
    routes = FixedRoutes.build(instance, {v: ((0, 1),) for v in range(3)})
    kept = scheduling_preprocess(routes)
    tight = exact(build_tif(instance, routes, kept))
    loose = exact(build_tif(instance, routes, kept, relax_capacity=True))
    assert tight.objective == pytest.approx(0.1, abs=1e-9)
    assert loose.objective == pytest.approx(0.2, abs=1e-9)


def test_tif_waiting_between_arcs_is_allowed():
    # a partner only on the second arc, reachable only by waiting at node 1
    net = make_network(3, [(0, 1, 1.0, 2), (1, 2, 1.0, 2)])
    instance = Instance(
        network=net,
        vehicles=(Vehicle(0, 0, 2, 0, 6), Vehicle(1, 1, 2, 4, 6)),
        eta=0.1,
        q_limit=None,
        time_unit=1.0,
        horizon=6,
    )
    routes = FixedRoutes.build(instance, {0: ((0, 1), (1, 2)), 1: ((1, 2),)})
    model = build_tif(instance, routes)
    res = exact(model)
    assert res.objective == pytest.approx(0.1, abs=1e-9)
    values = keyed_values(model, res)
    assert values["x", 1, 2, 0, 4] == pytest.approx(1.0)
    # truck 0 entered the first arc early enough to be at node 1 by 4
    entry = next(
        tm for tm in range(0, 3) if values["x", 0, 1, 0, tm] > 0.5
    )
    assert entry + 2 <= 4


def test_tif_precedence_forbids_double_pledge():
    """Incompatible meets on consecutive arcs must not both count.

    Truck 0 drives both arcs inside [0, 6].  One partner is on the first
    arc only at time 2, another on the second arc only at time 2.  Meeting
    the first means reaching node 1 at 4, too late for the second; a model
    without entry-order coupling would claim both savings.
    """
    net = make_network(3, [(0, 1, 1.0, 2), (1, 2, 1.0, 2)])
    instance = Instance(
        network=net,
        vehicles=(
            Vehicle(0, 0, 2, 0, 6),
            Vehicle(1, 0, 1, 2, 4),
            Vehicle(2, 1, 2, 2, 4),
        ),
        eta=0.1,
        q_limit=None,
        time_unit=1.0,
        horizon=6,
    )
    routes = FixedRoutes.build(
        instance, {0: ((0, 1), (1, 2)), 1: ((0, 1),), 2: ((1, 2),)}
    )
    res = exact(build_tif(instance, routes))
    assert res.objective == pytest.approx(0.1, abs=1e-9)


@settings(derandomize=True, deadline=None, max_examples=25)
@given(st.integers(0, 2**16))
def test_exact_models_match_enumeration_property(seed):
    """CPF and TSF built from one instance's shared caches agree with
    enumeration, and both incumbents decode to valid timetables."""
    instance = small_instance(seed)
    assume(instance is not None)
    reference = brute_force_joint(instance)
    tsn = build_time_space(instance.network, instance)
    for which, model in (("cpf", build_cpf(instance)), ("tsf", build_tsf(instance, tsn))):
        res = exact(model)
        assert res.objective == pytest.approx(reference, abs=1e-6), which
        assert check(instance, decode(instance, res, which)).ok


# -- column keys --------------------------------------------------------------

# the arity of every tag, by builder
KEY_ARITY = {
    "cpf": {"t": 2, "x": 3, "y": 4},
    "tsf": {"x": 5, "y": 4},
    "fcnf": {"y": 2, "x": 3},
    "tif": {"x": 4, "y": 3},
    "pairing": {"w": 2},
}


@settings(derandomize=True, deadline=None, max_examples=25)
@given(st.integers(0, 2**16))
def test_column_keys_are_tagged_int_tuples_property(seed):
    """Every builder keys a column by ``(tag, *ints)``, each tag with one
    arity, and no two columns share an LP-text label."""
    instance = small_instance(seed)
    assume(instance is not None)
    routes = FixedRoutes.build(instance, time_shortest_paths(instance))
    pairs = [(c.u, c.v, c.savings) for c in enumerate_pairs(instance, routes)]
    models = (
        build_cpf(instance),
        build_tsf(instance, build_time_space(instance.network, instance)),
        build_fcnf(instance),
        build_tif(instance, routes),
        build_matching(pairs, 0.5, len(instance.vehicles)),
    )
    for model in models:
        arity = {}
        for var in model.variables:
            assert type(var.name) is tuple, var.name
            tag, *ids = var.name
            assert all(type(i) is int for i in ids), var.name
            assert arity.setdefault(tag, len(ids)) == len(ids), var.name
        assert arity.items() <= KEY_ARITY[model.name].items(), model.name
        labels = {_label(var.name) for var in model.variables}
        assert len(labels) == model.num_vars, model.name


def test_only_the_builders_know_their_column_order():
    # every other module refers to columns by key
    for path in sorted(Path(formulations.__file__).parent.glob("*.py")):
        if path.name != "formulations.py":
            text = path.read_text()
            assert "_tif_columns" not in text and "_fcnf_columns" not in text, path.name


# -- pair matching ------------------------------------------------------------


def test_build_matching_degree_and_budget():
    pairs = [(0, 1, 5.0), (1, 2, 4.0), (2, 3, 3.0)]
    model = build_matching(pairs, gamma=0.5, n_vehicles=4)
    res = exact(model)
    assert res.objective == pytest.approx(8.0)
    values = keyed_values(model, res)
    assert values["w", 0, 1] == pytest.approx(1.0)
    assert values["w", 2, 3] == pytest.approx(1.0)
    assert values["w", 1, 2] == pytest.approx(0.0)
    # a tighter budget keeps only the single best pair
    res = exact(build_matching(pairs, gamma=0.25, n_vehicles=4))
    assert res.objective == pytest.approx(5.0)


def test_build_matching_empty():
    res = exact(build_matching([], gamma=0.5, n_vehicles=4))
    assert res.objective == pytest.approx(0.0)
