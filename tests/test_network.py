"""Road network construction, shortest paths, pruning, and serialization."""

import gc
import math
import weakref
import numpy as np
import pytest

from instgen import small_network
from oracles import bellman_ford, simple_paths
from platoonplan.errors import (
    EmptyPathSet,
    ParseError,
    ValidationError,
)
from platoonplan.instance import Vehicle
from platoonplan.network import (
    build_time_space,
    generate_grid,
    load_network,
    make_network,
    min_cost_within_time,
    network_text,
    prune_arcs,
    save_network,
    undirected,
)

# A four node net where the cheapest 1 -> 3 ride (via 2, cost 2) is slower
# than the direct arc (cost 6): time and cost optima genuinely disagree.
SLOW_CHEAP = [
    (0, 3, 4.0, 3),
    (1, 2, 1.0, 3),
    (1, 3, 6.0, 3),
    (2, 0, 8.0, 2),
    (2, 3, 1.0, 3),
    (3, 1, 2.0, 2),
]


def test_make_network_validates():
    with pytest.raises(ValidationError):
        make_network(2, [(0, 0, 1.0, 1)])  # self loop
    with pytest.raises(ValidationError):
        make_network(2, [(0, 1, 1.0, 1), (0, 1, 2.0, 1)])  # duplicate
    with pytest.raises(ValidationError):
        make_network(2, [(0, 2, 1.0, 1)])  # node out of range
    with pytest.raises(ValidationError):
        make_network(2, [(0, 1, -1.0, 1)])  # negative cost
    with pytest.raises(ValidationError):
        make_network(2, [(0, 1, 1.0, 0)])  # zero travel time
    with pytest.raises(ValidationError):
        make_network(2, [])


@pytest.mark.parametrize("cost, time", [(1.0, math.nan), (1.0, math.inf), (math.nan, 1), (math.inf, 1)])
def test_make_network_rejects_non_finite_records(cost, time):
    with pytest.raises(ValidationError, match="non-finite"):
        make_network(2, [(0, 1, cost, time)])


def test_fractional_travel_times_round_up():
    net = make_network(2, [(0, 1, 1.0, 2.3), (1, 0, 1.0, 3.0)])
    assert net.travel_time[(0, 1)] == 3
    assert net.travel_time[(1, 0)] == 3


def test_grid_shape():
    net = generate_grid(4, 4, seed=0)
    assert net.n_nodes == 16
    assert len(net.arcs) == 48  # 2 * (4*3 + 3*4) directed arcs
    net = generate_grid(10, 10, seed=3)
    assert net.n_nodes == 100
    assert len(net.arcs) == 360
    lengths = {net.cost[a] for a in net.arcs}
    assert lengths <= {3.0, 4.0, 5.0}
    for arc in net.arcs:
        assert net.cost[arc] == net.travel_time[arc]


@pytest.mark.parametrize("rows, cols", [(2.5, 2), (2, 2.0), ("2", 2)])
def test_grid_rejects_sizes_that_are_not_integers(rows, cols):
    # range() raised a bare TypeError
    with pytest.raises(ValidationError, match="grid size must be integral"):
        generate_grid(rows, cols, seed=0)
    assert generate_grid(np.int64(2), 3, seed=0).n_nodes == 6


def test_grid_deterministic():
    a = generate_grid(5, 3, seed=11)
    b = generate_grid(5, 3, seed=11)
    assert a.arcs == b.arcs
    assert a.cost == b.cost


@pytest.mark.parametrize("seed", range(8))
def test_shortest_matrices_match_bellman_ford(seed):
    rng = np.random.default_rng(seed)
    net = small_network(rng, int(rng.integers(4, 9)))
    st = net.shortest_times
    sc = net.shortest_costs
    for source in range(net.n_nodes):
        ref_t = bellman_ford(net.n_nodes, net.travel_time, source)
        ref_c = bellman_ford(net.n_nodes, net.cost, source)
        for j in range(net.n_nodes):
            assert st[source, j] == pytest.approx(ref_t[j], abs=1e-9)
            assert sc[source, j] == pytest.approx(ref_c[j], abs=1e-9)


def test_zero_cost_arcs_participate():
    net = make_network(3, [(0, 1, 0.0, 1), (1, 2, 0.0, 1), (0, 2, 5.0, 1)])
    assert net.shortest_costs[0, 2] == 0.0


def test_min_cost_within_time_tightens_with_budget():
    net = make_network(4, SLOW_CHEAP)
    by_budget = {b: min_cost_within_time(net, 1, b) for b in (2, 3, 5, 6)}
    assert math.isinf(by_budget[2][3])  # nothing reaches 3 that fast
    assert by_budget[3][3] == 6.0  # direct arc only
    assert by_budget[5][3] == 6.0  # detour still too slow
    assert by_budget[6][3] == 2.0  # detour via 2 unlocks


@pytest.mark.parametrize("seed", range(6))
def test_min_cost_within_time_matches_path_enumeration(seed):
    rng = np.random.default_rng(seed)
    net = small_network(rng, 6)
    tt = net.travel_time
    for budget in (3, 6, 12):
        got = min_cost_within_time(net, 0, budget)
        for dest in range(1, net.n_nodes):
            feasible = [
                sum(net.cost[a] for a in p)
                for p in simple_paths(net.arcs, 0, dest)
                if sum(tt[a] for a in p) <= budget
            ]
            want = min(feasible) if feasible else math.inf
            assert got[dest] == pytest.approx(want, abs=1e-9)


def test_prune_keeps_only_window_reachable_arcs():
    net = make_network(4, SLOW_CHEAP)
    # cheapest path 1 -> 3 costs 2 but takes 6; the window only allows 5,
    # so the bound must anchor at the direct arc's cost of 6
    keep = prune_arcs(net, Vehicle(0, 1, 3, 3, 8), eta=0.2)
    assert keep == {(1, 3)}
    # with a window of 6 the cheap detour becomes the anchor and the
    # direct arc is too expensive to ever pay off
    keep = prune_arcs(net, Vehicle(0, 1, 3, 3, 9), eta=0.2)
    assert keep == {(1, 2), (2, 3)}


def test_prune_raises_on_unreachable_or_tight_window():
    net = make_network(3, [(0, 1, 1.0, 2), (1, 2, 1.0, 2)])
    with pytest.raises(EmptyPathSet):
        prune_arcs(net, Vehicle(0, 2, 0, 0, 10), eta=0.1)
    with pytest.raises(EmptyPathSet):
        prune_arcs(net, Vehicle(0, 0, 2, 0, 3), eta=0.1)


def test_prune_never_drops_an_optimal_route_arc():
    # every arc on a window-feasible path within the cost bound survives
    rng = np.random.default_rng(77)
    net = small_network(rng, 6)
    st = net.shortest_times
    eta = 0.1
    for o in range(net.n_nodes):
        for d in range(net.n_nodes):
            if o == d or not math.isfinite(st[o, d]):
                continue
            window = int(st[o, d]) + 2
            keep = prune_arcs(net, Vehicle(0, o, d, 0, window), eta)
            feasible = [
                p
                for p in simple_paths(net.arcs, o, d)
                if sum(net.travel_time[a] for a in p) <= window
            ]
            anchor = min(sum(net.cost[a] for a in p) for p in feasible)
            for path in feasible:
                if sum(net.cost[a] for a in path) <= anchor / (1.0 - eta):
                    assert set(path) <= keep


def test_network_text_round_trip(tmp_path):
    net = make_network(4, SLOW_CHEAP)
    path = tmp_path / "net.txt"
    path.write_text(network_text(net), encoding="ascii")
    back = load_network(path)
    assert back.n_nodes == net.n_nodes
    assert back.arcs == net.arcs
    assert back.cost == net.cost
    assert back.travel_time == net.travel_time


def test_save_network_round_trips_a_grid(tmp_path):
    net = generate_grid(4, 5, seed=2)
    path = tmp_path / "grid.txt"
    save_network(net, path)
    assert path.read_text(encoding="ascii") == network_text(net)
    back = load_network(path)
    assert back.n_nodes == net.n_nodes
    # the file lists arcs by (tail, head), not in the generator's order
    assert back.arcs == tuple(sorted(net.arcs))
    assert back.cost == net.cost
    assert back.travel_time == net.travel_time


def test_network_text_prints_integers_bare():
    net = make_network(2, [(0, 1, 3.0, 2)])
    text = network_text(net)
    assert "arc 0 1 3 2" in text


@pytest.mark.parametrize(
    "content, fragment",
    [
        ("arc 0 1 1 1\n", "before 'nodes'"),
        ("nodes 2\nnodes 2\n", "duplicate"),
        ("nodes 2\narc 0 1 1\n", "expects"),
        ("nodes 2\narc 0 one 1 1\n", "bad arc"),
        ("nodes 2\nroad 0 1\n", "unknown record"),
        ("", "missing 'nodes'"),
    ],
)
def test_load_network_parse_errors(tmp_path, content, fragment):
    path = tmp_path / "bad.txt"
    path.write_text(content, encoding="ascii")
    with pytest.raises(ParseError) as err:
        load_network(path)
    assert fragment in str(err.value)


def test_parse_error_carries_line_number(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("nodes 2\n# fine\nroad 0 1\n", encoding="ascii")
    with pytest.raises(ParseError) as err:
        load_network(path)
    assert str(err.value).startswith("line 3:")


def test_load_network_rejects_non_ascii(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("nodes 2\narc 0 1 1 1 \u00e9\n", encoding="utf-8")
    with pytest.raises(ParseError, match="not ASCII"):
        load_network(path)


def test_shortest_matrices_are_freed_with_the_network():
    net = make_network(3, undirected([(0, 1, 1.0, 2), (1, 2, 1.0, 2)]))
    assert net.shortest_times is net.shortest_times
    assert net.shortest_costs is net.shortest_costs
    ref = weakref.ref(net)
    del net
    gc.collect()
    assert ref() is None


def test_time_space_structure(demo):
    tsn = build_time_space(demo.network, demo)
    assert tsn.net is demo.network
    assert tsn.horizon == 1000
    # the time-expanded model reads the vehicle windows from the instance;
    # they are narrowed by shortest times on both sides
    windows = demo.windows
    assert windows[2][0] == (500, 701)
    assert windows[2][5] == (799, 1000)
    assert 4 in windows[2]
    assert 1 not in windows[0] or windows[0][1] == (100, 100)


def test_undirected_expands_both_ways():
    arcs = undirected([(0, 1, 2.0, 3)])
    assert (0, 1, 2.0, 3) in arcs and (1, 0, 2.0, 3) in arcs
