"""The columnar builders against their row-by-row originals.

``build_tsf``, ``build_tif`` and ``build_fcnf`` emit whole blocks of columns
and rows; ``tests/oracles.py`` keeps the versions that added one column and
one row at a time.  Both must compile to the same solver arrays and names,
so HiGHS sees the same model.  TSF and TIF keep the terms of every row in
the old order too, so their LP text is the same; FCNF lists the terms of a
flow row by column.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import platoonplan.decomposition as decomposition_module
from instgen import BRANCHING_DRAW, field_fleet, small_instance, time_shortest_paths
from oracles import assert_same_arrays, fcnf_by_rows, tif_by_rows, tsf_by_rows
from platoonplan.decomposition import DecompositionConfig, modify_costs, run
from platoonplan.formulations import FixedRoutes, build_fcnf, build_tif, build_tsf, price_fcnf
from platoonplan.instance import generate_fleet, three_truck_demo
from platoonplan.mip import _compile, lp_text
from platoonplan.network import build_time_space, generate_grid

DRAWS = {"default": {}, "branching": BRANCHING_DRAW}


def same_model(got, want, *, same_text=True):
    assert_same_arrays(_compile(got), _compile(want))
    if same_text:
        assert lp_text(got) == lp_text(want)
    else:
        assert [
            (sorted(zip(idxs, coefs)), sense, rhs) for idxs, coefs, sense, rhs in got.constraints
        ] == [
            (sorted(zip(idxs, coefs)), sense, rhs) for idxs, coefs, sense, rhs in want.constraints
        ]


def assert_builders_match(instance):
    tsn = build_time_space(instance.network, instance)
    same_model(build_tsf(instance, tsn), tsf_by_rows(instance, tsn))
    same_model(build_fcnf(instance), fcnf_by_rows(instance), same_text=False)
    routes = FixedRoutes.build(instance, time_shortest_paths(instance))
    for relax in (False, True):
        same_model(build_tif(instance, routes, None, relax), tif_by_rows(instance, routes, None, relax))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.integers(0, 2**16), st.sampled_from(sorted(DRAWS)))
def test_columnar_builders_match_row_by_row_property(seed, draw):
    instance = small_instance(seed, **DRAWS[draw])
    assume(instance is not None)
    assert_builders_match(instance)


def hub_fleet(n, trucks):
    grid = generate_grid(n, n, seed=1)
    return generate_fleet(grid, trucks, seed=1, od_mode="hub", hubs=[0, n * n - 1])


@pytest.mark.parametrize(
    "rung", [(5, 10), (6, 15), (6, 20), (7, 25), (8, 30)], ids=lambda r: f"{r[0]}x{r[0]}/{r[1]}"
)
def test_tsf_matches_row_by_row_on_the_hub_ladder(rung):
    instance = hub_fleet(*rung)
    tsn = build_time_space(instance.network, instance)
    same_model(build_tsf(instance, tsn), tsf_by_rows(instance, tsn))


def test_demo_models_match_row_by_row():
    assert_builders_match(three_truck_demo())


def test_every_model_of_a_field_run_matches_row_by_row(monkeypatch):
    """Criterion-8 grid 9 in llcmp: every part model, and the routing model
    as repriced in every round."""
    instance = field_fleet(9)
    parts = []
    rounds = []

    def checked_tif(*args):
        parts.append(args)
        model = build_tif(*args)
        same_model(model, tif_by_rows(*args))
        return model

    def checked_modify(*args, **kwargs):
        table = modify_costs(*args, **kwargs)
        model = build_fcnf(instance)
        price_fcnf(instance, model, table)
        same_model(model, fcnf_by_rows(instance, table), same_text=False)
        rounds.append(table)
        return table

    monkeypatch.setattr(decomposition_module, "build_tif", checked_tif)
    monkeypatch.setattr(decomposition_module, "modify_costs", checked_modify)
    _best, log = run(instance, DecompositionConfig(mode="llcmp"))
    same_model(build_fcnf(instance), fcnf_by_rows(instance), same_text=False)
    assert log.termination == "repeat"
    assert len(rounds) == len(log.records) - 1 > 1
    assert parts
