"""The columnar builders against their row-by-row originals.

Every builder emits whole blocks of columns and rows; ``tests/oracles.py``
keeps the versions that added one column and one row at a time.  Both must
compile to the same solver arrays and names, so HiGHS sees the same model.
TSF, TIF and the pair matching keep the terms of every row in the old order
too, so their LP text is the same; FCNF and CPF list the terms of a flow
row by column.
"""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import platoonplan.decomposition as decomposition_module
from instgen import (
    BRANCHING_DRAW,
    HUB_RUNGS,
    cpf_fleets,
    field_fleet,
    hub_fleet,
    small_instance,
    time_shortest_paths,
)
from oracles import (
    assert_same_arrays,
    cpf_by_rows,
    fcnf_by_rows,
    matching_by_rows,
    tif_by_rows,
    tsf_by_rows,
)
from platoonplan.decomposition import DecompositionConfig, modify_costs, run
from platoonplan.formulations import (
    FixedRoutes,
    build_cpf,
    build_fcnf,
    build_matching,
    build_tif,
    build_tsf,
    price_fcnf,
)
from platoonplan.instance import three_truck_demo
from platoonplan.mip import _compile, lp_text
from platoonplan.network import build_time_space

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


@pytest.mark.parametrize("rung", HUB_RUNGS, ids=lambda r: f"{r[0]}x{r[0]}/{r[1]}")
def test_tsf_matches_row_by_row_on_the_hub_ladder(rung):
    instance = hub_fleet(*rung)
    tsn = build_time_space(instance.network, instance)
    same_model(build_tsf(instance, tsn), tsf_by_rows(instance, tsn))


def test_demo_models_match_row_by_row():
    assert_builders_match(three_truck_demo())


def cpf_cases():
    """CPF fleets by id: the demo, the hub ladder, the fleets of
    ``cpf_fleets``, 4x4/6 hub fleets under each size cap, and one truck."""
    cases = {"demo": three_truck_demo}
    for n, trucks in HUB_RUNGS:
        cases[f"hub{n}x{n}/{trucks}"] = lambda n=n, trucks=trucks: hub_fleet(n, trucks)
    for k in range(len(cpf_fleets())):
        cases[f"cpf{k}"] = lambda k=k: cpf_fleets()[k]
    for seed in range(6):
        for q in (None, 2, 3):
            cases[f"4x4/6-seed{seed}-q{q}"] = lambda s=seed, q=q: hub_fleet(4, 6, s, q_limit=q)
    cases["one-truck"] = lambda: hub_fleet(4, 1)
    return cases


@pytest.mark.parametrize("case", sorted(cpf_cases()))
def test_cpf_matches_row_by_row(case):
    instance = cpf_cases()[case]()
    model = build_cpf(instance)
    same_model(model, cpf_by_rows(instance), same_text=False)
    pledges = sum(1 for v in model.variables if v.name[0] == "y")
    if case == "one-truck":
        assert pledges == 0  # every pledge block is empty
    if case in ("demo", "cpf1"):
        assert pledges > 0


def matching_cases():
    """Pair lists by id: 40 random ones, one pair and none."""
    rng = random.Random(7)
    cases = {"none": ([], 0.5, 4), "one": ([(2, 0, 3.5)], 0.5, 4)}
    for k in range(40):
        n = rng.randint(2, 12)
        pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
        pairs = [(u, v, rng.uniform(0.0, 10.0)) for u, v in rng.sample(pool, rng.randint(0, len(pool)))]
        cases[f"random{k}"] = (pairs, rng.choice([0.1, 0.25, 0.5]), n)
    return cases


@pytest.mark.parametrize("case", sorted(matching_cases()))
def test_matching_matches_row_by_row(case):
    args = matching_cases()[case]
    same_model(build_matching(*args), matching_by_rows(*args))


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
