"""The columnar builders against their row-by-row originals.

Every builder emits whole blocks of columns and rows; ``tests/oracles.py``
keeps the versions that name one column and add one row at a time.  Both must
compile to the same solver arrays and names, so HiGHS sees the same model.
TSF, TIF and the pair matching keep the terms of every row in the old order
too, so their LP text is the same; FCNF and CPF list the terms of a flow
row by column.
"""

import hashlib
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
    routes_from_result,
)
from platoonplan.instance import three_truck_demo
from platoonplan.mip import _compile, lp_text, solve
from platoonplan.network import build_time_space
from platoonplan.pairwise import enumerate_pairs

DRAWS = {"default": {}, "branching": BRANCHING_DRAW}


def same_model(got, want, *, same_text=True):
    assert_same_arrays(_compile(got), _compile(want))
    assert [v.name for v in got.variables] == [v.name for v in want.variables]
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


# SHA-256 of lp_text for every builder, as the builders printed it when each
# column was added under its own tuple key.  The row-by-row builders above
# add their columns through the same add_vars, so only these digests catch
# a change in how a column's key and label are derived.  The demo's
# scheduling models run on DEMO_ROUTES, hub 5x5/10's on the routes of its
# base routing optimum; the pair matching takes their candidates at gamma
# 0.5.
LP_TEXT_SHA256 = {
    ("demo", "cpf"): "ada189a72dfc26a9542ff3301026378b1f67158ecb6f3cc58484e9ec5d9a64d2",
    ("demo", "tsf"): "a15ac932af6059a8f32aac4f78cfe07717ecc0a14b1ff142c27cdf8532b52c26",
    ("demo", "fcnf"): "6a779902c1c42e87d8d8f6b3e2493b3e1a69eebca72513eaeb1412c48ae05fe4",
    ("demo", "tif"): "454dd224186cea421069b1036cec68718421f208ab05ad710b1e93fbc6e5b5d1",
    ("demo", "pairing"): "e6c49c687a10b7ca34222cc2315c1e8d9b008cbca107651e145ffd2bad37cd10",
    ("hub5x5/10", "cpf"): "6ec9b10017773eb2f39ae16419602f87f46a15e95f4c60c7e354056eecfc266a",
    ("hub5x5/10", "tsf"): "48189f3667a9d77511016986b3c0014ac1cdf16372f0dac1c3ecf20dadf5df7c",
    ("hub5x5/10", "fcnf"): "ad500f87290344ff08cddb52f24ae1c7e747b05898db76d18cca943f7f828661",
    ("hub5x5/10", "tif"): "62c85a735e7aec149d43fa99f2374538272c6198b04a98efd094c58e6c171a2d",
    ("hub5x5/10", "pairing"): "49be3c760e40466c412096ef8595b6604cc654a3ab6ab70caaf9699826aaf0a0",
}
DEMO_ROUTES = {0: ((0, 1),), 1: ((0, 2),), 2: ((0, 2), (2, 3), (3, 5))}


def pinned_model(case, which):
    if case == "demo":
        instance = three_truck_demo()
        routes = FixedRoutes.build(instance, DEMO_ROUTES)
    else:
        instance = hub_fleet(5, 10)
        routes = routes_from_result(instance, solve(build_fcnf(instance)))
    if which == "cpf":
        return build_cpf(instance)
    if which == "tsf":
        return build_tsf(instance, build_time_space(instance.network, instance))
    if which == "fcnf":
        return build_fcnf(instance)
    if which == "tif":
        return build_tif(instance, routes)
    pairs = [(c.u, c.v, c.savings) for c in enumerate_pairs(instance, routes)]
    return build_matching(pairs, 0.5, len(instance.vehicles))


@pytest.mark.parametrize("case, which", sorted(LP_TEXT_SHA256), ids="/".join)
def test_lp_text_is_pinned(case, which):
    text = lp_text(pinned_model(case, which))
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == LP_TEXT_SHA256[case, which]
