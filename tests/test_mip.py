"""Branch and bound solver, model container, and LP text dump."""

import numpy as np
import pytest

import platoonplan.mip as mip_module
from oracles import enumerate_mip, milp_oracle, model_arrays
from platoonplan.errors import ModelInfeasible, ModelInvalid, Unbounded
from platoonplan.formulations import build_cpf
from platoonplan.instance import generate_fleet, three_truck_demo
from platoonplan.mip import (
    BINARY,
    CONTINUOUS,
    FEASIBLE_TIME_LIMIT,
    INFEASIBLE,
    INTEGER,
    NO_SOLUTION_TIME_LIMIT,
    OPTIMAL,
    MipModel,
    SolveConfig,
    _compile,
    _lp,
    _node_lp,
    lp_bound,
    lp_text,
    solve,
)
from platoonplan.network import generate_grid

needs_highs = pytest.mark.skipif(
    mip_module._highs is None, reason="scipy's HiGHS bindings are not importable"
)


def knapsack() -> MipModel:
    m = MipModel("knapsack")
    for name in ("a", "b", "c"):
        m.add_var(name, BINARY)
    m.add_constr([("a", 2.0), ("b", 3.0), ("c", 1.0)], "<=", 5.0)
    m.set_objective([("a", 5.0), ("b", 4.0), ("c", 3.0)], sense="max")
    return m


def random_model(seed: int) -> MipModel:
    rng = np.random.default_rng(seed)
    m = MipModel(f"rand{seed}")
    n = int(rng.integers(3, 7))
    for i in range(n):
        r = rng.random()
        if r < 0.5:
            m.add_var(f"v{i}", BINARY)
        elif r < 0.8:
            m.add_var(f"v{i}", INTEGER, 0.0, float(rng.integers(1, 5)))
        else:
            m.add_var(f"v{i}", CONTINUOUS, 0.0, float(rng.integers(2, 6)))
    for _ in range(int(rng.integers(2, 6))):
        size = int(rng.integers(1, n + 1))
        idxs = rng.choice(n, size=size, replace=False)
        coefs = rng.integers(-4, 5, size=size)
        terms = [(int(i), float(c)) for i, c in zip(idxs, coefs) if c != 0]
        if not terms:
            continue
        sense = ("<=", ">=", "=")[int(rng.integers(0, 3))]
        m.add_constr(terms, sense, float(rng.integers(-3, 8)))
    obj = [(i, float(c)) for i, c in enumerate(rng.integers(-5, 6, size=n))]
    m.set_objective(
        obj,
        sense="max" if rng.random() < 0.5 else "min",
        constant=float(rng.integers(-3, 4)),
    )
    return m


def test_knapsack_matches_enumeration():
    m = knapsack()
    found, want = enumerate_mip(m)
    assert found and want == 9.0
    res = solve(m)
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(9.0, abs=1e-9)
    assert res.bound == pytest.approx(9.0, abs=1e-9)
    assert res.values["a"] == pytest.approx(1.0)
    assert res.values["b"] == pytest.approx(1.0)
    assert res.values["c"] == pytest.approx(0.0)


@pytest.mark.parametrize("seed", range(30))
def test_random_models_match_external_solver(seed):
    m = random_model(seed)
    found, want = milp_oracle(m)
    res = solve(m, SolveConfig(gap_tol=1e-9))
    if not found:
        assert res.status == INFEASIBLE
        assert res.objective is None
    else:
        assert res.status == OPTIMAL
        assert res.objective == pytest.approx(want, abs=1e-6)
        flip = -1.0 if m.sense == "max" else 1.0
        assert flip * res.bound <= flip * res.objective + 1e-9


def test_solver_is_deterministic():
    m1, m2 = random_model(4), random_model(4)
    r1, r2 = solve(m1), solve(m2)
    assert r1.node_count == r2.node_count
    assert r1.objective == r2.objective
    assert r1.values == r2.values


def test_infeasible_model():
    m = MipModel()
    m.add_var("x", BINARY)
    m.add_constr([("x", 1.0)], ">=", 2.0)
    m.set_objective([("x", 1.0)])
    res = solve(m)
    assert res.status == INFEASIBLE
    assert res.objective is None and res.values == {}


def test_unbounded_model_raises():
    m = MipModel()
    m.add_var("x", CONTINUOUS)
    m.set_objective([("x", 1.0)], sense="max")
    with pytest.raises(Unbounded):
        solve(m)
    with pytest.raises(Unbounded):
        lp_bound(m)


def test_lp_bound_relaxes():
    m = knapsack()
    assert lp_bound(m) == pytest.approx(32.0 / 3.0, abs=1e-6)
    m2 = MipModel()
    m2.add_var("x", BINARY)
    m2.add_constr([("x", 1.0)], ">=", 2.0)
    m2.set_objective([("x", 1.0)])
    with pytest.raises(ModelInfeasible):
        lp_bound(m2)


def test_constraint_terms_merge():
    m = MipModel()
    m.add_var("x", CONTINUOUS, 0.0, 10.0)
    row = m.add_constr([("x", 1.0), ("x", 2.0)], "<=", 6.0)
    idxs, coefs, sense, rhs, _ = m.constraints[row]
    assert idxs == (0,) and coefs == (3.0,)
    m.set_objective([("x", 1.0), ("x", 1.0)], sense="max")
    res = solve(m)
    assert res.objective == pytest.approx(4.0)  # 2x at x = 2


def test_model_validation_errors():
    m = MipModel()
    m.add_var("x", BINARY)
    with pytest.raises(ModelInvalid):
        m.add_var("x", BINARY)
    with pytest.raises(ModelInvalid):
        m.add_var("y", "semicontinuous")
    with pytest.raises(ModelInvalid):
        m.add_var("z", CONTINUOUS, 2.0, 1.0)
    with pytest.raises(ModelInvalid):
        m.add_constr([("ghost", 1.0)], "<=", 1.0)
    with pytest.raises(ModelInvalid):
        m.add_constr([("x", 1.0)], "<", 1.0)
    with pytest.raises(ModelInvalid):
        m.set_objective([("x", 1.0)], sense="maximize")


def test_warm_start_becomes_incumbent():
    m = knapsack()
    res = solve(m, SolveConfig(time_limit=0.0, warm_start={"a": 1.0, "b": 1.0}))
    assert res.status == FEASIBLE_TIME_LIMIT
    assert res.objective == pytest.approx(9.0)  # warm point happens to be best
    res = solve(m, SolveConfig(time_limit=0.0, warm_start={"a": 1.0, "c": 1.0}))
    assert res.objective == pytest.approx(8.0)


def test_invalid_warm_start_is_dropped():
    m = knapsack()
    # violates the capacity row, so it must not become an incumbent
    res = solve(m, SolveConfig(time_limit=0.0, warm_start={"a": 1.0, "b": 1.0, "c": 1.0}))
    assert res.status == NO_SOLUTION_TIME_LIMIT
    assert res.objective is None


def test_zero_time_limit_without_warm():
    # nothing was solved, so nothing is proven: no incumbent and no bound
    res = solve(knapsack(), SolveConfig(time_limit=0.0))
    assert res.status == NO_SOLUTION_TIME_LIMIT
    assert res.objective is None and res.bound is None


def test_loose_gap_stops_early_but_stays_feasible():
    m = knapsack()
    res = solve(m, SolveConfig(gap_tol=0.5))
    assert res.status == OPTIMAL
    assert res.objective is not None
    assert res.objective <= res.bound + 1e-9


def test_empty_model_solves_to_constant():
    m = MipModel()
    m.set_objective([], constant=7.5)
    res = solve(m)
    assert res.status == OPTIMAL
    assert res.objective == 7.5


def test_solve_sees_changes_made_after_a_solve():
    """The compiled matrix is reused only until the model changes."""
    m = knapsack()
    res = solve(m)
    assert res.objective == pytest.approx(9.0) and res.values["b"] == 1.0
    # a new row that cuts off the old optimum
    m.add_constr([("b", 1.0)], "<=", 0.0)
    res = solve(m)
    assert res.objective == pytest.approx(8.0)
    assert res.values["b"] == 0.0
    # a new variable
    m.add_var("d", BINARY)
    res = solve(m)
    assert set(res.values) == {"a", "b", "c", "d"}
    assert res.objective == pytest.approx(8.0)
    # a new objective, including the new variable
    m.set_objective([("a", 5.0), ("b", 4.0), ("c", 3.0), ("d", 10.0)], sense="max")
    res = solve(m)
    assert res.objective == pytest.approx(18.0)
    assert res.values["d"] == 1.0
    m.set_objective([("a", 1.0), ("d", -1.0)], sense="min", constant=2.0)
    res = solve(m)
    assert res.objective == pytest.approx(1.0)
    assert lp_bound(m) == pytest.approx(1.0)


@pytest.mark.parametrize("seed", range(30))
def test_compile_matches_oracle_matrix(seed):
    m = random_model(seed)
    c, lower, upper, integrality, a, lo, hi = model_arrays(m)
    comp = _compile(m)
    senses = [con[2] for con in m.constraints]
    dense = a.toarray()
    ub = [r for r, s in enumerate(senses) if s != "="]
    eq = [r for r, s in enumerate(senses) if s == "="]
    sign = np.array([1.0 if senses[r] == "<=" else -1.0 for r in ub])
    rhs = np.where(np.isfinite(hi), hi, lo)
    if ub:
        assert np.array_equal(comp.a_ub.toarray(), sign[:, None] * dense[ub])
        assert np.array_equal(comp.b_ub, sign * rhs[ub])
    else:
        assert comp.a_ub is None and comp.b_ub is None
    if eq:
        assert np.array_equal(comp.a_eq.toarray(), dense[eq])
        assert np.array_equal(comp.b_eq, rhs[eq])
    else:
        assert comp.a_eq is None and comp.b_eq is None
    assert np.array_equal(comp.c, c)
    assert np.array_equal(comp.lower, lower)
    assert np.array_equal(comp.upper, upper)
    assert np.array_equal(comp.int_mask, integrality == 1)
    assert comp.const == m.objective_constant
    assert comp.flip == (m.sense == "max")


def test_lp_text_structure():
    m = knapsack()
    text = lp_text(m)
    assert text.splitlines()[1] == "Maximize"
    assert "Subject To" in text
    assert "Binary" in text
    assert text.rstrip().endswith("End")


# -- the two LP paths: hot-started HiGHS and the cold linprog fallback -------


@pytest.fixture(params=["hot", "fallback"])
def lp_path(request, monkeypatch):
    if request.param == "fallback":
        monkeypatch.setattr(mip_module, "_highs", None)
    return request.param


def hub_fleet(n, trucks, seed):
    grid = generate_grid(n, n, seed=seed)
    return generate_fleet(grid, trucks, seed=seed, od_mode="hub", hubs=[0, n * n - 1])


def cpf_fleets():
    """The demo and three hub fleets whose CPF models branch (3 to 15 nodes)."""
    return [three_truck_demo(), hub_fleet(5, 10, 1), hub_fleet(5, 8, 1), hub_fleet(4, 6, 3)]


def infeasible_after_branching() -> MipModel:
    """2x = 3 with x integer: the root LP is feasible, both children are not."""
    m = MipModel("odd")
    m.add_var("x", INTEGER, 0.0, 3.0)
    m.add_constr([("x", 2.0)], "=", 3.0)
    m.set_objective([("x", 1.0)])
    return m


@pytest.mark.parametrize(
    "which", [f"rand{seed}" for seed in range(30)] + ["knapsack"] + [f"cpf{k}" for k in range(4)]
)
def test_hot_start_and_fallback_prove_the_same_optimum(which, monkeypatch):
    if which == "knapsack":
        model = knapsack()
    elif which.startswith("cpf"):
        model = build_cpf(cpf_fleets()[int(which[3:])])
    else:
        model = random_model(int(which[4:]))
    found, want = milp_oracle(model)
    gap_tol = 1e-9
    hot = solve(model, SolveConfig(gap_tol=gap_tol))
    monkeypatch.setattr(mip_module, "_highs", None)
    cold = solve(model, SolveConfig(gap_tol=gap_tol))
    assert hot.status == cold.status == (OPTIMAL if found else INFEASIBLE)
    if not found:
        assert hot.objective is None and cold.objective is None
        return
    tol = gap_tol * max(1.0, abs(want))
    assert hot.objective == pytest.approx(cold.objective, abs=tol)
    assert hot.bound == pytest.approx(cold.bound, abs=tol)
    for res in (hot, cold):
        assert res.objective == pytest.approx(want, abs=1e-6)
        assert res.bound == pytest.approx(want, abs=1e-6)


@needs_highs
@pytest.mark.parametrize("which", [f"rand{seed}" for seed in range(30)] + ["knapsack", "cpf"])
def test_direct_root_lp_is_linprogs(which):
    """A cold solve on the HiGHS object returns linprog's vertex, bit for bit."""
    if which == "knapsack":
        model = knapsack()
    elif which == "cpf":
        model = build_cpf(three_truck_demo())
    else:
        model = random_model(int(which[4:]))
    comp = _compile(model)
    want_status, want_x, want_fun = _lp(comp, comp.lower, comp.upper)
    status, x, fun = mip_module._HotLp(comp)(comp.lower, comp.upper)
    assert status == want_status
    if want_status == 0:
        assert np.array_equal(x, want_x)
        assert fun == want_fun


@pytest.mark.parametrize("seed", range(10))
def test_node_lp_follows_every_bound_change(seed, lp_path):
    """One node LP object, re-solved under a walk of bound sets, agrees with
    a cold solve of each set: bounds changed earlier and later reset are
    restored."""
    model = random_model(seed)
    comp = _compile(model)
    rng = np.random.default_rng(seed)
    node_lp = _node_lp(comp)
    for _ in range(12):
        lower, upper = comp.lower.copy(), comp.upper.copy()
        for j in rng.choice(len(lower), size=int(rng.integers(0, 3)), replace=False):
            cut = float(rng.integers(0, 3))
            if rng.random() < 0.5:
                upper[j] = min(upper[j], cut)
            else:
                lower[j] = max(lower[j], cut)
        if np.any(lower > upper):
            continue
        status, x, fun = node_lp(lower, upper)
        want_status, _x, want_fun = _lp(comp, lower, upper)
        assert status == want_status
        if status == 0:
            assert fun == pytest.approx(want_fun, abs=1e-9)
            assert np.all(x >= lower - 1e-9) and np.all(x <= upper + 1e-9)


@needs_highs
def test_one_highs_lp_per_solve(monkeypatch):
    built = []

    class Counted(mip_module._HotLp):
        def __init__(self, comp):
            built.append(comp)
            super().__init__(comp)

    monkeypatch.setattr(mip_module, "_HotLp", Counted)
    res = solve(build_cpf(cpf_fleets()[1]))
    assert res.node_count > 1
    assert len(built) == 1
    solve(knapsack(), SolveConfig(time_limit=0.0))
    assert len(built) == 1  # nothing solved, nothing built


def test_infeasible_node_model_and_unbounded_lp(lp_path):
    res = solve(infeasible_after_branching())
    assert res.status == INFEASIBLE and res.objective is None
    assert res.node_count == 3  # the root and its two infeasible children
    comp = _compile(infeasible_after_branching())
    status, x, fun = _node_lp(comp)(comp.lower, np.array([1.0]))
    assert status == 2 and x is None and fun is None

    m = MipModel()
    m.add_var("x", BINARY)
    m.add_constr([("x", 1.0)], ">=", 2.0)
    m.set_objective([("x", 1.0)])
    res = solve(m)
    assert res.status == INFEASIBLE and res.node_count == 1
    with pytest.raises(ModelInfeasible):
        lp_bound(m)

    m = MipModel()
    m.add_var("x", CONTINUOUS)
    m.add_var("k", INTEGER, 0.0, 5.0)
    m.add_constr([("x", 1.0), ("k", -1.0)], ">=", 0.5)
    m.set_objective([("x", 1.0), ("k", 1.0)], sense="max")
    with pytest.raises(Unbounded):
        solve(m)
    with pytest.raises(Unbounded):
        lp_bound(m)


@pytest.mark.parametrize("which", [f"rand{seed}" for seed in range(30)] + ["knapsack"])
def test_lp_bound_is_linprogs_value(which, lp_path):
    model = knapsack() if which == "knapsack" else random_model(int(which[4:]))
    comp = _compile(model)
    status, _x, fun = _lp(comp, comp.lower, comp.upper)
    if status != 0:
        with pytest.raises((ModelInfeasible, Unbounded)):
            lp_bound(model)
        return
    want = (-fun if comp.flip else fun) + comp.const
    assert lp_bound(model) == want
