"""Branch and bound solver, model container, and LP text dump."""

import numpy as np
import pytest

from oracles import enumerate_mip, milp_oracle
from platoonplan.errors import ModelInfeasible, ModelInvalid, Unbounded
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
    lp_bound,
    lp_text,
    solve,
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


def test_lp_text_structure():
    m = knapsack()
    text = lp_text(m)
    assert text.splitlines()[1] == "Maximize"
    assert "Subject To" in text
    assert "Binary" in text
    assert text.rstrip().endswith("End")
