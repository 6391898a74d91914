"""Branch and bound solver, model container, and LP text dump."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

import platoonplan.mip as mip_module
from instgen import cpf_fleets, hub_fleet
from oracles import (
    _feasible_point,
    _lp,
    assert_same_arrays,
    cpf_by_rows,
    enumerate_mip,
    milp_oracle,
    model_arrays,
    one_col,
    one_row,
    scipy_csc,
)
from platoonplan.errors import (
    InvalidSolution,
    ModelInfeasible,
    ModelInvalid,
    Unbounded,
    ValidationError,
)
from platoonplan.evaluate import check, decode, shortest_path_cost, total_cost
from platoonplan.formulations import build_cpf
from platoonplan.instance import three_truck_demo
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
    lp_bound,
    lp_text,
    solve,
)


def knapsack() -> MipModel:
    m = MipModel("knapsack")
    m.add_vars("k", [[0], [1], [2]], BINARY)
    m.add_rows([0, 0, 0], [0, 1, 2], [2.0, 3.0, 1.0], "<=", [5.0])
    m.set_objective([0, 1, 2], [5.0, 4.0, 3.0], sense="max")
    return m


def random_model(seed: int) -> MipModel:
    """A small random MIP, built one column and one row at a time."""
    rng = np.random.default_rng(seed)
    m = MipModel(f"rand{seed}")
    n = int(rng.integers(3, 7))
    for i in range(n):
        r = rng.random()
        if r < 0.5:
            one_col(m, ("v", i), BINARY)
        elif r < 0.8:
            one_col(m, ("v", i), INTEGER, 0.0, float(rng.integers(1, 5)))
        else:
            one_col(m, ("v", i), CONTINUOUS, 0.0, float(rng.integers(2, 6)))
    for _ in range(int(rng.integers(2, 6))):
        size = int(rng.integers(1, n + 1))
        idxs = rng.choice(n, size=size, replace=False)
        coefs = rng.integers(-4, 5, size=size)
        terms = [(int(i), float(c)) for i, c in zip(idxs, coefs) if c != 0]
        if not terms:
            continue
        sense = ("<=", ">=", "=")[int(rng.integers(0, 3))]
        one_row(m, terms, sense, float(rng.integers(-3, 8)))
    m.set_objective(
        np.arange(n),
        rng.integers(-5, 6, size=n).astype(float),
        sense="max" if rng.random() < 0.5 else "min",
        constant=float(rng.integers(-3, 4)),
    )
    return m


def binary_at_least_two() -> MipModel:
    """min x with x binary and x >= 2: infeasible, already as an LP."""
    m = MipModel()
    m.add_vars("x", [[0]], BINARY)
    m.add_rows([0], [0], [1.0], ">=", [2.0])
    m.set_objective([0], [1.0])
    return m


def test_knapsack_matches_enumeration():
    m = knapsack()
    found, want = enumerate_mip(m)
    assert found and want == 9.0
    res = solve(m)
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(9.0, abs=1e-9)
    assert res.bound == pytest.approx(9.0, abs=1e-9)
    assert res.bound == res.objective  # the search closed every node
    assert res.x.tolist() == [1.0, 1.0, 0.0]


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
    assert r1.x.tobytes() == r2.x.tobytes()


def test_infeasible_model():
    res = solve(binary_at_least_two())
    assert res.status == INFEASIBLE
    assert res.objective is None and res.bound is None and res.x is None


def test_unbounded_model_raises():
    m = MipModel()
    m.add_vars("x", [[0]], CONTINUOUS)
    m.set_objective([0], [1.0], sense="max")
    with pytest.raises(Unbounded):
        solve(m)
    with pytest.raises(Unbounded):
        lp_bound(m)


def test_lp_bound_relaxes():
    m = knapsack()
    assert lp_bound(m) == pytest.approx(32.0 / 3.0, abs=1e-6)
    with pytest.raises(ModelInfeasible):
        lp_bound(binary_at_least_two())


def test_constraint_terms_merge():
    """A row keeps a column's repeated terms, and the compile sums them;
    the objective sums a column's costs."""
    m = MipModel()
    m.add_vars("x", [[0]], CONTINUOUS, 0.0, 10.0)
    row = m.add_rows([0, 0], [0, 0], [1.0, 2.0], "<=", [6.0])
    assert m.constraints[row] == ((0, 0), (1.0, 2.0), "<=", 6.0)
    assert scipy_csc(_compile(m).a).toarray().tolist() == [[3.0]]
    m.set_objective([0, 0], [1.0, 1.0], sense="max")
    assert m.objective == {0: 2.0}
    res = solve(m)
    assert res.objective == pytest.approx(4.0)  # 2x at x = 2


def test_model_validation_errors():
    m = MipModel()
    m.add_vars("x", [[0]], BINARY)
    with pytest.raises(ModelInvalid):
        m.add_vars("x", [[0]], BINARY)
    with pytest.raises(ModelInvalid):
        m.add_vars("y", [[0]], "semicontinuous")
    with pytest.raises(ModelInvalid):
        m.add_vars("z", [[0]], CONTINUOUS, 2.0, 1.0)
    with pytest.raises(ModelInvalid):
        m.add_rows([0], [1], [1.0], "<=", [1.0])
    with pytest.raises(ModelInvalid):
        m.add_rows([0], [0], [1.0], "<", [1.0])
    with pytest.raises(ModelInvalid):
        m.set_objective([0], [1.0], sense="maximize")


def test_only_integers_index_columns():
    """A column is an integer index: a float, a name or an index out of
    range is refused, never truncated or looked up."""
    m = knapsack()
    with pytest.raises(ModelInvalid, match="integers"):
        m.add_rows([0], [1.7], [1.0], "<=", [1.0])
    with pytest.raises(ModelInvalid, match="integers"):
        m.add_rows([0], ["a"], [1.0], "<=", [1.0])
    with pytest.raises(ModelInvalid, match="integers"):
        m.set_objective(["a"], [1.0])
    with pytest.raises(ModelInvalid, match="out of range"):
        m.add_rows([0], [np.int64(3)], [1.0], "<=", [1.0])
    assert m.num_constrs == 1
    row = m.add_rows([0, 0], np.array([1, 2], dtype=np.int32), [1.0, 1.0], "<=", [1.0])
    assert m.constraints[row][0] == (1, 2)
    # tagged ids, as the builders add them, their keys and LP-text labels
    (x,) = m.add_vars("x", [[0, 12, 3]], BINARY)
    (y,) = m.add_vars("y", np.array([[-2, 5]], dtype=np.int32), CONTINUOUS, 0.0, 1.0)
    assert (x, y) == (3, 4)
    names = [v.name for v in m.variables]
    assert names[3:] == [("x", 0, 12, 3), ("y", -2, 5)]
    assert all(type(i) is int for name in names for i in name[1:])
    text = lp_text(m)
    assert text.splitlines()[-2].split() == ["k_0", "k_1", "k_2", "x_0_12_3"]
    assert " 0 <= y_-2_5 <= 1" in text.splitlines()


def test_zero_time_limit_without_warm():
    # nothing was solved, so nothing is proven: no incumbent and no bound
    res = solve(knapsack(), SolveConfig(time_limit=0.0))
    assert res.status == NO_SOLUTION_TIME_LIMIT
    assert res.objective is None and res.bound is None


@pytest.mark.parametrize(
    "field, value",
    [
        ("time_limit", math.nan),
        ("time_limit", -1.0),
        ("gap_tol", -1e-9),
        ("gap_tol", math.nan),
        ("gap_tol", math.inf),
    ],
)
def test_solve_rejects_bad_settings(field, value, monkeypatch):
    """A NaN time limit once never expired and a NaN gap never closed."""
    monkeypatch.setattr(mip_module, "_compile", lambda model: pytest.fail("compiled"))
    with pytest.raises(ValidationError, match=field):
        solve(knapsack(), SolveConfig(**{field: value}))


def test_loose_gap_stops_early_but_stays_feasible():
    m = knapsack()
    res = solve(m, SolveConfig(gap_tol=0.5))
    assert res.status == OPTIMAL
    assert res.objective is not None
    assert res.objective <= res.bound + 1e-9


def test_empty_model_solves_to_constant():
    m = MipModel()
    m.set_objective([], [], constant=7.5)
    res = solve(m)
    assert res.status == OPTIMAL
    assert res.objective == 7.5


@pytest.mark.parametrize("sense, rhs", [(">=", 1.0), ("<=", -1.0), ("=", 0.5)])
def test_a_model_without_columns_keeps_its_rows(sense, rhs):
    """Every row of a model without columns reads 0; a row whose bounds
    exclude 0 makes the model infeasible, as it does with a column."""
    m = MipModel()
    m.add_rows([], [], [], sense, [rhs])
    m.set_objective([], [], constant=7.5)
    res = solve(m)
    assert res.status == INFEASIBLE and res.node_count == 0
    assert res.objective is None and res.bound is None and res.x is None
    with pytest.raises(ModelInfeasible):
        lp_bound(m)
    # the same row over a column that is fixed at 0
    m.add_vars("x", [[0]], CONTINUOUS, 0.0, 0.0)
    assert solve(m).status == INFEASIBLE
    with pytest.raises(ModelInfeasible):
        lp_bound(m)


def test_rows_that_admit_0_leave_a_model_without_columns_feasible():
    m = MipModel()
    m.add_rows([], [], [], ["<=", ">=", "="], [0.0, 0.0, 0.0])
    m.add_rows([], [], [], ["<=", ">="], [1.0, -1.0])
    m.set_objective([], [], sense="max", constant=-2.0)
    res = solve(m)
    assert (res.status, res.objective, res.bound) == (OPTIMAL, -2.0, -2.0)
    assert lp_bound(m) == -2.0


def test_solve_sees_changes_made_after_a_solve():
    """The compiled matrix is reused only until the model changes."""
    m = knapsack()
    res = solve(m)
    assert res.objective == pytest.approx(9.0) and res.x[1] == 1.0
    # a new row that cuts off the old optimum
    m.add_rows([0], [1], [1.0], "<=", [0.0])
    res = solve(m)
    assert res.objective == pytest.approx(8.0)
    assert res.x[1] == 0.0
    # a new variable, in a second block of the same tag
    (d,) = m.add_vars("k", [[3]], BINARY)
    res = solve(m)
    ids, values = res.take("k")
    assert ids.ravel().tolist() == [0, 1, 2, 3] and values.tolist() == res.x.tolist()
    assert res.objective == pytest.approx(8.0)
    # a new objective, including the new variable
    m.set_objective([0, 1, 2, d], [5.0, 4.0, 3.0, 10.0], sense="max")
    res = solve(m)
    assert res.objective == pytest.approx(18.0)
    assert res.x[d] == 1.0
    m.set_objective([0, d], [1.0, -1.0], sense="min", constant=2.0)
    res = solve(m)
    assert res.objective == pytest.approx(1.0)
    assert lp_bound(m) == pytest.approx(1.0)


@pytest.mark.parametrize("seed", range(30))
def test_compile_matches_oracle_matrix(seed):
    m = random_model(seed)
    c, lower, upper, integrality, a, lo, hi = model_arrays(m)
    comp = _compile(m)
    senses = [con[2] for con in m.constraints]
    # the inequalities in model order, ">=" rows negated, then the equalities
    order = [r for r, s in enumerate(senses) if s != "="] + [
        r for r, s in enumerate(senses) if s == "="
    ]
    sign = np.array([-1.0 if senses[r] == ">=" else 1.0 for r in order])
    is_eq = np.array([senses[r] == "=" for r in order], dtype=bool)
    rhs = np.where(np.isfinite(hi), hi, lo)
    assert comp.a.shape == (len(senses), m.num_vars)
    assert np.array_equal(scipy_csc(comp.a).toarray(), sign[:, None] * a.toarray()[order])
    assert np.array_equal(comp.row_upper, sign * rhs[order])
    assert np.array_equal(comp.row_lower, np.where(is_eq, comp.row_upper, -np.inf))
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


# -- bulk construction ----------------------------------------------------------


def bulk_copy(model: MipModel) -> MipModel:
    """``model`` rebuilt in blocks: one add_vars block per run of columns
    of one kind, one add_rows block whose entries come last row first, and
    one set_objective over the nonzero costs."""
    copy = MipModel(model.name)
    variables = model.variables
    start = 0
    for k, var in enumerate(variables + [None]):
        first = variables[start]
        if var is None or (var.kind, var.name[0]) != (first.kind, first.name[0]):
            run = variables[start:k]
            copy.add_vars(
                first.name[0],
                [v.name[1:] for v in run],
                run[0].kind,
                [v.lower for v in run],
                [v.upper for v in run],
            )
            start = k
    rows, cols, coefs = [], [], []
    for r, (idxs, vals, _sense, _rhs) in reversed(list(enumerate(model.constraints))):
        rows += [r] * len(idxs)
        cols += idxs
        coefs += vals
    copy.add_rows(
        np.array(rows, dtype=np.int64),
        np.array(cols, dtype=np.int64),
        coefs,
        [con[2] for con in model.constraints],
        [con[3] for con in model.constraints],
    )
    copy.set_objective(
        np.array(list(model.objective), dtype=np.int64),
        list(model.objective.values()),
        sense=model.sense,
        constant=model.objective_constant,
    )
    return copy


@pytest.mark.parametrize(
    "which", [f"rand{seed}" for seed in range(30)] + ["knapsack"] + [f"cpf{k}" for k in range(4)]
)
def test_bulk_and_one_item_construction_compile_alike(which):
    """A model built one column and one row at a time and its copy built
    in a few blocks, with the entries in another order, compile alike."""
    if which == "knapsack":
        model = knapsack()
    elif which.startswith("cpf"):
        model = cpf_by_rows(cpf_fleets()[int(which[3:])])
    else:
        model = random_model(int(which[4:]))
    copy = bulk_copy(model)
    assert_same_arrays(_compile(copy), _compile(model))
    assert lp_text(copy) == lp_text(model)


def test_rows_keep_their_terms_in_order():
    m = MipModel()
    assert list(m.add_vars("a", [[0], [1], [2]], INTEGER, 0.0, [1.0, 2.0, 3.0])) == [0, 1, 2]
    first = m.add_rows([1, 0, 1, 0], [2, 1, 0, 2], [1.0, 2.0, 3.0, 4.0], [">=", "="], [1.0, 2.0])
    assert first == 0 and m.num_constrs == 2
    assert m.constraints == [((1, 2), (2.0, 4.0), ">=", 1.0), ((2, 0), (1.0, 3.0), "=", 2.0)]
    assert m.add_rows([0, 0, 0], [1, 0, 1], [1.0, 1.0, 1.0], "<=", [4.0]) == 2
    assert m.constraints[2] == ((1, 0, 1), (1.0, 1.0, 1.0), "<=", 4.0)
    assert [(v.name, v.kind, v.upper) for v in m.variables] == [
        (("a", 0), INTEGER, 1.0), (("a", 1), INTEGER, 2.0), (("a", 2), INTEGER, 3.0)
    ]


def test_bulk_additions_after_a_solve_are_seen():
    m = knapsack()
    assert solve(m).objective == pytest.approx(9.0)
    (d,) = m.add_vars("d", [[0]], BINARY)
    m.add_rows([0, 0], [d, 0], [1.0, 1.0], "<=", [1.0])
    m.set_objective([0, 1, 2, d], [5.0, 4.0, 3.0, 10.0], sense="max")
    res = solve(m)
    assert res.objective == pytest.approx(17.0)
    assert res.x[d] == 1.0 and res.x[0] == 0.0


def test_bad_blocks_raise_and_add_nothing():
    m = knapsack()
    before = lp_text(m)
    cases = {
        "row twice in the block": lambda: m.add_vars("d", [[0], [0]], BINARY),
        "row already under the tag": lambda: m.add_vars("k", [[3], [0]], BINARY),
        "tag with another arity": lambda: m.add_vars("k", [[3, 0]], BINARY),
        "float ids": lambda: m.add_vars("d", [[0.0]], BINARY),
        "string ids": lambda: m.add_vars("d", [["a"]], BINARY),
        "one-dimensional ids": lambda: m.add_vars("d", [0, 1], BINARY),
        "unknown kind": lambda: m.add_vars("d", [[0]], "semicontinuous"),
        "short lower": lambda: m.add_vars("d", [[0], [1]], INTEGER, [0.0], 1.0),
        "long upper": lambda: m.add_vars("d", [[0], [1]], INTEGER, 0.0, [1.0, 2.0, 3.0]),
        "empty bounds": lambda: m.add_vars("d", [[0], [1]], INTEGER, [0.0, 2.0], [1.0, 1.0]),
        "nan bound": lambda: m.add_vars("d", [[0]], CONTINUOUS, np.nan, 1.0),
        "short coefs": lambda: m.add_rows([0, 0], [0, 1], [1.0], "<=", [1.0]),
        "row past the block": lambda: m.add_rows([0, 1], [0, 1], [1.0, 1.0], "<=", [1.0]),
        "column out of range": lambda: m.add_rows([0], [3], [1.0], "<=", [1.0]),
        "float column": lambda: m.add_rows([0], [0.0], [1.0], "<=", [1.0]),
        "unknown sense": lambda: m.add_rows([0, 1], [0, 1], [1.0, 1.0], ["<=", "<"], [1.0, 1.0]),
        "short senses": lambda: m.add_rows([0, 1], [0, 1], [1.0, 1.0], ["<="], [1.0, 1.0]),
        "short costs": lambda: m.set_objective([0, 1], [1.0]),
        "cost column out of range": lambda: m.set_objective([0, 5], [1.0, 1.0]),
    }
    for case, add in cases.items():
        with pytest.raises(ModelInvalid):
            add()
            pytest.fail(case)
    assert lp_text(m) == before
    assert (m.num_vars, m.num_constrs) == (3, 1)


def test_a_key_names_one_column_of_its_tag():
    """A repeated row of ids is refused in one block and across blocks of
    a tag, also when other tags' blocks lie between; other tags may reuse
    the ids.  ``columns`` finds a tag's columns in every block."""
    m = MipModel()
    m.add_vars("t", [[0, 1]])
    m.add_vars("x", [[0, 1]], BINARY)
    m.add_vars("t", [[1, 1]])
    with pytest.raises(ModelInvalid, match=r"duplicate variable \('t', 0, 1\)"):
        m.add_vars("t", [[2, 1], [0, 1]])
    with pytest.raises(ModelInvalid, match="2 ids per column"):
        m.add_vars("t", np.zeros((0, 3), dtype=np.int64))
    assert [v.name for v in m.variables] == [("t", 0, 1), ("x", 0, 1), ("t", 1, 1)]
    cols, ids = m.columns("t")
    assert cols.tolist() == [0, 2] and ids.tolist() == [[0, 1], [1, 1]]
    # an empty block fixes nothing new, but its tag is known
    assert m.add_vars("w", np.zeros((0, 2), dtype=np.int64)).tolist() == []
    assert m.columns("w")[1].shape == (0, 2)
    with pytest.raises(ModelInvalid, match="no columns are tagged 'y'"):
        m.columns("y")


def test_take_reads_the_incumbent_by_tag():
    m = MipModel()
    m.add_vars("t", [[0, 1], [1, 1]], CONTINUOUS, 0.0, [2.0, 3.0])
    m.add_vars("x", [[4]], BINARY)
    m.add_vars("t", [[2, 1]], CONTINUOUS, 0.0, 5.0)
    m.set_objective([0, 1, 2, 3], [1.0, 1.0, 1.0, 1.0], sense="max")
    res = solve(m)
    assert res.x.tolist() == [2.0, 3.0, 1.0, 5.0]
    ids, values = res.take("t")
    assert ids.tolist() == [[0, 1], [1, 1], [2, 1]] and values.tolist() == [2.0, 3.0, 5.0]
    # the result keeps the blocks it was solved with
    m.add_vars("t", [[3, 1]])
    assert res.take("t")[0].tolist() == [[0, 1], [1, 1], [2, 1]]
    with pytest.raises(ModelInvalid):
        res.take("y")
    none = solve(m, SolveConfig(time_limit=0.0))
    with pytest.raises(InvalidSolution, match="no incumbent"):
        none.take("t")


# -- hot-started HiGHS against cold linprog node LPs ----------------------------


class ColdLp:
    """Node LPs as cold ``linprog`` solves of the reference ``_lp``.

    The package once fell back to these when scipy's HiGHS bindings did not
    import; the tests keep them as an LP path independent of the hot start.
    A search's deadline is checked between these LPs only.
    """

    def __init__(self, comp, deadline=None):
        self.comp = comp

    def __call__(self, lower, upper):
        return _lp(self.comp, lower, upper)


@pytest.fixture(params=["hot", "fallback"])
def lp_path(request, monkeypatch):
    """``fallback`` runs every search of the test on :class:`ColdLp`."""
    if request.param == "fallback":
        monkeypatch.setattr(mip_module, "_HotLp", ColdLp)
    return request.param


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_model_data_is_refused_where_it_is_added(bad, lp_path):
    """A NaN coefficient once solved to a wrong "optimal" or "infeasible",
    and an infinite one failed inside HiGHS.  Now every coefficient, cost,
    constant and right-hand side must be finite when it is added; the
    refused item leaves the model as it was."""
    m = MipModel()
    m.add_vars("a", [[0]], CONTINUOUS, 0.0, 5.0)
    m.set_objective([0], [1.0], sense="max")
    for add in (
        lambda: m.add_rows([0], [0], [bad], "<=", [1.0]),
        lambda: m.add_rows([0], [0], [1.0], "<=", [bad]),
        lambda: m.add_rows([0, 1], [0, 0], [1.0, 1.0], "<=", [1.0, bad]),
        lambda: m.set_objective([0], [bad], sense="max"),
        lambda: m.set_objective([0], [1.0], sense="max", constant=bad),
    ):
        with pytest.raises(ModelInvalid, match="finite"):
            add()
    assert m.num_constrs == 0
    res = solve(m)
    assert res.status == OPTIMAL and res.objective == 5.0
    assert lp_bound(m) == 5.0


def infeasible_after_branching() -> MipModel:
    """2x = 3 with x integer: the root LP is feasible, both children are not."""
    m = MipModel("odd")
    m.add_vars("x", [[0]], INTEGER, 0.0, 3.0)
    m.add_rows([0], [0], [2.0], "=", [3.0])
    m.set_objective([0], [1.0])
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
    monkeypatch.setattr(mip_module, "_HotLp", ColdLp)
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
    node_lp = mip_module._HotLp(comp)
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


def test_one_highs_lp_per_solve(monkeypatch):
    built = []

    class Counted(mip_module._HotLp):
        def __init__(self, comp, deadline=None):
            built.append(comp)
            super().__init__(comp, deadline)

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
    status, x, fun = mip_module._HotLp(comp)(comp.lower, np.array([1.0]))
    assert status == 2 and x is None and fun is None

    m = binary_at_least_two()
    res = solve(m)
    assert res.status == INFEASIBLE and res.node_count == 1
    with pytest.raises(ModelInfeasible):
        lp_bound(m)

    m = MipModel()
    m.add_vars("x", [[0]], CONTINUOUS)
    m.add_vars("k", [[0]], INTEGER, 0.0, 5.0)
    m.add_rows([0, 0], [0, 1], [1.0, -1.0], ">=", [0.5])
    m.set_objective([0, 1], [1.0, 1.0], sense="max")
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


# -- the dive and the time-limit exit ------------------------------------------


def dive_model(which: str) -> MipModel:
    if which == "knapsack":
        return knapsack()
    if which.startswith("cpf"):
        return build_cpf(cpf_fleets()[int(which[3:])])
    if which.startswith("hub"):
        n, trucks = (int(part) for part in which[3:].split("/"))
        return build_cpf(hub_fleet(n, trucks, 1))
    return random_model(int(which[4:]))


def watch_node_lps(monkeypatch, seen):
    """Pass every node LP result of later searches to ``seen(comp, result)``."""
    node_lp = mip_module._HotLp

    def watched(comp, deadline=None):
        lp = node_lp(comp, deadline)

        def call(lower, upper):
            result = lp(lower, upper)
            seen(comp, result)
            return result

        return call

    monkeypatch.setattr(mip_module, "_HotLp", watched)


def dive_cases():
    """Every model of the hot/fallback comparison plus the hub ladder rungs
    that CPF proves beyond 5x5/10 (which is cpf1), hot and on
    :class:`ColdLp`; the rungs' cold solves take seconds each, so they are
    slow."""
    names = [f"rand{seed}" for seed in range(30)] + ["knapsack"] + [f"cpf{k}" for k in range(4)]
    rungs = ["hub6/15", "hub6/20", "hub7/25"]
    cases = [(which, path) for which in names + rungs for path in ("hot", "fallback")]
    return [
        pytest.param(*case, marks=pytest.mark.slow)
        if case[0] in rungs and case[1] == "fallback"
        else case
        for case in cases
    ]


@pytest.mark.parametrize("which, path", dive_cases())
def test_every_search_dives_and_still_proves_the_optimum(which, path, monkeypatch):
    """With a dive at node 1 and every doubling after it, each search ends
    where the external solver does, and every dive's plan is feasible."""
    model = dive_model(which)
    comp = _compile(model)
    found, want = milp_oracle(model)
    monkeypatch.setattr(mip_module, "_DIVE_AT", 1)
    if path == "fallback":
        monkeypatch.setattr(mip_module, "_HotLp", ColdLp)
    dive = mip_module._dive
    dives = []

    def spy(*args):
        found_x, lps = dive(*args)
        dives.append(lps)
        assert found_x is None or _feasible_point(comp, found_x)
        return found_x, lps

    monkeypatch.setattr(mip_module, "_dive", spy)
    lps = []
    watch_node_lps(monkeypatch, lambda comp, result: lps.append(result[0]))
    gap_tol = 1e-9
    res = solve(model, SolveConfig(gap_tol=gap_tol))
    assert dives or res.node_count == 1  # a fractional root always dives
    assert res.node_count == len(lps)  # dive LPs count as nodes
    if not found:
        assert res.status == INFEASIBLE and res.objective is None
        return
    tol = gap_tol * max(1.0, abs(want))
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(want, abs=tol)
    assert res.bound == pytest.approx(want, abs=tol)
    assert _feasible_point(comp, res.x)


@pytest.mark.parametrize("dive_at", [32, 1])
@pytest.mark.parametrize(
    "which", [f"rand{seed}" for seed in range(30)] + ["knapsack"] + [f"cpf{k}" for k in range(4)]
)
def test_clock_that_runs_out_at_the_first_incumbent(which, dive_at, lp_path, monkeypatch):
    """The clock expires as soon as a leaf or a dive finds the first
    incumbent.  The search then stops, proven optimal if every open node is
    already at or above it, and its bound never passes its objective."""
    model = dive_model(which)
    found, want = milp_oracle(model)
    clock = [0.0]
    monkeypatch.setattr(mip_module, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
    monkeypatch.setattr(mip_module, "_DIVE_AT", dive_at)

    def expire_at_integral_point(comp, result):
        status, x, _fun = result
        integral = status == 0 and mip_module._fractionality(comp, x).max(initial=0.0) <= 1e-6
        if integral:
            clock[0] = 10.0  # the first integral LP point is the first incumbent

    watch_node_lps(monkeypatch, expire_at_integral_point)
    res = solve(model, SolveConfig(time_limit=1.0, gap_tol=1e-9))
    if not found:
        assert res.status == INFEASIBLE and clock[0] == 0.0
        return
    assert clock[0] == 10.0
    assert _feasible_point(_compile(model), res.x)
    flip = -1.0 if model.sense == "max" else 1.0
    assert flip * res.bound <= flip * res.objective
    if res.status == OPTIMAL:
        assert res.objective == pytest.approx(want, abs=1e-9 * max(1.0, abs(want)))
    else:
        assert res.status == FEASIBLE_TIME_LIMIT
        assert flip * res.bound < flip * res.objective


@pytest.mark.slow
def test_cpf_finds_a_plan_on_the_8x8_30_hub_rung():
    """Best-bound search reaches no integral leaf on this rung within its
    clock; the dive at node 32 does, long before the clock runs out."""
    instance = hub_fleet(8, 30, 1)
    assert shortest_path_cost(instance) == pytest.approx(934.0, abs=1e-9)
    res = solve(build_cpf(instance), SolveConfig(time_limit=30.0, gap_tol=1e-9))
    assert res.status in (OPTIMAL, FEASIBLE_TIME_LIMIT)
    plan = decode(instance, res, "cpf")
    assert check(instance, plan).ok
    assert total_cost(instance, plan) == pytest.approx(res.objective, abs=1e-6)
    assert total_cost(instance, plan) <= 934.0
    assert res.bound <= res.objective


def test_a_root_lp_the_clock_stops_leaves_the_search_open(monkeypatch):
    """The stopped root goes back on the heap, so the search ends on the
    clock with nothing proven; it is not reported infeasible."""

    def stopped(lower, upper):
        return 1, None, None

    monkeypatch.setattr(mip_module, "_HotLp", lambda comp, deadline=None: stopped)
    res = solve(knapsack(), SolveConfig(time_limit=60.0))
    assert (res.status, res.bound, res.x) == (NO_SOLUTION_TIME_LIMIT, None, None)
    assert res.node_count == 1


def test_a_node_lp_the_clock_stops_stays_open_in_the_bound(monkeypatch):
    """HiGHS stops an LP at the search's deadline with status 1.  The search
    then ends on the clock, and the stopped node, which is still open,
    bounds the result: here the root's first child, whose bound is the root
    LP's value."""
    model = build_cpf(cpf_fleets()[1])
    node_lp = mip_module._HotLp
    calls = []

    def stopped_at_the_second_lp(comp, deadline=None):
        lp = node_lp(comp, deadline)

        def call(lower, upper):
            calls.append((lower, upper))
            return (1, None, None) if len(calls) == 2 else lp(lower, upper)

        return call

    monkeypatch.setattr(mip_module, "_HotLp", stopped_at_the_second_lp)
    res = solve(model, SolveConfig(time_limit=60.0))
    assert res.status == NO_SOLUTION_TIME_LIMIT
    assert res.x is None and res.objective is None
    assert res.node_count == len(calls) == 2
    assert res.bound == lp_bound(model)
