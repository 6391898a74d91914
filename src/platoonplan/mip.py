"""Mixed-integer linear models and a small deterministic solver.

The model container is solver-agnostic: each variable has a name, which may
be any hashable key (the builders key columns by tuples such as
``("x", i, j, v)``), constraints are sparse term lists, and the objective
may carry a constant.  :func:`solve` runs branch and bound over LP
relaxations (HiGHS via ``scipy.optimize``), with best-bound node selection
and most-fractional branching, both with lowest-index tie breaks, so a
given model and config always reproduce the same search on one scipy
build.  A search takes no start point.  Best-bound search can run long
without reaching an integral leaf, so a search that has processed 32 nodes
without an incumbent dives from its current node: it floors the fractional
integer column of smallest LP value and re-solves, until the LP is
integral (the new incumbent) or infeasible.  The next dive waits for 64
LPs, then 128, and so on.
:func:`lp_text` prints a model as CPLEX-style LP text for debugging.

A model compiles to solver arrays once: the constraint matrix, right-hand
sides, bounds and integrality are kept on the model until the next
:meth:`MipModel.add_var` or :meth:`MipModel.add_constr`, so re-solving a model
whose objective alone was reset with :meth:`MipModel.set_objective` recomputes
only the cost vector.  The iterative heuristic relies on this: it builds its
routing model once per run and reprices it every round.

All node LPs of one :func:`solve` call share one HiGHS LP object, loaded
exactly as ``linprog(method="highs")`` loads it.  Each node changes only the
column bounds that differ from the node solved before it and re-runs dual
simplex from that node's optimal basis, which stays dual feasible under any
bound change (a hot start); the steps of a dive are solved the same way.
The object comes from scipy's private ``scipy.optimize._highspy._core``;
where that import fails (scipy < 1.15 or a renaming), every node is a cold
``linprog`` call instead.  Both paths prove the same optima and bounds, but
hot-started nodes may stop at other optimal vertices, so the search tree
depends on the path and the scipy build.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass
from itertools import chain
from typing import Hashable, Iterable, Sequence

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csc_matrix, csr_matrix, vstack

from .errors import ModelInfeasible, ModelInvalid, Unbounded

try:
    from scipy.optimize._highspy import _core as _highs

    # every name _HotLp uses: a renamed one falls back like a missing module
    _highs._Highs.changeColsBounds, _highs.HighsLp, _highs.HighsModelStatus
    _highs.HighsStatus, _highs.MatrixFormat, _highs.kHighsInf
except (ImportError, AttributeError):
    # no hot start: every node LP is a cold ``linprog`` call
    _highs = None

BINARY = "binary"
INTEGER = "integer"
CONTINUOUS = "continuous"

_SENSES = ("<=", ">=", "=")
_INT_TOL = 1e-6
# LPs a search solves without an incumbent before its first dive; the
# threshold doubles at each dive
_DIVE_AT = 32

OPTIMAL = "optimal"
FEASIBLE_TIME_LIMIT = "feasible_time_limit"
INFEASIBLE = "infeasible"
NO_SOLUTION_TIME_LIMIT = "no_solution_time_limit"


@dataclass
class Variable:
    name: Hashable
    kind: str
    lower: float
    upper: float


class MipModel:
    """Sparse MIP container with named variables.

    A variable's name is its key: any hashable, unique within the model.
    Terms and objectives refer to a variable by that key or by its column
    index (an integer); :func:`lp_text` prints a tuple key as its parts
    joined by underscores.
    """

    def __init__(self, name: str = "model"):
        self.name = name
        self.variables: list[Variable] = []
        self._index: dict[Hashable, int] = {}
        # each constraint: (var indices, coefficients, sense, rhs)
        self.constraints: list[tuple[tuple[int, ...], tuple[float, ...], str, float]] = []
        self.objective: dict[int, float] = {}
        self.objective_constant = 0.0
        self.sense = "min"
        # solver arrays of the variables and constraints; see _compile
        self._arrays: _Arrays | None = None

    # -- construction -----------------------------------------------------

    def add_var(
        self,
        name: Hashable,
        kind: str = CONTINUOUS,
        lower: float = 0.0,
        upper: float = math.inf,
    ) -> int:
        if name in self._index:
            raise ModelInvalid(f"duplicate variable name {name!r}")
        if kind not in (BINARY, INTEGER, CONTINUOUS):
            raise ModelInvalid(f"unknown variable kind {kind!r}")
        if kind == BINARY:
            lower = max(lower, 0.0)
            upper = min(upper, 1.0)
        if not lower <= upper:
            raise ModelInvalid(f"variable {name!r} has empty bounds [{lower}, {upper}]")
        idx = len(self.variables)
        self.variables.append(Variable(name, kind, float(lower), float(upper)))
        self._index[name] = idx
        self._arrays = None
        return idx

    def _resolve(self, var) -> int:
        """Column of ``var``: an integer is an index, anything else a name."""
        if isinstance(var, (int, np.integer)):
            if not 0 <= var < len(self.variables):
                raise ModelInvalid(f"variable index {var} out of range")
            return int(var)
        try:
            return self._index[var]
        except (KeyError, TypeError):
            raise ModelInvalid(f"unknown variable {var!r}") from None

    def add_constr(self, terms: Iterable[tuple], sense: str, rhs: float) -> int:
        if sense not in _SENSES:
            raise ModelInvalid(f"unknown constraint sense {sense!r}")
        merged: dict[int, float] = {}
        for var, coef in terms:
            idx = self._resolve(var)
            merged[idx] = merged.get(idx, 0.0) + float(coef)
        row = len(self.constraints)
        self.constraints.append((tuple(merged.keys()), tuple(merged.values()), sense, float(rhs)))
        self._arrays = None
        return row

    def set_objective(self, terms: Iterable[tuple], sense: str = "min", constant: float = 0.0) -> None:
        if sense not in ("min", "max"):
            raise ModelInvalid(f"objective sense must be min or max, got {sense!r}")
        obj: dict[int, float] = {}
        for var, coef in terms:
            idx = self._resolve(var)
            obj[idx] = obj.get(idx, 0.0) + float(coef)
        self.objective = obj
        self.objective_constant = float(constant)
        self.sense = sense

    # -- introspection ----------------------------------------------------

    @property
    def num_vars(self) -> int:
        return len(self.variables)

    @property
    def num_constrs(self) -> int:
        return len(self.constraints)

    def var_index(self, name: Hashable) -> int:
        return self._index[name]

    def var_name(self, idx: int) -> Hashable:
        return self.variables[idx].name


@dataclass
class SolveConfig:
    """Settings of one :func:`solve` call."""

    time_limit: float | None = None
    gap_tol: float = 1e-9


@dataclass
class MipResult:
    """Outcome of one :func:`solve` call.

    ``values`` maps each variable's name, the key it was added under, to
    its incumbent value; it is empty when there is no incumbent.
    ``node_count`` counts the LPs solved: the search's nodes and the steps
    of its dives.
    """

    status: str
    objective: float | None
    bound: float | None
    values: dict[Hashable, float]
    wall_time: float
    node_count: int


@dataclass(frozen=True)
class _Arrays:
    """The solver arrays of a model's variables and constraints.

    They do not depend on the objective, so a model keeps them until its
    next :meth:`MipModel.add_var` or :meth:`MipModel.add_constr`.
    """

    a_ub: csr_matrix | None
    b_ub: np.ndarray | None
    a_eq: csr_matrix | None
    b_eq: np.ndarray | None
    lower: np.ndarray
    upper: np.ndarray
    int_mask: np.ndarray
    names: list[Hashable]


@dataclass(frozen=True)
class _Compiled(_Arrays):
    """A model in the array form ``linprog`` takes, minimizing ``c @ x``."""

    c: np.ndarray
    const: float
    flip: bool


def _block(rows, n: int, signs: np.ndarray | None):
    """One COO block of constraint rows as CSR, rows scaled by ``signs``."""
    if not rows:
        return None, None
    lengths = np.fromiter((len(r[0]) for r in rows), np.int64, len(rows))
    nnz = int(lengths.sum())
    cols = np.fromiter(chain.from_iterable(r[0] for r in rows), np.int64, nnz)
    vals = np.fromiter(chain.from_iterable(r[1] for r in rows), np.float64, nnz)
    rhs = np.fromiter((r[3] for r in rows), np.float64, len(rows))
    if signs is not None:
        vals = np.repeat(signs, lengths) * vals
        rhs = signs * rhs
    row_ids = np.repeat(np.arange(len(rows), dtype=np.int64), lengths)
    return csr_matrix((vals, (row_ids, cols)), shape=(len(rows), n)), rhs


def _compile_arrays(model: MipModel) -> _Arrays:
    n = model.num_vars
    variables = model.variables
    lower = np.fromiter((v.lower for v in variables), np.float64, n)
    upper = np.fromiter((v.upper for v in variables), np.float64, n)
    int_mask = np.fromiter((v.kind != CONTINUOUS for v in variables), bool, n)
    # ">=" rows are negated into "<=" rows; equalities keep their own block
    eq_rows = [con for con in model.constraints if con[2] == "="]
    ub_rows = [con for con in model.constraints if con[2] != "="]
    signs = np.array([1.0 if con[2] == "<=" else -1.0 for con in ub_rows])
    a_ub, b_ub = _block(ub_rows, n, signs)
    a_eq, b_eq = _block(eq_rows, n, None)
    return _Arrays(
        a_ub=a_ub,
        b_ub=b_ub,
        a_eq=a_eq,
        b_eq=b_eq,
        lower=lower,
        upper=upper,
        int_mask=int_mask,
        names=[v.name for v in variables],
    )


def _compile(model: MipModel) -> _Compiled:
    """Solver arrays of ``model``; only the objective is recomputed per call."""
    if model._arrays is None:
        model._arrays = _compile_arrays(model)
    c = np.zeros(model.num_vars)
    k = len(model.objective)
    if k:
        c[np.fromiter(model.objective.keys(), np.intp, k)] = np.fromiter(
            model.objective.values(), np.float64, k
        )
    flip = model.sense == "max"
    if flip:
        c = -c
    return _Compiled(**vars(model._arrays), c=c, const=model.objective_constant, flip=flip)


def _lp(comp: _Compiled, lower: np.ndarray, upper: np.ndarray):
    """Cold ``linprog`` solve of the relaxation under column bounds."""
    res = linprog(
        comp.c,
        A_ub=comp.a_ub,
        b_ub=comp.b_ub,
        A_eq=comp.a_eq,
        b_eq=comp.b_eq,
        bounds=np.column_stack([lower, upper]),
        method="highs",
    )
    return res.status, res.x, res.fun


def _highs_inf(x: np.ndarray) -> np.ndarray:
    """A copy of ``x`` with infinities replaced by HiGHS's, as ``linprog`` does."""
    out = x.copy()
    inf = np.isinf(out)
    out[inf] = np.sign(out[inf]) * _highs.kHighsInf
    return out


class _HotLp:
    """One HiGHS LP of a compiled model, re-solved under changing column bounds.

    Called like :func:`_lp`, with the same ``(status, x, fun)`` result and
    ``linprog``'s status codes.  The first call is the cold solve ``linprog``
    makes; later calls change only the bounds that differ from the previous
    call's, so HiGHS starts dual simplex from the last optimal basis.
    """

    def __init__(self, comp: _Compiled):
        n = len(comp.c)
        b_ub = comp.b_ub if comp.b_ub is not None else np.empty(0)
        b_eq = comp.b_eq if comp.b_eq is not None else np.empty(0)
        blocks = [a for a in (comp.a_ub, comp.a_eq) if a is not None]
        a = csc_matrix(vstack(blocks)) if blocks else csc_matrix((0, n))
        lp = _highs.HighsLp()
        lp.num_col_ = n
        lp.num_row_ = len(b_ub) + len(b_eq)
        lp.a_matrix_.num_col_ = n
        lp.a_matrix_.num_row_ = lp.num_row_
        lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
        lp.a_matrix_.start_ = a.indptr
        lp.a_matrix_.index_ = a.indices
        lp.a_matrix_.value_ = a.data
        lp.col_cost_ = comp.c
        lp.col_lower_ = _highs_inf(comp.lower)
        lp.col_upper_ = _highs_inf(comp.upper)
        lp.row_lower_ = _highs_inf(np.concatenate([np.full(len(b_ub), -np.inf), b_eq]))
        lp.row_upper_ = _highs_inf(np.concatenate([b_ub, b_eq]))
        self._highs = _highs._Highs()
        # the options linprog(method="highs") sets; logging off
        self._highs.setOptionValue("output_flag", False)
        self._highs.setOptionValue("presolve", "on")
        self._highs.setOptionValue("simplex_strategy", 1)  # dual simplex
        if self._highs.passModel(lp) == _highs.HighsStatus.kError:
            raise ModelInvalid("HiGHS rejected the model")
        self._lower = comp.lower.copy()
        self._upper = comp.upper.copy()

    def __call__(self, lower: np.ndarray, upper: np.ndarray):
        changed = np.flatnonzero((lower != self._lower) | (upper != self._upper))
        if changed.size:
            self._highs.changeColsBounds(
                changed.size,
                changed.astype(np.int32),
                _highs_inf(lower[changed]),
                _highs_inf(upper[changed]),
            )
            self._lower[changed] = lower[changed]
            self._upper[changed] = upper[changed]
        self._highs.run()
        model_status = self._highs.getModelStatus()
        codes = _highs.HighsModelStatus
        if model_status == codes.kOptimal:
            x = np.array(self._highs.getSolution().col_value)
            return 0, x, self._highs.getInfo().objective_function_value
        if model_status == codes.kInfeasible:
            return 2, None, None
        if model_status in (codes.kUnbounded, codes.kUnboundedOrInfeasible):
            return 3, None, None
        return 4, None, None


def _node_lp(comp: _Compiled):
    """The LP entry of one search: hot-started HiGHS, or cold ``linprog``."""
    if _highs is None:
        return lambda lower, upper: _lp(comp, lower, upper)
    return _HotLp(comp)


def _fractionality(comp: _Compiled, x: np.ndarray) -> np.ndarray:
    """Distance of each integer column of ``x`` from its nearest integer."""
    frac = np.abs(x - np.round(x))
    frac[~comp.int_mask] = 0.0
    return frac


def _rounded(comp: _Compiled, x: np.ndarray) -> np.ndarray:
    """A copy of ``x`` with its integer columns rounded to exact integers."""
    x_int = x.copy()
    x_int[comp.int_mask] = np.round(x_int[comp.int_mask])
    return x_int


def _dive(comp: _Compiled, node_lp, lower, upper, x, out_of_time):
    """Floor dive from one node's LP point ``x`` under ``lower``/``upper``.

    Each step sets the fractional integer column of smallest LP value to its
    floor (lowest index on ties) and re-solves through ``node_lp``.  Returns
    ``(point, lps)``: the rounded integral point, or None if an LP is
    infeasible or fails or the clock runs out first, and the LPs solved.
    """
    upper = upper.copy()
    lps = 0
    while True:
        frac = _fractionality(comp, x)
        fractional = frac > _INT_TOL
        if not fractional.any():
            return _rounded(comp, x), lps
        j = int(np.argmin(np.where(fractional, x, np.inf)))
        upper[j] = math.floor(x[j])
        if upper[j] < lower[j] or out_of_time():
            return None, lps
        lp_status, x, _fun = node_lp(lower, upper)
        lps += 1
        if lp_status != 0:
            return None, lps


def _result(comp, status, inc_x, inc_obj, bound_min, start, nodes):
    values: dict[Hashable, float] = {}
    objective = None
    if inc_x is not None:
        x = inc_x.copy()
        # integers are reported exact; "+ 0.0" turns a rounded -0.0 into 0.0
        x[comp.int_mask] = np.round(x[comp.int_mask]) + 0.0
        values = dict(zip(comp.names, x.tolist()))
        objective = (-inc_obj if comp.flip else inc_obj) + comp.const
    bound = None
    if bound_min is not None and math.isfinite(bound_min):
        bound = (-bound_min if comp.flip else bound_min) + comp.const
    return MipResult(
        status=status,
        objective=objective,
        bound=bound,
        values=values,
        wall_time=time.perf_counter() - start,
        node_count=nodes,
    )


def solve(model: MipModel, cfg: SolveConfig | None = None) -> MipResult:
    """Branch and bound to proven optimality, a limit, or infeasibility.

    ``optimal`` results satisfy ``|objective - bound| <= gap_tol * max(1,
    |objective|)``; a time limit that stops a search whose open nodes all
    meet that gap also reports ``optimal``.  Feasibility tolerance on any
    reported incumbent is 1e-6 per constraint; integer variables are
    reported as exact integers.

    The first incumbent comes from an integral node LP or a dive.  While
    there is none, the search dives from the node it is processing once it
    has solved 32 LPs, then 64, 128 and so on (see :func:`_dive`); the node
    is then pruned if the dive's plan closes the gap, and branched
    otherwise.
    """
    cfg = cfg or SolveConfig()
    start = time.perf_counter()
    comp = _compile(model)
    n = model.num_vars

    if n == 0:
        return MipResult(OPTIMAL, comp.const, comp.const, {}, time.perf_counter() - start, 0)

    inc_x = None
    inc_obj = math.inf  # in minimize space, without the constant

    def out_of_time() -> bool:
        return cfg.time_limit is not None and time.perf_counter() - start >= cfg.time_limit

    def gap_closed(lb: float) -> bool:
        return inc_obj - lb <= cfg.gap_tol * max(1.0, abs(inc_obj))

    # nodes carry their parent's LP value as a lower bound plus the chain of
    # bound tightenings that defines the subproblem; the heap top is a valid
    # global lower bound
    heap = [(-math.inf, 0, ())]
    tick = 1
    nodes = 0
    next_dive = _DIVE_AT
    node_lp = None  # built at the first node, so a zero time limit solves nothing

    status = None
    proven_lb = None
    while heap:
        if inc_x is not None and gap_closed(heap[0][0]):
            # remaining nodes can only be worse; the heap top proves it
            status = OPTIMAL
            proven_lb = min(heap[0][0], inc_obj)
            break
        if out_of_time():
            status = FEASIBLE_TIME_LIMIT if inc_x is not None else NO_SOLUTION_TIME_LIMIT
            proven_lb = heap[0][0]
            break
        _, _, changes = heapq.heappop(heap)

        lower = comp.lower.copy()
        upper = comp.upper.copy()
        for j, lo, hi in changes:
            if lo is not None:
                lower[j] = max(lower[j], lo)
            if hi is not None:
                upper[j] = min(upper[j], hi)
        if np.any(lower > upper):
            continue

        if node_lp is None:
            node_lp = _node_lp(comp)
        lp_status, x, fun = node_lp(lower, upper)
        nodes += 1
        if lp_status == 2:  # infeasible subproblem
            continue
        if lp_status == 3:
            raise Unbounded(f"model {model.name!r}: LP relaxation is unbounded")
        if lp_status != 0:
            raise ModelInvalid(f"model {model.name!r}: LP solver failure (status {lp_status})")
        node_bound = float(fun)
        if inc_x is not None and gap_closed(node_bound):
            continue

        frac = _fractionality(comp, x)
        if frac.max(initial=0.0) <= _INT_TOL:
            x_int = _rounded(comp, x)
            obj = float(comp.c @ x_int)
            if obj < inc_obj:
                inc_x, inc_obj = x_int, obj
            continue
        if inc_x is None and nodes >= next_dive:
            next_dive *= 2
            dive_x, dive_lps = _dive(comp, node_lp, lower, upper, x, out_of_time)
            nodes += dive_lps
            if dive_x is not None:
                inc_x, inc_obj = dive_x, float(comp.c @ dive_x)
                if gap_closed(node_bound):
                    continue
        # most-fractional branching; argmax breaks ties on the lowest index
        score = np.minimum(frac, 1.0 - frac)
        score[frac <= _INT_TOL] = -1.0
        j = int(np.argmax(score))
        val = x[j]
        down = changes + ((j, None, math.floor(val)),)
        up = changes + ((j, math.ceil(val), None),)
        heapq.heappush(heap, (node_bound, tick, down))
        heapq.heappush(heap, (node_bound, tick + 1, up))
        tick += 2

    if status is None:
        # open list exhausted: every leaf was solved or pruned
        if inc_x is None:
            status = INFEASIBLE
        else:
            status = OPTIMAL
            proven_lb = inc_obj
    return _result(comp, status, inc_x, inc_obj, proven_lb, start, nodes)


def lp_bound(model: MipModel) -> float:
    """Objective of the LP relaxation; a valid dual bound on the MIP."""
    comp = _compile(model)
    if model.num_vars == 0:
        return comp.const
    lp_status, _x, fun = _node_lp(comp)(comp.lower, comp.upper)
    if lp_status == 2:
        raise ModelInfeasible(f"model {model.name!r}: LP relaxation infeasible")
    if lp_status == 3:
        raise Unbounded(f"model {model.name!r}: LP relaxation unbounded")
    if lp_status != 0:
        raise ModelInvalid(f"model {model.name!r}: LP solver failure (status {lp_status})")
    return (-fun if comp.flip else fun) + comp.const


# -- export / import -------------------------------------------------------


def _num(x: float) -> str:
    return str(int(x)) if float(x).is_integer() and abs(x) < 1e15 else repr(float(x))


def _lp_terms(pairs: Sequence[tuple[str, float]], constant: float = 0.0) -> str:
    parts = []
    for name, coef in pairs:
        sign = "-" if coef < 0 else "+"
        parts.append(f"{sign} {_num(abs(coef))} {name}")
    if constant:
        sign = "-" if constant < 0 else "+"
        parts.append(f"{sign} {_num(abs(constant))}")
    if not parts:
        return "0"
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else text


def _label(key: Hashable) -> str:
    """The LP-text name of a variable: a tuple key's parts joined by ``_``."""
    if isinstance(key, tuple):
        return "_".join(map(str, key))
    return str(key)


def lp_text(model: MipModel) -> str:
    """CPLEX-style LP text of ``model``, for reading and debugging."""
    labels = [_label(v.name) for v in model.variables]
    lines = [f"\\ {model.name}"]
    lines.append("Maximize" if model.sense == "max" else "Minimize")
    obj_pairs = [(labels[i], c) for i, c in sorted(model.objective.items()) if c != 0.0]
    lines.append(f" obj: {_lp_terms(obj_pairs, model.objective_constant)}")
    lines.append("Subject To")
    for row, (idxs, coefs, sense, rhs) in enumerate(model.constraints):
        pairs = [(labels[i], c) for i, c in zip(idxs, coefs) if c != 0.0]
        op = {"<=": "<=", ">=": ">=", "=": "="}[sense]
        lines.append(f" c{row}: {_lp_terms(pairs)} {op} {_num(rhs)}")
    lines.append("Bounds")
    for v, label in zip(model.variables, labels):
        if v.kind == BINARY:
            continue
        if v.lower == -math.inf and v.upper == math.inf:
            lines.append(f" {label} free")
        elif v.upper == math.inf:
            lines.append(f" {label} >= {_num(v.lower)}")
        elif v.lower == -math.inf:
            lines.append(f" {label} <= {_num(v.upper)}")
        else:
            lines.append(f" {_num(v.lower)} <= {label} <= {_num(v.upper)}")
    binaries = [label for v, label in zip(model.variables, labels) if v.kind == BINARY]
    generals = [label for v, label in zip(model.variables, labels) if v.kind == INTEGER]
    if binaries:
        lines.append("Binary")
        lines.append(" " + " ".join(binaries))
    if generals:
        lines.append("General")
        lines.append(" " + " ".join(generals))
    lines.append("End")
    return "\n".join(lines) + "\n"
