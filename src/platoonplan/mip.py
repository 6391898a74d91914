"""Mixed-integer linear models and a small deterministic solver.

The model container is solver-agnostic: variables are named, constraints are
sparse term lists, and the objective may carry a constant.  :func:`solve`
runs branch and bound over LP relaxations (HiGHS via ``scipy.optimize``),
with best-bound node selection and most-fractional branching, both with
lowest-index tie breaks, so a given model and config always reproduce the
same search.  :func:`lp_text` prints a model as CPLEX-style LP text for
debugging.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix

from .errors import ModelInfeasible, ModelInvalid, Unbounded

BINARY = "binary"
INTEGER = "integer"
CONTINUOUS = "continuous"

_SENSES = ("<=", ">=", "=")
_INT_TOL = 1e-6
_FEAS_TOL = 1e-6

OPTIMAL = "optimal"
FEASIBLE_TIME_LIMIT = "feasible_time_limit"
INFEASIBLE = "infeasible"
NO_SOLUTION_TIME_LIMIT = "no_solution_time_limit"


@dataclass
class Variable:
    name: str
    kind: str
    lower: float
    upper: float


class MipModel:
    """Sparse MIP container with named variables."""

    def __init__(self, name: str = "model"):
        self.name = name
        self.variables: list[Variable] = []
        self._index: dict[str, int] = {}
        # each constraint: (var indices, coefficients, sense, rhs, name)
        self.constraints: list[tuple[tuple[int, ...], tuple[float, ...], str, float, str]] = []
        self.objective: dict[int, float] = {}
        self.objective_constant = 0.0
        self.sense = "min"

    # -- construction -----------------------------------------------------

    def add_var(
        self,
        name: str,
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
        return idx

    def _resolve(self, var) -> int:
        if isinstance(var, str):
            try:
                return self._index[var]
            except KeyError:
                raise ModelInvalid(f"unknown variable {var!r}") from None
        idx = int(var)
        if not 0 <= idx < len(self.variables):
            raise ModelInvalid(f"variable index {idx} out of range")
        return idx

    def add_constr(self, terms: Iterable[tuple], sense: str, rhs: float, name: str | None = None) -> int:
        if sense not in _SENSES:
            raise ModelInvalid(f"unknown constraint sense {sense!r}")
        merged: dict[int, float] = {}
        for var, coef in terms:
            idx = self._resolve(var)
            merged[idx] = merged.get(idx, 0.0) + float(coef)
        row = len(self.constraints)
        self.constraints.append(
            (
                tuple(merged.keys()),
                tuple(merged.values()),
                sense,
                float(rhs),
                name or f"c{row}",
            )
        )
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

    def var_index(self, name: str) -> int:
        return self._index[name]

    def var_name(self, idx: int) -> str:
        return self.variables[idx].name


@dataclass
class SolveConfig:
    time_limit: float | None = None
    gap_tol: float = 1e-9
    warm_start: Mapping[str, float] | None = None


@dataclass
class MipResult:
    status: str
    objective: float | None
    bound: float | None
    values: dict[str, float]
    wall_time: float
    node_count: int


@dataclass
class _Compiled:
    c: np.ndarray
    const: float
    flip: bool
    a_ub: csr_matrix | None
    b_ub: np.ndarray | None
    a_eq: csr_matrix | None
    b_eq: np.ndarray | None
    lower: np.ndarray
    upper: np.ndarray
    int_mask: np.ndarray


def _compile(model: MipModel) -> _Compiled:
    n = model.num_vars
    lower = np.zeros(n)
    upper = np.zeros(n)
    int_mask = np.zeros(n, dtype=bool)
    for i, v in enumerate(model.variables):
        lower[i] = v.lower
        upper[i] = v.upper
        int_mask[i] = v.kind != CONTINUOUS
    c = np.zeros(n)
    for idx, coef in model.objective.items():
        c[idx] = coef
    flip = model.sense == "max"
    if flip:
        c = -c

    rows_ub, cols_ub, vals_ub, b_ub = [], [], [], []
    rows_eq, cols_eq, vals_eq, b_eq = [], [], [], []
    for idxs, coefs, sense, rhs, _name in model.constraints:
        if sense == "=":
            r = len(b_eq)
            for j, a in zip(idxs, coefs):
                rows_eq.append(r)
                cols_eq.append(j)
                vals_eq.append(a)
            b_eq.append(rhs)
        else:
            sign = 1.0 if sense == "<=" else -1.0
            r = len(b_ub)
            for j, a in zip(idxs, coefs):
                rows_ub.append(r)
                cols_ub.append(j)
                vals_ub.append(sign * a)
            b_ub.append(sign * rhs)

    a_ub = b_ub_arr = a_eq = b_eq_arr = None
    if b_ub:
        a_ub = csr_matrix((vals_ub, (rows_ub, cols_ub)), shape=(len(b_ub), n))
        b_ub_arr = np.array(b_ub)
    if b_eq:
        a_eq = csr_matrix((vals_eq, (rows_eq, cols_eq)), shape=(len(b_eq), n))
        b_eq_arr = np.array(b_eq)
    return _Compiled(
        c=c,
        const=model.objective_constant,
        flip=flip,
        a_ub=a_ub,
        b_ub=b_ub_arr,
        a_eq=a_eq,
        b_eq=b_eq_arr,
        lower=lower,
        upper=upper,
        int_mask=int_mask,
    )


def _lp(comp: _Compiled, lower: np.ndarray, upper: np.ndarray):
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


def _feasible_point(comp: _Compiled, x: np.ndarray) -> bool:
    if np.any(x < comp.lower - _FEAS_TOL) or np.any(x > comp.upper + _FEAS_TOL):
        return False
    if comp.int_mask.any():
        xi = x[comp.int_mask]
        if np.max(np.abs(xi - np.round(xi)), initial=0.0) > _INT_TOL:
            return False
    if comp.a_ub is not None and np.any(comp.a_ub @ x > comp.b_ub + _FEAS_TOL):
        return False
    if comp.a_eq is not None and np.any(np.abs(comp.a_eq @ x - comp.b_eq) > _FEAS_TOL):
        return False
    return True


def _result(model, comp, status, inc_x, inc_obj, bound_min, start, nodes):
    values: dict[str, float] = {}
    objective = None
    if inc_x is not None:
        for i, var in enumerate(model.variables):
            val = inc_x[i]
            if comp.int_mask[i]:
                val = float(round(val))
            values[var.name] = float(val)
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
    |objective|)``.  Feasibility tolerance on any reported incumbent is 1e-6
    per constraint; integer variables are reported as exact integers.
    """
    cfg = cfg or SolveConfig()
    start = time.perf_counter()
    comp = _compile(model)
    n = model.num_vars

    if n == 0:
        return MipResult(OPTIMAL, comp.const, comp.const, {}, time.perf_counter() - start, 0)

    inc_x = None
    inc_obj = math.inf  # in minimize space, without the constant
    if cfg.warm_start is not None:
        x0 = comp.lower.copy()
        for name, val in cfg.warm_start.items():
            x0[model.var_index(name)] = val
        if _feasible_point(comp, x0):
            x0 = x0.copy()
            x0[comp.int_mask] = np.round(x0[comp.int_mask])
            inc_x, inc_obj = x0, float(comp.c @ x0)

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

    status = None
    proven_lb = None
    while heap:
        if out_of_time():
            status = FEASIBLE_TIME_LIMIT if inc_x is not None else NO_SOLUTION_TIME_LIMIT
            proven_lb = heap[0][0]
            break
        prio, _, changes = heapq.heappop(heap)
        if inc_x is not None and gap_closed(prio):
            # remaining nodes can only be worse; the popped bound proves it
            status = OPTIMAL
            proven_lb = min(prio, inc_obj)
            break

        lower = comp.lower.copy()
        upper = comp.upper.copy()
        for j, lo, hi in changes:
            if lo is not None:
                lower[j] = max(lower[j], lo)
            if hi is not None:
                upper[j] = min(upper[j], hi)
        if np.any(lower > upper):
            continue

        lp_status, x, fun = _lp(comp, lower, upper)
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

        frac = np.abs(x - np.round(x))
        frac[~comp.int_mask] = 0.0
        if frac.max(initial=0.0) <= _INT_TOL:
            x_int = x.copy()
            x_int[comp.int_mask] = np.round(x_int[comp.int_mask])
            obj = float(comp.c @ x_int)
            if obj < inc_obj:
                inc_x, inc_obj = x_int, obj
        else:
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
    return _result(model, comp, status, inc_x, inc_obj, proven_lb, start, nodes)


def lp_bound(model: MipModel) -> float:
    """Objective of the LP relaxation; a valid dual bound on the MIP."""
    comp = _compile(model)
    if model.num_vars == 0:
        return comp.const
    lp_status, _x, fun = _lp(comp, comp.lower, comp.upper)
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


def lp_text(model: MipModel) -> str:
    """CPLEX-style LP text of ``model``, for reading and debugging."""
    lines = [f"\\ {model.name}"]
    lines.append("Maximize" if model.sense == "max" else "Minimize")
    obj_pairs = [
        (model.var_name(i), c) for i, c in sorted(model.objective.items()) if c != 0.0
    ]
    lines.append(f" obj: {_lp_terms(obj_pairs, model.objective_constant)}")
    lines.append("Subject To")
    for idxs, coefs, sense, rhs, name in model.constraints:
        pairs = [(model.var_name(i), c) for i, c in zip(idxs, coefs) if c != 0.0]
        op = {"<=": "<=", ">=": ">=", "=": "="}[sense]
        lines.append(f" {name}: {_lp_terms(pairs)} {op} {_num(rhs)}")
    lines.append("Bounds")
    for v in model.variables:
        if v.kind == BINARY:
            continue
        if v.lower == -math.inf and v.upper == math.inf:
            lines.append(f" {v.name} free")
        elif v.upper == math.inf:
            lines.append(f" {v.name} >= {_num(v.lower)}")
        elif v.lower == -math.inf:
            lines.append(f" {v.name} <= {_num(v.upper)}")
        else:
            lines.append(f" {_num(v.lower)} <= {v.name} <= {_num(v.upper)}")
    binaries = [v.name for v in model.variables if v.kind == BINARY]
    generals = [v.name for v in model.variables if v.kind == INTEGER]
    if binaries:
        lines.append("Binary")
        lines.append(" " + " ".join(binaries))
    if generals:
        lines.append("General")
        lines.append(" " + " ".join(generals))
    lines.append("End")
    return "\n".join(lines) + "\n"
