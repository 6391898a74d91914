"""Mixed-integer linear models and a small deterministic solver.

The model container is solver-agnostic: each variable has a name, which may
be any hashable key (the builders key columns by tuples such as
``("x", i, j, v)``), and the objective may carry a constant.  A model is
stored as arrays, not as one object per column or row: a list of names with
arrays of kinds and bounds for the columns, one COO entry (row, column,
coefficient) per constraint term with an array of senses and right-hand
sides for the rows, and one dense cost array for the objective.  The
builders of large models fill these in blocks with
:meth:`MipModel.add_vars`, :meth:`MipModel.add_rows` and the array form of
:meth:`MipModel.set_objective`; :meth:`MipModel.add_var`,
:meth:`MipModel.add_constr` and the term-list form of ``set_objective`` add
one item to the same arrays.  Every coefficient, cost and right-hand side
must be finite; a NaN or an infinity raises :class:`ModelInvalid` where it
is added.  :attr:`MipModel.variables`, :attr:`MipModel.constraints` and
:attr:`MipModel.objective` are read-only views built on each access, for
reading a model, never for a hot path.

:func:`solve` runs branch and bound over LP
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

A model compiles to solver arrays once, straight to the form HiGHS loads:
the column-wise constraint matrix, row and column bounds and integrality
are kept on the model until the next column or row is added, so re-solving
a model whose objective alone was reset with :meth:`MipModel.set_objective`
recomputes only the cost vector.  The iterative heuristic relies on this:
it builds its routing model once per run and reprices it every round.

All node LPs of one :func:`solve` call share one HiGHS LP object, loaded
exactly as ``linprog(method="highs")`` loads it.  Each node changes only the
column bounds that differ from the node solved before it and re-runs dual
simplex from that node's optimal basis, which stays dual feasible under any
bound change (a hot start); the steps of a dive are solved the same way.
The object comes from scipy's private ``scipy.optimize._highspy._core``,
first shipped in scipy 1.15; if that module or any name this module uses
from it is missing, importing the package fails with an :class:`ImportError`
that names the scipy floor.  There is no other LP path, so a model and a
config give one search tree on a given HiGHS build.
"""

from __future__ import annotations

import heapq
import math
import time
from array import array
from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

import numpy as np
# linprog solves only the test reference _lp; perfbench's mip.highs hook also
# looks it up here until that hook times _HotLp
from scipy.optimize import linprog
from scipy.sparse import csc_matrix

from .errors import ModelInfeasible, ModelInvalid, Unbounded, ValidationError

try:
    from scipy.optimize._highspy import _core as _highs

    # every name _HotLp uses, so a renamed one fails here and not mid-search
    _highs._Highs.changeColsBounds, _highs.HighsLp, _highs.HighsModelStatus
    _highs.HighsStatus, _highs.MatrixFormat, _highs.kHighsInf
except (ImportError, AttributeError) as exc:
    raise ImportError(
        "platoonplan needs scipy>=1.15, whose scipy.optimize._highspy._core "
        f"it loads its LPs into: {exc}"
    ) from exc

BINARY = "binary"
INTEGER = "integer"
CONTINUOUS = "continuous"

# a column's kind and a row's sense are stored as their index in these
_KINDS = (CONTINUOUS, BINARY, INTEGER)
_SENSES = ("<=", ">=", "=")
_GE, _EQ = _SENSES.index(">="), _SENSES.index("=")
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


def _floats(values, size: int, what: str) -> np.ndarray:
    """``values`` as a float array of ``size`` entries; a scalar is repeated."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 0:
        return np.full(size, arr)
    if arr.shape != (size,):
        raise ModelInvalid(f"{what} has shape {arr.shape}, expected ({size},)")
    return arr


def _ids(values, what: str) -> np.ndarray:
    """``values`` as a one-dimensional int64 array; floats are refused."""
    arr = np.asarray(values)
    if arr.ndim != 1 or (arr.size and arr.dtype.kind not in "iu"):
        raise ModelInvalid(f"{what} must be a one-dimensional array of integers")
    return arr.astype(np.int64, copy=False)


def _finite(values: np.ndarray, what: str) -> None:
    if not np.isfinite(values).all():
        raise ModelInvalid(f"{what} must be finite, got {values[~np.isfinite(values)][0]}")


def _extend(buf: array, values: np.ndarray) -> None:
    buf.frombytes(memoryview(np.ascontiguousarray(values)).cast("B"))


class MipModel:
    """Sparse MIP container with named variables, stored as arrays.

    A variable's name is its key: any hashable, unique within the model.
    Terms and objectives refer to a variable by that key or by its column
    index (an integer); :func:`lp_text` prints a tuple key as its parts
    joined by underscores.

    Columns are a list of names and typed arrays of kinds and bounds.  Rows
    are COO entries, one (row, column, coefficient) per term in the order
    the terms were added, with one sense and right-hand side per row.  The
    objective is one dense cost array over the columns that existed when it
    was set; later columns cost 0.  ``num_vars`` and ``num_constrs`` are
    O(1); ``variables``, ``constraints`` and ``objective`` are views built
    on each access.
    """

    def __init__(self, name: str = "model"):
        self.name = name
        self._names: list[Hashable] = []
        self._index: dict[Hashable, int] = {}
        self._kind = array("b")
        self._lower = array("d")
        self._upper = array("d")
        self._row = array("q")
        self._col = array("q")
        self._coef = array("d")
        self._sense = array("b")
        self._rhs = array("d")
        self._cost = np.zeros(0)
        self.objective_constant = 0.0
        self.sense = "min"
        # solver arrays of the variables and constraints; see _compile
        self._arrays: _Arrays | None = None

    # -- construction -----------------------------------------------------

    def add_vars(
        self,
        names: Sequence[Hashable],
        kind: str = CONTINUOUS,
        lower=0.0,
        upper=math.inf,
    ) -> np.ndarray:
        """Add one column per name, all of ``kind``; return their indices.

        ``lower`` and ``upper`` are scalars or arrays with one entry per
        name.  Binary bounds are clipped to [0, 1].  A name that is already
        in the model or repeated in ``names``, arrays of the wrong length
        and empty bounds raise :class:`ModelInvalid` and add nothing.
        """
        names = list(names)
        k = len(names)
        if kind not in _KINDS:
            raise ModelInvalid(f"unknown variable kind {kind!r}")
        lower = _floats(lower, k, "lower")
        upper = _floats(upper, k, "upper")
        if kind == BINARY:
            lower = np.where(lower < 0.0, 0.0, lower)
            upper = np.where(upper > 1.0, 1.0, upper)
        empty = ~(lower <= upper)
        if empty.any():
            at = int(np.argmax(empty))
            raise ModelInvalid(
                f"variable {names[at]!r} has empty bounds [{lower[at]}, {upper[at]}]"
            )
        start = len(self._names)
        new = dict(zip(names, range(start, start + k)))
        if len(new) < k or not self._index.keys().isdisjoint(new):
            seen = set(self._index)
            for name in names:
                if name in seen:
                    raise ModelInvalid(f"duplicate variable name {name!r}")
                seen.add(name)
        self._names += names
        self._index.update(new)
        self._kind.extend([_KINDS.index(kind)] * k)
        _extend(self._lower, lower)
        _extend(self._upper, upper)
        self._arrays = None
        return np.arange(start, start + k)

    def add_var(
        self,
        name: Hashable,
        kind: str = CONTINUOUS,
        lower: float = 0.0,
        upper: float = math.inf,
    ) -> int:
        """Add one column, checked as :meth:`add_vars` checks a block."""
        if name in self._index:
            raise ModelInvalid(f"duplicate variable name {name!r}")
        if kind not in _KINDS:
            raise ModelInvalid(f"unknown variable kind {kind!r}")
        if kind == BINARY:
            lower = max(lower, 0.0)
            upper = min(upper, 1.0)
        if not lower <= upper:
            raise ModelInvalid(f"variable {name!r} has empty bounds [{lower}, {upper}]")
        idx = len(self._names)
        self._names.append(name)
        self._index[name] = idx
        self._kind.append(_KINDS.index(kind))
        self._lower.append(lower)
        self._upper.append(upper)
        self._arrays = None
        return idx

    def _resolve(self, var) -> int:
        """Column of ``var``: an integer is an index, anything else a name."""
        if isinstance(var, (int, np.integer)):
            if not 0 <= var < len(self._names):
                raise ModelInvalid(f"variable index {var} out of range")
            return int(var)
        try:
            return self._index[var]
        except (KeyError, TypeError):
            raise ModelInvalid(f"unknown variable {var!r}") from None

    def _columns(self, cols, what: str) -> np.ndarray:
        cols = _ids(cols, what)
        if cols.size and (cols.min() < 0 or cols.max() >= len(self._names)):
            raise ModelInvalid(f"{what} holds a variable index out of range")
        return cols

    def add_rows(self, rows, cols, coefs, sense, rhs) -> int:
        """Add a block of constraint rows; return the index of its first row.

        ``rhs`` has one entry per new row.  ``sense`` is ``"<="``, ``">="``
        or ``"="`` for every row of the block, or a sequence of them, one
        per row.  Entry ``e`` of the equally long arrays ``rows``, ``cols``
        and ``coefs`` puts ``coefs[e]`` at column ``cols[e]`` of the
        block's row ``rows[e]``, counted from 0 within the block.  A row
        keeps its terms in the order given (:func:`lp_text` prints them
        so); duplicate terms of a row are summed when the model compiles.
        Coefficients and right-hand sides must be finite.  A bad block
        raises :class:`ModelInvalid` and adds nothing.
        """
        rhs = np.asarray(rhs, dtype=np.float64)
        if rhs.ndim != 1:
            raise ModelInvalid("rhs must be one-dimensional")
        k = len(rhs)
        rows = _ids(rows, "rows")
        cols = self._columns(cols, "cols")
        coefs = np.asarray(coefs, dtype=np.float64)
        if not rows.shape == cols.shape == coefs.shape:
            raise ModelInvalid(
                f"rows, cols and coefs have lengths {len(rows)}, {len(cols)} and {coefs.size}"
            )
        if rows.size and (rows.min() < 0 or rows.max() >= k):
            raise ModelInvalid(f"rows must lie in [0, {k})")
        if isinstance(sense, str):
            if sense not in _SENSES:
                raise ModelInvalid(f"unknown constraint sense {sense!r}")
            codes = np.full(k, _SENSES.index(sense), dtype=np.int8)
        else:
            named = np.asarray(sense)
            if named.shape != (k,):
                raise ModelInvalid(f"sense has shape {named.shape}, expected ({k},)")
            codes = np.full(k, -1, dtype=np.int8)
            for code, text in enumerate(_SENSES):
                codes[named == text] = code
            if (codes < 0).any():
                raise ModelInvalid(f"unknown constraint sense {named[codes < 0][0]!r}")
        _finite(coefs, "constraint coefficients")
        _finite(rhs, "right-hand sides")
        first = len(self._sense)
        _extend(self._row, rows + first)
        _extend(self._col, cols)
        _extend(self._coef, coefs)
        _extend(self._sense, codes)
        _extend(self._rhs, rhs)
        self._arrays = None
        return first

    def add_constr(self, terms: Iterable[tuple], sense: str, rhs: float) -> int:
        """Add one row of (variable, coefficient) terms, summing the terms
        of each variable; checked as :meth:`add_rows` checks a block."""
        if sense not in _SENSES:
            raise ModelInvalid(f"unknown constraint sense {sense!r}")
        merged: dict[int, float] = {}
        for var, coef in terms:
            idx = self._resolve(var)
            merged[idx] = merged.get(idx, 0.0) + float(coef)
        rhs = float(rhs)
        if not all(map(math.isfinite, merged.values())):
            raise ModelInvalid("constraint coefficients must be finite")
        if not math.isfinite(rhs):
            raise ModelInvalid(f"right-hand sides must be finite, got {rhs}")
        row = len(self._sense)
        self._row.extend([row] * len(merged))
        self._col.extend(merged.keys())
        self._coef.extend(merged.values())
        self._sense.append(_SENSES.index(sense))
        self._rhs.append(rhs)
        self._arrays = None
        return row

    def set_objective(
        self,
        terms: Iterable[tuple] = (),
        sense: str = "min",
        constant: float = 0.0,
        *,
        cols=None,
        coefs=None,
    ) -> None:
        """Replace the objective.

        The costs are either ``terms``, (variable, coefficient) pairs, or
        the equally long arrays ``cols`` (column indices) and ``coefs``;
        the costs of a column are summed.  Costs and ``constant`` must be
        finite.
        """
        if sense not in ("min", "max"):
            raise ModelInvalid(f"objective sense must be min or max, got {sense!r}")
        if cols is None:
            pairs = [(self._resolve(var), float(coef)) for var, coef in terms]
            cols = np.fromiter((c for c, _ in pairs), np.int64, len(pairs))
            coefs = np.fromiter((c for _, c in pairs), np.float64, len(pairs))
        cols = self._columns(cols, "cols")
        coefs = np.asarray(coefs, dtype=np.float64)
        if coefs.shape != cols.shape:
            raise ModelInvalid(f"cols and coefs have lengths {len(cols)} and {coefs.size}")
        _finite(coefs, "objective coefficients")
        constant = float(constant)
        _finite(np.array([constant]), "the objective constant")
        self._cost = np.bincount(cols, weights=coefs, minlength=len(self._names))
        self.objective_constant = constant
        self.sense = sense

    # -- introspection ----------------------------------------------------

    @property
    def num_vars(self) -> int:
        return len(self._names)

    @property
    def num_constrs(self) -> int:
        return len(self._sense)

    def var_index(self, name: Hashable) -> int:
        return self._index[name]

    def var_name(self, idx: int) -> Hashable:
        return self._names[idx]

    @property
    def variables(self) -> list[Variable]:
        """The columns, one :class:`Variable` each; built on each access."""
        kinds = [_KINDS[k] for k in self._kind]
        return list(map(Variable, self._names, kinds, self._lower, self._upper))

    @property
    def constraints(self) -> list[tuple[tuple[int, ...], tuple[float, ...], str, float]]:
        """The rows as ``(columns, coefficients, sense, rhs)``, each row's
        terms in the order they were added; built on each access."""
        row = np.array(self._row, dtype=np.int64)
        order = np.argsort(row, kind="stable")
        cols = np.array(self._col, dtype=np.int64)[order].tolist()
        coefs = np.array(self._coef, dtype=np.float64)[order].tolist()
        ends = np.cumsum(np.bincount(row, minlength=self.num_constrs)).tolist()
        out = []
        at = 0
        for end, code, rhs in zip(ends, self._sense, self._rhs):
            out.append((tuple(cols[at:end]), tuple(coefs[at:end]), _SENSES[code], rhs))
            at = end
        return out

    @property
    def objective(self) -> dict[int, float]:
        """The nonzero costs by column index; built on each access."""
        nonzero = np.flatnonzero(self._cost)
        return dict(zip(nonzero.tolist(), self._cost[nonzero].tolist()))


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

    ``a`` holds the "<=" and ">=" rows first, in model order and with the
    ">=" rows negated, then the equality rows.  A "<=" row has lower bound
    ``-inf``; an equality row has equal bounds.  They do not depend on the
    objective, so a model keeps them until its next column or row is added.
    """

    a: csc_matrix
    row_lower: np.ndarray
    row_upper: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    int_mask: np.ndarray
    names: list[Hashable]


@dataclass(frozen=True)
class _Compiled(_Arrays):
    """A model in the form HiGHS loads, minimizing ``c @ x``."""

    c: np.ndarray
    const: float
    flip: bool


def _compile_arrays(model: MipModel) -> _Arrays:
    sense = np.array(model._sense, dtype=np.int8)
    row = np.array(model._row, dtype=np.int64)
    # the model's rows in their HiGHS order, and each row's place in it
    is_eq = sense == _EQ
    order = np.argsort(is_eq, kind="stable")
    pos = np.empty_like(order)
    pos[order] = np.arange(len(order))
    sign = np.where(sense == _GE, -1.0, 1.0)
    a = csc_matrix(
        (sign[row] * np.array(model._coef, dtype=np.float64), (pos[row], np.array(model._col))),
        shape=(len(sense), model.num_vars),
    )
    row_upper = (sign * np.array(model._rhs, dtype=np.float64))[order]
    row_lower = np.where(is_eq[order], row_upper, -np.inf)
    return _Arrays(
        a=a,
        row_lower=row_lower,
        row_upper=row_upper,
        lower=np.array(model._lower, dtype=np.float64),
        upper=np.array(model._upper, dtype=np.float64),
        int_mask=np.array(model._kind, dtype=np.int8) != _KINDS.index(CONTINUOUS),
        names=list(model._names),
    )


def _compile(model: MipModel) -> _Compiled:
    """Solver arrays of ``model``; only the objective is recomputed per call."""
    if model._arrays is None:
        model._arrays = _compile_arrays(model)
    c = np.zeros(model.num_vars)
    c[: len(model._cost)] = model._cost
    flip = model.sense == "max"
    if flip:
        c = -c
    return _Compiled(**vars(model._arrays), c=c, const=model.objective_constant, flip=flip)


def _lp(comp: _Compiled, lower: np.ndarray, upper: np.ndarray):
    """Cold ``linprog`` solve of the relaxation under column bounds.

    The tests' reference for :class:`_HotLp`; no library path calls it.
    """
    ub = np.isneginf(comp.row_lower)
    res = linprog(
        comp.c,
        A_ub=comp.a[ub],
        b_ub=comp.row_upper[ub],
        A_eq=comp.a[~ub],
        b_eq=comp.row_upper[~ub],
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

    Called with column bounds; returns ``(status, x, fun)`` with
    ``linprog``'s status codes.  The first call is the cold solve
    ``linprog`` makes of the same model; later calls change only the bounds
    that differ from the previous call's, so HiGHS starts dual simplex from
    the last optimal basis.
    """

    def __init__(self, comp: _Compiled):
        lp = _highs.HighsLp()
        lp.num_row_, lp.num_col_ = comp.a.shape
        lp.a_matrix_.num_row_, lp.a_matrix_.num_col_ = comp.a.shape
        lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
        lp.a_matrix_.start_ = comp.a.indptr
        lp.a_matrix_.index_ = comp.a.indices
        lp.a_matrix_.value_ = comp.a.data
        lp.col_cost_ = comp.c
        lp.col_lower_ = _highs_inf(comp.lower)
        lp.col_upper_ = _highs_inf(comp.upper)
        lp.row_lower_ = _highs_inf(comp.row_lower)
        lp.row_upper_ = _highs_inf(comp.row_upper)
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

    A ``time_limit`` that is NaN or negative, or a ``gap_tol`` that is
    negative or not finite, raises :class:`ValidationError` before any work.
    """
    cfg = cfg or SolveConfig()
    if cfg.time_limit is not None and not cfg.time_limit >= 0.0:
        raise ValidationError(f"time_limit must be at least 0, got {cfg.time_limit}")
    if not 0.0 <= cfg.gap_tol < math.inf:
        raise ValidationError(f"gap_tol must be finite and at least 0, got {cfg.gap_tol}")
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
            node_lp = _HotLp(comp)
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
    lp_status, _x, fun = _HotLp(comp)(comp.lower, comp.upper)
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
    variables = model.variables
    labels = [_label(v.name) for v in variables]
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
    for v, label in zip(variables, labels):
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
    binaries = [label for v, label in zip(variables, labels) if v.kind == BINARY]
    generals = [label for v, label in zip(variables, labels) if v.kind == INTEGER]
    if binaries:
        lines.append("Binary")
        lines.append(" " + " ".join(binaries))
    if generals:
        lines.append("General")
        lines.append(" " + " ".join(generals))
    lines.append("End")
    return "\n".join(lines) + "\n"
