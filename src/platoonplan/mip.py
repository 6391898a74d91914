"""Mixed-integer linear models and a small deterministic solver.

The model container is solver-agnostic and stored as arrays, not as one
object per column or row: blocks of columns, each a tag with one row of
integer ids per column (see :class:`MipModel`), with arrays of kinds and
bounds; one COO entry (row, column, coefficient) per constraint term with
an array of senses and right-hand sides; and one dense cost array and a
constant for the objective.  There is one way to add each:
:meth:`MipModel.add_vars` adds a block of columns,
:meth:`MipModel.add_rows` a block of rows and
:meth:`MipModel.set_objective` replaces the costs, the last two over column
indices.  Every coefficient, cost and right-hand side must be finite; a NaN
or an infinity raises :class:`ModelInvalid` where it is added.
:attr:`MipModel.variables`, :attr:`MipModel.constraints` and
:attr:`MipModel.objective` are read-only views built on each access, for
reading a model, never for a hot path.

:func:`solve` runs branch and bound over LP
relaxations (scipy's HiGHS), with best-bound node selection
and most-fractional branching, both with lowest-index tie breaks, so a
given model and config always reproduce the same search on one scipy
build.  A search takes no start point.  Best-bound search can run long
without reaching an integral leaf, so a search that has processed 32 nodes
without an incumbent dives from its current node: it floors the fractional
integer column of smallest LP value and re-solves, until the LP is
integral (the new incumbent) or infeasible.  The next dive waits for 64
LPs, then 128, and so on.  The search goes on while a node is open, the
gap over the best open node is open and the clock has time left, and the
first of the three to fail sets its status.  :meth:`MipResult.take` reads
the incumbent by tag.
:func:`lp_text` prints a model as CPLEX-style LP text for debugging.

A model compiles to solver arrays once, straight to the form HiGHS loads:
the column-wise constraint matrix (built in numpy, as the arrays scipy's
``csc_matrix`` would give), row and column bounds and integrality are kept
on the model until the next column or row is added, so re-solving a model
whose objective alone was reset with :meth:`MipModel.set_objective`
recomputes only the cost vector.  The iterative heuristic relies on this:
it builds its routing model once per run and reprices it every round.

All node LPs of one :func:`solve` call share one HiGHS LP object, loaded
exactly as ``linprog(method="highs")`` loads it.  Each node changes only the
column bounds that differ from the node solved before it and re-runs dual
simplex from that node's optimal basis, which stays dual feasible under any
bound change (a hot start); the steps of a dive are solved the same way.
A search's time limit also bounds each LP: HiGHS stops the LP at the
deadline, and its node goes back on the heap, still open.

The object comes from scipy's private ``scipy.optimize._highspy._core``,
first shipped in scipy 1.15.  This module loads that extension alone, from
scipy's install directory and under its own name in ``sys.modules``, so
importing the package loads neither ``scipy.optimize`` nor
``scipy.sparse``, and a later ``import scipy.optimize`` uses the same
module; one already imported is reused.  If the extension or any name this
module uses from it is missing, importing the package fails with an
:class:`ImportError` that names the scipy floor; so does a HiGHS whose
``kHighsInf`` is not the float infinity, since bounds reach HiGHS as they
are, infinities included.  There is no other LP path, so a model and a
config give one search tree on a given HiGHS build.
``linprog`` is no longer used here; the name still resolves, through a
module ``__getattr__`` that imports ``scipy.optimize`` when it is first
asked for, because the benchmark's ``mip.highs`` hook looks it up.
"""

from __future__ import annotations

import heapq
import importlib.machinery
import importlib.util
import math
import os
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidSolution, ModelInfeasible, ModelInvalid, Unbounded, ValidationError

_HIGHS_NAME = "scipy.optimize._highspy._core"


def _load_highs():
    """scipy's HiGHS extension, loaded without ``scipy.optimize``.

    The module is registered under its own name, so a later import of
    ``scipy.optimize`` finds and uses this one; one that came first is
    reused."""
    if _HIGHS_NAME in sys.modules:
        return sys.modules[_HIGHS_NAME]
    scipy = importlib.util.find_spec("scipy")
    if scipy is None or not scipy.submodule_search_locations:
        raise ImportError("scipy is not installed")
    base = os.path.join(scipy.submodule_search_locations[0], "optimize", "_highspy", "_core")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = base + suffix
        if os.path.isfile(path):
            loader = importlib.machinery.ExtensionFileLoader(_HIGHS_NAME, path)
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_file_location(_HIGHS_NAME, path, loader=loader)
            )
            loader.exec_module(module)
            sys.modules[_HIGHS_NAME] = module
            return module
    raise ImportError(f"no {base}* extension module")


try:
    _highs = _load_highs()
    # every name _HotLp uses, so a renamed one fails here and not mid-search
    _highs._Highs.changeColsBounds, _highs._Highs.getRunTime, _highs.HighsLp
    _highs.HighsModelStatus, _highs.HighsStatus, _highs.MatrixFormat
    if _highs.kHighsInf != math.inf:  # bounds reach HiGHS as they are
        raise ImportError(f"its kHighsInf is {_highs.kHighsInf}, not inf")
except (ImportError, AttributeError) as exc:
    raise ImportError(
        f"platoonplan needs scipy>=1.15, whose {_HIGHS_NAME} it loads its LPs into: {exc}"
    ) from exc


def __getattr__(name: str):
    # perfbench's mip.highs hook looks linprog up here until it times _HotLp;
    # scipy.optimize loads only when something asks for it
    if name == "linprog":
        from scipy.optimize import linprog

        return linprog
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    name: tuple
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


def _gather(blocks, tag: str) -> tuple[np.ndarray, np.ndarray]:
    """Column indices and ids of the blocks of ``blocks`` tagged ``tag``."""
    found = [(first, ids) for t, first, ids in blocks if t == tag]
    if not found:
        raise ModelInvalid(f"no columns are tagged {tag!r}")
    cols = np.concatenate([np.arange(first, first + len(ids)) for first, ids in found])
    return cols, np.concatenate([ids for _first, ids in found])


class MipModel:
    """Sparse MIP container whose columns come in tagged blocks of ids.

    :meth:`add_vars` adds a block: a tag and one row of integer ids per
    column, as many per column as in the tag's first block, and never the
    same row twice under one tag.  So a column's key ``(tag, *ids)`` is
    unique, but the model keeps only its blocks, ``(tag, first column,
    ids)``, and forms keys only for :attr:`variables` and :func:`lp_text`,
    which joins a key's parts with underscores.  Rows and the objective
    refer to a column by the index :meth:`add_vars` returns and
    :meth:`columns` gives by tag.

    Beside the blocks, columns are typed arrays of kinds and bounds.  Rows
    are COO entries, one (row, column, coefficient) per term in the order
    the terms were added, with one sense and right-hand side per row.  The
    objective is one dense cost array over the columns that existed when it
    was set; later columns cost 0.  ``num_vars`` and ``num_constrs`` are
    O(1); ``variables``, ``constraints`` and ``objective`` are views built
    on each access.
    """

    def __init__(self, name: str = "model"):
        self.name = name
        self._blocks: list[tuple[str, int, np.ndarray]] = []
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
        tag: str,
        ids,
        kind: str = CONTINUOUS,
        lower=0.0,
        upper=math.inf,
    ) -> np.ndarray:
        """Add one column per row of ``ids``, all of ``kind``, under ``tag``;
        return their indices.

        ``ids`` is a two-dimensional integer array.  ``lower`` and ``upper``
        are scalars or arrays with one entry per column.  Binary bounds are
        clipped to [0, 1].  Ids that are not integers, a number of ids per
        column other than the tag's, a row of ids repeated in the block or
        already under the tag, arrays of the wrong length and empty bounds
        raise :class:`ModelInvalid` and add nothing.
        """
        ids = np.asarray(ids)
        if ids.ndim != 2 or not ids.shape[1] or (ids.size and ids.dtype.kind not in "iu"):
            raise ModelInvalid("ids must be a two-dimensional array of integers")
        ids = ids.astype(np.int64)
        k = len(ids)
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
                f"variable {(tag, *ids[at].tolist())!r} has empty bounds [{lower[at]}, {upper[at]}]"
            )
        same = [old for t, _first, old in self._blocks if t == tag]
        if same and same[0].shape[1] != ids.shape[1]:
            raise ModelInvalid(
                f"tag {tag!r} has {same[0].shape[1]} ids per column, got {ids.shape[1]}"
            )
        rows = np.concatenate(same + [ids])
        rows = rows[np.lexsort(rows.T)]
        twice = (rows[1:] == rows[:-1]).all(axis=1)
        if twice.any():
            raise ModelInvalid(f"duplicate variable {(tag, *rows[np.argmax(twice)].tolist())!r}")
        start = self.num_vars
        self._blocks.append((tag, start, ids))
        self._kind.extend([_KINDS.index(kind)] * k)
        _extend(self._lower, lower)
        _extend(self._upper, upper)
        self._arrays = None
        return np.arange(start, start + k)

    def _columns(self, cols, what: str) -> np.ndarray:
        cols = _ids(cols, what)
        if cols.size and (cols.min() < 0 or cols.max() >= self.num_vars):
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

    def set_objective(self, cols, coefs, sense: str = "min", constant: float = 0.0) -> None:
        """Replace the objective by ``coefs[e]`` on column ``cols[e]``.

        ``cols`` and ``coefs`` are equally long; the costs of a column are
        summed, and columns not in ``cols`` cost 0.  Costs and ``constant``
        must be finite.
        """
        if sense not in ("min", "max"):
            raise ModelInvalid(f"objective sense must be min or max, got {sense!r}")
        cols = self._columns(cols, "cols")
        coefs = np.asarray(coefs, dtype=np.float64)
        if coefs.shape != cols.shape:
            raise ModelInvalid(f"cols and coefs have lengths {len(cols)} and {coefs.size}")
        _finite(coefs, "objective coefficients")
        constant = float(constant)
        _finite(np.array([constant]), "the objective constant")
        self._cost = np.bincount(cols, weights=coefs, minlength=self.num_vars)
        self.objective_constant = constant
        self.sense = sense

    # -- introspection ----------------------------------------------------

    @property
    def num_vars(self) -> int:
        return len(self._kind)

    @property
    def num_constrs(self) -> int:
        return len(self._sense)

    def columns(self, tag: str) -> tuple[np.ndarray, np.ndarray]:
        """The indices and ids of the columns added under ``tag``, in column
        order; a tag the model lacks raises :class:`ModelInvalid`."""
        return _gather(self._blocks, tag)

    @property
    def variables(self) -> list[Variable]:
        """The columns, one :class:`Variable` named by its key ``(tag,
        *ids)``; built on each access."""
        keys = [(tag, *row) for tag, _first, ids in self._blocks for row in ids.tolist()]
        kinds = [_KINDS[k] for k in self._kind]
        return list(map(Variable, keys, kinds, self._lower, self._upper))

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

    ``x`` is the incumbent in column order, or None if there is none;
    ``blocks`` holds the model's blocks as they were when it was solved.
    ``node_count`` counts the LPs solved: the search's nodes and the steps
    of its dives.
    """

    status: str
    objective: float | None
    bound: float | None
    x: np.ndarray | None
    wall_time: float
    node_count: int
    blocks: tuple[tuple[str, int, np.ndarray], ...] = ()

    def take(self, tag: str) -> tuple[np.ndarray, np.ndarray]:
        """The ids of the columns tagged ``tag`` and their incumbent values.

        Raises :class:`InvalidSolution` if there is no incumbent."""
        if self.x is None:
            raise InvalidSolution(f"result carries no incumbent ({self.status})")
        cols, ids = _gather(self.blocks, tag)
        return ids, self.x[cols]


@dataclass(frozen=True)
class _Csc:
    """A compressed sparse column matrix in the arrays HiGHS loads."""

    shape: tuple[int, int]
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray


def _csc(row: np.ndarray, col: np.ndarray, data: np.ndarray, shape: tuple[int, int]) -> _Csc:
    """The CSC form of COO entries, with int32 indices; each row of a column
    holds the sum of its entries, added left to right in entry order."""
    n_rows, n_cols = shape
    key = col * n_rows + row
    order = np.argsort(key, kind="stable")
    key, data = key[order], data[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    summed = data[first]
    # np.add.reduceat sums a run pairwise; adding each run's k-th entry in
    # turn keeps the left-to-right sums scipy's csc_matrix makes
    size = np.diff(np.append(first, len(key)))
    for k in range(1, int(size.max(initial=1))):
        more = size > k
        summed[more] += data[first[more] + k]
    indptr = np.zeros(n_cols + 1, dtype=np.int32)
    np.cumsum(np.bincount(col[order][first], minlength=n_cols), out=indptr[1:])
    return _Csc(shape, indptr, row[order][first].astype(np.int32), summed)


@dataclass(frozen=True)
class _Arrays:
    """The solver arrays of a model's variables and constraints.

    ``a`` holds the "<=" and ">=" rows first, in model order and with the
    ">=" rows negated, then the equality rows.  A "<=" row has lower bound
    ``-inf``; an equality row has equal bounds.  They do not depend on the
    objective, so a model keeps them until its next column or row is added.
    """

    a: _Csc
    row_lower: np.ndarray
    row_upper: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    int_mask: np.ndarray


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
    a = _csc(
        pos[row],
        np.array(model._col, dtype=np.int64),
        sign[row] * np.array(model._coef, dtype=np.float64),
        (len(sense), model.num_vars),
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


class _HotLp:
    """One HiGHS LP of a compiled model, re-solved under changing column bounds.

    Called with column bounds; returns ``(status, x, fun)`` with
    ``linprog``'s status codes, 1 for an LP that ``deadline``, a
    ``perf_counter`` time, stopped.  The first call is the cold solve
    ``linprog`` makes of the same model; later calls change only the bounds
    that differ from the previous call's, so HiGHS starts dual simplex from
    the last optimal basis.
    """

    def __init__(self, comp: _Compiled, deadline: float | None = None):
        lp = _highs.HighsLp()
        lp.num_row_, lp.num_col_ = comp.a.shape
        lp.a_matrix_.num_row_, lp.a_matrix_.num_col_ = comp.a.shape
        lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
        lp.a_matrix_.start_ = comp.a.indptr
        lp.a_matrix_.index_ = comp.a.indices
        lp.a_matrix_.value_ = comp.a.data
        lp.col_cost_ = comp.c
        lp.col_lower_ = comp.lower
        lp.col_upper_ = comp.upper
        lp.row_lower_ = comp.row_lower
        lp.row_upper_ = comp.row_upper
        self._highs = _highs._Highs()
        # the options linprog(method="highs") sets; logging off
        self._highs.setOptionValue("output_flag", False)
        self._highs.setOptionValue("presolve", "on")
        self._highs.setOptionValue("simplex_strategy", 1)  # dual simplex
        if self._highs.passModel(lp) == _highs.HighsStatus.kError:
            raise ModelInvalid("HiGHS rejected the model")
        self._lower = comp.lower.copy()
        self._upper = comp.upper.copy()
        self._deadline = deadline

    def __call__(self, lower: np.ndarray, upper: np.ndarray):
        changed = np.flatnonzero((lower != self._lower) | (upper != self._upper))
        if changed.size:
            self._highs.changeColsBounds(
                changed.size, changed.astype(np.int32), lower[changed], upper[changed]
            )
            self._lower[changed] = lower[changed]
            self._upper[changed] = upper[changed]
        if self._deadline is not None:
            # HiGHS's limit is on its run clock, which adds up over runs
            left = max(self._deadline - time.perf_counter(), 0.0)
            self._highs.setOptionValue("time_limit", left + self._highs.getRunTime())
        self._highs.run()
        model_status = self._highs.getModelStatus()
        codes = _highs.HighsModelStatus
        if model_status == codes.kOptimal:
            x = np.array(self._highs.getSolution().col_value)
            return 0, x, self._highs.getInfo().objective_function_value
        if model_status == codes.kTimeLimit:
            return 1, None, None
        if model_status == codes.kInfeasible:
            return 2, None, None
        if model_status in (codes.kUnbounded, codes.kUnboundedOrInfeasible):
            return 3, None, None
        return 4, None, None


def _lp_failure(model: MipModel, lp_status: int) -> Exception:
    """The error for an LP that ended neither optimal (0), on the clock (1)
    nor infeasible (2): :class:`Unbounded` for 3, else :class:`ModelInvalid`."""
    if lp_status == 3:
        return Unbounded(f"model {model.name!r}: LP relaxation is unbounded")
    return ModelInvalid(f"model {model.name!r}: LP solver failure (status {lp_status})")


def _fractionality(comp: _Compiled, x: np.ndarray) -> np.ndarray:
    """Distance of each integer column of ``x`` from its nearest integer."""
    frac = np.abs(x - np.round(x))
    frac[~comp.int_mask] = 0.0
    return frac


def _rounded(comp: _Compiled, x: np.ndarray) -> np.ndarray:
    """A copy of ``x`` with its integer columns rounded to exact integers;
    "+ 0.0" turns a rounded -0.0 into 0.0."""
    x_int = x.copy()
    x_int[comp.int_mask] = np.round(x_int[comp.int_mask]) + 0.0
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


def _zero_fits(comp: _Compiled) -> bool:
    """Whether every row of a model without columns admits its activity 0."""
    return bool((comp.row_lower <= 0.0).all() and (comp.row_upper >= 0.0).all())


def _reported(comp: _Compiled, value: float) -> float | None:
    """A minimize-space value without the constant, read in the model's
    sense and with its constant; None if infinite (nothing found or proven)."""
    if not math.isfinite(value):
        return None
    return (-value if comp.flip else value) + comp.const


def _check_time_limit(time_limit: float | None) -> None:
    """Reject a NaN or negative ``time_limit``; None means no limit."""
    if time_limit is not None and not time_limit >= 0.0:
        raise ValidationError(f"time_limit must be at least 0, got {time_limit}")


def solve(model: MipModel, cfg: SolveConfig | None = None) -> MipResult:
    """Branch and bound to proven optimality, a limit, or infeasibility.

    The search runs while a node is open, the gap over the best open node
    is open and the clock has time left, tested in that order.  The first
    to fail sets the result: no open node gives ``infeasible``, or
    ``optimal`` bounded by its objective; a closed gap gives ``optimal``,
    bounded by the best open node but never past the objective, so
    ``|objective - bound| <= gap_tol * max(1, |objective|)``; the clock
    gives ``feasible_time_limit`` or ``no_solution_time_limit``, bounded by
    the best open node.  An LP that the clock stops leaves its node open.
    Feasibility tolerance on any reported incumbent is 1e-6 per constraint;
    integer variables are reported as exact integers.

    The first incumbent comes from an integral node LP or a dive.  While
    there is none, the search dives from the node it is processing once it
    has solved 32 LPs, then 64, 128 and so on (see :func:`_dive`); the node
    is then pruned if the dive's plan closes the gap, and branched
    otherwise.

    A ``time_limit`` that is NaN or negative, or a ``gap_tol`` that is
    negative or not finite, raises :class:`ValidationError` before any work.
    A model without columns is decided without HiGHS: every row reads 0, so
    it is infeasible if a row's bounds exclude 0 and optimal otherwise.
    """
    cfg = cfg or SolveConfig()
    _check_time_limit(cfg.time_limit)
    if not 0.0 <= cfg.gap_tol < math.inf:
        raise ValidationError(f"gap_tol must be finite and at least 0, got {cfg.gap_tol}")
    start = time.perf_counter()
    comp = _compile(model)
    blocks = tuple(model._blocks)
    inc_x = None
    inc_obj = math.inf  # in minimize space, without the constant
    deadline = None if cfg.time_limit is None else start + cfg.time_limit

    def out_of_time() -> bool:
        return deadline is not None and time.perf_counter() >= deadline

    def gap_closed(lb: float) -> bool:
        return inc_obj - lb <= cfg.gap_tol * max(1.0, abs(inc_obj))

    def heap_top_closed() -> bool:  # no open node can beat the incumbent
        return inc_x is not None and gap_closed(heap[0][0])

    # nodes carry their parent's LP value as a lower bound plus the chain of
    # bound tightenings that defines the subproblem; the heap top is a valid
    # global lower bound
    heap = [(-math.inf, 0, ())]
    if model.num_vars == 0:  # HiGHS solves no model without columns
        heap = []
        if _zero_fits(comp):
            inc_x, inc_obj = np.zeros(0), 0.0
    tick = 1
    nodes = 0
    next_dive = _DIVE_AT
    node_lp = None  # built at the first node, so a zero time limit solves nothing

    while heap and not heap_top_closed() and not out_of_time():
        parent_bound, parent_tick, changes = heapq.heappop(heap)

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
            node_lp = _HotLp(comp, deadline)
        lp_status, x, fun = node_lp(lower, upper)
        nodes += 1
        if lp_status == 1:  # the clock stopped this node's LP; it stays open
            heapq.heappush(heap, (parent_bound, parent_tick, changes))
            break
        if lp_status == 2:  # infeasible subproblem
            continue
        if lp_status != 0:
            raise _lp_failure(model, lp_status)
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

    if not heap:  # every leaf was solved or pruned
        status, bound = (INFEASIBLE if inc_x is None else OPTIMAL), inc_obj
    elif heap_top_closed():
        status, bound = OPTIMAL, min(heap[0][0], inc_obj)
    else:
        status = FEASIBLE_TIME_LIMIT if inc_x is not None else NO_SOLUTION_TIME_LIMIT
        bound = heap[0][0]
    return MipResult(
        status=status,
        objective=_reported(comp, inc_obj),
        bound=_reported(comp, bound),
        x=inc_x,
        wall_time=time.perf_counter() - start,
        node_count=nodes,
        blocks=blocks,
    )


def lp_bound(model: MipModel) -> float:
    """Objective of the LP relaxation; a valid dual bound on the MIP.

    Raises :class:`ModelInfeasible` if the relaxation is infeasible,
    including a model without columns one of whose rows excludes 0.
    """
    comp = _compile(model)
    if model.num_vars == 0:
        if not _zero_fits(comp):
            raise ModelInfeasible(f"model {model.name!r}: a row excludes 0")
        return comp.const
    lp_status, _x, fun = _HotLp(comp)(comp.lower, comp.upper)
    if lp_status == 2:
        raise ModelInfeasible(f"model {model.name!r}: LP relaxation infeasible")
    if lp_status != 0:
        raise _lp_failure(model, lp_status)
    return _reported(comp, fun)


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


def _label(key: tuple) -> str:
    """The LP-text name of a column: its key's parts joined by ``_``."""
    return "_".join(map(str, key))


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
