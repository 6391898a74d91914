"""What HiGHS is handed: the one compile against the two-block compile it
replaced, the numpy CSC build against scipy's, and the import that loads
scipy's HiGHS bindings alone.

A model compiles once, straight to the column-wise matrix and row bounds
that ``passModel`` takes: the "<=" and ">=" rows first, in model order and
with ">=" rows negated, then the equalities.  The package once compiled to
``linprog``'s form instead, a "<=" block and an "=" block that the LP
stacked and converted; ``tests/oracles.py::two_block_load`` keeps that
compile.  Every model must reach ``passModel`` as the same arrays, so every
search and every trajectory stays as it was.
"""

import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csc_matrix

import platoonplan.mip as mip_module
from instgen import HUB_RUNGS, field_fleet, hub_fleet
from oracles import two_block_load
from platoonplan.decomposition import DecompositionConfig, run
from platoonplan.formulations import build_cpf, build_fcnf, build_tsf
from platoonplan.instance import three_truck_demo
from platoonplan.mip import _compile, lp_bound, solve
from platoonplan.network import build_time_space

SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(code: str, path: str = str(SRC)) -> str:
    """The stdout of ``code`` run in a fresh interpreter on ``path``."""
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": path, "PATH": ""},
        check=True,
    ).stdout


def loaded(lp) -> dict:
    """The fields of a ``HighsLp`` that ``two_block_load`` gives."""
    fields = {name: getattr(lp, name) for name in ("num_col_", "num_row_")}
    fields.update({name: getattr(lp.a_matrix_, name) for name in ("start_", "index_", "value_")})
    fields.update(
        {
            name: getattr(lp, name)
            for name in ("col_cost_", "col_lower_", "col_upper_", "row_lower_", "row_upper_")
        }
    )
    return fields


def watch_loads(monkeypatch) -> list:
    """Compare every LP that later searches hand to ``passModel`` with the
    two-block compile of its model, in that compile's dtypes, byte for byte;
    return the list that collects the names of the models compared."""
    core = mip_module._highs
    compile_ = mip_module._compile
    current = []
    compared = []

    def compile_and_note(model):
        current[:] = [model]
        return compile_(model)

    class Highs:
        def __init__(self):
            self._highs = core._Highs()

        def __getattr__(self, name):
            return getattr(self._highs, name)

        def passModel(self, lp):
            (model,) = current
            want = two_block_load(model)
            got = loaded(lp)
            assert lp.a_matrix_.format_ == core.MatrixFormat.kColwise
            assert (lp.a_matrix_.num_col_, lp.a_matrix_.num_row_) == (lp.num_col_, lp.num_row_)
            for name, w in want.items():
                g = np.asarray(got[name], dtype=w.dtype).reshape(w.shape)
                assert g.tobytes() == w.tobytes(), (model.name, name)
            compared.append(model.name)
            return self._highs.passModel(lp)

    names = {name: getattr(core, name) for name in dir(core) if not name.startswith("__")}
    monkeypatch.setattr(mip_module, "_highs", SimpleNamespace(**{**names, "_Highs": Highs}))
    monkeypatch.setattr(mip_module, "_compile", compile_and_note)
    return compared


def load(model) -> None:
    """Hand ``model`` to HiGHS as a search does, without solving it."""
    mip_module._HotLp(mip_module._compile(model))


def exact_models(instance):
    tsn = build_time_space(instance.network, instance)
    return [build_cpf(instance), build_tsf(instance, tsn), build_fcnf(instance)]


def test_demo_models_load_as_two_blocks(monkeypatch):
    compared = watch_loads(monkeypatch)
    for model in exact_models(three_truck_demo()):
        assert solve(model).status == "optimal"
        lp_bound(model)
    assert compared == ["cpf", "cpf", "tsf", "tsf", "fcnf", "fcnf"]


@pytest.mark.parametrize(
    "rung", HUB_RUNGS, ids=lambda r: f"{r[0]}x{r[0]}/{r[1]}"
)
def test_hub_ladder_models_load_as_two_blocks(rung, monkeypatch):
    compared = watch_loads(monkeypatch)
    for model in exact_models(hub_fleet(*rung)):
        load(model)
    assert compared == ["cpf", "tsf", "fcnf"]


@pytest.mark.parametrize("scheduler", ["exact", "pairwise"])
def test_every_model_of_a_field_run_loads_as_two_blocks(scheduler, monkeypatch):
    """Criterion-8 grid 9 in llcmp: the routing model of every round and
    every part model, and with the pairwise scheduler its pair matchings."""
    compared = watch_loads(monkeypatch)
    _best, log = run(field_fleet(9), DecompositionConfig(mode="llcmp", scheduler=scheduler))
    assert compared.count("fcnf") == len(log.records) > 1
    assert "tif" in compared
    assert (scheduler == "pairwise") == ("pairing" in compared)


def test_the_empty_row_set_loads_as_two_blocks(monkeypatch):
    compared = watch_loads(monkeypatch)
    m = mip_module.MipModel("free")
    m.add_vars("a", [[0], [1]], mip_module.INTEGER, 0.0, [1.0, 2.0])
    m.set_objective(cols=[0, 1], coefs=[1.0, -1.0])
    assert solve(m).objective == -2.0
    assert compared == ["free"]
    assert _compile(m).a.shape == (0, 2)


# coefficients whose sums depend on the order they are added in, and both
# zeros: a negated ">=" row turns a 0.0 into -0.0
COEFS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, 0.2, 0.3, -0.7, 1e16, 3.3]) | st.floats(
    -1e6, 1e6
)


@st.composite
def coo_entries(draw):
    """A shape and COO entries (row, column, coefficient) in it, with many
    entries per column and row, so duplicates are common."""
    n_rows, n_cols = draw(st.integers(0, 5)), draw(st.integers(0, 4))
    if not (n_rows and n_cols):
        return (n_rows, n_cols), []
    entry = st.tuples(st.integers(0, n_rows - 1), st.integers(0, n_cols - 1), COEFS)
    return (n_rows, n_cols), draw(st.lists(entry, max_size=60))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(coo_entries())
@example(((0, 3), []))  # a model with no rows
@example(((3, 0), []))
@example(((4, 3), [(3, 0, -0.0), (3, 0, -0.0), (1, 0, 0.0), (1, 0, -0.0), (0, 2, 0.1)]))
@example(((2, 1), [(1, 0, 0.1), (1, 0, 0.2), (1, 0, 0.3), (0, 0, -0.0)]))
def test_numpy_csc_is_scipys_csc_property(case):
    """The compile's CSC arrays are scipy's ``csc_matrix`` of the same COO
    entries, in bytes and dtype: int32 ``indptr`` and ``indices``, each
    column's rows ascending, and each entry's terms summed left to right in
    the order they were given.  scipy sorts a column of more than 16 terms
    that are out of row order with an unstable sort, so its sums of three or
    more terms there follow that sort; those sums are checked against the
    left-to-right sums alone."""
    shape, entries = case
    row = np.array([e[0] for e in entries], dtype=np.int64)
    col = np.array([e[1] for e in entries], dtype=np.int64)
    data = np.array([e[2] for e in entries], dtype=np.float64)
    got = mip_module._csc(row, col, data, shape)
    want = csc_matrix((data, (row, col)), shape=shape)
    assert got.shape == want.shape == shape
    for part in ("indptr", "indices"):
        g, w = getattr(got, part), getattr(want, part)
        assert g.dtype == w.dtype == np.int32 and g.tobytes() == w.tobytes(), part
    sums = {}
    for r, c, v in entries:
        sums[c, r] = sums[c, r] + v if (c, r) in sums else v
    assert got.data.dtype == np.float64
    assert got.data.tobytes() == np.array([sums[k] for k in sorted(sums)]).tobytes()
    terms = np.bincount(col * shape[0] + row, minlength=shape[0] * shape[1])
    long_columns = np.bincount(col, minlength=shape[1]) > 16
    if not (terms.reshape(shape[1], shape[0]).max(axis=1, initial=0) >= 3)[long_columns].any():
        assert got.data.tobytes() == want.data.tobytes()


def import_with_stub_core(change: str) -> str:
    """What ``import platoonplan`` prints after ``change`` is run on a copy
    of scipy's ``_core`` named ``stub``, which stands in for it."""
    return run_python(f"""
import types
import scipy.optimize._highspy as highspy
import sys

core = highspy._core
stub = types.ModuleType(core.__name__)
stub.__dict__.update({{k: v for k, v in vars(core).items() if not k.startswith("__")}})
{change}
highspy._core = stub
sys.modules[core.__name__] = stub
try:
    import platoonplan
except ImportError as exc:
    print("ImportError:", exc)
else:
    print("imported")
""")


def test_import_without_the_bindings_names_the_scipy_floor():
    """Where scipy's ``_core`` lacks a name the LP uses, ``import
    platoonplan`` fails and says which scipy it needs."""
    out = import_with_stub_core('stub._Highs = type("_Highs", (), {})  # no changeColsBounds')
    assert out.startswith("ImportError: platoonplan needs scipy>=1.15")
    assert "changeColsBounds" in out


def test_import_with_a_finite_highs_infinity_fails():
    """Bounds reach HiGHS as they are, so a HiGHS whose ``kHighsInf`` is not
    the float infinity fails ``import platoonplan``."""
    out = import_with_stub_core("stub.kHighsInf = 1e30")
    assert out.startswith("ImportError: platoonplan needs scipy>=1.15")
    assert "kHighsInf is 1e+30" in out


SOLVE_BOTH = """
import numpy as np
from scipy.optimize import LinearConstraint, linprog, milp
import scipy.optimize._highspy._core as core
from platoonplan import mip

assert core is mip._highs
lp = linprog([1.0, 1.0], A_ub=[[-1.0, -2.0]], b_ub=[-3.0], method="highs")
ip = milp([1.0, 1.0], constraints=LinearConstraint([[1.0, 2.0]], 3.5, np.inf), integrality=[1, 1])
m = mip.MipModel()
m.add_vars("k", [[0], [1]], mip.INTEGER, 0.0, 5.0)
m.add_rows([0, 0], [0, 1], [1.0, 2.0], ">=", [3.5])
m.set_objective([0, 1], [1.0, 1.0])
print(lp.status, lp.fun, ip.status, ip.fun, mip.solve(m).objective)
"""


def test_import_loads_only_the_highs_extension_of_scipy():
    """``import platoonplan`` loads neither ``scipy.optimize`` nor
    ``scipy.sparse``; a later ``scipy.optimize`` uses the same HiGHS
    module, and its ``linprog`` and ``milp`` and ``solve`` all still
    solve."""
    out = run_python(
        "import sys\n"
        "import platoonplan\n"
        "print(sorted(m for m in ('scipy.optimize', 'scipy.sparse') if m in sys.modules))\n"
        + SOLVE_BOTH
    )
    assert out.splitlines() == ["[]", "0 1.5 0 2.0 2.0"]


def test_import_after_scipy_optimize_reuses_its_highs_module():
    out = run_python("import scipy.optimize\n" + SOLVE_BOTH)
    assert out.splitlines() == ["0 1.5 0 2.0 2.0"]


def test_import_without_the_extension_names_the_scipy_floor(tmp_path):
    """A scipy without ``optimize/_highspy/_core`` fails the import with the
    floor it needs."""
    (tmp_path / "scipy").mkdir()
    (tmp_path / "scipy" / "__init__.py").write_text("")
    out = run_python(
        "try:\n"
        "    import platoonplan\n"
        "except ImportError as exc:\n"
        "    print('ImportError:', exc)\n",
        os.pathsep.join([str(tmp_path), str(SRC)]),
    )
    assert out.startswith("ImportError: platoonplan needs scipy>=1.15")
    assert "extension module" in out
