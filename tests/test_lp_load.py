"""What HiGHS is handed: the one compile against the two-block compile it
replaced, and the import that requires scipy's HiGHS bindings.

A model compiles once, straight to the column-wise matrix and row bounds
that ``passModel`` takes: the "<=" and ">=" rows first, in model order and
with ">=" rows negated, then the equalities.  The package once compiled to
``linprog``'s form instead, a "<=" block and an "=" block that the LP
stacked and converted; ``tests/oracles.py::two_block_load`` keeps that
compile.  Every model must reach ``passModel`` as the same arrays, so every
search and every trajectory stays as it was.
"""

import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import platoonplan.mip as mip_module
from instgen import HUB_RUNGS, field_fleet, hub_fleet
from oracles import two_block_load
from platoonplan.decomposition import DecompositionConfig, run
from platoonplan.formulations import build_cpf, build_fcnf, build_tsf
from platoonplan.instance import three_truck_demo
from platoonplan.mip import _compile, lp_bound, solve
from platoonplan.network import build_time_space

SRC = Path(__file__).resolve().parents[1] / "src"


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


def test_import_without_the_bindings_names_the_scipy_floor():
    """Where scipy's ``_core`` lacks a name the LP uses, ``import
    platoonplan`` fails and says which scipy it needs."""
    code = """
import types
import scipy.optimize._highspy as highspy
import sys

core = highspy._core
stub = types.ModuleType(core.__name__)
stub.__dict__.update({k: v for k, v in vars(core).items() if not k.startswith("__")})
stub._Highs = type("_Highs", (), {})  # no changeColsBounds
highspy._core = stub
sys.modules[core.__name__] = stub
try:
    import platoonplan
except ImportError as exc:
    print("ImportError:", exc)
else:
    print("imported")
"""
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(SRC), "PATH": ""},
        check=True,
    ).stdout
    assert out.startswith("ImportError: platoonplan needs scipy>=1.15")
    assert "changeColsBounds" in out
