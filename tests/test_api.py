"""The public names, and the entry points the benchmark traces, all exist."""

import importlib
import importlib.util
import sys
from pathlib import Path

import platoonplan

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing(monkeypatch):
    # loaded from its file under a private name, which dataclasses needs in
    # sys.modules while the module runs; no hook is installed
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_public_names_and_traced_hooks_resolve(monkeypatch):
    missing = [name for name in platoonplan.__all__ if not hasattr(platoonplan, name)]
    # a hook none of whose names exists reads MISSING in the benchmark
    for hook in _tracing(monkeypatch).HOOKS:
        home = importlib.import_module(hook.module)
        if not any(callable(getattr(home, name, None)) for name in hook.names):
            missing.append(f"{hook.span}: {hook.module}.{'|'.join(hook.names)}")
    assert not missing
