"""The public names, the entry points the benchmark traces, and the README
example all work, and the package's modules import each other in one
direction."""

import ast
import graphlib
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import platoonplan

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
PACKAGE = ROOT / "src" / "platoonplan"


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


def test_readme_quick_start_prints_the_demo_optimum(capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "4.9"
    assert len(lines) == 4  # then one line per truck


def _relative_imports(node):
    """The package modules that the relative imports under ``node`` name."""
    return {
        target
        for sub in ast.walk(node)
        if isinstance(sub, ast.ImportFrom) and sub.level
        for target in ([sub.module.split(".")[0]] if sub.module else [a.name for a in sub.names])
    }


def test_relative_imports_form_no_cycle_and_none_sits_in_a_function():
    graph = {}
    in_functions = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        graph[path.stem] = _relative_imports(tree)
        in_functions += [
            f"{path.stem}.{node.name}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _relative_imports(node)
        ]
    assert "decomposition" in graph["__init__"]
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError as err:
        pytest.fail(f"import cycle: {' -> '.join(err.args[1])}")
    assert not in_functions
