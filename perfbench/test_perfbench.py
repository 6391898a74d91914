"""Self-test of the benchmark harness.

Runs every workload in quick mode (the 5x5/10 hub rung, field grid 9 in
llcmp), untraced and traced, and checks the output against
``BENCHMARK.json``.  From the checkout root::

    python3 -m pytest perfbench -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import platoonplan  # noqa: E402
import platoonplan.decomposition  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _quick(workload, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace), "--quick"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


def _passes_gate(report, result):
    assert not [line for line in report if "GATE BREACH" in line]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_prints_every_end_to_end_metric(workload):
    report, result = _quick(workload, 0)
    _passes_gate(report, result)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert got["value"] > 0
        printed = [line.split() for line in report]
        assert [metric["name"], metric["unit"]] in [w[:1] + w[2:3] for w in printed]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_traced_run_reports_every_per_layer_metric(workload):
    report, result = _quick(workload, 1)
    _passes_gate(report, result)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert result["metrics"]["trace.coverage"]["value"] >= 0.9
    assert not [line for line in report if "MISSING" in line]


def test_benchmark_lists_every_per_layer_metric_once():
    assert [m["name"] for m in SPEC["per_layer"]] == tracing.metric_names()


def test_missing_hooks_and_broken_counters_are_reported_not_raised():
    def broken(_out):
        raise AttributeError("no such field")

    hooks = tracing.HOOKS + (
        tracing.Hook("formulations", "gone", "platoonplan.formulations", ("no_such_function",)),
        tracing.Hook("mip", "elsewhere", "platoonplan.no_such_module", ("solve",)),
        tracing.Hook("evaluate", "cost", "platoonplan.evaluate", ("total_cost",),
                     (("evaluate.broken", broken),)),
    )
    original = platoonplan.decomposition.build_fcnf
    tracer = tracing.Tracer()
    tracer.install(hooks)
    try:
        assert platoonplan.decomposition.build_fcnf is not original
        _plan, log = platoonplan.run(
            platoonplan.three_truck_demo(), platoonplan.DecompositionConfig(time_limit=10.0)
        )
    finally:
        tracer.uninstall()
    assert platoonplan.decomposition.build_fcnf is original
    assert set(tracer.missing) == {"formulations.gone", "mip.elsewhere"}
    assert set(tracer.broken) == {"evaluate.broken"}
    metrics = tracer.metrics(1.0, hooks=hooks)
    assert "formulations.gone_s" not in metrics and "evaluate.broken" not in metrics
    assert metrics["decomposition.rounds"] == len(log.records)
    assert metrics["formulations.build_fcnf_calls"] == len(log.records)
