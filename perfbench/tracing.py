"""In-memory spans around calls into each platoonplan layer.

The package binds its cross-layer calls with ``from .x import y``, so a
wrapper only sees a call if it replaces the binding the caller looks up.
:meth:`Tracer.install` therefore wraps a function once and rebinds every
``platoonplan`` module attribute that refers to the original object; the
package itself is never edited.

A hook whose function no longer exists (renamed, turned into a cached
property, replaced by another solver entry point) is reported as missing
instead of raising, and the metrics derived from it are left out.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Hook:
    """One traced entry point.

    ``names`` lists the attribute names in ``module`` to wrap; all that
    exist are wrapped under the one span ``layer.label``.  ``counters``
    maps a counter name to a function of the call's return value.
    """

    layer: str
    label: str
    module: str
    names: tuple[str, ...]
    counters: tuple[tuple[str, Callable], ...] = ()

    @property
    def span(self) -> str:
        return f"{self.layer}.{self.label}"


_BUILD_COUNTERS = (
    ("formulations.vars", lambda model: model.num_vars),
    ("formulations.rows", lambda model: model.num_constrs),
)

# Every HiGHS entry point platoonplan.mip may bind: the LP relaxations go
# through linprog today; a switch to HiGHS MIP would bind milp.
HIGHS_ENTRY_POINTS = ("linprog", "milp")

HOOKS = (
    Hook("network", "prune_arcs", "platoonplan.network", ("prune_arcs",)),
    Hook("network", "time_space", "platoonplan.network", ("build_time_space",)),
    Hook("instance", "node_time_bounds", "platoonplan.instance", ("node_time_bounds",)),
    Hook("formulations", "admissible_arcs", "platoonplan.formulations", ("admissible_arcs",)),
    Hook("formulations", "build_fcnf", "platoonplan.formulations", ("build_fcnf",), _BUILD_COUNTERS),
    Hook("formulations", "build_tif", "platoonplan.formulations", ("build_tif",), _BUILD_COUNTERS),
    Hook("formulations", "build_cpf", "platoonplan.formulations", ("build_cpf",), _BUILD_COUNTERS),
    Hook("formulations", "build_tsf", "platoonplan.formulations", ("build_tsf",), _BUILD_COUNTERS),
    Hook("formulations", "build_matching", "platoonplan.formulations", ("build_matching",), _BUILD_COUNTERS),
    Hook("formulations", "routes_from_result", "platoonplan.formulations", ("routes_from_result",)),
    Hook("formulations", "scheduling_preprocess", "platoonplan.formulations", ("scheduling_preprocess",)),
    Hook("mip", "solve", "platoonplan.mip", ("solve",), (("mip.bnb_nodes", lambda r: r.node_count),)),
    Hook("mip", "highs", "platoonplan.mip", HIGHS_ENTRY_POINTS),
    Hook("decomposition", "run", "platoonplan.decomposition", ("run",), (("decomposition.rounds", lambda out: len(out[1].records)),)),
    Hook("decomposition", "modify_costs", "platoonplan.decomposition", ("modify_costs",)),
    Hook("pairwise", "schedule", "platoonplan.pairwise", ("schedule_with_pairwise",)),
    Hook("pairwise", "enumerate_pairs", "platoonplan.pairwise", ("enumerate_pairs",)),
    Hook("pairwise", "select_pairs", "platoonplan.pairwise", ("select_pairs",), (("pairwise.pairs_chosen", len),)),
    Hook("pairwise", "repair", "platoonplan.pairwise", ("solve_relaxed_and_repair",)),
    Hook("evaluate", "decode", "platoonplan.evaluate", ("decode",)),
    Hook("evaluate", "check", "platoonplan.evaluate", ("check",)),
    Hook("evaluate", "total_cost", "platoonplan.evaluate", ("total_cost",)),
    Hook("evaluate", "canonical_schedule", "platoonplan.evaluate", ("canonical_schedule",)),
)

LAYERS = ("network", "instance", "formulations", "mip", "decomposition", "pairwise", "evaluate")


# Spans and layers that every workload enters.  Only their times go into
# the result line, so that no time there is a constant zero; the times of
# the other spans are printed and kept in the result file.
TIMED_SPANS = (
    "network.prune_arcs",
    "formulations.admissible_arcs",
    "mip.solve",
    "mip.highs",
    "evaluate.decode",
    "evaluate.check",
)
TIMED_LAYERS = ("network", "formulations", "evaluate")


def metric_names(hooks=HOOKS) -> list[str]:
    """The per-layer metrics of the result line, when all hooks resolve."""
    names = [f"{span}_s" for span in TIMED_SPANS]
    names += ["formulations.build_s", "mip.overhead_s", "trace.wall_s"]
    names += [f"{layer}.self_s" for layer in TIMED_LAYERS]
    for hook in hooks:
        names.append(f"{hook.span}_calls")
        names += [c for c, _fn in hook.counters if c not in names]
    names.append("trace.coverage")
    return names


def metric_unit(name: str) -> str:
    if name == "trace.coverage":
        return "share"
    return "s" if name.endswith("_s") else "count"


class Tracer:
    """Records spans while installed; spans stay in memory until written.

    A span is ``[name, start, end, parent, run]``: ``parent`` is the index
    of the enclosing span or -1, ``run`` the instance-run id current at
    the call.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.broken: dict[str, str] = {}
        self.missing: dict[str, str] = {}
        self.run_id = ""
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, hook: Hook, fn):
        name = hook.span
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id]
            spans.append(record)
            stack.append(idx)
            record[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            for counter, extract in hook.counters:
                if counter in self.broken:
                    continue
                try:
                    self.counters[counter] += extract(out)
                except Exception as exc:  # an API change must not stop the run
                    self.broken[counter] = f"{name}: {type(exc).__name__}: {exc}"
            return out

        return wrapper

    def install(self, hooks=HOOKS) -> None:
        """Wrap every hook that resolves and rebind all references to it."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "platoonplan" or n.startswith("platoonplan."))
        ]
        for hook in hooks:
            try:
                home = importlib.import_module(hook.module)
            except ImportError as exc:
                self.missing[hook.span] = f"{hook.module} does not import: {exc}"
                continue
            found = [getattr(home, n, None) for n in hook.names]
            found = [fn for fn in found if callable(fn)]
            if not found:
                self.missing[hook.span] = f"{hook.module} has no {' or '.join(hook.names)}"
                continue
            for fn in found:
                wrapper = self._wrap(hook, fn)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for _n, start, end, _p, _r in self.spans]
        for _n, start, end, parent, _r in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def metrics(self, wall_s: float, passes: int = 1, hooks=HOOKS) -> dict[str, float]:
        """Per-layer metrics per pass, from all spans recorded.

        ``wall_s`` is the traced wall time of all ``passes`` together; times
        and counts are reported as means per pass.
        """
        total = defaultdict(float)
        calls = Counter()
        layer_self = defaultdict(float)
        covered = 0.0
        for (name, start, end, parent, _r), own in zip(self.spans, self.self_times()):
            total[name] += end - start
            calls[name] += 1
            layer_self[name.split(".", 1)[0]] += own
            if parent < 0:
                covered += end - start
        out: dict[str, float] = {}
        for hook in hooks:
            if hook.span in self.missing:
                continue
            out[f"{hook.span}_s"] = total[hook.span]
            out[f"{hook.span}_calls"] = calls[hook.span]
            for counter, _fn in hook.counters:
                if counter not in self.broken:
                    out[counter] = self.counters[counter]
        builds = [v for k, v in out.items()
                  if k.startswith("formulations.build_") and k.endswith("_s")]
        if builds:
            out["formulations.build_s"] = sum(builds)
        if "mip.solve_s" in out and "mip.highs_s" in out:
            out["mip.overhead_s"] = out["mip.solve_s"] - out["mip.highs_s"]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]
        out = {k: v / passes for k, v in out.items()}
        out["trace.coverage"] = covered / wall_s if wall_s > 0 else 0.0
        out["trace.wall_s"] = wall_s / passes
        return out

    def self_by_run(self) -> dict[str, dict[str, float]]:
        """Self time per span name within each instance run."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for (name, _s, _e, _p, run), own in zip(self.spans, self.self_times()):
            out[run][name] += own
        return {run: dict(v) for run, v in out.items()}

    def write(self, path, origin: float) -> None:
        """Write the spans as gzipped JSON lines, times relative to ``origin``."""
        with gzip.open(path, "wt", encoding="ascii") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps({
                    "name": name,
                    "start": start - origin,
                    "end": end - origin,
                    "parent": parent,
                    "run": run,
                }) + "\n")
