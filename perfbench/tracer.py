"""Span tracing of dtnsat's public functions, installed from outside the package.

``Tracer.install`` wraps every public (non-underscore) function defined in
each layer module and puts the wrapper in every ``dtnsat.*`` namespace that
holds the original, so intra-module calls and ``from .x import f`` aliases
are traced too.  Spans stay in memory; ``summary`` reduces them when the
worker ends.  Private helpers are not wrapped, so their time counts as
their public caller's self time.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import time
from array import array

from workloads import PARETO_CELLS

FIELDS = 7
LAYERS = ("cli", "experiments", "equilibrium", "model", "simulate", "learning")
# every per-layer metric and its unit; trace_overhead_s comes from run.py
PER_LAYER = {
    **{f"{layer}.{stat}": unit for layer in LAYERS
       for stat, unit in (("calls", "count"), ("busy_s", "s"), ("errors", "count"))},
    "simulate.episode_us": "us",
    "simulate.episodes_per_trial": "ratio",
    "learning.relay_step_us": "us",
    "learning.source_step_us": "us",
    "learning.run_coupled_self_s": "s",
    "equilibrium.pareto_check_us": "us",
    "equilibrium.solve_us": "us",
    "equilibrium.mixed_payoffs_us": "us",
    "model.relay_mixed_per_cell": "ratio",
    "experiments.emit_csv_s": "s",
    "experiments.csv_bytes": "bytes",
    "experiments.run_scenario_self_s": "s",
    "cli.self_s": "s",
    "trace_overhead_s": "s",
}


class Tracer:
    """Wraps dtnsat's public functions and keeps their spans in memory.

    A span is FIELDS doubles appended to ``spans`` when it ends: function
    id, start, end, span id, parent span id (-1 at the top), invocation id
    (-1 outside a CLI call) and 1 if the call raised.  A flat array keeps a
    million spans in tens of megabytes.
    """

    def __init__(self):
        self.names: list[str] = []
        self.spans = array("d")
        self.invocation = -1
        self._ids = itertools.count()
        self._stack: list[int] = [-1]

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"dtnsat.{layer}")
            for name, fn in vars(module).items():
                if (not name.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == module.__name__):
                    wrappers[fn] = self._wrap(f"{layer}.{name}", fn)
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "dtnsat" or mod_name.startswith("dtnsat."):
                for name, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        setattr(module, name, wrappers[obj])

    def _wrap(self, qualname: str, fn):
        fn_id = len(self.names)
        self.names.append(qualname)
        record, stack, ids, clock = (self.spans.extend, self._stack, self._ids,
                                     time.perf_counter)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span, parent = next(ids), stack[-1]
            stack.append(span)
            raised = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = clock()
                stack.pop()
                record((fn_id, start, end, span, parent, self.invocation, raised))

        return traced

    def _records(self):
        return zip(*[iter(self.spans)] * FIELDS)

    def summary(self) -> dict[str, dict[int, dict]]:
        """Per function and invocation id: calls, errors, total and self
        seconds.  Spans outside an invocation are dropped."""
        child = [0.0] * (len(self.spans) // FIELDS)
        for _, start, end, _, parent, _, _ in self._records():
            if parent >= 0:
                child[int(parent)] += end - start
        out: dict[str, dict[int, dict]] = {}
        for fn_id, start, end, span, _, inv, raised in self._records():
            if inv < 0:
                continue
            stats = out.setdefault(self.names[int(fn_id)], {}).setdefault(
                int(inv), {"calls": 0, "errors": 0, "total_s": 0.0, "self_s": 0.0})
            stats["calls"] += 1
            stats["errors"] += int(raised)
            stats["total_s"] += end - start
            stats["self_s"] += end - start - child[int(span)]
        return out


def _mean_us(summary, names) -> float:
    calls = sum(s["calls"] for n in names for s in summary.get(n, {}).values())
    total = sum(s["total_s"] for n in names for s in summary.get(n, {}).values())
    return 1e6 * total / calls if calls else 0.0


def _sum(summary, name, key, invs=None) -> float:
    return sum(s[key] for inv, s in summary.get(name, {}).items()
               if invs is None or inv in invs)


def layer_metrics(summary, invs, csv_bytes) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (0 where a layer is idle)."""
    out = {}
    for layer in LAYERS:
        names = [n for n in summary if n.startswith(layer + ".")]
        out[f"{layer}.calls"] = sum(_sum(summary, n, "calls") for n in names)
        out[f"{layer}.busy_s"] = sum(_sum(summary, n, "self_s") for n in names)
        out[f"{layer}.errors"] = sum(_sum(summary, n, "errors") for n in names)
    sim = {i for i, inv in enumerate(invs) if inv.mode == "simulate"}
    pareto = {i for i, inv in enumerate(invs) if inv.mode == "pareto-grid"}
    trials = sum(invs[i].work for i in sim)
    out["simulate.episode_us"] = _mean_us(summary, ["simulate.simulate_episode"])
    out["simulate.episodes_per_trial"] = (
        _sum(summary, "simulate.simulate_episode", "calls", sim) / trials
        if trials else 0.0)
    out["learning.relay_step_us"] = _mean_us(summary, ["learning.relay_step"])
    out["learning.source_step_us"] = _mean_us(summary, ["learning.source_step"])
    out["learning.run_coupled_self_s"] = _sum(summary, "learning.run_coupled", "self_s")
    out["equilibrium.pareto_check_us"] = _mean_us(
        summary, ["equilibrium.pareto_dominance_check"])
    out["equilibrium.solve_us"] = _mean_us(
        summary, ["equilibrium.solve_pse", "equilibrium.solve_mse",
                  "equilibrium.solve_ese"])
    out["equilibrium.mixed_payoffs_us"] = _mean_us(
        summary, ["equilibrium.mixed_relay_payoffs"])
    out["model.relay_mixed_per_cell"] = (
        _sum(summary, "model.expected_relay_utility_mixed", "calls", pareto)
        / (PARETO_CELLS * len(pareto)) if pareto else 0.0)
    out["experiments.emit_csv_s"] = _sum(summary, "experiments.emit_csv", "total_s")
    out["experiments.csv_bytes"] = csv_bytes
    out["experiments.run_scenario_self_s"] = _sum(
        summary, "experiments.run_scenario", "self_s")
    out["cli.self_s"] = _sum(summary, "cli.main", "self_s")
    return out
