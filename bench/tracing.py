"""Per-layer tracing from outside the program.

Each hook wraps one public function of fuzzycr and rebinds it at every name
a caller can look it up by: the defining module, every ``fuzzycr`` module
that imported it, or the class for a method. A wrapper adds the call's
duration to its layer and subtracts it from the enclosing wrapped call, so
each layer gets self time, not inclusive time. Counters are accumulated;
there is no span per call, because one surface pass makes about 1.3M
``firing_strength`` calls.

A hook whose function no longer exists is reported absent instead of failing
the run.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter


def _count_degrees(tracer, args, kwargs, result):
    tracer.counts["membership.degrees"] += len(result)


def _count_fire(tracer, args, kwargs, result):
    tracer.counts["engine.fire.rules"] += 1
    if result > 0.0:
        tracer.counts["engine.fire.useful"] += 1


def _count_aggregate(tracer, args, kwargs, result):
    # resolution x labels with a positive clip level: the samples the clip and
    # max steps compute
    clip_levels = args[2] if len(args) > 2 else kwargs["clip_levels"]
    tracer.counts["engine.aggregate.samples"] += len(result.xs) * sum(
        1 for level in clip_levels.values() if level > 0.0
    )


# layer prefix, defining module, qualified name, extra counter
HOOKS = (
    ("membership.fuzzify", "fuzzycr.membership", "LinguisticVariable.fuzzify", _count_degrees),
    ("catalog.standard_catalog", "fuzzycr.catalog", "standard_catalog", None),
    ("ruledsl.builtin_rulebase", "fuzzycr.ruledsl", "builtin_rulebase", None),
    ("analysis.build_system", "fuzzycr.analysis", "build_system", None),
    ("analysis.run_sweep", "fuzzycr.analysis", "run_sweep", None),
    ("analysis.surface_grid", "fuzzycr.analysis", "surface_grid", None),
    ("analysis.correlation_report", "fuzzycr.analysis", "correlation_report", None),
    ("engine.evaluate", "fuzzycr.engine", "FuzzySystem.evaluate", None),
    ("engine.fire", "fuzzycr.engine", "firing_strength", _count_fire),
    ("engine.aggregate", "fuzzycr.engine", "aggregate_clipped", _count_aggregate),
    ("engine.defuzz", "fuzzycr.engine", "defuzzify", None),
    ("metrics.crisp_inputs", "fuzzycr.metrics", "RadioScenario.crisp_inputs", None),
    ("cli.main", "fuzzycr.cli", "main", None),
)

# Reported per unit of work: (name, unit, hook it needs). Counts are
# integers that must repeat exactly; times are self seconds.
LAYER_METRICS = (
    ("membership.fuzzify.calls", "count", "membership.fuzzify"),
    ("membership.fuzzify.self_s", "s", "membership.fuzzify"),
    ("membership.degrees", "count", "membership.fuzzify"),
    ("catalog.standard_catalog.calls", "count", "catalog.standard_catalog"),
    ("catalog.standard_catalog.self_s", "s", "catalog.standard_catalog"),
    ("ruledsl.builtin_rulebase.calls", "count", "ruledsl.builtin_rulebase"),
    ("ruledsl.builtin_rulebase.self_s", "s", "ruledsl.builtin_rulebase"),
    ("analysis.build_system.calls", "count", "analysis.build_system"),
    ("analysis.build_system.self_s", "s", "analysis.build_system"),
    ("analysis.run_sweep.self_s", "s", "analysis.run_sweep"),
    ("analysis.surface_grid.self_s", "s", "analysis.surface_grid"),
    ("analysis.correlation_report.self_s", "s", "analysis.correlation_report"),
    ("engine.evaluate.calls", "count", "engine.evaluate"),
    ("engine.evaluate.self_s", "s", "engine.evaluate"),
    ("engine.fire.rules", "count", "engine.fire"),
    ("engine.fire.self_s", "s", "engine.fire"),
    ("engine.fire.useful_ratio", "ratio", "engine.fire"),
    ("engine.aggregate.calls", "count", "engine.aggregate"),
    ("engine.aggregate.self_s", "s", "engine.aggregate"),
    ("engine.aggregate.samples", "count", "engine.aggregate"),
    ("engine.defuzz.calls", "count", "engine.defuzz"),
    ("engine.defuzz.self_s", "s", "engine.defuzz"),
    ("metrics.crisp_inputs.calls", "count", "metrics.crisp_inputs"),
    ("metrics.crisp_inputs.self_s", "s", "metrics.crisp_inputs"),
    ("cli.main.self_s", "s", "cli.main"),
)


class Tracer:
    """Installs the hooks, accumulates per-layer counters and self time."""

    def __init__(self) -> None:
        self.counts: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        self.absent: list[str] = []
        self._child = [0.0]  # child-time accumulator of each open wrapped call
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.counts.clear()
        self.self_s.clear()

    def _wrap(self, layer, fn, counter):
        perf = time.perf_counter
        child = self._child
        counts = self.counts
        self_s = self.self_s
        calls_key = f"{layer}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf()
            child.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                self_s[layer] += perf() - start - child.pop()
                counts[calls_key] += 1
            if counter is not None:
                counter(self, args, kwargs, result)
            # the caller is charged nothing for this call's bookkeeping
            child[-1] += perf() - start
            return result

        return wrapper

    def install(self) -> None:
        for layer, module_name, qualname, counter in HOOKS:
            owner = sys.modules.get(module_name)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.absent.append(layer)
                continue
            wrapper = self._wrap(layer, original, counter)
            if path:
                targets = [owner]
            else:
                targets = [m for name, m in list(sys.modules.items())
                           if (name == "fuzzycr" or name.startswith("fuzzycr.")) and m]
            for target in targets:
                for name, value in list(vars(target).items()):
                    if value is original:
                        self._undo.append((target, name, value))
                        setattr(target, name, wrapper)

    def uninstall(self) -> None:
        for target, name, value in reversed(self._undo):
            setattr(target, name, value)
        self._undo.clear()

    def snapshot(self) -> tuple[dict[str, int], dict[str, float]]:
        return dict(self.counts), dict(self.self_s)


def layer_values(counts: dict[str, int], self_s: dict[str, float],
                 absent: list[str]) -> dict[str, float]:
    """Per-layer metric values for one unit; absent hooks are left out."""
    values: dict[str, float] = {}
    for name, unit, layer in LAYER_METRICS:
        if layer in absent:
            continue
        if name.endswith(".self_s"):
            values[name] = self_s.get(layer, 0.0)
        elif name == "engine.fire.useful_ratio":
            rules = counts.get("engine.fire.rules", 0)
            values[name] = counts.get("engine.fire.useful", 0) / rules if rules else 0.0
        else:
            values[name] = counts.get(name, 0)
    return values
