"""Span recording for the traced benchmark run.

The tracer replaces public functions of the fedfft modules with timing
wrappers from outside. Every module-level binding of a wrapped function is
swapped, because ``fedsim`` and ``detector`` import their callees by name;
two methods are swapped on their classes. Nothing under ``src/`` is edited. ``uninstall`` puts every
original back, so untraced and traced passes can alternate in one process.

Spans are kept in memory as ``(name, start, end, parent, round)`` tuples, in
CPU seconds of ``speed.clock``, and written out once, when the benchmark ends. A span's self time is its duration
minus the durations of its direct children; calls on one thread never
overlap, so the children's durations can simply be summed.
"""

from __future__ import annotations

import bisect
import functools
import json
import sys
from collections import Counter, defaultdict
from typing import Any, Callable

from fedfft import adversary, aggregators, detector, fedsim, fft_aggregator, spectral, tensors
from speed import clock


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, Any] | None] = []
        self.counts: Counter = Counter()
        self.round: Any = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _timed(self, fn: Callable, name: str | Callable, after: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            self.spans.append(None)
            self._stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                self.spans[idx] = (label, start, end, parent, self.round)
            if after is not None:
                after(self.counts, args, kwargs, result)
            return result

        return wrapper

    def _counted(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ----------------------------------------------------------

    def _swap_function(self, original: Callable, wrapper: Callable) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "fedfft" and not modname.startswith("fedfft."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def _swap_method(self, cls: type, attr: str, wrapper: Callable) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self) -> None:
        timed = {
            fedsim.gen_task: "fedsim.gen_task",
            fedsim.local_update: "fedsim.local_update",
            tensors.layer_matrices: "tensors.layer_matrices",
            adversary.apply_attack: "adversary.apply_attack",
            adversary.min_max_craft: "adversary.min_max_craft",
            aggregators.fed_avg: "aggregators.fed_avg",
            aggregators.coordinate_median: "aggregators.coordinate_median",
            aggregators.trimmed_mean: "aggregators.trimmed_mean",
        }
        for fn, name in timed.items():
            self._swap_function(fn, self._timed(fn, name))
        self._swap_function(
            aggregators.krum, self._timed(aggregators.krum, "aggregators.krum", _count_krum_bytes)
        )
        self._swap_function(
            detector.mal_test, self._timed(detector.mal_test, "detector.mal_test", _count_scored)
        )
        self._swap_function(
            detector.dynamic_aggregate,
            self._timed(detector.dynamic_aggregate, "detector.dynamic_aggregate", _count_decision),
        )
        self._swap_function(
            fft_aggregator.fft_aggregate,
            self._timed(fft_aggregator.fft_aggregate, _fft_rule_name, _count_selected),
        )
        self._swap_function(spectral.fft, self._counted(spectral.fft, "spectral.fft.calls"))
        self._swap_method(
            fedsim.MlpModel, "evaluate", self._timed(fedsim.MlpModel.evaluate, "fedsim.evaluate")
        )
        self._swap_method(
            tensors.ModelWeights,
            "__init__",
            self._timed(tensors.ModelWeights.__init__, "tensors.ModelWeights"),
        )

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- summaries ---------------------------------------------------------

    def totals(self) -> tuple[dict[str, float], dict[str, float], Counter]:
        """Inclusive seconds, self seconds and call count per span name."""
        inclusive: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        child_time = defaultdict(float)
        for span in self.spans:
            name, start, end, parent, _ = span
            if parent >= 0:
                child_time[parent] += end - start
        for idx, span in enumerate(self.spans):
            name, start, end, parent, _ = span
            inclusive[name] += end - start
            self_time[name] += end - start - child_time[idx]
            calls[name] += 1
        return dict(inclusive), dict(self_time), calls

    def covered_seconds(self, intervals: list[tuple[float, float]]) -> float:
        """Time that spans with no parent cover inside the given intervals."""
        starts = [a for a, _ in intervals]
        total = 0.0
        for span in self.spans:
            name, start, end, parent, _ = span
            if parent >= 0:
                continue
            i = bisect.bisect_right(starts, start) - 1
            if i >= 0 and end <= intervals[i][1]:
                total += end - start
        return total

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, rnd in self.spans:
                fh.write(json.dumps([name, start, end, parent, rnd]) + "\n")


def _fft_rule_name(args, kwargs) -> str:
    strategy = kwargs.get("strategy", args[1] if len(args) > 1 else fft_aggregator.FftStrategy())
    return f"fft_aggregator.{strategy.kind}"


def _count_krum_bytes(counts: Counter, args, kwargs, result) -> None:
    updates = args[0]
    k = len(updates)
    # size of krum_select's (K, K, P) float64 difference tensor, computed
    counts["aggregators.krum.bytes"] += k * k * updates[0].weights.num_params * 8


def _count_scored(counts: Counter, args, kwargs, result) -> None:
    counts["detector.mal_test.coords_scored"] += len(result)


def _count_decision(counts: Counter, args, kwargs, result) -> None:
    counts[f"detector.decisions_{result[1]}"] += 1


def _count_selected(counts: Counter, args, kwargs, result) -> None:
    counts[_fft_rule_name(args, kwargs) + ".coords"] += result.num_params
