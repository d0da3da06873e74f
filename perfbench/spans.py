"""Benchmark-side instrumentation: latency probes and layer spans.

Nothing here touches the program's source.  An :class:`Instrument` wraps
public entry points of the program's layers (a selector's
``select_with_session``, ``RefinementSession.merge``,
``SimulatedPlatform.collect``, the session readouts) for the duration of a
``with instrument.installed(targets):`` block and restores the originals on
exit.

Two uses:

* **probe** — only the selection and merge entry points are wrapped, and
  each call costs two ``perf_counter`` reads.  End-to-end runs use it to
  collect per-call latencies and to count refinement rounds (one round is
  one merge).
* **trace** — every layer entry point is wrapped.  Each wrapper opens a
  span; spans nest on a stack, and a span's *self time* is its duration
  minus the time its child spans cover.  A call into a layer from inside
  the same layer opens no new span (``SessionPool.total_utility`` calling
  ``RefinementSession.utility`` is one readout span).

Spans are aggregated per layer in memory (calls, total, self) and exported
as plain JSON, so forked cluster workers can ship their aggregates back
through a file.  Wrapped calls must run on one thread; coroutine targets
(the service client) record duration only, because concurrent coroutines
do not nest.
"""

from __future__ import annotations

import functools
import math
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple

#: Layers whose per-call latencies are kept as samples (the probe layers).
SAMPLED_LAYERS = ("selection", "merge")

#: SelectionStats fields summed over every instrumented selection.
SELECTION_COUNTERS = (
    "candidate_evaluations",
    "pruned_candidates",
    "skipped_evaluations",
    "cache_hits",
    "parallel_evaluations",
)

_MISSING = object()


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in (0, 1])."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(0, math.ceil(fraction * len(ordered)) - 1)
    return ordered[min(rank, len(ordered) - 1)]


class Instrument:
    """Latency samples, layer spans and selection counters of one run."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.samples: Dict[str, List[float]] = {layer: [] for layer in SAMPLED_LAYERS}
        #: layer -> [calls, total seconds, self seconds]
        self.layers: Dict[str, List[float]] = {}
        #: SelectionStats sums plus ``answers`` (crowd answers collected).
        self.counters: Dict[str, int] = {name: 0 for name in SELECTION_COUNTERS}
        self.counters["answers"] = 0
        self._stack: List[List[Any]] = []

    # -- spans ---------------------------------------------------------------------

    def _close(self, layer: str, elapsed: float, child: float) -> None:
        entry = self.layers.setdefault(layer, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += elapsed
        entry[2] += elapsed - child
        if layer in self.samples:
            self.samples[layer].append(elapsed)
        if self._stack:
            self._stack[-1][1] += elapsed

    @contextmanager
    def span(self, layer: str) -> Iterator[None]:
        """An explicit span, for the benchmark's own top-level units."""
        frame = [layer, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            self._close(layer, elapsed, frame[1])

    def _wrap(self, layer: str, function: Callable) -> Callable:
        instrument = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            stack = instrument._stack
            if stack and stack[-1][0] == layer:
                return function(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                instrument._close(layer, elapsed, frame[1])
            if layer == "selection":
                stats = result.stats
                for name in SELECTION_COUNTERS:
                    instrument.counters[name] += getattr(stats, name)
            elif layer == "crowd":
                instrument.counters["answers"] += len(result)
            return result

        return wrapper

    def _wrap_async(self, layer: str, function: Callable) -> Callable:
        instrument = self

        @functools.wraps(function)
        async def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return await function(*args, **kwargs)
            finally:
                entry = instrument.layers.setdefault(layer, [0, 0.0, 0.0])
                elapsed = time.perf_counter() - start
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed

        return wrapper

    @contextmanager
    def installed(self, targets: Sequence[Tuple[Any, str, str, bool]]) -> Iterator["Instrument"]:
        """Patch ``(owner, attribute, layer, is_async)`` targets; restore on exit."""
        saved = []
        try:
            for owner, attribute, layer, is_async in targets:
                original = owner.__dict__.get(attribute, _MISSING)
                function = getattr(owner, attribute)
                wrap = self._wrap_async if is_async else self._wrap
                setattr(owner, attribute, wrap(layer, function))
                saved.append((owner, attribute, original))
            yield self
        finally:
            for owner, attribute, original in reversed(saved):
                if original is _MISSING:
                    delattr(owner, attribute)
                else:
                    setattr(owner, attribute, original)

    # -- aggregation ---------------------------------------------------------------

    def export(self) -> Dict[str, Any]:
        return {
            "samples": self.samples,
            "layers": self.layers,
            "counters": self.counters,
        }

    def absorb(self, exported: Dict[str, Any]) -> None:
        """Add another instrument's export (e.g. from a forked worker)."""
        for layer, values in exported["samples"].items():
            self.samples.setdefault(layer, []).extend(values)
        for layer, (calls, total, own) in exported["layers"].items():
            entry = self.layers.setdefault(layer, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += own
        for name, value in exported["counters"].items():
            self.counters[name] = self.counters.get(name, 0) + value

    def layer(self, name: str) -> Tuple[int, float, float]:
        calls, total, own = self.layers.get(name, (0, 0.0, 0.0))
        return int(calls), float(total), float(own)


def combined(instruments: Sequence[Instrument]) -> Instrument:
    """One instrument holding the sum of several (e.g. one per unit)."""
    total = Instrument()
    for instrument in instruments:
        total.absorb(instrument.export())
    return total


def probe_targets(selector_names: Sequence[str]) -> List[Tuple[Any, str, str, bool]]:
    """The selection and merge entry points (end-to-end latency probes)."""
    from repro.core.selection import get_selector
    from repro.core.selection.session import RefinementSession

    owners = {type(get_selector(name)) for name in selector_names}
    targets = [(owner, "select_with_session", "selection", False) for owner in owners]
    targets.append((RefinementSession, "merge", "merge", False))
    return targets


def trace_targets(selector_names: Sequence[str]) -> List[Tuple[Any, str, str, bool]]:
    """Every layer entry point the traced runs split wall time over."""
    from repro.core.selection.session import RefinementSession, SessionPool
    from repro.crowdsim.platform import SimulatedPlatform

    return probe_targets(selector_names) + [
        (SimulatedPlatform, "collect", "crowd", False),
        (SessionPool, "total_utility", "readout", False),
        (SessionPool, "predicted_labels", "readout", False),
        (RefinementSession, "utility", "readout", False),
        (RefinementSession, "predicted_labels", "readout", False),
    ]


def layer_metrics(instrument: Instrument, units: int) -> Dict[str, float]:
    """Per-unit selection/merge/readout/crowd metrics of a traced instrument."""
    metrics: Dict[str, float] = {}
    for layer in ("selection", "merge", "readout", "crowd"):
        calls, _total, own = instrument.layer(layer)
        metrics[f"{layer}.calls"] = calls / units
        metrics[f"{layer}.self_s"] = own / units
    counters = instrument.counters
    evaluations = counters["candidate_evaluations"]
    skipped = counters["pruned_candidates"] + counters["skipped_evaluations"]
    _calls, _total, selection_own = instrument.layer("selection")
    metrics["crowd.answers"] = counters["answers"] / units
    metrics["selection.evaluations"] = evaluations / units
    metrics["selection.us_per_eval"] = (
        selection_own / evaluations * 1e6 if evaluations else 0.0
    )
    metrics["selection.skip_ratio"] = (
        skipped / (evaluations + skipped) if evaluations + skipped else 0.0
    )
    metrics["selection.cache_hit_ratio"] = (
        counters["cache_hits"] / evaluations if evaluations else 0.0
    )
    return metrics
