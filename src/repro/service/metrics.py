"""Operational metrics of the refinement service.

Plain in-process counters plus bounded latency reservoirs — enough to answer
the operational questions a multi-tenant deployment actually asks (how many
sessions are live, how fast are merges draining, what does tail selection
latency look like) without any external dependency.
:meth:`ServiceMetrics.snapshot` is the payload of the service's metrics
endpoint.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Any, Deque, Dict, Optional


class LatencyStats:
    """Percentiles over a sliding window of operation latencies.

    A bounded deque of the most recent samples: old traffic ages out, so the
    percentiles describe the service as it behaves *now*, and memory stays
    constant no matter how long the server runs.
    """

    def __init__(self, window: int = 1024):
        self._samples: Deque[float] = deque(maxlen=window)
        self._count = 0
        self._total = 0.0

    def record(self, seconds: float) -> None:
        self._samples.append(seconds)
        self._count += 1
        self._total += seconds

    @property
    def count(self) -> int:
        """Total samples ever recorded (not just the current window)."""
        return self._count

    def percentile(self, fraction: float) -> Optional[float]:
        """The ``fraction``-quantile (nearest-rank) of the current window."""
        if not self._samples:
            return None
        ordered = sorted(self._samples)
        rank = min(len(ordered) - 1, max(0, int(fraction * len(ordered))))
        return ordered[rank]

    def snapshot(self) -> Dict[str, Any]:
        """Count, mean and p50/p95/max of the window, in milliseconds."""
        def _ms(value: Optional[float]) -> Optional[float]:
            return None if value is None else round(value * 1000.0, 3)

        return {
            "count": self._count,
            "mean_ms": _ms(self._total / self._count) if self._count else None,
            "p50_ms": _ms(self.percentile(0.50)),
            "p95_ms": _ms(self.percentile(0.95)),
            "max_ms": _ms(max(self._samples)) if self._samples else None,
        }


class ServiceMetrics:
    """Everything the service counts, in one place."""

    def __init__(self, latency_window: int = 1024):
        self._started = time.monotonic()
        self.sessions_created = 0
        self.sessions_closed = 0
        self.merges = 0
        self.answers_merged = 0
        self.selections = 0
        self.selection_cache_hits = 0
        self.posterior_cache_hits = 0
        self.rejected_overload = 0
        self.errors = 0
        self.deadline_hits = 0
        self.client_retries = 0
        self.merge_latency = LatencyStats(latency_window)
        self.selection_latency = LatencyStats(latency_window)

    @property
    def sessions_live(self) -> int:
        return self.sessions_created - self.sessions_closed

    def uptime_seconds(self) -> float:
        return time.monotonic() - self._started

    def merges_per_second(self) -> float:
        uptime = self.uptime_seconds()
        return self.merges / uptime if uptime > 0 else 0.0

    def snapshot(self, durability: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """The metrics-endpoint payload.

        ``merges.batches`` (always ``merges.count``: every merge is its own
        job) and the ``recovery`` pool keys (always 0: the service runs no
        worker pool) stay only because the repository benchmark reads them.
        """
        payload: Dict[str, Any] = {
            "uptime_seconds": round(self.uptime_seconds(), 3),
            "sessions": {
                "live": self.sessions_live,
                "created": self.sessions_created,
                "closed": self.sessions_closed,
            },
            "merges": {
                "count": self.merges,
                "answers": self.answers_merged,
                "batches": self.merges,
                "per_second": round(self.merges_per_second(), 3),
                "latency": self.merge_latency.snapshot(),
            },
            "selections": {
                "count": self.selections,
                "cache_hits": self.selection_cache_hits,
                "latency": self.selection_latency.snapshot(),
            },
            "posterior_cache_hits": self.posterior_cache_hits,
            "rejected_overload": self.rejected_overload,
            "errors": self.errors,
            "recovery": {
                "worker_crashes": 0,
                "pool_rebuilds": 0,
                "breaker_trips": 0,
                "deadline_hits": self.deadline_hits,
                "client_retries": self.client_retries,
            },
        }
        if durability is not None:
            # Snapshot/eviction/revival counters, spliced in by the server
            # when the registry runs with a durable snapshot store.
            payload["durability"] = durability
        return payload
