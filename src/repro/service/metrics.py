"""Service telemetry: request counters, latency and batch histograms.

Everything lands in one :class:`ServiceMetrics` owned by the server's
event loop.  Engine telemetry comes from the process-global
:mod:`repro.perf` registry, which the engine threads record into
directly; ``GET /metrics`` renders it under ``perf.server``.
``perf.workers`` stays in the payload as an empty snapshot so scrapers
that merge both keys keep working.
"""

from __future__ import annotations

import json
import time

from .. import perf

#: Request latency bucket upper bounds [ms]; the last bucket is +inf.
LATENCY_BUCKETS_MS = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000,
                      5000, 10000)

#: Batch size bucket upper bounds [items].
BATCH_BUCKETS = (1, 2, 4, 8, 16, 32, 64)


class Histogram:
    """Fixed-bound counting histogram with count/sum/max."""

    def __init__(self, bounds):
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    def observe(self, value):
        self.count += 1
        self.total += value
        self.max = max(self.max, value)
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[index] += 1
                return
        self.counts[-1] += 1

    def quantile(self, q):
        """Bucket-resolution quantile estimate (upper bound of the
        bucket holding the q-th observation; the raw-sample percentiles
        in BENCH_service.json are exact — this one serves /metrics)."""
        if self.count == 0:
            return 0.0
        target = q * self.count
        running = 0
        for index, bound in enumerate(self.bounds):
            running += self.counts[index]
            if running >= target:
                return float(bound)
        return self.max

    def snapshot(self):
        buckets = {}
        for index, bound in enumerate(self.bounds):
            buckets["le_%g" % bound] = self.counts[index]
        buckets["le_inf"] = self.counts[-1]
        return {
            "count": self.count,
            "sum": self.total,
            "max": self.max,
            "buckets": buckets,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


class ServiceMetrics:
    """All of the server's own telemetry, renderable as one JSON dict."""

    def __init__(self, clock=time.monotonic):
        self._clock = clock
        self.started = clock()
        self.requests = {}        # route -> count
        self.responses = {}       # "2xx"/"4xx"/"5xx" class -> count
        self.errors = {}          # route -> non-2xx count
        self.latency = {}         # route -> Histogram [ms]
        self.batch_sizes = {}     # kind -> Histogram [items]

    # -- recording ---------------------------------------------------------

    def observe_request(self, route, status, seconds):
        self.requests[route] = self.requests.get(route, 0) + 1
        klass = "%dxx" % (status // 100)
        self.responses[klass] = self.responses.get(klass, 0) + 1
        if status >= 400:
            self.errors[route] = self.errors.get(route, 0) + 1
        histogram = self.latency.get(route)
        if histogram is None:
            histogram = self.latency[route] = Histogram(LATENCY_BUCKETS_MS)
        histogram.observe(seconds * 1e3)

    def observe_batch(self, kind, size):
        histogram = self.batch_sizes.get(kind)
        if histogram is None:
            histogram = self.batch_sizes[kind] = Histogram(BATCH_BUCKETS)
        histogram.observe(size)

    # -- rendering ---------------------------------------------------------

    @property
    def total_requests(self):
        return sum(self.requests.values())

    def render(self, extra=None):
        """The ``GET /metrics`` payload (JSON-able)."""
        payload = {
            "uptime_seconds": round(self._clock() - self.started, 3),
            "requests": {
                "total": self.total_requests,
                "by_route": dict(sorted(self.requests.items())),
                "by_class": dict(sorted(self.responses.items())),
                "errors_by_route": dict(sorted(self.errors.items())),
            },
            "latency_ms": {
                route: histogram.snapshot()
                for route, histogram in sorted(self.latency.items())
            },
            "batch_sizes": {
                kind: histogram.snapshot()
                for kind, histogram in sorted(self.batch_sizes.items())
            },
            # Engine telemetry; "workers" is always empty (kept for
            # scrapers that merge it).
            "perf": {
                "server": json.loads(perf.get_registry().to_json()),
                "workers": {"counters": {}, "timers": {}},
            },
        }
        if extra:
            payload.update(extra)
        return payload
