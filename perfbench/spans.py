"""Layer spans recorded from outside the program.

:class:`Tracer` wraps public functions of the program's layers in
place (module attributes and class attributes, at the names their
callers look up) and records one span per call: ``(span_id, name,
start, end, parent_id, op_id)``.  The parent and the op id ride in a
context variable, so spans nest correctly per thread and per asyncio
task.  Spans and counters stay in memory until :meth:`Tracer.dump`.
:meth:`Tracer.uninstall` restores every original attribute.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import time

import numpy as np

from harness import OP_SPAN, self_times

#: ``(parent span id, op id)`` of the code running now.
_CURRENT = contextvars.ContextVar("perfbench_span", default=(None, None))


class Tracer:
    """Span and counter recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans = []
        self.counts = []
        self._ids = itertools.count(1)
        self._patches = []
        self._enqueued = {}

    # -- recording ---------------------------------------------------------

    def count(self, name, value=1):
        self.counts.append((time.perf_counter(), name, value))

    def counters(self, start=float("-inf"), end=float("inf")):
        """Counter totals over events recorded in ``[start, end]``."""
        totals = {}
        for at, name, value in self.counts:
            if start <= at <= end:
                totals[name] = totals.get(name, 0) + value
        return totals

    def clear(self):
        self.spans = []
        self.counts = []

    def _run(self, name, fn, args, kwargs, hook):
        parent, op = _CURRENT.get()
        span_id = next(self._ids)
        token = _CURRENT.set((span_id, op))
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            _CURRENT.reset(token)
            self.spans.append((span_id, name, start, end, parent, op))
        if hook is not None:
            hook(self, args, kwargs, result)
        return result

    def op(self, op_id, fn, *args, **kwargs):
        """Run ``fn`` as one op: a root span whose descendants carry
        ``op_id``."""
        token = _CURRENT.set((None, op_id))
        try:
            return self._run(OP_SPAN, fn, args, kwargs, None)
        finally:
            _CURRENT.reset(token)

    def phase(self, op_id):
        """Tag spans started from here on (in this context) with
        ``op_id``, without a root span (e.g. ``"setup"``)."""
        _CURRENT.set((None, op_id))

    # -- patching ----------------------------------------------------------

    def wrap(self, owner, attr, name, hook=None):
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``name`` is a span name or a callable ``(args, kwargs) -> name``.
        ``hook(tracer, args, kwargs, result)`` may record counters.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        kind = type(original)
        fn = original.__func__ if kind in (classmethod, staticmethod) \
            else original
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            return tracer._run(label, fn, args, kwargs, hook)

        replacement = kind(wrapper) if kind in (classmethod,
                                                staticmethod) else wrapper
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path):
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "counts": self.counts}, handle)

    @classmethod
    def load(cls, path):
        """A tracer holding the spans and counts :meth:`dump` wrote."""
        with open(path) as handle:
            data = json.load(handle)
        tracer = cls()
        tracer.spans = [tuple(span) for span in data["spans"]]
        tracer.counts = [tuple(event) for event in data["counts"]]
        return tracer

    # -- the program's layers ----------------------------------------------

    def install(self):
        """Wrap the public functions of every measured layer."""
        from repro.analysis import experiments, runner
        from repro.array.model import SRAMArrayModel
        from repro.cell import importance
        from repro.jobs import queue, worker
        from repro.opt import constraints, exhaustive
        from repro.service import batching, http, server
        from repro.store.store import ExperimentStore

        self.wrap(experiments.Session, "create", "analysis.session_create")
        self.wrap(runner, "run_study", "analysis.run_study")
        self.wrap(experiments, "compute_headline", "analysis.headline")

        self.wrap(exhaustive.ExhaustiveOptimizer, "optimize",
                  "opt.optimize", _count_search)
        self.wrap(exhaustive.ExhaustiveOptimizer, "optimize_many",
                  "opt.optimize_many", _count_search_many)
        self.wrap(exhaustive.ExhaustiveOptimizer, "pareto", "opt.pareto",
                  _count_search)
        self.wrap(exhaustive, "tile_lower_bounds", "opt.bounds")
        for attr in ("satisfied_grid", "margins_grid", "satisfied",
                     "margins"):
            self.wrap(constraints.YieldConstraint, attr, "opt.constraint")
        for attr in ("butterfly", "hold_snm", "flip_wordline_voltage"):
            self.wrap(constraints, attr, "opt.margin_memo")

        self.wrap(SRAMArrayModel, "evaluate", "array.evaluate",
                  _count_points)

        self.wrap(importance.MarginSolver, "__call__", "cell.margin_solve")
        self.wrap(importance, "find_failure_shift",
                  "cell.importance.search")
        self.wrap(importance.TailSampleBuffer, "ensure",
                  "cell.importance.sample")
        self.wrap(importance, "estimate_tail", "cell.importance.estimate",
                  _count_estimate)

        self.wrap(server, "parse_request", "service.parse")
        self.wrap(http, "encode_response", "service.serialize")
        self.wrap(server, "execute_job", "service.engine")
        self.wrap(batching.BatchQueue, "enqueue", "service.enqueue",
                  _stamp_enqueue)
        self.wrap(server, "_job_from_group", "service.group",
                  _record_batch_wait)

        self.wrap(ExperimentStore, "put", "store.put")
        self.wrap(ExperimentStore, "get", "store.get")
        self.wrap(ExperimentStore, "has", "store.get")

        for attr in ("submit", "claim", "heartbeat", "complete"):
            self.wrap(queue.JobQueue, attr, "jobs.%s" % attr)
        self.wrap(worker, "execute_study_task", "jobs.compute")
        self.wrap(worker, "run_worker", "jobs.worker")


# ---------------------------------------------------------------------------
# Counter hooks
# ---------------------------------------------------------------------------

def _count_search(tracer, args, kwargs, result):
    optimizer, capacity_bits = args[0], args[1]
    tracer.count("opt.points_evaluated", int(result.n_evaluated))
    tracer.count("opt.space_points", optimizer.space.size(capacity_bits))


def _count_search_many(tracer, args, kwargs, result):
    optimizer, capacity_bits = args[0], args[1]
    for item in result:
        tracer.count("opt.points_evaluated", int(item.n_evaluated))
        tracer.count("opt.space_points",
                     optimizer.space.size(capacity_bits))


def _count_points(tracer, args, kwargs, result):
    tracer.count("array.points", int(np.size(result.edp)))


def _count_estimate(tracer, args, kwargs, result):
    tracer.count("cell.importance.search_evals", result.n_search_evals)
    tracer.count("cell.importance.ess", float(result.ess))
    tracer.count("cell.importance.samples", result.n_samples)


def _stamp_enqueue(tracer, args, kwargs, result):
    tracer._enqueued[id(args[2])] = time.perf_counter()


def _record_batch_wait(tracer, args, kwargs, result):
    group_key, items = args[0], args[1]
    now = time.perf_counter()
    for item in items:
        start = tracer._enqueued.pop(id(item), None)
        if start is not None:
            tracer.spans.append((next(tracer._ids),
                                 "service.batch_wait.%s" % group_key[0],
                                 start, now, None, None))


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

ROUTES = ("evaluate", "montecarlo", "optimize", "pareto")


def perf_delta(before, after):
    """What the program's own telemetry recorded between two
    :meth:`repro.perf.PerfRegistry.snapshot` views: ``{"counters":
    {name: n}, "timers": {name: (calls, seconds)}}``."""
    counters = {name: value - before["counters"].get(name, 0)
                for name, value in after["counters"].items()}
    timers = {}
    for name, stat in after["timers"].items():
        old = before["timers"].get(name, {"count": 0, "total": 0.0})
        timers[name] = (stat["count"] - old["count"],
                        stat["total"] - old["total"])
    return {"counters": counters, "timers": timers}


def layer_metrics(spans, counters, n_ops, op_seconds, setup_spans=(),
                  program=None):
    """Every per-layer metric from one traced phase.

    ``spans``/``counters`` cover the timed ops only; ``setup_spans``
    the set-up before them.  ``program`` is the program's own telemetry
    over the same ops (:func:`perf_delta`); solver rows, skipped cells
    and per-route engine time come from there.  ``*_ms`` values are per
    op unless the name says otherwise; a layer the workload never
    reaches reads 0.
    """
    program = program or {"counters": {}, "timers": {}}
    recorded = program["counters"].get
    selfs = self_times(spans)
    total = {}
    own = {}
    calls = {}
    for span in spans:
        name = span[1]
        total[name] = total.get(name, 0.0) + span[3] - span[2]
        own[name] = own.get(name, 0.0) + selfs[span[0]]
        calls[name] = calls.get(name, 0) + 1

    def per_op(value):
        return value / n_ops

    def ms(table, *names):
        return per_op(1e3 * sum(table.get(name, 0.0) for name in names))

    def ratio(num, den):
        return num / den if den else 0.0

    def setup_ms(name):
        return 1e3 * sum(s[3] - s[2] for s in setup_spans if s[1] == name)

    c = counters.get
    metrics = {
        "array.evaluate_ms": ms(total, "array.evaluate"),
        "array.evaluate_calls": per_op(calls.get("array.evaluate", 0)),
        "array.points_per_s": ratio(c("array.points", 0),
                                    total.get("array.evaluate", 0.0)),
        "opt.search_self_ms": ms(own, "opt.optimize", "opt.optimize_many",
                                 "opt.pareto"),
        "opt.bounds_ms": ms(own, "opt.bounds"),
        "opt.evaluated_fraction": ratio(c("opt.points_evaluated", 0),
                                        c("opt.space_points", 0)),
        "opt.constraint_ms": ms(own, "opt.constraint"),
        "opt.margin_memo_ms": setup_ms("opt.margin_memo"),
        "analysis.session_create_ms": setup_ms("analysis.session_create"),
        "analysis.runner_self_ms": ms(own, "analysis.run_study",
                                      "analysis.headline"),
        "cell.margin_solve_ms": ms(total, "cell.margin_solve"),
        "cell.margin_solves": per_op(recorded("importance.solver_rows",
                                              0)),
        "cell.us_per_solve": 1e6 * ratio(total.get("cell.margin_solve",
                                                   0.0),
                                         recorded("importance.solver_rows",
                                                  0)),
        "cell.importance.search_ms": ms(total, "cell.importance.search"),
        "cell.importance.search_evals": per_op(
            c("cell.importance.search_evals", 0)),
        "cell.importance.sample_self_ms": ms(own,
                                             "cell.importance.sample"),
        "cell.importance.ess_frac": ratio(c("cell.importance.ess", 0.0),
                                          c("cell.importance.samples", 0)),
        "service.parse_ms": ms(total, "service.parse"),
        "service.serialize_ms": ms(total, "service.serialize"),
        # Read from the server's /metrics by the serve workload
        # (serve.service_counters).
        "service.cache_hit_rate": 0.0,
        "service.singleflight_coalesced": 0,
        "store.put_ms": ms(total, "store.put"),
        "store.get_ms": ms(total, "store.get"),
        "store.puts": per_op(calls.get("store.put", 0)),
        "store.gets": per_op(calls.get("store.get", 0)),
        "jobs.submit_ms": ms(total, "jobs.submit"),
        "jobs.claim_ms": ms(total, "jobs.claim"),
        "jobs.heartbeat_ms": ms(total, "jobs.heartbeat"),
        "jobs.complete_ms": ms(total, "jobs.complete"),
        "jobs.compute_ms": ms(total, "jobs.compute"),
        "jobs.checkpoint_frac": (
            ratio(op_seconds - total.get("jobs.compute", 0.0), op_seconds)
            if "jobs.compute" in total else 0.0),
        "jobs.skipped_frac": ratio(
            recorded("jobs.cells_skipped", 0),
            recorded("jobs.cells_skipped", 0)
            + recorded("jobs.cells_computed", 0)),
    }
    for route in ROUTES:
        waits = "service.batch_wait.%s" % route
        dispatches, seconds = program["timers"].get(
            "service.job.%s" % route, (0, 0.0))
        metrics["service.batch_wait_ms.%s" % route] = 1e3 * ratio(
            total.get(waits, 0.0), calls.get(waits, 0))
        metrics["service.engine_ms.%s" % route] = 1e3 * ratio(
            seconds, dispatches)
        # Read from the server's /metrics by the serve workload.
        metrics["service.batch_size_mean.%s" % route] = 0.0
    return metrics
