"""The benchmark's own arithmetic: percentiles, failure fractions,
span self time, layer accounting and run metadata.

Everything here is pure Python over plain numbers and tuples, so the
harness tests can pin it down without importing the program.
"""

from __future__ import annotations

import math
import os
import platform
import statistics
import subprocess
import sys

#: ``latency_p90_ms`` is reported only when a run holds at least this
#: many ops, i.e. at least ten samples beyond the 90th percentile.
P90_MIN_OPS = 100

#: Layer names, most specific first (``cell.importance`` before
#: ``cell``); a span belongs to the first layer its name starts with.
LAYERS = ("cell.importance", "analysis", "opt", "array", "cell",
          "service", "store", "jobs")

#: Name of the benchmark's own root span around one op.
OP_SPAN = "op"


# ---------------------------------------------------------------------------
# Percentiles
# ---------------------------------------------------------------------------

def percentile(values, q):
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``) of
    ``values``: the smallest value with at least ``q`` percent of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError("q must be in (0, 100], got %r" % (q,))
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def latency_summary(latencies_s):
    """Median, quartiles and (for runs of at least :data:`P90_MIN_OPS`
    ops) the 90th percentile of per-op latencies, in ms, with the sample
    counts that back them."""
    n = len(latencies_s)
    if n == 0:
        raise ValueError("no op completed")
    ms = [1e3 * value for value in latencies_s]
    if n >= 2:
        q1, _, q3 = statistics.quantiles(ms, n=4)
    else:
        q1 = q3 = ms[0]
    p90 = percentile(ms, 90.0) if n >= P90_MIN_OPS else None
    return {
        "latency_p50_ms": statistics.median(ms),
        "latency_q1_ms": q1,
        "latency_q3_ms": q3,
        "latency_p90_ms": p90,
        "samples": n,
        "p90_samples_beyond": n - math.ceil(0.9 * n),
    }


def fail_frac(attempted, exceptions=0, statuses=(), job_failures=0,
              mismatches=0):
    """Failed share of attempted ops.

    A failure is an exception, a response whose status is not 2xx
    (including 429), a failed job, or an output that does not match
    its reference.
    """
    if attempted <= 0:
        raise ValueError("attempted must be positive")
    bad_status = sum(1 for status in statuses
                     if not 200 <= int(status) < 300)
    return (exceptions + bad_status + job_failures + mismatches) \
        / attempted


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------
#
# A span is ``(span_id, name, start, end, parent_id, op_id)``; times are
# seconds on one monotonic clock, ``parent_id`` is None for a root.

def covered(start, end, intervals):
    """Length of ``[start, end]`` covered by the union of
    ``intervals`` (each clipped to the window)."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals
                     if min(e, end) > max(s, start))
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """``{span_id: self seconds}``: each span's duration minus the part
    of its interval that its direct children cover (children that
    overlap each other are counted once)."""
    children = {}
    for span in spans:
        if span[4] is not None:
            children.setdefault(span[4], []).append((span[2], span[3]))
    return {
        span[0]: (span[3] - span[2])
        - covered(span[2], span[3], children.get(span[0], ()))
        for span in spans
    }


def layer_of(name):
    """The layer a span name belongs to, or None for the op root."""
    for layer in LAYERS:
        if name == layer or name.startswith(layer + "."):
            return layer
    return None


def layer_self_times(spans):
    """``{layer: self seconds}`` summed over ``spans``; the op root's
    self time is reported under ``"unaccounted"``."""
    selfs = self_times(spans)
    totals = {}
    for span in spans:
        layer = layer_of(span[1])
        if layer is None and span[1] != OP_SPAN:
            continue
        key = layer or "unaccounted"
        totals[key] = totals.get(key, 0.0) + selfs[span[0]]
    return totals


def top_layers(layer_seconds, count=3):
    """The ``count`` layers with the most self time, largest first."""
    ranked = sorted(((seconds, layer) for layer, seconds
                     in layer_seconds.items() if layer != "unaccounted"),
                    reverse=True)
    return [(layer, seconds) for seconds, layer in ranked[:count]]


# ---------------------------------------------------------------------------
# Run metadata
# ---------------------------------------------------------------------------

def git_revision(root):
    """The checkout's git revision, or ``"unknown"`` outside a git
    work tree."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"], cwd=root,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_metadata(root, workload, seed, seconds, trace):
    """Where and how a run was made."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": bool(trace),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "git_revision": git_revision(root),
    }


def result_object(correct, attempted, failed, metrics, units):
    """The result object the benchmark prints as its last line:
    ``metrics`` maps names to values, ``units`` names to units."""
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }
