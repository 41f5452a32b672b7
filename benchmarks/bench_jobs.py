"""Durable-jobs benchmark: what does checkpointing cost?

Standalone script (not a pytest benchmark) so CI can run it directly::

    PYTHONPATH=src python benchmarks/bench_jobs.py --quick

Three measurements against one warm session:

1. **direct** — ``run_study`` over a capacity x flavor x method matrix,
   in process, no queue, no store.  The floor.
2. **jobs cold** — the same matrix through the full durable path:
   submit to a fresh SQLite queue, claim, execute cell by cell with a
   store put + heartbeat after every cell.  The difference against
   (1) is the per-sweep checkpointing overhead.
3. **jobs resumed** — an equivalent spec resubmitted against the warm
   store: every cell is found by key and skipped.  This is the resume /
   dedup fast path.

Plus queue micro-latencies (submit / claim / heartbeat / complete) and
store put/get round trips, sampled individually.

Writes the machine-readable ``BENCH_jobs.json`` baseline (repo root).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time

from repro.analysis.experiments import Session
from repro.analysis.runner import run_study
from repro.jobs import JobQueue, run_worker
from repro.jobs.worker import SessionProvider
from repro.store import ExperimentStore

_HERE = os.path.dirname(os.path.abspath(__file__))
BASELINE_PATH = os.path.join(_HERE, "..", "BENCH_jobs.json")
CACHE_PATH = os.path.join(_HERE, "..", ".repro_cache.json")

FULL = {"capacities": [128, 512, 2048], "flavors": ["lvt", "hvt"],
        "methods": ["M1", "M2"]}
QUICK = {"capacities": [128], "flavors": ["lvt"], "methods": ["M1", "M2"]}

MICRO_ROUNDS = 200


def _time(thunk):
    start = time.perf_counter()
    result = thunk()
    return result, time.perf_counter() - start


def _micro_latencies(db_path):
    """Per-operation queue/store latencies, milliseconds."""
    queue = JobQueue(db_path)
    store = ExperimentStore(db_path)
    payload = {"metrics": {"edp": 3.14e-25}, "design": {"n_r": 64}}
    timings = {}

    def sample(name, op):
        start = time.perf_counter()
        for index in range(MICRO_ROUNDS):
            op(index)
        timings[name] = ((time.perf_counter() - start)
                         / MICRO_ROUNDS * 1e3)

    submitted = []
    sample("submit_ms", lambda i: submitted.append(
        queue.submit("study", {"capacities": [128]})))
    claimed = []
    sample("claim_ms", lambda i: claimed.append(queue.claim("bench-w")))
    sample("heartbeat_ms",
           lambda i: queue.heartbeat(claimed[i].id, "bench-w", 30.0,
                                     progress={"completed": i}))
    sample("complete_ms",
           lambda i: queue.complete(claimed[i].id, "bench-w"))
    sample("store_put_ms",
           lambda i: store.put("cell-bench-%d" % i, payload))
    sample("store_get_ms", lambda i: store.get("cell-bench-%d" % i))
    return timings


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke sizing (2-cell matrix)")
    parser.add_argument("--output", default=BASELINE_PATH,
                        help="where to write BENCH_jobs.json")
    args = parser.parse_args(argv)
    matrix = QUICK if args.quick else FULL
    n_cells = (len(matrix["capacities"]) * len(matrix["flavors"])
               * len(matrix["methods"]))

    print("building session (warm characterization cache)...")
    session = Session.create(cache_path=CACHE_PATH, voltage_mode="paper")
    sessions = SessionProvider(default_cache_path=CACHE_PATH)
    sessions.seed(session, cache_path=CACHE_PATH)
    spec = dict(matrix, cache_path=CACHE_PATH)

    def direct():
        return run_study(
            session=session, capacities=tuple(matrix["capacities"]),
            flavors=tuple(matrix["flavors"]),
            methods=tuple(matrix["methods"]))

    print("warming engine state (untimed run_study pass)...")
    direct()
    print("direct run_study over %d cells..." % n_cells)
    _, direct_s = _time(direct)

    with tempfile.TemporaryDirectory(prefix="repro-bench-jobs-") as d:
        db_path = os.path.join(d, "jobs.db")
        queue = JobQueue(db_path)

        print("same matrix through the durable path (cold store)...")
        queue.submit("study", spec)
        cold_stats, cold_s = _time(lambda: run_worker(
            db_path, once=True, poll_interval=0.05, sessions=sessions,
            worker_id="bench-cold"))
        assert cold_stats.jobs_done == 1, "cold job did not finish"
        assert cold_stats.cells_computed == n_cells

        print("equivalent spec resubmitted (warm store, all skipped)...")
        queue.submit("study", spec)
        warm_stats, warm_s = _time(lambda: run_worker(
            db_path, once=True, poll_interval=0.05, sessions=sessions,
            worker_id="bench-warm"))
        assert warm_stats.jobs_done == 1, "warm job did not finish"
        assert warm_stats.cells_skipped == n_cells
        assert warm_stats.cells_computed == 0

        print("queue/store micro-latencies (%d rounds each)..."
              % MICRO_ROUNDS)
        micro = _micro_latencies(os.path.join(d, "micro.db"))

    overhead_s = cold_s - direct_s
    baseline = {
        "schema": "BENCH_jobs/v1",
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "machine": {
            "cpus": os.cpu_count() or 1,
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "mode": "quick" if args.quick else "full",
        "matrix": dict(matrix, cells=n_cells),
        "direct_seconds": direct_s,
        "jobs_cold_seconds": cold_s,
        "jobs_resumed_seconds": warm_s,
        "checkpoint_overhead_seconds": overhead_s,
        "checkpoint_overhead_per_cell_ms": overhead_s / n_cells * 1e3,
        "checkpoint_overhead_fraction": (overhead_s / direct_s
                                         if direct_s else 0.0),
        "resume_speedup_vs_direct": (direct_s / warm_s
                                     if warm_s else 0.0),
        "micro_latency_ms": micro,
    }
    with open(args.output, "w") as handle:
        json.dump(baseline, handle, indent=2, sort_keys=True)
        handle.write("\n")

    print("direct        %7.2f s  (%d cells)" % (direct_s, n_cells))
    print("jobs cold     %7.2f s  (+%.1f ms/cell checkpointing, %+.1f%%)"
          % (cold_s, baseline["checkpoint_overhead_per_cell_ms"],
             100.0 * baseline["checkpoint_overhead_fraction"]))
    print("jobs resumed  %7.2f s  (%.0fx faster than direct)"
          % (warm_s, baseline["resume_speedup_vs_direct"]))
    print("micro         " + "  ".join(
        "%s=%.2f" % (k, v) for k, v in sorted(micro.items())))
    print("jobs baseline written to %s" % args.output)

    # Sanity gates: the durable path must stay cheap relative to the
    # engine work, and the resume path must actually skip it.
    assert warm_s < direct_s, "resume path slower than recompute"
    return 0


if __name__ == "__main__":
    sys.exit(main())
