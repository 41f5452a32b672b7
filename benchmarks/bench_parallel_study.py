"""Search and full-matrix study benchmark.

Times the complete capacity x flavor x method optimization matrix (the
paper's whole Table-4/Figure-7 workload) through the study runner, then
writes both a human-readable report and the machine-readable
``BENCH_search.json`` baseline (repo root) so future PRs can track the
search-performance trajectory:

* ``single.*`` — one 16KB/HVT/M2 exhaustive search per engine (the
  ``loop`` oracle, ``vectorized`` and ``pruned``), the configuration
  ``check_search_regression.py`` gates;
* ``pruning.*`` — the bound-and-prune engine against the vectorized
  engine on every study cell: wall time plus the fraction of the space
  it actually evaluated;
* ``matrix.*`` — the full 20-cell study through ``run_study`` (in
  process; the whole matrix takes a fraction of a second, so a worker
  pool only adds start-up cost).
"""

from __future__ import annotations

import json
import os
import platform
import time

from repro.analysis.experiments import (
    CAPACITIES_BYTES,
    FLAVORS,
    METHODS,
)
from repro.analysis.runner import run_study
from repro.opt import DesignSpace, ExhaustiveOptimizer, make_policy
from repro.units import capacity_label

from check_search_regression import (
    best_times,
    gate_optimizer,
    search_call,
    yield_optimizer,
)

_HERE = os.path.dirname(os.path.abspath(__file__))
BASELINE_PATH = os.path.join(_HERE, "..", "BENCH_search.json")


def _time_cell(paper_session, flavor, method, capacity_bytes, engine,
               repeats=3):
    """Best-of-N wall time of one study cell's search [s] + its result."""
    optimizer = ExhaustiveOptimizer(
        paper_session.model(flavor), DesignSpace(),
        paper_session.constraint(flavor),
    )
    policy = make_policy(method, paper_session.yield_levels(flavor))
    result = optimizer.optimize(capacity_bytes * 8, policy,
                                engine=engine)  # warm-up
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        optimizer.optimize(capacity_bytes * 8, policy, engine=engine)
        best = min(best, time.perf_counter() - start)
    return best, result


def _bench_pruning(paper_session):
    """Pruned vs vectorized over every study cell: time, rate,
    correctness."""
    cells = {}
    for flavor in FLAVORS:
        for method in METHODS:
            for capacity in CAPACITIES_BYTES:
                vec_s, vec = _time_cell(paper_session, flavor, method,
                                        capacity, "vectorized")
                pruned_s, pruned = _time_cell(paper_session, flavor,
                                              method, capacity, "pruned")
                # The prune must never change the answer.
                assert pruned.design == vec.design
                assert pruned.metrics.edp == vec.metrics.edp
                label = "%s/%s/%s" % (
                    capacity_label(capacity), flavor.upper(), method)
                cells[label] = {
                    "capacity_bytes": capacity,
                    "vectorized_ms": round(vec_s * 1e3, 3),
                    "pruned_ms": round(pruned_s * 1e3, 3),
                    "evaluated_fraction": round(
                        pruned.n_evaluated / vec.n_evaluated, 4),
                }
    return cells


def bench_parallel_study_matrix(paper_session, report_writer):

    # The gate cell, timed exactly as check_search_regression.py
    # re-times it (round-robin best-of, the yield leg's Monte Carlo
    # statistics paid in the warm-up).
    optimizer, policy = gate_optimizer(paper_session)
    single = best_times({
        "loop": search_call(optimizer, policy, "loop"),
        "vectorized": search_call(optimizer, policy, "vectorized"),
        "pruned": search_call(optimizer, policy, "pruned"),
        "yield": search_call(yield_optimizer(paper_session, "secded"),
                             policy, "pruned"),
    })
    single_loop, single_vec = single["loop"], single["vectorized"]
    single_pruned, single_yield = single["pruned"], single["yield"]
    pruning_cells = _bench_pruning(paper_session)

    study = run_study(session=paper_session)

    baseline = {
        "schema": "BENCH_search/v1",
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "machine": {
            "cpus": os.cpu_count() or 1,
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "single": {
            "config": "16KB/hvt/M2",
            # The oracle's time is the gate's machine factor.
            "loop_seconds": single_loop,
            "vectorized_seconds": single_vec,
            "vectorization_speedup": single_loop / single_vec,
            # Bound-and-prune on the gate cell: the answer is identical,
            # only a fraction of the space gets scored.
            "pruned_seconds": single_pruned,
            "pruned_vs_vectorized": single_vec / single_pruned,
            # The same pruned search under the ECC-relaxed yield-target
            # constraint, Monte Carlo statistics warm: the steady-state
            # price of yield-aware feasibility.
            "yield_constraint_seconds": single_yield,
            "yield_constraint_vs_pruned": single_yield / single_pruned,
        },
        "pruning": {
            "cells": pruning_cells,
            "total_vectorized_seconds": sum(
                c["vectorized_ms"] for c in pruning_cells.values()) / 1e3,
            "total_pruned_seconds": sum(
                c["pruned_ms"] for c in pruning_cells.values()) / 1e3,
            "min_evaluated_fraction_16kb": min(
                c["evaluated_fraction"] for c in pruning_cells.values()
                if c["capacity_bytes"] == 16384),
        },
        "matrix": {
            "tasks": len(study.timings),
            "serial_seconds": study.total_seconds,
            "per_task_ms": {
                t.task.label: round(t.seconds * 1e3, 3)
                for t in study.timings
            },
        },
    }
    with open(BASELINE_PATH, "w") as handle:
        json.dump(baseline, handle, indent=2, sort_keys=True)
        handle.write("\n")

    lines = [
        "Search-performance baseline (written to BENCH_search.json)",
        "single 16KB/HVT/M2: loop %.1f ms, vectorized %.1f ms (%.1fx), "
        "pruned %.1f ms (%.2fx vs vectorized)"
        % (single_loop * 1e3, single_vec * 1e3, single_loop / single_vec,
           single_pruned * 1e3, single_vec / single_pruned),
        "pruning matrix totals: vectorized %.1f ms, pruned %.1f ms, "
        "min 16KB evaluated fraction %.2f"
        % (baseline["pruning"]["total_vectorized_seconds"] * 1e3,
           baseline["pruning"]["total_pruned_seconds"] * 1e3,
           baseline["pruning"]["min_evaluated_fraction_16kb"]),
        "yield-target constraint 16KB/HVT/M2 (SECDED, warm MC): "
        "%.1f ms (%.2fx vs plain pruned)"
        % (single_yield * 1e3, single_yield / single_pruned),
        "full matrix (%d tasks): %.3f s"
        % (len(study.timings), study.total_seconds),
        "",
        study.report(),
    ]
    report_writer("bench_parallel_study", "\n".join(lines))

    # The vectorized engine carries the acceptance gate everywhere.
    assert single_loop / single_vec >= 3.0
    # Pruning gates: on at least one 16KB cell the pruned engine must
    # skip >= half the space, and it must win wall-clock over the whole
    # matrix.  Per cell a loose 2x bound catches pathological slowdowns
    # while tolerating the few high-survivor cells where the chunked
    # tile dispatch pays more call overhead than the per-row sweep.
    assert baseline["pruning"]["min_evaluated_fraction_16kb"] <= 0.5
    for label, cell in pruning_cells.items():
        assert cell["pruned_ms"] <= cell["vectorized_ms"] * 2.0, label
    assert (baseline["pruning"]["total_pruned_seconds"]
            <= baseline["pruning"]["total_vectorized_seconds"])
