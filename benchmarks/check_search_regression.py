"""CI gate: fail when a production search engine regresses against the
committed ``BENCH_search.json`` baseline.

Usage::

    PYTHONPATH=src python benchmarks/check_search_regression.py

The gate re-times the baseline's tracked configuration (one 16KB/HVT/M2
exhaustive search) on the current machine for the ``vectorized`` and
``pruned`` engines, then normalizes each measured time by the machine
factor — the ratio of the ``loop`` oracle's time measured *now* to the
loop time recorded in the baseline.  The oracle's code is the fixed
reference every engine is checked against, so that factor cancels out
hardware differences between the committed baseline and the CI runner,
leaving only genuine code regressions.

Before timing, the pruned engine's 16KB/HVT/M2 argmin must equal the
loop oracle's bit for bit — a wrong prune is a correctness bug, not a
perf regression.  The yield-target-constraint leg rides the same
machine factor and re-checks that a non-correcting code reproduces the
fixed-delta argmin exactly.  Legs whose baseline fields are missing
(older baselines) skip gracefully.

Exit codes: 0 = pass (or graceful skip), 1 = a regression beyond the
threshold or an argmin divergence.  Skips cleanly when the baseline is
missing or has no ``single.loop_seconds`` field.
"""

from __future__ import annotations

import json
import os
import sys
import time

#: Fail the gate when a normalized engine time regresses beyond this.
THRESHOLD = 0.25

#: Timed repetitions per leg; best-of keeps scheduler noise out.
REPEATS = 9

#: The production engines the gate times (``<engine>_seconds`` fields).
GATED_ENGINES = ("vectorized", "pruned")

_HERE = os.path.dirname(os.path.abspath(__file__))
BASELINE_PATH = os.path.join(_HERE, "..", "BENCH_search.json")
CACHE_PATH = os.path.join(_HERE, "..", ".repro_cache.json")


def _skip(message):
    print("search-regression gate: SKIP — %s" % message)
    return 0


def gate_optimizer(session, constraint=None):
    from repro.opt import DesignSpace, ExhaustiveOptimizer, make_policy

    optimizer = ExhaustiveOptimizer(
        session.model("hvt"), DesignSpace(),
        constraint or session.constraint("hvt"),
    )
    return optimizer, make_policy("M2", session.yield_levels("hvt"))


def best_times(calls, repeats=REPEATS):
    """Best-of-``repeats`` wall time [s] of each zero-argument callable.

    Every callable runs once untimed (warm-up), then the timed repeats
    go round-robin over the legs, so a load shift on a shared machine
    hits the oracle and the gated engines alike.
    """
    for call in calls.values():
        call()
    best = dict.fromkeys(calls, float("inf"))
    for _ in range(repeats):
        for name, call in calls.items():
            start = time.perf_counter()
            call()
            best[name] = min(best[name], time.perf_counter() - start)
    return best


def search_call(optimizer, policy, engine):
    """One 16KB/HVT/M2 search as a zero-argument callable."""
    return lambda: optimizer.optimize(16384 * 8, policy, engine=engine)


def yield_optimizer(session, code):
    """The 16KB/HVT optimizer under the ECC-relaxed yield-target
    constraint (``code`` at Y >= 0.9), seeded with the fixed-delta
    constraint's margin memo."""
    from repro.opt.constraints import YieldTargetConstraint

    base = session.constraint("hvt")
    constraint = YieldTargetConstraint(
        library=session.library, flavor="hvt", delta=session.delta,
        y_target=0.9, code=code, capacity_bits=16384 * 8,
        word_bits=session.config.word_bits,
        trust_fixed_rails=base.trust_fixed_rails,
        flip_lookup=base.flip_lookup,
    )
    constraint.seed_margin_memo(base.export_margin_memo())
    return gate_optimizer(session, constraint)[0]


def _report(label, base, now, machine_factor):
    """Print one leg; True when it regressed beyond the threshold."""
    regression = now / (base * machine_factor) - 1.0
    print("  %s: baseline %.2f ms, measured %.2f ms, regression "
          "%+.1f%% (threshold +%.0f%%)"
          % (label, base * 1e3, now * 1e3, regression * 100.0,
             THRESHOLD * 100.0))
    return regression > THRESHOLD


def main():
    try:
        with open(BASELINE_PATH) as handle:
            baseline = json.load(handle)
    except (OSError, ValueError) as exc:
        return _skip("no readable baseline at %s (%s)"
                     % (BASELINE_PATH, exc))
    single = baseline.get("single", {})
    base_loop = single.get("loop_seconds")
    if not base_loop:
        return _skip("baseline has no single.loop_seconds")

    from repro.analysis.experiments import Session

    session = Session.create(cache_path=CACHE_PATH, voltage_mode="paper")
    optimizer, policy = gate_optimizer(session)
    failed = False

    # Correctness before speed: the pruned argmin must equal the loop
    # oracle's, and a non-correcting code must leave the fixed-delta
    # argmin untouched (a relaxation with code="none" is a bug).
    loop_ref = search_call(optimizer, policy, "loop")()
    pruned_ref = search_call(optimizer, policy, "pruned")()
    if (pruned_ref.design != loop_ref.design
            or pruned_ref.metrics.edp != loop_ref.metrics.edp):
        print("  pruned: argmin DIVERGED from the loop oracle "
              "(design %s vs %s)" % (pruned_ref.design, loop_ref.design))
        failed = True
    base_yield = single.get("yield_constraint_seconds")
    if base_yield:
        none_ref = search_call(yield_optimizer(session, "none"), policy,
                               "pruned")()
        if (none_ref.design != pruned_ref.design
                or none_ref.metrics.edp != pruned_ref.metrics.edp):
            print("  yield-constraint: code='none' DIVERGED from the "
                  "fixed-delta search (design %s vs %s)"
                  % (none_ref.design, pruned_ref.design))
            failed = True

    # Every leg whose baseline exists, timed round-robin with the
    # oracle.  The yield leg's warm-up pays its Monte Carlo statistics
    # once, so its timed repeats are the steady-state search cost.
    bases = {"loop": base_loop}
    calls = {"loop": search_call(optimizer, policy, "loop")}
    for engine in GATED_ENGINES:
        base = single.get("%s_seconds" % engine)
        if base:
            bases[engine] = base
            calls[engine] = search_call(optimizer, policy, engine)
        else:
            print("  %s: baseline predates the engine — leg skipped"
                  % engine)
    if base_yield:
        bases["yield-constraint"] = base_yield
        calls["yield-constraint"] = search_call(
            yield_optimizer(session, "secded"), policy, "pruned")
    else:
        print("  yield-constraint: baseline predates the yield leg — "
              "leg skipped")
    now = best_times(calls)

    # Hardware normalization: how much faster/slower this machine runs
    # the loop oracle than the baseline machine did.
    machine_factor = now["loop"] / base_loop
    print("search-regression gate (%s)" % single.get("config", "?"))
    print("  loop oracle: baseline %.2f ms, measured %.2f ms -> machine "
          "factor %.2fx" % (base_loop * 1e3, now["loop"] * 1e3,
                            machine_factor))
    for leg, base in bases.items():
        if leg != "loop":
            failed = _report(leg, base, now[leg], machine_factor) \
                or failed

    if failed:
        print("search-regression gate: FAIL")
        return 1
    print("search-regression gate: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
