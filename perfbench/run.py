"""The repository benchmark: four workloads against the public entry
points, end-to-end metrics untraced, per-layer metrics traced.

    python3 perfbench/run.py --workload study --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --record-references

Run from the root of a checkout (``src/`` and ``.repro_cache.json``
must be there).  The last line of standard output is the result
object; the lines above it are the human-readable report.  The exit
code is non-zero when an output differs from its reference, when an
op fails, or when the checkout is incomplete.  See README.md.
"""

import time

STARTED = time.perf_counter()   # before anything imports the program

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
WORKLOADS = ("study", "tail", "serve", "sweep")
#: Set-ups measured per run (the first is the run's own); setup_s is
#: their median.
SETUP_REPEATS = 3
#: Calibration kernel passes right after each set-up.
SETUP_PASSES = 10
#: No more ops start after this many times the requested seconds,
#: whatever the op length (keeps one run well inside 180 s).
MAX_RUN_FACTOR = 3.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "op/s",
    "latency_p50_ms": "ms",
    "cpu_s_per_op": "s/op",
    "peak_rss_mb": "MB",
}


def per_layer_units():
    from spans import ROUTES

    units = {
        "array.evaluate_ms": "ms/op", "array.evaluate_calls": "count/op",
        "array.points_per_s": "1/s",
        "opt.search_self_ms": "ms/op", "opt.bounds_ms": "ms/op",
        "opt.evaluated_fraction": "ratio", "opt.constraint_ms": "ms/op",
        "opt.margin_memo_ms": "ms",
        "analysis.session_create_ms": "ms",
        "analysis.runner_self_ms": "ms/op",
        "cell.margin_solve_ms": "ms/op", "cell.margin_solves": "count/op",
        "cell.us_per_solve": "us",
        "cell.importance.search_ms": "ms/op",
        "cell.importance.search_evals": "count/op",
        "cell.importance.sample_self_ms": "ms/op",
        "cell.importance.ess_frac": "ratio",
        "service.parse_ms": "ms/op", "service.serialize_ms": "ms/op",
        "service.cache_hit_rate": "ratio",
        "service.singleflight_coalesced": "count",
        "store.put_ms": "ms/op", "store.get_ms": "ms/op",
        "store.puts": "count/op", "store.gets": "count/op",
        "jobs.submit_ms": "ms/op", "jobs.claim_ms": "ms/op",
        "jobs.heartbeat_ms": "ms/op", "jobs.complete_ms": "ms/op",
        "jobs.compute_ms": "ms/op", "jobs.checkpoint_frac": "ratio",
        "jobs.skipped_frac": "ratio",
        "trace.overhead_frac": "ratio", "trace.unaccounted_frac": "ratio",
    }
    for route in ROUTES:
        units["service.batch_wait_ms.%s" % route] = "ms"
        units["service.batch_size_mean.%s" % route] = "items"
        units["service.engine_ms.%s" % route] = "ms"
    return units


def die(message):
    print("perfbench: %s" % message, file=sys.stderr)
    sys.exit(2)


def require_checkout():
    """Import the program from this checkout, never from elsewhere."""
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        die("no src/repro in %s; run from the root of a checkout" % ROOT)
    if not os.path.isfile(os.path.join(ROOT, ".repro_cache.json")):
        die("no .repro_cache.json in %s" % ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))


def vm_hwm_mb():
    from serve import _vm_hwm_mb

    return _vm_hwm_mb("/proc/self/status")


def cpu_seconds():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def make_workload(name, seed, work):
    import workloads

    if name == "study":
        return workloads.Study(ROOT, seed)
    if name == "tail":
        return workloads.Tail(ROOT, seed)
    return workloads.Sweep(ROOT, seed, work)


# ---------------------------------------------------------------------------
# In-process workloads
# ---------------------------------------------------------------------------

def run_ops(workload, seconds, calibration, first_index=0, tracer=None):
    """Ops back to back until ``seconds`` of op and calibration time
    have passed, with a calibration burst before each op; each op's
    output is checked untimed right after it."""
    from harness import fail_frac

    latencies, cpus, mismatches, exceptions = [], [], [], 0
    failed_ops = 0
    index = first_index
    spent = 0.0
    hard_stop = time.perf_counter() + MAX_RUN_FACTOR * seconds
    while spent < seconds and time.perf_counter() < hard_stop:
        burst_start = time.perf_counter()
        calibration.before_op(cpus[-1] if cpus else 0.0,
                              latencies[-1] if latencies else 0.0)
        start = time.perf_counter()
        cpu_start = cpu_seconds()
        try:
            if tracer is None:
                output = workload.op(index)
            else:
                output = tracer.op(index, workload.op, index)
        except Exception as exc:   # an op boundary: count and go on
            print("op %d raised %s: %s" % (index, type(exc).__name__, exc))
            output = None
        elapsed = time.perf_counter() - start
        cpus.append(cpu_seconds() - cpu_start)
        spent += time.perf_counter() - burst_start
        latencies.append(elapsed)
        if output is None:
            exceptions += 1
            failed_ops += 1
        else:
            if tracer is not None:
                tracer.phase("check")
            found = workload.check(index, output)
            mismatches += found
            failed_ops += bool(found)
        index += 1
    return {"latencies": latencies, "cpus": cpus, "busy": sum(latencies),
            "cpu": sum(cpus), "mismatches": mismatches, "failed": failed_ops,
            "fail_frac": fail_frac(len(latencies), exceptions=exceptions,
                                   mismatches=failed_ops - exceptions)}


def setup_sample(calibration, setup_s, setup_cpu):
    """A set-up's ``[wall, CPU]`` seconds, with a calibration burst
    right after it."""
    calibration.burst(SETUP_PASSES)
    return [setup_s, setup_cpu]


def extra_setups(args):
    """Set-up samples of fresh processes (``--setup-only``)."""
    times = []
    for _ in range(SETUP_REPEATS - 1):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        if out.returncode != 0:
            die("set-up run failed:\n%s" % out.stderr)
        times.append(json.loads(out.stdout.strip().splitlines()[-1]))
    return times


def merge_setups(calibration, samples):
    """Set-up ``[wall, CPU]`` seconds of ``extra_setups`` samples, their
    calibration passes added to ``calibration``."""
    for sample in samples:
        calibration.cpu += sample["kernel"]
    return [sample["setup"] for sample in samples]


def in_process(args, work):
    from calibrate import Calibration

    workload = make_workload(args.workload, args.seed, work)
    calibration = Calibration(work)
    if args.trace:
        return in_process_traced(args, workload, calibration)
    workload.setup()
    setup = setup_sample(calibration, time.perf_counter() - STARTED,
                         cpu_seconds())
    if args.setup_only:
        return {"setup": setup, "kernel": calibration.cpu}
    run = run_ops(workload, args.seconds, calibration)
    result = {
        "setups": [setup] + merge_setups(calibration, extra_setups(args)),
        "calibration": calibration,
        "ops": len(run["latencies"]),
        "run": run,
        "peak_rss_mb": vm_hwm_mb(),
        "mismatches": run["mismatches"],
        "failed": run["failed"],
        "fail_frac": run["fail_frac"],
        "extra": workload.extra(),
    }
    return result


def spans_path(args):
    return os.path.join(WORK, "results", "%s-seed%d-spans.json"
                        % (args.workload, args.seed))


def in_process_traced(args, workload, calibration):
    from harness import layer_self_times
    from repro.perf import get_registry
    from spans import Tracer, layer_metrics, perf_delta

    tracer = Tracer()
    tracer.install()
    tracer.phase("setup")
    workload.setup()
    tracer.uninstall()
    setup_spans = list(tracer.spans)
    tracer.clear()
    half = args.seconds / 2.0
    plain = run_ops(workload, half, calibration)
    tracer.install()
    window = time.perf_counter()
    telemetry = get_registry().snapshot()
    traced = run_ops(workload, half, calibration,
                     first_index=len(plain["latencies"]), tracer=tracer)
    program = perf_delta(telemetry, get_registry().snapshot())
    tracer.uninstall()
    tracer.dump(spans_path(args))
    spans = [s for s in tracer.spans if isinstance(s[5], int)]
    n_ops = len(traced["latencies"])
    metrics = layer_metrics(spans, tracer.counters(window), n_ops,
                            traced["busy"], setup_spans, program)
    layers = layer_self_times(spans)
    return traced_result(plain, traced, metrics, layers, traced["busy"])


def traced_result(plain, traced, metrics, layers, op_seconds):
    plain_rate = len(plain["latencies"]) / plain["busy"]
    traced_rate = len(traced["latencies"]) / traced["busy"]
    unaccounted = layers.pop("unaccounted", None)
    if unaccounted is None:
        unaccounted = op_seconds - sum(layers.values())
    metrics["trace.overhead_frac"] = 1.0 - traced_rate / plain_rate
    metrics["trace.unaccounted_frac"] = unaccounted / op_seconds
    return {
        "ops": len(traced["latencies"]) + len(plain["latencies"]),
        "mismatches": plain["mismatches"] + traced["mismatches"],
        "failed": plain["failed"] + traced["failed"],
        "per_layer": metrics,
        "layers": layers,
        "op_seconds": op_seconds,
        "rates": (plain_rate, traced_rate),
    }


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------

def serve_phase_summary(phase):
    from harness import fail_frac
    from serve import check_records

    records = phase["records"]
    latencies = [record[0] for record in records]
    statuses = [record[1] for record in records]
    mismatches = check_records(records)
    bad = sum(1 for status in statuses if status != 200)
    return {"latencies": latencies, "busy": phase["wall"],
            "cpu": phase["cpu"], "mismatches": mismatches,
            "failed": bad + len(mismatches),
            "fail_frac": fail_frac(len(records), statuses=statuses,
                                   mismatches=len(mismatches))}


def serve(args, work):
    from calibrate import Calibration
    from serve import Serve

    workload = Serve(ROOT, args.seed, work)
    calibration = Calibration()
    if args.trace:
        return serve_traced(args, workload, calibration)
    setups = []
    server = workload.server("timed").start()
    try:
        setups.append(setup_sample(calibration, server.setup_s,
                                   server.setup_cpu))
        phase = workload.run_phase(server, args.seconds, calibration)
    finally:
        server.stop()
    for repeat in range(SETUP_REPEATS - 1):
        extra = workload.server("setup%d" % repeat).start()
        try:
            setups.append(setup_sample(calibration, extra.setup_s,
                                       extra.setup_cpu))
        finally:
            extra.stop()
    summary = serve_phase_summary(phase)
    return {
        "setups": setups,
        "calibration": calibration,
        "ops": len(summary["latencies"]),
        "run": summary,
        "peak_rss_mb": phase["peak_rss_mb"],
        "mismatches": summary["mismatches"],
        "failed": summary["failed"],
        "fail_frac": summary["fail_frac"],
        "extra": {},
    }


def serve_traced(args, workload, calibration):
    from harness import layer_self_times
    from serve import program_telemetry, service_counters
    from spans import Tracer, layer_metrics, perf_delta

    half = args.seconds / 2.0
    server = workload.server("plain").start()
    try:
        plain = serve_phase_summary(workload.run_phase(server, half,
                                                       calibration))
    finally:
        server.stop()
    server = workload.server("traced", spans_path(args)).start()
    try:
        window = (time.perf_counter(), None)
        phase = workload.run_phase(server, half, calibration)
        window = (window[0], time.perf_counter())
    finally:
        server.stop()
    traced = serve_phase_summary(phase)
    tracer = Tracer.load(spans_path(args))
    inside = [s for s in tracer.spans if window[0] <= s[2] <= window[1]]
    setup_spans = [s for s in tracer.spans if s[2] < window[0]]
    op_seconds = sum(traced["latencies"])
    program = perf_delta(program_telemetry(phase["metrics_before"]),
                         program_telemetry(phase["metrics_after"]))
    metrics = layer_metrics(inside, tracer.counters(*window),
                            len(traced["latencies"]), op_seconds,
                            setup_spans, program)
    metrics.update(service_counters(phase["metrics_before"],
                                    phase["metrics_after"]))
    return traced_result(plain, traced, metrics, layer_self_times(inside),
                         op_seconds)


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def header(metadata, ops):
    return ("perfbench %s%s seed=%d seconds=%d ops=%d (nproc=%s, %s, "
            "python %s, numpy %s, rev %s)"
            % (metadata["workload"], " (traced)" if metadata["trace"]
               else "", metadata["seed"], metadata["seconds"], ops,
               metadata["nproc"], metadata["platform"], metadata["python"],
               metadata["numpy"], metadata["git_revision"]))


def report_untraced(result, metadata):
    from harness import result_object, latency_summary

    run = result["run"]
    calibration = result["calibration"]
    cpu_factor = calibration.cpu_factor()
    if "cpus" in run:       # back-to-back ops, each CPU time and waiting
        scaled = [calibration.scale(wall, cpu)
                  for wall, cpu in zip(run["latencies"], run["cpus"])]
        busy = sum(scaled)
    else:                   # serve: overlapping requests, CPU-bound server
        scaled = [calibration.scale(wall) for wall in run["latencies"]]
        busy = calibration.scale(run["busy"])
    raw = latency_summary(run["latencies"])
    lat = latency_summary(scaled)
    ops = result["ops"]
    setups = [calibration.scale(wall, cpu) for wall, cpu in result["setups"]]
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": ops / busy,
        "latency_p50_ms": lat["latency_p50_ms"],
        "cpu_s_per_op": run["cpu"] * cpu_factor / ops,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    measured = {
        "setup_s": statistics.median(wall for wall, _ in result["setups"]),
        "ops_per_s": ops / run["busy"],
        "latency_p50_ms": raw["latency_p50_ms"],
        "cpu_s_per_op": run["cpu"] / ops,
    }
    speed = {"cpu_factor": cpu_factor,
             "wait_factor": calibration.wait_factor(),
             "cpu_passes": len(calibration.cpu),
             "io_passes": len(calibration.wait)}
    frac = result["fail_frac"]
    lines = [header(metadata, ops),
             "  timings at the reference host speed (calibrate.py): "
             "CPU x%.4f (%d passes), waiting x%.4f (%d I/O passes)"
             % (cpu_factor, speed["cpu_passes"], speed["wait_factor"],
                speed["io_passes"])]
    notes = {"latency_p50_ms": "(q1 %.6g, q3 %.6g; %d samples)"
             % (lat["latency_q1_ms"], lat["latency_q3_ms"], lat["samples"]),
             "setup_s": "(samples %s)" % ", ".join(
                 "%.4f" % value for value in setups)}
    for name, value in metrics.items():
        lines.append("  %-16s %14.6g %-5s %s"
                     % (name, value, END_TO_END_UNITS[name],
                        notes.get(name, "")))
    if lat["latency_p90_ms"] is None:
        lines.append("  %-16s %14s %-5s (omitted: %d ops < 100)"
                     % ("latency_p90_ms", "-", "ms", ops))
    else:
        lines.append("  %-16s %14.6g %-5s (%d samples beyond)"
                     % ("latency_p90_ms", lat["latency_p90_ms"], "ms",
                        lat["p90_samples_beyond"]))
    lines.append("  %-16s %14.6g %-5s (%d of %d ops failed)"
                 % ("fail_frac", frac, "ratio", result["failed"], ops))
    for name, (value, unit) in result["extra"].items():
        lines.append("  %-16s %14.6g %-5s" % (name, value, unit))
    lines.append("  as measured at this host speed: %s" % ", ".join(
        "%s %.6g" % item for item in measured.items()))
    for mismatch in result["mismatches"][:10]:
        lines.append("  MISMATCH %s" % mismatch)
    detail = dict(metadata, ops=ops, latency=lat, latency_measured=raw,
                  fail_frac=frac, metrics=metrics, measured=measured,
                  host_speed=speed, setups=result["setups"],
                  extra={k: v[0] for k, v in result["extra"].items()},
                  mismatches=result["mismatches"])
    line = result_object(not result["failed"], ops, result["failed"],
                         metrics, END_TO_END_UNITS)
    return lines, detail, line


def report_traced(result, metadata):
    from harness import result_object, top_layers

    units = per_layer_units()
    metrics = result["per_layer"]
    missing = set(units) - set(metrics)
    if missing:
        die("per-layer metrics not computed: %s" % sorted(missing))
    op_seconds = result["op_seconds"]
    lines = [header(metadata, result["ops"])]
    lines.append("  ops/s untraced %.6g, traced %.6g: tracing overhead "
                 "%.1f%%" % (result["rates"][0], result["rates"][1],
                             100.0 * metrics["trace.overhead_frac"]))
    for layer, seconds in top_layers(result["layers"]):
        lines.append("  top self time  %-16s %6.1f%% of op latency"
                     % (layer, 100.0 * seconds / op_seconds))
    lines.append("  unaccounted by any listed layer: %.1f%% of op latency"
                 % (100.0 * metrics["trace.unaccounted_frac"]))
    for name in sorted(units):
        lines.append("  %-40s %14.6g %s" % (name, metrics[name],
                                            units[name]))
    for mismatch in result["mismatches"][:10]:
        lines.append("  MISMATCH %s" % mismatch)
    detail = dict(metadata, ops=result["ops"], per_layer=metrics,
                  layer_self_seconds=result["layers"],
                  mismatches=result["mismatches"])
    line = result_object(not result["failed"], result["ops"],
                         result["failed"], metrics, units)
    return lines, detail, line


def record_references():
    import workloads
    from serve import record_serve

    for name, record in (("study", workloads.record_study),
                         ("tail", workloads.record_tail),
                         ("serve", record_serve)):
        start = time.perf_counter()
        record(ROOT)
        print("recorded reference/%s.json in %.1f s"
              % (name, time.perf_counter() - start))


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Run one benchmark workload (see README.md).")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=22)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--record-references", action="store_true",
                        help="regenerate reference/*.json from the "
                             "current program (never done implicitly)")
    args = parser.parse_args(argv)
    require_checkout()
    if args.record_references:
        record_references()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.setup_only and args.workload == "serve":
        parser.error("--setup-only applies to in-process workloads")
    from harness import run_metadata

    work = os.path.join(WORK, "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(work)
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    try:
        if args.workload == "serve":
            result = serve(args, work)
        else:
            result = in_process(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.setup_only:
        print(json.dumps(result))
        return 0
    metadata = run_metadata(ROOT, args.workload, args.seed, args.seconds,
                            args.trace)
    report = report_traced if args.trace else report_untraced
    lines, detail, line = report(result, metadata)
    with open(os.path.join(WORK, "results", "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)),
              "w") as handle:
        json.dump(detail, handle, indent=1, default=str)
    print("\n".join(lines))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
