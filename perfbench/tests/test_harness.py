"""The benchmark harness's own arithmetic.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import types

import pytest

import calibrate
import harness
import run
import spans


def test_percentile_is_nearest_rank():
    values = list(range(1, 11))
    assert harness.percentile(values, 50) == 5
    assert harness.percentile(values, 90) == 9
    assert harness.percentile(values, 100) == 10
    assert harness.percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        harness.percentile([], 50)


def test_p90_omitted_below_100_ops():
    summary = harness.latency_summary([0.001 * i for i in range(1, 100)])
    assert summary["samples"] == 99
    assert summary["latency_p90_ms"] is None
    assert summary["latency_p50_ms"] == pytest.approx(50.0)


def test_p90_reported_from_100_ops_with_ten_beyond():
    summary = harness.latency_summary([0.001 * i for i in range(1, 101)])
    assert summary["latency_p90_ms"] == pytest.approx(90.0)
    assert summary["p90_samples_beyond"] == 10
    assert summary["latency_q1_ms"] < summary["latency_p50_ms"] \
        < summary["latency_q3_ms"]


def test_single_op_summary():
    summary = harness.latency_summary([0.5])
    assert summary["latency_p50_ms"] == summary["latency_q1_ms"] \
        == summary["latency_q3_ms"] == 500.0


def test_self_time_nested():
    tree = [
        (1, "op", 0.0, 10.0, None, 0),
        (2, "opt.optimize", 1.0, 4.0, 1, 0),
        (3, "array.evaluate", 2.0, 3.0, 2, 0),
    ]
    selfs = harness.self_times(tree)
    assert selfs == {1: pytest.approx(7.0), 2: pytest.approx(2.0),
                     3: pytest.approx(1.0)}


def test_self_time_overlapping_children_count_once():
    tree = [
        (1, "op", 0.0, 10.0, None, 0),
        (2, "store.get", 1.0, 5.0, 1, 0),
        (3, "store.get", 3.0, 7.0, 1, 0),      # overlaps the first
        (4, "jobs.compute", 8.0, 12.0, 1, 0),  # runs past its parent
    ]
    selfs = harness.self_times(tree)
    assert selfs[1] == pytest.approx(10.0 - 6.0 - 2.0)
    assert selfs[2] == pytest.approx(4.0)


def test_layer_self_times_and_top_layers():
    tree = [
        (1, "op", 0.0, 10.0, None, 0),
        (2, "opt.optimize", 0.0, 6.0, 1, 0),
        (3, "array.evaluate", 1.0, 5.0, 2, 0),
        (4, "cell.importance.search", 6.0, 8.0, 1, 0),
        (5, "cell.margin_solve", 6.25, 7.75, 4, 0),
    ]
    layers = harness.layer_self_times(tree)
    assert layers == {
        "unaccounted": pytest.approx(2.0), "opt": pytest.approx(2.0),
        "array": pytest.approx(4.0), "cell.importance": pytest.approx(0.5),
        "cell": pytest.approx(1.5),
    }
    assert [name for name, _ in harness.top_layers(layers)] \
        == ["array", "opt", "cell"]


def test_fail_frac_counts_429_and_mismatches():
    statuses = [200] * 6 + [429, 500, 200, 200]
    assert harness.fail_frac(10, statuses=statuses, mismatches=1) \
        == pytest.approx(0.3)
    assert harness.fail_frac(4, exceptions=1, job_failures=1) == 0.5
    assert harness.fail_frac(3) == 0.0
    with pytest.raises(ValueError):
        harness.fail_frac(0)


def test_result_object_shape():
    line = harness.result_object(True, 3, 0, {"setup_s": 1}, {"setup_s": "s"})
    assert line == {"correct": True, "attempted": 3, "failed": 0,
                    "metrics": {"setup_s": {"value": 1.0, "unit": "s"}}}


class _Box:
    @classmethod
    def make(cls, value):
        return cls.double(value)

    @staticmethod
    def double(value):
        return 2 * value

    def outer(self, value):
        return _box_module.inner(value) + 1


_box_module = types.SimpleNamespace(inner=lambda value: value * 10)


def test_tracer_nests_spans_and_restores_originals():
    originals = (_Box.__dict__["make"], _Box.__dict__["double"],
                 _Box.__dict__["outer"], _box_module.inner)
    tracer = spans.Tracer()
    tracer.wrap(_Box, "make", "analysis.make")
    tracer.wrap(_Box, "double", "analysis.double")
    tracer.wrap(_Box, "outer", "opt.outer")
    tracer.wrap(_box_module, "inner", "array.inner",
                lambda t, args, kwargs, result: t.count("array.points", 3))
    assert tracer.op(7, lambda: _Box.make(2) + _Box().outer(1)) == 15
    by_name = {span[1]: span for span in tracer.spans}
    assert by_name["analysis.double"][4] == by_name["analysis.make"][0]
    assert by_name["array.inner"][4] == by_name["opt.outer"][0]
    assert by_name["analysis.make"][4] == by_name["op"][0]
    assert {span[5] for span in tracer.spans} == {7}
    assert tracer.counters() == {"array.points": 3}
    tracer.uninstall()
    assert (_Box.__dict__["make"], _Box.__dict__["double"],
            _Box.__dict__["outer"], _box_module.inner) == originals


def test_layer_metrics_zero_for_untouched_layers():
    tree = [
        (1, "op", 0.0, 2.0, None, 0),
        (2, "array.evaluate", 0.5, 1.5, 1, 0),
    ]
    metrics = spans.layer_metrics(tree, {"array.points": 1000}, 1, 2.0)
    assert metrics["array.evaluate_ms"] == pytest.approx(1000.0)
    assert metrics["array.points_per_s"] == pytest.approx(1000.0)
    assert metrics["jobs.checkpoint_frac"] == 0.0
    assert metrics["cell.importance.ess_frac"] == 0.0


def test_layer_metrics_read_program_telemetry_deltas():
    before = {"counters": {"importance.solver_rows": 100,
                           "jobs.cells_computed": 20},
              "timers": {"service.job.montecarlo": {"count": 1,
                                                    "total": 0.05}}}
    after = {"counters": {"importance.solver_rows": 1400,
                          "jobs.cells_computed": 40,
                          "jobs.cells_skipped": 20},
             "timers": {"service.job.montecarlo": {"count": 5,
                                                   "total": 0.25}}}
    program = spans.perf_delta(before, after)
    assert program["timers"]["service.job.montecarlo"] \
        == (4, pytest.approx(0.2))
    tree = [(1, "op", 0.0, 2.0, None, 0),
            (2, "cell.margin_solve", 0.0, 1.3, 1, 0)]
    metrics = spans.layer_metrics(tree, {}, 1, 2.0, program=program)
    assert metrics["cell.margin_solves"] == 1300
    assert metrics["cell.us_per_solve"] == pytest.approx(1000.0)
    assert metrics["jobs.skipped_frac"] == pytest.approx(0.5)
    assert metrics["service.engine_ms.montecarlo"] == pytest.approx(50.0)
    assert metrics["service.engine_ms.evaluate"] == 0.0


def test_metric_names_match_benchmark_json():
    root = os.path.dirname(run.HERE)
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} \
        == run.END_TO_END_UNITS
    units = run.per_layer_units()
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == units
    computed = set(spans.layer_metrics([], {}, 1, 1.0)) | {
        "trace.overhead_frac", "trace.unaccounted_frac"}
    assert computed == set(units)


def test_calibration_scales_cpu_and_wait_apart():
    cal = calibrate.Calibration()
    cal.cpu = [2 * calibrate.REFERENCE_KERNEL_S] * 4     # host 2x slow
    assert cal.cpu_factor() == pytest.approx(0.5)
    # No I/O passes: waiting is scaled like CPU time.
    assert cal.wait_factor() == pytest.approx(0.5)
    assert cal.scale(0.3) == pytest.approx(0.15)
    cal.wait = [calibrate.REFERENCE_WAIT_S / 4] * 3     # I/O 4x fast
    assert cal.wait_factor() == pytest.approx(4.0)
    # 0.2 s of CPU at x0.5 plus 0.1 s of waiting at x4.
    assert cal.scale(0.3, 0.2) == pytest.approx(0.1 + 0.4)
    # CPU time above wall time (clock granularity) leaves no wait.
    assert cal.scale(0.3, 0.31) == pytest.approx(0.15)


def test_calibration_uses_the_mean_of_bimodal_passes():
    cal = calibrate.Calibration()
    ref = calibrate.REFERENCE_KERNEL_S
    cal.cpu = [0.5 * ref] * 3 + [1.5 * ref] * 2   # median would say 0.5
    assert cal.cpu_factor() == pytest.approx(1.0 / 0.9)


def test_calibration_burst_sizes(tmp_path):
    cal = calibrate.Calibration(str(tmp_path))
    cal.before_op(0.0, 0.0)
    assert (len(cal.cpu), len(cal.wait)) == (calibrate.MIN_PASSES, 0)
    cal.before_op(0.0, 0.01)      # 10 ms of waiting -> 4 I/O passes
    assert len(cal.wait) == 4
    assert all(value > -0.01 for value in cal.wait)
