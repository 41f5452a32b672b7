"""The study runner: determinism, telemetry, failure labels."""

import pytest

from repro.analysis import optimize_all
from repro.analysis.runner import (
    StudyTask,
    run_study,
    study_matrix,
)
from repro.errors import ReproError, StudyTaskError
from repro.opt import DesignSpace

#: Small matrix so the suite stays fast (2 x 2 x 2 = 8 tasks).
CAPACITIES = (128, 256)


class PoisonedSpace(DesignSpace):
    """Fails only the 256 B searches."""

    def row_counts(self, capacity_bits):
        if capacity_bits == 256 * 8:
            raise RuntimeError("injected mid-study fault")
        return super().row_counts(capacity_bits)


def _edp_map(sweep):
    return {key: result.metrics.edp for key, result in sweep.results.items()}


def test_study_matrix_deterministic_order():
    tasks = study_matrix(CAPACITIES)
    assert tasks == study_matrix(CAPACITIES)
    assert len(tasks) == len(CAPACITIES) * 2 * 2
    assert tasks[0] == StudyTask(128, "lvt", "M1")
    assert len(set(task.key for task in tasks)) == len(tasks)


def test_serial_run_matches_optimize_all(paper_session):
    run = run_study(session=paper_session, capacities=CAPACITIES)
    reference = optimize_all(paper_session, capacities=CAPACITIES)
    assert _edp_map(run.sweep) == _edp_map(reference)
    for key, result in run.sweep.results.items():
        assert result.design == reference.results[key].design
        assert result.n_evaluated == reference.results[key].n_evaluated


def test_timing_telemetry(paper_session):
    run = run_study(session=paper_session, capacities=CAPACITIES)
    tasks = study_matrix(CAPACITIES)
    assert len(run.timings) == len(tasks)
    # Telemetry rides in canonical task order regardless of completion.
    assert [t.task for t in run.timings] == list(tasks)
    for timing in run.timings:
        assert timing.seconds > 0
        assert timing.n_evaluated > 0
    assert run.total_seconds > 0
    assert run.task_seconds > 0


def test_report_renders(paper_session):
    run = run_study(session=paper_session, capacities=CAPACITIES)
    text = run.report()
    assert "Study runner telemetry" in text
    assert "128B/LVT/M1" in text
    assert "total wall time" in text


def test_sweep_report_still_works(paper_session):
    """The runner's sweep is a full SweepResult (tables render)."""
    run = run_study(session=paper_session, capacities=CAPACITIES)
    assert "Table 4" in run.sweep.report()


def test_unknown_executor_rejected(paper_session):
    """The removed ``executor`` knob is a typed failure, not ignored."""
    with pytest.raises(TypeError):
        run_study(session=paper_session, capacities=CAPACITIES,
                  executor="process")


@pytest.mark.parametrize("workers", [0, 2])
def test_workers_other_than_one_rejected(paper_session, workers):
    """``workers`` accepts only 1; the error names the scale-out path."""
    with pytest.raises(ValueError, match="repro jobs work"):
        run_study(session=paper_session, capacities=CAPACITIES,
                  workers=workers)


def test_worker_failure_surfaces_task_label(paper_session):
    """A task raising mid-study must fail the run at once, name the
    matrix cell that died, and keep the original exception as the
    cause."""
    with pytest.raises(StudyTaskError) as excinfo:
        run_study(session=paper_session, capacities=CAPACITIES,
                  space=PoisonedSpace())
    error = excinfo.value
    assert isinstance(error, ReproError)
    assert error.task_label == "256B/LVT/M1"
    assert "256B/LVT/M1" in str(error)
    assert "injected mid-study fault" in str(error)
    assert isinstance(error.__cause__, RuntimeError)


def test_runner_usable_after_failure(paper_session):
    """After a failed study the same session immediately runs a healthy
    study."""
    with pytest.raises(StudyTaskError):
        run_study(session=paper_session, capacities=CAPACITIES,
                  space=PoisonedSpace())
    run = run_study(session=paper_session, capacities=CAPACITIES)
    assert len(run.sweep.results) == len(study_matrix(CAPACITIES))


def test_engine_parity_through_runner(paper_session):
    vec = run_study(session=paper_session, capacities=CAPACITIES,
                    engine="vectorized")
    loop = run_study(session=paper_session, capacities=CAPACITIES,
                     engine="loop")
    assert _edp_map(vec.sweep) == _edp_map(loop.sweep)


def test_pruned_engine_runs_one_task_per_dispatch(paper_session):
    """Every engine dispatches one task at a time: the pruned sweep
    matches the vectorized one and each task's telemetry is its own
    search's (n_evaluated equals that task's result)."""
    vec = run_study(session=paper_session, capacities=CAPACITIES,
                    engine="vectorized")
    pruned = run_study(session=paper_session, capacities=CAPACITIES,
                       engine="pruned")
    assert _edp_map(pruned.sweep) == _edp_map(vec.sweep)
    tasks = study_matrix(CAPACITIES)
    assert [t.task for t in pruned.timings] == list(tasks)
    for key, result in pruned.sweep.results.items():
        assert result.design == vec.sweep.results[key].design
    for timing in pruned.timings:
        assert timing.seconds > 0
        result = pruned.sweep.results[timing.task.key]
        assert timing.n_evaluated == result.n_evaluated > 0


def test_pruned_engine_failure_names_the_task(paper_session):
    """A failing task names its own matrix cell, one method only."""
    with pytest.raises(StudyTaskError) as excinfo:
        run_study(session=paper_session, capacities=CAPACITIES,
                  engine="pruned", space=PoisonedSpace())
    assert excinfo.value.task_label == "256B/LVT/M1"
    assert "injected mid-study fault" in str(excinfo.value)
