"""Study runner: the capacity x flavor x method matrix, one task at a
time, in process.

A full Table-4 / Figure-7 study is 20 independent exhaustive searches
(5 capacities x 2 flavors x 2 methods) that share only read-only state
— the characterization LUTs and the memoized yield margins.  The whole
matrix takes a fraction of a second, so :func:`run_study` runs it as a
plain loop on one warm session; a pool would spend longer starting up
than the searches take.  To spread a study over cores or hosts, submit
it as a durable job and start several ``repro jobs work`` processes
(docs/JOBS.md).

Results are keyed by ``(capacity, flavor, method)`` and assembled into a
:class:`SweepResult` in canonical task order.  Every task records wall
time and evaluation counts (:class:`TaskTiming`) for ``--profile``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .. import perf
from ..errors import StudyTaskError
from ..opt import DesignSpace, ExhaustiveOptimizer, make_policy
from .experiments import (
    CAPACITIES_BYTES,
    DEFAULT_CACHE_PATH,
    FLAVORS,
    METHODS,
    Session,
    SweepResult,
)
from .tables import render_dict_table
from ..units import capacity_label


@dataclass(frozen=True)
class StudyTask:
    """One cell of the study matrix."""

    capacity_bytes: int
    flavor: str
    method: str

    @property
    def key(self):
        return (self.capacity_bytes, self.flavor, self.method)

    @property
    def label(self):
        return "%s/%s/%s" % (
            capacity_label(self.capacity_bytes), self.flavor.upper(),
            self.method,
        )


def study_matrix(capacities=CAPACITIES_BYTES, flavors=FLAVORS,
                 methods=METHODS):
    """The full task matrix in canonical (deterministic) order."""
    return tuple(
        StudyTask(capacity, flavor, method)
        for flavor in flavors
        for method in methods
        for capacity in capacities
    )


@dataclass
class TaskTiming:
    """Per-task telemetry: where the study's milliseconds went."""

    task: StudyTask
    seconds: float
    n_evaluated: int

    def row(self):
        return {
            "task": self.task.label,
            "ms": round(self.seconds * 1e3, 2),
            "n_evaluated": self.n_evaluated,
        }


@dataclass
class ParetoSweep:
    """Pareto fronts for every requested capacity/flavor/method cell."""

    results: dict         # (capacity_bytes, flavor, method) -> ParetoSearchResult
    voltage_mode: str

    def get(self, capacity_bytes, flavor, method):
        return self.results[(capacity_bytes, flavor, method)]

    def rows(self):
        rows = []
        for capacity, flavor, method in sorted(self.results):
            res = self.results[(capacity, flavor, method)]
            front = res.front
            rows.append({
                "cell": "%s/%s/%s" % (capacity_label(capacity),
                                      flavor.upper(), method),
                "front": len(front),
                "evaluated": res.n_evaluated,
                "tiles_pruned": res.tiles_pruned,
                "min delay (ns)": min(p.d_array for p in front) * 1e9,
                "min energy (fJ)": min(p.e_total for p in front) * 1e15,
            })
        return rows

    def report(self):
        return render_dict_table(
            self.rows(),
            title="Energy-delay Pareto fronts (%s voltages)"
            % self.voltage_mode,
        )


@dataclass
class YieldSweep:
    """ECC-relaxed yield study cells keyed like the EDP sweep."""

    results: dict         # (capacity_bytes, flavor, method) -> YieldCellResult
    voltage_mode: str
    code: str
    y_target: float
    #: Margin-floor relaxation estimator the study ran with.
    sampler: str = "gaussian"

    def get(self, capacity_bytes, flavor, method):
        return self.results[(capacity_bytes, flavor, method)]

    def rows(self):
        return [self.results[key].row() for key in sorted(self.results)]

    def summaries(self):
        """JSON-safe per-cell payloads (the bench / service format)."""
        return [self.results[key].summary()
                for key in sorted(self.results)]

    def report(self):
        return render_dict_table(
            self.rows(),
            title="ECC-relaxed yield study: %s @ Y>=%g (%s voltages)"
            % (self.code, self.y_target, self.voltage_mode),
        )


@dataclass
class StudyRunResult:
    """A finished study: the sweep plus its execution telemetry."""

    sweep: SweepResult
    timings: list = field(default_factory=list)
    total_seconds: float = 0.0

    @property
    def task_seconds(self):
        """Sum of per-task wall times."""
        return sum(t.seconds for t in self.timings)

    def report(self):
        rows = [t.row() for t in self.timings]
        text = render_dict_table(rows, title="Study runner telemetry")
        text += ("\ntotal wall time: %.3f s   task time: %.3f s"
                 % (self.total_seconds, self.task_seconds))
        return text


def _objective_kind(objective):
    """The dispatch kind: ``"edp"``/``"pareto"`` pass as strings, the
    yield study carries its parameters as ``("yield", code, y_target,
    sampler, ci_target, max_samples)``."""
    return objective if isinstance(objective, str) else objective[0]


def _execute_task(session, space, task, engine, keep_landscape,
                  objective="edp"):
    if _objective_kind(objective) == "yield":
        from ..yields.study import compute_yield_cell_timed

        _, code, y_target, sampler, ci_target, max_samples = objective
        return compute_yield_cell_timed(
            session, task.capacity_bytes, task.flavor, task.method,
            code=code, y_target=y_target, engine=engine, space=space,
            sampler=sampler, ci_target=ci_target,
            max_samples=max_samples,
        )
    start = time.perf_counter()
    model = session.model(task.flavor)
    constraint = session.constraint(task.flavor)
    optimizer = ExhaustiveOptimizer(model, space, constraint)
    policy = make_policy(task.method, session.yield_levels(task.flavor))
    if objective == "pareto":
        result = optimizer.pareto(
            task.capacity_bytes * 8, policy, engine=engine,
        )
    else:
        result = optimizer.optimize(
            task.capacity_bytes * 8, policy,
            keep_landscape=keep_landscape, engine=engine,
        )
    return result, time.perf_counter() - start


def execute_study_task(session, space, task, engine="vectorized",
                       keep_landscape=False):
    """Run one study-matrix cell; returns ``(result, seconds)``.

    This is the single execution path shared by :func:`run_study` and
    the durable job worker (:mod:`repro.jobs.worker`) — both produce
    identical :class:`OptimizationResult` values for the same inputs,
    which is what makes checkpointed resume bit-identical.
    """
    return _execute_task(session, space or DesignSpace(), task, engine,
                         keep_landscape)


def _task_failure(task, exc):
    """Wrap a task's exception so the error names the matrix cell.

    A raw exception says nothing about *which* of the 20 searches
    raised; re-raising as :class:`StudyTaskError` (with
    the original as ``__cause__``) keeps the traceback and adds the
    label.
    """
    return StudyTaskError(
        "study task %s failed: %s: %s"
        % (task.label, type(exc).__name__, exc),
        task_label=task.label,
    )


# ---------------------------------------------------------------------------
# The runner
# ---------------------------------------------------------------------------

def run_study(session=None, capacities=CAPACITIES_BYTES, flavors=FLAVORS,
              methods=METHODS, engine="vectorized", keep_landscape=False,
              space=None, cache_path=None, voltage_mode="paper",
              objective="edp", code="secded", y_target=0.9,
              sampler="gaussian", ci_target=0.1, max_samples=4096, *,
              workers=1):
    """Run the full study matrix in process, one task at a time.

    Returns a :class:`StudyRunResult` whose ``sweep`` is byte-for-byte
    the same :class:`SweepResult` :func:`optimize_all` would produce.
    ``workers`` accepts only 1; to spread a study over cores or hosts,
    submit it as a durable job and run several ``repro jobs work``
    processes.

    ``objective="pareto"`` swaps each cell's min-EDP search for a
    :meth:`~repro.opt.ExhaustiveOptimizer.pareto` sweep; the returned
    ``sweep`` is then a :class:`ParetoSweep` of
    :class:`~repro.opt.ParetoSearchResult` values.

    ``objective="yield"`` runs the ECC-relaxed yield study
    (:func:`repro.yields.study.compute_yield_cell` — a fixed-delta
    baseline search *and* a margin-relaxed search under ``code`` at
    array yield target ``y_target`` per cell); the returned ``sweep``
    is then a :class:`YieldSweep` of
    :class:`~repro.yields.study.YieldCellResult` values.
    ``sampler``/``ci_target``/``max_samples`` select the margin-floor
    relaxation estimator (``"gaussian"`` closed form, or a
    :data:`repro.cell.importance.SAMPLERS` rare-event sampler with its
    adaptive budget).  ``code``, ``y_target`` and the sampler knobs are
    ignored by the other objectives.
    """
    if workers != 1:
        raise ValueError(
            "run_study runs in process (workers=1), got workers=%r; to "
            "scale a study out, submit it as a durable job and start "
            "several `repro jobs work` processes" % (workers,)
        )
    if objective not in ("edp", "pareto", "yield"):
        raise ValueError(
            "unknown objective %r (expected 'edp', 'pareto', or "
            "'yield')" % (objective,)
        )
    if objective == "yield":
        from ..cell.importance import SAMPLERS
        from ..yields.ecc import make_code

        if not 0.0 < y_target < 1.0:
            raise ValueError("y_target must be in (0, 1), got %r"
                             % (y_target,))
        make_code(code, 64)   # fail fast on an unknown code name
        if sampler != "gaussian" and sampler not in SAMPLERS:
            raise ValueError(
                "unknown sampler %r (expected 'gaussian' or one of %s)"
                % (sampler, "/".join(SAMPLERS))
            )
        if not 0.0 < ci_target < 1.0:
            raise ValueError("ci_target must be in (0, 1), got %r"
                             % (ci_target,))
        objective = ("yield", code, float(y_target), sampler,
                     float(ci_target), int(max_samples))
    if session is None:
        session = Session.create(
            cache_path=cache_path or DEFAULT_CACHE_PATH,
            voltage_mode=voltage_mode,
        )
    space = space or DesignSpace()
    tasks = study_matrix(capacities, flavors, methods)

    # Warm the margin memos once: feasibility masks over the whole V_SSC
    # axis for every flavor and method in play.
    with perf.timed("study.warm_margins"):
        for flavor in set(task.flavor for task in tasks):
            constraint = session.constraint(flavor)
            levels = session.yield_levels(flavor)
            for method in set(task.method for task in tasks):
                policy = make_policy(method, levels)
                constraint.satisfied_grid(
                    policy.v_ddc,
                    [float(v) for v in policy.v_ssc_candidates(space)],
                    policy.v_wl, policy.v_bl,
                )

    start = time.perf_counter()
    results = {}
    timings = []
    for task in tasks:
        try:
            result, seconds = _execute_task(
                session, space, task, engine, keep_landscape, objective)
        except Exception as exc:
            raise _task_failure(task, exc) from exc
        results[task.key] = result
        timings.append(TaskTiming(task, seconds, result.n_evaluated))
    total_seconds = time.perf_counter() - start
    perf.get_registry().add_time("study.run_study", total_seconds)
    perf.count("study.tasks", len(tasks))

    kind = _objective_kind(objective)
    if kind == "yield":
        sweep = YieldSweep(results=results,
                           voltage_mode=session.voltage_mode,
                           code=objective[1], y_target=objective[2],
                           sampler=objective[3])
    elif kind == "pareto":
        sweep = ParetoSweep(results=results,
                            voltage_mode=session.voltage_mode)
    else:
        sweep = SweepResult(results=results,
                            voltage_mode=session.voltage_mode)
    return StudyRunResult(sweep=sweep, timings=timings,
                          total_seconds=total_seconds)
