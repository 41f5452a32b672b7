"""The in-process workloads (``study``, ``tail``, ``sweep``) and the
reference outputs they are checked against.

Each workload class has ``setup()`` (everything lazy, including one
untimed warm-up op where the workload has one), ``op(index)`` (one
timed op) and ``check(index, output)`` (untimed; returns mismatch
descriptions).  The program receives only the inputs generated here.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

#: The paper's headline: average >=1KB EDP reduction of 6T-HVT-M2 over
#: 6T-LVT-M2, in percent.
PAPER_EDP_REDUCTION_PCT = 59.0

#: Tail workload: per-op sample budget (it always binds, because the
#: CI target below is out of reach), and the pool of sampler seeds the
#: references cover (op ``i`` of a run with seed ``s`` uses seed
#: ``(s + i) % TAIL_SEEDS``).
TAIL_MAX_SAMPLES = 1024
TAIL_CI_TARGET = 1e-6
TAIL_SEEDS = 64
#: The naive pilot that fixes the tail floor (2% quantile of 192
#: samples at this seed).
PILOT_SEED = 0
PILOT_SAMPLES = 192
PILOT_QUANTILE = 0.02


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------

def canon(value):
    """Canonical JSON text: equal text means bit-identical floats."""
    return json.dumps(value, sort_keys=True)


def digest(value):
    return hashlib.sha256(canon(value).encode("utf-8")).hexdigest()


def load_reference(name):
    with open(os.path.join(REFERENCE_DIR, name + ".json")) as handle:
        return json.load(handle)


def save_reference(name, value):
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    with open(os.path.join(REFERENCE_DIR, name + ".json"), "w") as handle:
        json.dump(value, handle, sort_keys=True, indent=1)
        handle.write("\n")


def cell_id(capacity_bytes, flavor, method):
    return "%d/%s/%s" % (capacity_bytes, flavor, method)


def cell_digest(payload):
    """The checked part of one study cell: its design and metrics."""
    return {"design": payload["design"], "metrics": payload["metrics"]}


def sweep_cells(sweep):
    """``{cell id: checked fields}`` of a :class:`SweepResult`."""
    from repro.store import result_to_payload

    return {cell_id(cap, flavor, method):
            cell_digest(result_to_payload(result))
            for (cap, flavor, method), result in sweep.results.items()}


def compare_cells(cells, reference, label):
    mismatches = []
    if sorted(cells) != sorted(reference):
        mismatches.append("%s: cell set differs" % label)
    for key in sorted(set(cells) & set(reference)):
        if canon(cells[key]) != canon(reference[key]):
            mismatches.append("%s: cell %s differs" % (label, key))
    return mismatches


def make_session(root):
    from repro.analysis import experiments

    return experiments.Session.create(
        cache_path=os.path.join(root, ".repro_cache.json"),
        voltage_mode="paper")


# ---------------------------------------------------------------------------
# study: one 20-cell EDP study plus the headline
# ---------------------------------------------------------------------------

class Study:
    name = "study"

    def __init__(self, root, seed):
        self.root = root
        self.seed = seed
        self.reference = None
        self.session = None
        self.paper_err_pct = None

    def setup(self):
        self.reference = load_reference("study")
        self.session = make_session(self.root)
        self.op(-1)        # fills the margin memos

    def op(self, index):
        from repro.analysis import experiments, runner

        run = runner.run_study(session=self.session, workers=1)
        return run.sweep, experiments.compute_headline(run.sweep)

    def check(self, index, output):
        from dataclasses import asdict

        sweep, headline = output
        self.paper_err_pct = abs(100.0 * headline.avg_edp_gain_large
                                 - PAPER_EDP_REDUCTION_PCT)
        mismatches = compare_cells(sweep_cells(sweep),
                                   self.reference["cells"], "study")
        if canon(asdict(headline)) != canon(self.reference["headline"]):
            mismatches.append("study: headline differs")
        return mismatches

    def extra(self):
        return {"paper_err_pct": (self.paper_err_pct, "pp")}


def record_study(root):
    from dataclasses import asdict

    from repro.analysis import experiments, runner

    session = make_session(root)
    run = runner.run_study(session=session, workers=1)
    headline = experiments.compute_headline(run.sweep)
    save_reference("study", {"cells": sweep_cells(run.sweep),
                             "headline": asdict(headline)})


# ---------------------------------------------------------------------------
# tail: one shifted-sampler tail estimate on the 6T-HVT read margin
# ---------------------------------------------------------------------------

def _tail_point():
    from repro.cell.bias import CellBias
    from repro.cell.sram6t import SRAM6TCell
    from repro.devices import DeviceLibrary

    library = DeviceLibrary.default_7nm()
    cell = SRAM6TCell.from_library(library, "hvt")
    return cell, library.vdd, CellBias.read(vdd=library.vdd)


def _tail_floor(cell, vdd, read_bias):
    from repro.cell import importance

    pilot = importance.TailSampleBuffer(
        importance.cell_margin_solver(cell, vdd, read_bias),
        sampler="naive", seed=PILOT_SEED)
    pilot.ensure(PILOT_SAMPLES)
    return pilot.floor_for(PILOT_QUANTILE)


def _tail_estimate(cell, vdd, read_bias, floor, seed):
    from repro.cell import importance

    solver = importance.cell_margin_solver(cell, vdd, read_bias)
    return importance.estimate_tail(
        solver, floor, sampler="shifted", ci_target=TAIL_CI_TARGET,
        max_samples=TAIL_MAX_SAMPLES, seed=seed)


def tail_digest(estimate):
    return {"p_fail": estimate.p_fail, "rel_ci": estimate.rel_ci,
            "n_samples": estimate.n_samples,
            "n_solver_evals": estimate.n_solver_evals,
            "shift": list(estimate.shift)}


class Tail:
    name = "tail"

    def __init__(self, root, seed):
        self.root = root
        self.seed = seed

    def setup(self):
        self.reference = load_reference("tail")
        self.point = _tail_point()
        self.floor = _tail_floor(*self.point)

    def tail_seed(self, index):
        return (self.seed + index) % TAIL_SEEDS

    def op(self, index):
        return _tail_estimate(*self.point, self.floor,
                              self.tail_seed(index))

    def check(self, index, output):
        mismatches = []
        if self.floor != self.reference["floor"]:
            mismatches.append("tail: pilot floor differs")
        expected = self.reference["seeds"][str(self.tail_seed(index))]
        if canon(tail_digest(output)) != canon(expected):
            mismatches.append("tail: estimate at seed %d differs"
                              % self.tail_seed(index))
        return mismatches

    def extra(self):
        return {}


def record_tail(root):
    point = _tail_point()
    floor = _tail_floor(*point)
    seeds = {str(seed): tail_digest(_tail_estimate(*point, floor, seed))
             for seed in range(TAIL_SEEDS)}
    save_reference("tail", {"floor": floor, "seeds": seeds})


# ---------------------------------------------------------------------------
# sweep: a durable 20-cell study job, then its resume from the store
# ---------------------------------------------------------------------------

class Sweep:
    name = "sweep"

    def __init__(self, root, seed, work):
        self.root = root
        self.seed = seed
        self.work = os.path.join(work, "sweep")

    def _fresh_db(self):
        from repro.jobs import JobQueue
        from repro.store import ExperimentStore

        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        path = os.path.join(self.work, "sweep.db")
        self.queue = JobQueue(path)
        self.store = ExperimentStore(path)

    def setup(self):
        from repro.jobs.worker import SessionProvider, normalize_study_spec

        self.reference = load_reference("study")["cells"]
        self.session = make_session(self.root)
        self.sessions = SessionProvider(
            default_cache_path=self.session.cache.path)
        self.sessions.seed(self.session)
        self.spec = normalize_study_spec({})
        self._fresh_db()
        # The warm-up op fills the margin memos; its check empties the
        # store again.
        mismatches = self.check(-1, self.op(-1))
        if mismatches:
            raise RuntimeError("sweep warm-up: %s" % "; ".join(mismatches))

    def op(self, index):
        from repro.jobs import worker

        runs = []
        for _ in range(2):
            self.queue.submit("study", self.spec)
            runs.append(worker.run_worker(
                queue=self.queue, store=self.store,
                sessions=self.sessions, once=True))
        return runs

    def check(self, index, output):
        from repro.jobs.worker import study_cell_keys

        cold, resume = output
        mismatches = []
        total = len(self.reference)
        if (cold.jobs_done, cold.cells_computed, cold.cells_skipped) \
                != (1, total, 0):
            mismatches.append("sweep: cold pass computed %d, skipped %d"
                              % (cold.cells_computed, cold.cells_skipped))
        if (resume.jobs_done, resume.cells_computed,
                resume.cells_skipped) != (1, 0, total):
            mismatches.append("sweep: resume computed %d, skipped %d"
                              % (resume.cells_computed,
                                 resume.cells_skipped))
        cells = {}
        for task, key in study_cell_keys(self.session, self.spec):
            payload = self.store.get(key)
            if payload is not None:
                cells[cell_id(task.capacity_bytes, task.flavor,
                              task.method)] = cell_digest(payload)
        mismatches += compare_cells(cells, self.reference, "sweep")
        self._fresh_db()
        return mismatches

    def extra(self):
        return {}
