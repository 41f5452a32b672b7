"""End-to-end fleet smoke test: N replicas + N remote workers, the
queue replica SIGKILLed mid-sweep, bit-identical resume, zero recompute.

The topology is real — every box is its own OS process on localhost,
and ``--hosts`` sets the replica count (default 2, minimum 2):

* **replica 0** — ``repro serve`` hosting the durable queue *and* a
  store replica (``--jobs`` + ``--store``), zero in-process job
  workers,
* **replicas 1..N-1** — ``repro serve`` each hosting a store replica
  only; all replicas are peered in a full mesh,
* **N workers** — ``python -m repro.jobs.worker --server <replica 0>``
  draining the queue over HTTP, each with its own local checkpoint
  store replicated to every replica.

The script submits a 16-cell study sweep, SIGKILLs replica 0 (queue
*and* store) mid-run, restarts it on the same port and files, and then
proves the durable-fleet contract:

1. the abandoned job is re-queued by lease expiry and re-claimed by a
   remote worker over HTTP,
2. the resumed run recomputes **zero** completed cells — every cell is
   computed exactly once fleet-wide (checkpoints survive via the
   workers' local stores and the surviving replicas, and flow back to
   the restarted replica 0 through write-back backlogs and read
   repair),
3. the final sweep on *every* replica is **bit-identical** to an
   uninterrupted in-process :func:`run_study` over the same matrix.

Run it directly (CI does)::

    python -m repro.fleet.smoke --cache .repro_cache.json --hosts 3

Exit status 0 on success, 1 with a diagnosis on any violated guarantee.
"""

from __future__ import annotations

import argparse
import os
import re
import signal
import socket
import subprocess
import sys
import tempfile
import time

from ..analysis.experiments import Session
from ..analysis.runner import run_study
from ..jobs import JobQueue
from ..jobs.worker import normalize_study_spec, study_cell_keys
from ..store import ExperimentStore, result_to_payload

SPEC = {
    "capacities": [128, 256, 512, 1024],
    "flavors": ["lvt", "hvt"],
    "methods": ["M1", "M2"],
    "voltage_mode": "paper",
}

_STATS_RE = re.compile(
    r"worker \S+: (\d+) done, (\d+) failed, (\d+) lost; "
    r"(\d+) cells computed, (\d+) skipped")


def _src_pythonpath():
    return os.pathsep.join(
        p for p in [os.environ.get("PYTHONPATH"),
                    os.path.join(os.path.dirname(__file__), "..", "..")]
        if p)


def _popen(argv):
    return subprocess.Popen(
        argv, env={**os.environ, "PYTHONPATH": _src_pythonpath()},
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)


def _tail(proc):
    """Drain ``proc`` stdout on a background thread; returns the
    growing line list (so the smoke can react to worker output live
    without ever filling the pipe)."""
    import threading

    lines = []

    def pump():
        for line in proc.stdout:
            lines.append(line)

    thread = threading.Thread(target=pump, daemon=True)
    thread.start()
    proc._tail_thread = thread
    return lines


def _reserve_port():
    """A free localhost port (bind-then-close; localhost CI is calm
    enough that the tiny reuse race does not bite)."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _spawn_replica(port, peer_ports, cache, jobs_path=None,
                   store_path=None):
    """One serve replica fully peered with ``peer_ports`` (every other
    replica in the fleet — the topology is a complete graph, so store
    replication and shard routing see all N hosts)."""
    argv = [sys.executable, "-m", "repro.cli", "serve",
            "--host", "127.0.0.1", "--port", str(port),
            "--workers", "2",
            "--cache", cache, "--store", store_path,
            "--probe-interval", "0.5"]
    for peer_port in peer_ports:
        argv += ["--peer", "http://127.0.0.1:%d" % peer_port]
    if jobs_path:
        argv += ["--jobs", jobs_path, "--job-workers", "0"]
    return _popen(argv)


def _spawn_worker(server_url, store_path, replicate, cache, worker_id,
                  throttle):
    argv = [sys.executable, "-m", "repro.jobs.worker",
            "--server", server_url, "--store", store_path,
            "--cache", cache, "--worker-id", worker_id,
            "--lease", "2", "--poll", "0.1",
            "--throttle", str(throttle)]
    for url in replicate:
        argv += ["--replicate", url]
    return _popen(argv)


def _wait(predicate, timeout, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def _wait_healthy(port, timeout):
    from ..service.client import ServiceClient

    def up():
        try:
            with ServiceClient(port=port, timeout=2.0,
                               max_retries=0) as client:
                return client.healthz().get("status") == "ok"
        except Exception:
            return False
    return _wait(up, timeout, interval=0.2)


def _stop_workers(workers, tails):
    """SIGTERM every worker and collect (exit code, stdout) pairs
    (stdout was drained live by the :func:`_tail` threads)."""
    for worker in workers:
        if worker.poll() is None:
            worker.send_signal(signal.SIGTERM)
    collected = []
    for worker, lines in zip(workers, tails):
        try:
            worker.wait(timeout=60)
        except subprocess.TimeoutExpired:
            worker.kill()
            worker.wait(timeout=30)
        worker._tail_thread.join(timeout=10)
        collected.append((worker.returncode, "".join(lines)))
    return collected


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="repro.fleet.smoke",
        description="Fleet kill/resume smoke test "
                    "(N replicas + N remote workers).")
    parser.add_argument("--cache", default=".repro_cache.json",
                        help="characterization cache (reused, not "
                             "recomputed, when it exists)")
    parser.add_argument("--hosts", type=int, default=2,
                        help="serve replica count (>= 2; replica 0 "
                             "hosts the queue, the rest are store-only)")
    parser.add_argument("--workers", type=int, default=2,
                        help="remote worker subprocess count")
    parser.add_argument("--throttle", type=float, default=0.4,
                        help="per-cell pacing of the workers; sets the "
                             "SIGKILL window")
    parser.add_argument("--timeout", type=float, default=300.0)
    args = parser.parse_args(argv)
    if args.hosts < 2:
        parser.error("--hosts must be >= 2 (the kill/resume proof "
                     "needs a surviving store replica)")
    cache = os.path.abspath(args.cache)

    failures = []

    def check(ok, what):
        print("%s %s" % ("ok  " if ok else "FAIL", what), flush=True)
        if not ok:
            failures.append(what)

    procs = []
    try:
        with tempfile.TemporaryDirectory(prefix="repro-fleet-smoke-") \
                as d:
            hosts = args.hosts
            ports = [_reserve_port() for _ in range(hosts)]
            urls = ["http://127.0.0.1:%d" % port for port in ports]
            port_a, url_a = ports[0], urls[0]
            queue_path = os.path.join(d, "queue-a.db")
            stores = [os.path.join(d, "store-%d.db" % i)
                      for i in range(hosts)]

            def start_replica_a():
                replica = _spawn_replica(port_a, ports[1:], cache,
                                         jobs_path=queue_path,
                                         store_path=stores[0])
                procs.append(replica)
                return replica

            # Store-only replicas 1..N-1 first (full-mesh peering:
            # every replica lists every other as --peer), then the
            # queue+store replica 0.
            for i in range(1, hosts):
                peer_ports = [p for p in ports if p != ports[i]]
                procs.append(_spawn_replica(ports[i], peer_ports, cache,
                                            store_path=stores[i]))
            replica_a = start_replica_a()
            check(all(_wait_healthy(port, args.timeout)
                      for port in ports),
                  "all %d replicas serving (:%d queue+store, %s "
                  "store-only)" % (hosts, port_a,
                                   ", ".join(":%d" % p
                                             for p in ports[1:])))

            # Submit the sweep to A over HTTP, like any fleet client.
            from ..service.client import ServiceClient

            spec = dict(SPEC, cache_path=cache)
            with ServiceClient(port=port_a) as client:
                job_id = client.submit_job(spec)["id"]
            print("submitted %s (16-cell sweep) to %s"
                  % (job_id, url_a), flush=True)

            # The smoke process's own reference view (same host, so the
            # queue/store SQLite files are directly readable).
            queue = JobQueue(queue_path)
            session = Session.create(cache_path=cache,
                                     voltage_mode="paper")
            cells = study_cell_keys(session, normalize_study_spec(spec))
            total = len(cells)
            check(total == 16, "study matrix has 16 cells")

            workers = [
                _spawn_worker(url_a, os.path.join(d, "w%d.db" % i),
                              list(urls), cache, "fleet-w%d" % i,
                              args.throttle)
                for i in range(max(1, args.workers))
            ]
            procs.extend(workers)
            tails = [_tail(worker) for worker in workers]

            killed_at = None

            def mid_sweep():
                nonlocal killed_at
                job = queue.get(job_id)
                completed = (job.progress or {}).get("completed", 0)
                if job.state == "running" \
                        and 1 <= completed <= total - 2:
                    killed_at = completed
                    return True
                return job.terminal    # ran through; window missed

            _wait(mid_sweep, args.timeout)
            replica_a.send_signal(signal.SIGKILL)
            replica_a.wait(timeout=30)
            job = queue.get(job_id)
            check(killed_at is not None and not job.terminal,
                  "replica 0 (queue+store) SIGKILLed mid-sweep "
                  "(after %s/%d cells, job state %r)"
                  % (killed_at, total, job.state))

            # Keep A down until the claim holder's heartbeat actually
            # fails and it abandons the job (it logs "job <id> lost").
            # Restarting sooner can slip between two heartbeats — the
            # original lease would then survive and the lease-expiry
            # re-queue path this smoke exists to prove would never run.
            abandoned_line = "job %s lost" % job_id
            check(_wait(lambda: any(abandoned_line in line
                                    for lines in tails
                                    for line in list(lines)),
                        args.timeout),
                  "claim holder noticed the dead queue and abandoned "
                  "the job")

            # Restart A on the same port and files; the abandoned
            # job's lease expires and the next remote claim re-queues
            # it (bumping the attempt counter).
            replica_a = start_replica_a()
            check(_wait_healthy(port_a, args.timeout),
                  "replica 0 restarted on :%d" % port_a)

            def done():
                return queue.get(job_id).state == "done"
            _wait(done, args.timeout)
            job = queue.get(job_id)
            check(job.state == "done" and job.attempts >= 2,
                  "remote worker re-claimed and finished the job "
                  "(state %r, attempt %d)" % (job.state, job.attempts))

            # Stop the workers and read their own accounting: across
            # the whole fleet every cell was computed exactly once.
            stats = _stop_workers(workers, tails)
            computed = skipped = 0
            for code, out in stats:
                match = _STATS_RE.search(out or "")
                if match is None:
                    check(False, "worker stats line missing "
                                 "(exit %s):\n%s" % (code, out))
                    continue
                computed += int(match.group(4))
                skipped += int(match.group(5))
            check(computed == total,
                  "zero re-computed cells (%d computed across %d "
                  "workers, %d skipped on resume)"
                  % (computed, len(workers), skipped))

            # Bit-identity on EVERY replica: the restarted replica 0
            # converged through write-back backlogs and read repair,
            # the store-only survivors through live pushes — and every
            # payload equals the uninterrupted in-process reference
            # exactly.
            study = run_study(
                session=session,
                capacities=tuple(spec["capacities"]),
                flavors=tuple(spec["flavors"]),
                methods=tuple(spec["methods"]),
            )
            for name, path in [(str(i), stores[i])
                               for i in range(hosts)]:
                store = ExperimentStore(path)
                mismatches = [
                    task.label for task, key in cells
                    if store.get(key, touch=False) != result_to_payload(
                        study.sweep.results[(task.capacity_bytes,
                                             task.flavor, task.method)])
                ]
                check(not mismatches,
                      "replica %s holds the full sweep bit-identical "
                      "to the uninterrupted run" % name
                      + ("" if not mismatches else " (mismatch: %s)"
                         % ", ".join(mismatches)))

            record = ExperimentStore(stores[0]).get(job.result_key,
                                                    touch=False)
            check(record is not None
                  and len(record["cells"]) == total,
                  "sweep record on replica 0 lists all %d cells"
                  % total)
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
        for proc in procs:
            if proc.poll() is None:
                proc.wait(timeout=30)

    if failures:
        print("\nfleet smoke FAILED: %d check(s)" % len(failures),
              flush=True)
        return 1
    print("\nfleet smoke passed", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
