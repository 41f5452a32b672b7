"""The ``serve`` workload: a closed loop of keep-alive connections
against a ``repro serve`` process with its shipped defaults.

The route shares are those of the closed-loop mix in
``benchmarks/bench_service.py`` (of every 5 requests, 3 montecarlo,
1 evaluate and 1 optimize); that script drives pareto in a scenario of
its own, so here its search share is split evenly between optimize and
pareto.  Every block of 10 requests holds 6 montecarlo, 2 evaluate,
1 optimize and 1 pareto request in a seeded order:

* ``/v1/montecarlo`` with seeds unique within a run and ``n=4``;
* ``/v1/evaluate`` over a Zipf-skewed pool of design points larger than
  the server's 256-entry result cache (hits and misses);
* ``/v1/optimize`` and ``/v1/pareto`` over power-of-two capacities x
  flavor x method (first touch misses and writes the store, repeats
  hit).

The pools and every expected response body live in
``reference/serve.json``; bodies are compared by the SHA-256 of their
canonical JSON without the ``meta`` block.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time

from workloads import canon, digest, load_reference, make_session, \
    save_reference

HERE = os.path.dirname(os.path.abspath(__file__))

CONNECTIONS = 2
#: Requests of each route in every block of 10 (the shares of
#: benchmarks/bench_service.py); each block is shuffled, so every run
#: sees the same route shares.
MIX = (("montecarlo", 6), ("evaluate", 2), ("optimize", 1), ("pareto", 1))
#: An assumption: no traffic trace or script in the repository gives a
#: skew over design points, so this is the classic Zipf law.
ZIPF_EXPONENT = 1.0
EVALUATE_POOL = 512
MC_SEEDS = 8192
MC_SAMPLES = 4
POOL_SEED = 20160605
POOL_CAPACITIES = (128, 256, 512, 1024, 2048, 4096, 8192, 16384)
#: Untimed set-up requests, outside every pool: one search per flavor
#: builds the session's margin memos.
WARMUP = tuple(("/v1/optimize", {"capacity_bytes": 32768, "flavor": flavor,
                                 "method": "M2"})
               for flavor in ("hvt", "lvt"))
STOP_TIMEOUT_S = 60.0
#: The timed phase runs in slices of about this many seconds.  Before
#: each, both connections are idle while the client times SLICE_PASSES
#: passes of the calibration kernel (calibrate.py).
SLICE_S = 1.0
SLICE_PASSES = 10


# ---------------------------------------------------------------------------
# Pools and references
# ---------------------------------------------------------------------------

def _evaluate_pool():
    from repro.analysis.experiments import PAPER_LEVELS
    from repro.opt import DesignSpace, make_policy

    rng = random.Random(POOL_SEED)
    space = DesignSpace()
    pool, seen = [], set()
    while len(pool) < EVALUATE_POOL:
        flavor = rng.choice(("lvt", "hvt"))
        policy = make_policy(rng.choice(("M1", "M2")),
                             PAPER_LEVELS[flavor])
        bits = 8 * rng.choice(POOL_CAPACITIES)
        n_r = rng.choice(space.row_counts(bits))
        design = {
            "n_r": n_r, "n_c": bits // n_r,
            "n_pre": rng.randint(1, space.n_pre_max),
            "n_wr": rng.randint(1, space.n_wr_max),
            "v_ddc": float(policy.v_ddc),
            "v_ssc": float(rng.choice(policy.v_ssc_candidates(space))),
            "v_wl": float(policy.v_wl), "v_bl": float(policy.v_bl),
        }
        body = {"flavor": flavor, "design": design}
        if canon(body) not in seen:
            seen.add(canon(body))
            pool.append(body)
    return pool


def _search_pool():
    cells = [(cap, flavor, method) for cap in POOL_CAPACITIES
             for flavor in ("lvt", "hvt") for method in ("M1", "M2")]
    optimize = [{"capacity_bytes": cap, "flavor": flavor, "method": method}
                for cap, flavor, method in cells]
    pareto = [dict(body, energy_exponent=1.0, delay_exponent=delay)
              for body in optimize for delay in (1.0, 2.0)]
    return optimize, pareto


def _montecarlo_body(seed):
    return {"n": MC_SAMPLES, "seed": seed, "flavor": "hvt"}


def record_serve(root):
    """Answer every pooled request straight from the engines (no HTTP,
    cache, batcher or store) and save the pools with their digests."""
    from repro.service.api import parse_request
    from repro.service.engines import execute_job
    from repro.service.server import _job_from_group

    session = make_session(root)

    def answer(route, body):
        request = parse_request(route, body)
        job = _job_from_group(request.group_key(), [request.item()])
        entry = execute_job(session, job)[0]
        if not entry["ok"]:
            raise RuntimeError("%s %s failed: %s" % (route, body,
                                                     entry["error"]))
        return digest(entry["result"])

    optimize, pareto = _search_pool()
    pools = {"evaluate": _evaluate_pool(), "optimize": optimize,
             "pareto": pareto}
    reference = {
        route: [{"body": body, "sha256": answer("/v1/" + route, body)}
                for body in bodies]
        for route, bodies in pools.items()
    }
    reference["montecarlo"] = [
        answer("/v1/montecarlo", _montecarlo_body(seed))
        for seed in range(MC_SEEDS)
    ]
    save_reference("serve", reference)


def request_stream(seed, reference):
    """The seeded, endless request sequence:
    ``(route, body bytes, expected sha256)``."""
    rng = random.Random(seed)
    evaluate = list(reference["evaluate"])
    rng.shuffle(evaluate)
    weights = list(itertools.accumulate(
        1.0 / rank ** ZIPF_EXPONENT for rank in range(1, len(evaluate) + 1)))
    mc_seeds = list(range(MC_SEEDS))
    rng.shuffle(mc_seeds)
    mc_next = itertools.cycle(mc_seeds)
    block = [route for route, count in MIX for _ in range(count)]
    while True:
        rng.shuffle(block)
        for route in block:
            yield _request(rng, route, reference, evaluate, weights, mc_next)


def _request(rng, route, reference, evaluate, weights, mc_next):
    if route == "evaluate":
        entry = rng.choices(evaluate, cum_weights=weights)[0]
    elif route == "montecarlo":
        mc_seed = next(mc_next)
        entry = {"body": _montecarlo_body(mc_seed),
                 "sha256": reference["montecarlo"][mc_seed]}
    else:
        entry = rng.choice(reference[route])
    return ("/v1/" + route, json.dumps(entry["body"]).encode(),
            entry["sha256"])


# ---------------------------------------------------------------------------
# The server process
# ---------------------------------------------------------------------------

class ServerProcess:
    """One ``repro serve`` process with a fresh store (and, traced, the
    span-recording launcher in front of the same entry point)."""

    def __init__(self, root, work, tag, spans_path=None):
        self.root = root
        self.spans_path = spans_path
        self.store = os.path.join(work, "serve-%s.db" % tag)
        self.log = os.path.join(work, "serve-%s.log" % tag)
        self.proc = None
        self.port = None
        self.setup_s = self.setup_cpu = None

    def start(self):
        args = ["serve", "--port", "0", "--store", self.store]
        if self.spans_path:
            command = [sys.executable,
                       os.path.join(HERE, "serve_launcher.py"),
                       self.spans_path] + args
        else:
            command = [sys.executable, "-m", "repro.cli"] + args
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"),
                   PYTHONUNBUFFERED="1")
        started = time.perf_counter()
        with open(self.log, "w") as log:
            self.proc = subprocess.Popen(
                command, cwd=self.root, env=env, stdout=subprocess.PIPE,
                stderr=log, text=True)
        try:
            self._warm_up()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started
        self.setup_cpu = self.cpu_seconds()
        return self

    def _warm_up(self):
        line = self.proc.stdout.readline()
        if "listening on http://" not in line:
            with open(self.log) as log:
                raise RuntimeError("server did not start:\n%s"
                                   % log.read()[-2000:])
        self.port = int(line.split("listening on http://")[1]
                        .split()[0].rsplit(":", 1)[1])
        connection = http.client.HTTPConnection("127.0.0.1", self.port,
                                                timeout=STOP_TIMEOUT_S)
        try:
            for route, body in WARMUP:
                status, _ = _post(connection, route,
                                  json.dumps(body).encode())
                if status != 200:
                    raise RuntimeError("warm-up %s answered %d"
                                       % (route, status))
        finally:
            connection.close()

    def get(self, path):
        connection = http.client.HTTPConnection("127.0.0.1", self.port,
                                                timeout=STOP_TIMEOUT_S)
        try:
            connection.request("GET", path)
            return json.loads(connection.getresponse().read())
        finally:
            connection.close()

    def cpu_seconds(self):
        with open("/proc/%d/stat" % self.proc.pid) as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) \
            / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self):
        return _vm_hwm_mb("/proc/%d/status" % self.proc.pid)

    def stop(self):
        """SIGTERM, then wait for the drain; returns the output."""
        if self.proc is None:
            return ""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        self.proc = None
        return out or ""


def _vm_hwm_mb(status_path):
    with open(status_path) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in %s" % status_path)


def _post(connection, route, body):
    connection.request("POST", route, body,
                       {"Content-Type": "application/json"})
    response = connection.getresponse()
    return response.status, response.read()


def drive(port, stream, seconds):
    """Closed loop: each connection sends its next request when the
    previous answer arrived, until ``seconds`` have passed.  Returns
    ``(records, wall seconds)``; a record is ``(latency s, status,
    body, expected sha256)``, status 0 for a transport error."""
    lock = threading.Lock()
    records = []
    start = time.perf_counter()
    deadline = start + seconds

    def client():
        connection = http.client.HTTPConnection("127.0.0.1", port,
                                                timeout=STOP_TIMEOUT_S)
        try:
            while True:
                with lock:
                    if time.perf_counter() >= deadline:
                        return
                    route, body, expected = next(stream)
                sent = time.perf_counter()
                try:
                    status, data = _post(connection, route, body)
                except (OSError, http.client.HTTPException):
                    status, data = 0, b""
                    connection.close()
                    connection = http.client.HTTPConnection(
                        "127.0.0.1", port, timeout=STOP_TIMEOUT_S)
                records.append((time.perf_counter() - sent, status, data,
                                expected))
        finally:
            connection.close()

    threads = [threading.Thread(target=client) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records, time.perf_counter() - start


def check_records(records):
    """Mismatch descriptions of answered requests whose body differs
    from the reference (non-2xx answers are counted separately)."""
    mismatches = []
    for _, status, data, expected in records:
        if status != 200:
            continue
        body = json.loads(data)
        body.pop("meta", None)
        if digest(body) != expected:
            mismatches.append("serve: body differs from reference %s"
                              % expected[:12])
    return mismatches


class Serve:
    name = "serve"

    def __init__(self, root, seed, work):
        self.root = root
        self.seed = seed
        self.work = work
        self.reference = load_reference("serve")

    def server(self, tag, spans_path=None):
        return ServerProcess(self.root, self.work, tag, spans_path)

    def run_phase(self, server, seconds, calibration):
        """One timed phase against a started server, in slices with a
        calibration burst before each (see :data:`SLICE_S`)."""
        before = server.get("/metrics")
        cpu_before = server.cpu_seconds()
        stream = request_stream(self.seed, self.reference)
        count = max(1, round(seconds / SLICE_S))
        records, wall = [], 0.0
        for _ in range(count):
            calibration.burst(SLICE_PASSES)
            piece, piece_wall = drive(server.port, stream, seconds / count)
            records += piece
            wall += piece_wall
        cpu = server.cpu_seconds() - cpu_before
        after = server.get("/metrics")
        return {
            "records": records, "wall": wall, "cpu": cpu,
            "peak_rss_mb": server.peak_rss_mb(),
            "metrics_before": before, "metrics_after": after,
        }


def program_telemetry(scrape):
    """The server's perf registry (its own plus the merged worker
    deltas) from one ``/metrics`` scrape, as a snapshot."""
    from repro.perf import PerfRegistry

    registry = PerfRegistry()
    registry.merge(scrape["perf"]["server"])
    registry.merge(scrape["perf"]["workers"])
    return registry.snapshot()


def service_counters(before, after):
    """Result-cache hit rate, singleflight joins and mean batch size
    per route over one phase, from two ``/metrics`` scrapes."""
    from spans import ROUTES

    hits = after["cache"]["hits"] - before["cache"]["hits"]
    misses = after["cache"]["misses"] - before["cache"]["misses"]
    coalesced = after["singleflight"].get("coalesced", 0) \
        - before["singleflight"].get("coalesced", 0)
    counters = {
        "service.cache_hit_rate": hits / (hits + misses)
        if hits + misses else 0.0,
        "service.singleflight_coalesced": coalesced,
    }
    empty = {"count": 0, "sum": 0}
    for route in ROUTES:
        new = after["batch_sizes"].get(route, empty)
        old = before["batch_sizes"].get(route, empty)
        batches = new["count"] - old["count"]
        counters["service.batch_size_mean.%s" % route] = (
            (new["sum"] - old["sum"]) / batches if batches else 0.0)
    return counters
