"""Fleet benchmark: what does going multi-host cost?

Standalone script (not a pytest benchmark) so CI can run it directly::

    PYTHONPATH=src python benchmarks/bench_fleet.py --quick

Three measurements against real localhost servers:

1. **Remote claim overhead** — the queue protocol verbs (submit /
   claim / heartbeat / complete) sampled through a direct SQLite
   :class:`JobQueue` and again through :class:`RemoteJobQueue` over
   HTTP against a live ``repro serve --jobs`` replica.  The difference
   is the per-verb price of remote claiming — what a worker pays per
   job (and per heartbeat) to live on another host.
2. **Store sync latency** — content-addressed blob put/get through a
   plain local :class:`ExperimentStore` versus a
   :class:`ReplicatedStore` pushing every put to a live replica, plus
   the read-through pull (local miss -> replica hit -> local
   materialize) that powers cross-host resume.
3. **Cache-shard hit rate** — two peered replicas; the optimize matrix
   is driven round-robin against both.  First pass: every key is
   computed exactly once fleet-wide and non-owners proxy to owners.
   Second pass: every request is a cache hit on whichever replica
   answers (owners hit their own cache; former proxies answer from
   the warmed local copy without a second hop).

Writes the machine-readable ``BENCH_fleet.json`` baseline (repo root).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import socket
import sys
import tempfile
import time

from repro.analysis.experiments import Session
from repro.jobs import JobQueue, RemoteJobQueue
from repro.service import ServerThread, ServiceClient, ServiceConfig
from repro.store import ExperimentStore, ReplicatedStore

_HERE = os.path.dirname(os.path.abspath(__file__))
BASELINE_PATH = os.path.join(_HERE, "..", "BENCH_fleet.json")
CACHE_PATH = os.path.join(_HERE, "..", ".repro_cache.json")

FULL = {"rounds": 200, "shard_passes": 2,
        "capacities": (128, 256, 512, 1024),
        "flavors": ("lvt", "hvt"), "methods": ("M1", "M2")}
QUICK = {"rounds": 50, "shard_passes": 2,
         "capacities": (128, 256), "flavors": ("lvt",),
         "methods": ("M1",)}

PAYLOAD = {"metrics": {"edp": 3.14e-25, "delay": 1.0 / 3.0},
           "design": {"n_r": 64, "v_ddc": 0.65}}


def _free_ports(n):
    sockets = [socket.socket() for _ in range(n)]
    try:
        for sock in sockets:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind(("127.0.0.1", 0))
        return [sock.getsockname()[1] for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()


def _sample(rounds, op):
    """Mean per-call latency of ``op(i)`` over ``rounds`` calls, ms."""
    start = time.perf_counter()
    for index in range(rounds):
        op(index)
    return (time.perf_counter() - start) / rounds * 1e3


def bench_claim_overhead(session, rounds, tmp):
    """Queue verbs: direct SQLite vs RemoteJobQueue over HTTP."""
    spec = {"capacities": [128], "flavors": ["lvt"], "methods": ["M1"]}

    local = {}
    queue = JobQueue(os.path.join(tmp, "local-jobs.db"))
    submitted, claimed = [], []
    local["submit_ms"] = _sample(rounds, lambda i: submitted.append(
        queue.submit("study", spec)))
    local["claim_ms"] = _sample(rounds, lambda i: claimed.append(
        queue.claim("bench-local")))
    local["heartbeat_ms"] = _sample(rounds, lambda i: queue.heartbeat(
        claimed[i].id, "bench-local", 30.0,
        progress={"completed": i}))
    local["complete_ms"] = _sample(rounds, lambda i: queue.complete(
        claimed[i].id, "bench-local"))

    remote = {}
    config = ServiceConfig(port=0, workers=2,
                           cache_path=CACHE_PATH,
                           jobs_path=os.path.join(tmp, "remote-jobs.db"),
                           job_workers=0)
    with ServerThread(config, session=session) as server:
        with RemoteJobQueue("http://127.0.0.1:%d" % server.port) as rq:
            submitted, claimed = [], []
            remote["submit_ms"] = _sample(rounds, lambda i: submitted.append(
                rq.submit("study", spec)))
            remote["claim_ms"] = _sample(rounds, lambda i: claimed.append(
                rq.claim("bench-remote")))
            remote["heartbeat_ms"] = _sample(
                rounds, lambda i: rq.heartbeat(
                    claimed[i].id, "bench-remote", 30.0,
                    progress={"completed": i}))
            remote["complete_ms"] = _sample(
                rounds, lambda i: rq.complete(claimed[i].id,
                                              "bench-remote"))

    overhead = {verb: remote[verb] - local[verb] for verb in local}
    return {"local_ms": local, "remote_ms": remote,
            "overhead_ms": overhead,
            # A worker pays claim + N heartbeats + complete per job;
            # the single-heartbeat figure is the steady-state price.
            "per_job_overhead_ms": (overhead["claim_ms"]
                                    + overhead["heartbeat_ms"]
                                    + overhead["complete_ms"])}


def bench_store_sync(session, rounds, tmp):
    """Blob put/get: plain local store vs replicated push/pull."""
    plain = ExperimentStore(os.path.join(tmp, "plain.db"))
    local = {
        "put_ms": _sample(rounds, lambda i: plain.put(
            "cell-%08x" % i, PAYLOAD)),
        "get_ms": _sample(rounds, lambda i: plain.get("cell-%08x" % i)),
    }

    config = ServiceConfig(port=0, workers=2,
                           cache_path=CACHE_PATH,
                           store_path=os.path.join(tmp, "replica.db"))
    with ServerThread(config, session=session) as server:
        url = "http://127.0.0.1:%d" % server.port
        pusher = ReplicatedStore(os.path.join(tmp, "pusher.db"),
                                 replicas=[url])
        replicated = {
            # put = local durability + synchronous push to the replica
            "put_ms": _sample(rounds, lambda i: pusher.put(
                "cell-a%07x" % i, PAYLOAD)),
            # warm get: local hit, replication adds nothing
            "get_local_hit_ms": _sample(rounds, lambda i: pusher.get(
                "cell-a%07x" % i)),
        }
        assert sum(pusher.pending().values()) == 0, \
            "replica fell behind during the benchmark"
        # Read-through pull: a fresh store that owns nothing locally
        # and materializes every cell from the replica (the resume
        # path after a host loss).
        puller = ReplicatedStore(os.path.join(tmp, "puller.db"),
                                 replicas=[url])
        replicated["get_read_through_ms"] = _sample(
            rounds, lambda i: puller.get("cell-a%07x" % i))
        pusher.close()
        puller.close()

    return {"local_ms": local, "replicated_ms": replicated,
            "push_overhead_ms": (replicated["put_ms"]
                                 - local["put_ms"])}


def bench_shard_hit_rate(session, sizing, tmp):
    """Two peered replicas, optimize matrix round-robin, two passes."""
    port_a, port_b = _free_ports(2)

    def config(port, peer):
        return ServiceConfig(
            port=port, workers=2,
            cache_path=CACHE_PATH, probe_interval_s=0.2,
            peers=("http://127.0.0.1:%d" % peer,))

    combos = [(capacity, flavor, method)
              for capacity in sizing["capacities"]
              for flavor in sizing["flavors"]
              for method in sizing["methods"]]

    with ServerThread(config(port_a, port_b), session=session) as a, \
            ServerThread(config(port_b, port_a), session=session) as b:
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if (a.server.fleet.healthy_peers()
                    and b.server.fleet.healthy_peers()):
                break
            time.sleep(0.05)

        passes = []
        with ServiceClient(port=port_a) as ca, \
                ServiceClient(port=port_b) as cb:
            for _ in range(sizing["shard_passes"]):
                stats = {"requests": 0, "cached": 0, "proxied": 0,
                         "seconds": 0.0}
                for index, (capacity, flavor, method) in \
                        enumerate(combos):
                    client = (ca, cb)[index % 2]
                    start = time.perf_counter()
                    payload = client.optimize(capacity, flavor=flavor,
                                              method=method)
                    stats["seconds"] += time.perf_counter() - start
                    stats["requests"] += 1
                    stats["cached"] += bool(payload["meta"].get("cached"))
                    stats["proxied"] += bool(
                        payload["meta"].get("proxied"))
                stats["hit_rate"] = stats["cached"] / stats["requests"]
                passes.append(stats)
            shards = {"a": ca.fleet()["shards"], "b": cb.fleet()["shards"]}

    return {"combos": len(combos), "passes": passes,
            "cold_hit_rate": passes[0]["hit_rate"],
            "warm_hit_rate": passes[-1]["hit_rate"],
            "shards": shards}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke sizing")
    parser.add_argument("--output", default=BASELINE_PATH,
                        help="where to write BENCH_fleet.json")
    args = parser.parse_args(argv)
    sizing = QUICK if args.quick else FULL

    print("building session (warm characterization cache)...")
    session = Session.create(cache_path=CACHE_PATH,
                             voltage_mode="paper")

    with tempfile.TemporaryDirectory(prefix="repro-bench-fleet-") as d:
        print("queue verbs: local SQLite vs remote HTTP "
              "(%d rounds each)..." % sizing["rounds"])
        claims = bench_claim_overhead(session, sizing["rounds"], d)
        print("store sync: plain vs replicated (%d rounds each)..."
              % sizing["rounds"])
        store = bench_store_sync(session, sizing["rounds"], d)
        print("shard hit rate: 2 replicas x %d passes..."
              % sizing["shard_passes"])
        shards = bench_shard_hit_rate(session, sizing, d)

    baseline = {
        "schema": "BENCH_fleet/v1",
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "machine": {
            "cpus": os.cpu_count() or 1,
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "mode": "quick" if args.quick else "full",
        "remote_claim": claims,
        "store_sync": store,
        "shard_cache": shards,
    }
    with open(args.output, "w") as handle:
        json.dump(baseline, handle, indent=2, sort_keys=True)
        handle.write("\n")

    print("remote claim  +%.2f ms/job over local (claim %.2f -> %.2f, "
          "heartbeat %.2f -> %.2f ms)"
          % (claims["per_job_overhead_ms"],
             claims["local_ms"]["claim_ms"],
             claims["remote_ms"]["claim_ms"],
             claims["local_ms"]["heartbeat_ms"],
             claims["remote_ms"]["heartbeat_ms"]))
    print("store sync    put %.2f -> %.2f ms (+%.2f push), "
          "read-through pull %.2f ms"
          % (store["local_ms"]["put_ms"],
             store["replicated_ms"]["put_ms"],
             store["push_overhead_ms"],
             store["replicated_ms"]["get_read_through_ms"]))
    print("shard cache   cold hit rate %.2f, warm hit rate %.2f "
          "(%d combos round-robin over 2 replicas)"
          % (shards["cold_hit_rate"], shards["warm_hit_rate"],
             shards["combos"]))
    print("fleet baseline written to %s" % args.output)

    # Sanity gates: the warmed fleet must serve everything from cache,
    # and remote claiming must stay in interactive territory.
    assert shards["warm_hit_rate"] == 1.0, \
        "warm pass was not fully cached"
    assert claims["remote_ms"]["claim_ms"] < 250.0, \
        "remote claim latency out of interactive range"
    return 0


if __name__ == "__main__":
    sys.exit(main())
