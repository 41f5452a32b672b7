"""The asyncio optimization server.

Request lifecycle::

    connection -> parse (http.py) -> normalize (api.py)
        -> result cache (cache.py)            hit? answer immediately
        -> singleflight (cache.py)            identical in flight? join it
        -> dynamic batcher (batching.py)      coalesce compatible requests
        -> thread pool (engines.py)           one dispatch per batch
        -> cache fill + response

Endpoints:

* ``POST /v1/optimize``    — min-EDP design for one capacity/flavor/method
* ``POST /v1/pareto``      — energy-delay Pareto front (+ ``E^a D^b``
  pick) for one capacity/flavor/method
* ``POST /v1/yield``       — ECC-relaxed yield study cell (fixed-delta
  baseline vs margin-relaxed search under a code)
* ``POST /v1/evaluate``    — metrics/margins of one explicit design point
* ``POST /v1/montecarlo``  — cell margin distributions
* ``POST /v1/jobs``        — submit a durable study sweep (202 Accepted)
* ``GET  /v1/jobs``        — list jobs + per-state counts
* ``GET  /v1/jobs/{id}``   — job status/progress (+ results when done)
* ``DELETE /v1/jobs/{id}`` — cancel (409 once terminal)
* ``GET  /healthz``        — liveness + drain state
* ``GET  /metrics``        — counters, latency/batch histograms, cache
  stats, and engine perf

The jobs endpoints exist when the config names a ``jobs_path``; results
are checkpointed per cell to the shared experiment store
(:mod:`repro.store`), which also fronts ``/v1/optimize`` so the service,
job workers, the study runner, and the CLI never repeat a search any of
them has finished.  Every response carries an ``X-Request-Id`` header
(echoing the caller's, or freshly minted) that also tags the
``repro.service`` dispatch logs.

Backpressure: when queued-plus-executing items reach ``max_pending``
the server answers ``429`` with a ``Retry-After`` header instead of
letting latency grow without bound.  ``drain()`` (SIGTERM in the CLI)
stops accepting, finishes everything in flight, and shuts the pool
down — in-flight callers get their answers, new ones get ``503``.
"""

from __future__ import annotations

import asyncio
import contextlib
import logging
import os
import re
import signal
import socket
import threading
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .api import PARSERS, BadRequest, parse_request
from .batching import BatchQueue, QueueFull
from .cache import ResultCache, Singleflight
from .engines import best_weighted_fields, execute_job
from .http import ProtocolError, read_request, write_response
from .metrics import ServiceMetrics
from .. import perf
from ..analysis.experiments import DEFAULT_CACHE_PATH, Session
from ..errors import JobError, ServiceError
from ..jobs import JobQueue
from ..jobs.worker import SessionProvider, normalize_study_spec, run_worker
from ..opt import DesignSpace
from ..store import (
    ExperimentStore,
    make_provenance,
    pareto_cell_key,
    payload_json_safe,
    study_cell_key,
    yield_cell_key,
)

logger = logging.getLogger("repro.service")


@dataclass
class ServiceConfig:
    """Tunable knobs of one server instance."""

    host: str = "127.0.0.1"
    port: int = 8787              # 0 = ephemeral (tests)
    workers: int = 0              # thread pool size; 0 = os.cpu_count()
    max_batch: int = 8            # flush a group at this many items
    max_wait_ms: float = 5.0      # ... or this long after its first item
    max_pending: int = 64         # queued+executing bound (429 beyond)
    cache_entries: int = 256      # result-cache LRU capacity
    cache_ttl: float = 300.0      # result-cache TTL [s]; None = no expiry
    cache_path: str = DEFAULT_CACHE_PATH
    voltage_mode: str = "paper"
    jobs_path: str = None         # durable queue SQLite; None = no jobs API
    store_path: str = None        # experiment store; None = share jobs_path
    job_workers: int = 1          # background job worker threads
    job_lease_seconds: float = 30.0
    job_poll_ms: float = 200.0    # idle poll of the job workers
    #: Fleet membership: base URLs of the other serve replicas
    #: (``repro serve --peer URL`` repeatable).  Non-empty peers turn on
    #: consistent-hash sharding of /v1/optimize//v1/pareto cache keys,
    #: store replication, health probing and /v1/fleet.
    peers: tuple = ()
    self_url: str = None          # advertised URL; None = http://host:port
    probe_interval_s: float = 3.0    # peer health probe cadence
    ring_vnodes: int = 128        # consistent-hash points per member
    peer_timeout_s: float = 60.0  # read budget for proxied peer calls
    #: Extra shard-proxy attempts against later healthy ring
    #: preferences after the first proxied hop fails (0 = the old
    #: single-attempt try-then-local-fallback behavior).  Each retry
    #: bumps ``fleet.proxy_retries`` in /metrics.
    proxy_retries: int = 1

    def resolved_workers(self):
        return self.workers or os.cpu_count() or 1

    def resolved_store_path(self):
        """The store location, when any store is configured at all."""
        return self.store_path or self.jobs_path

    def resolved_self_url(self, port):
        """This replica's ring identity once the listen port is known."""
        if self.self_url:
            return self.self_url
        host = self.host
        if host in ("0.0.0.0", "::", ""):
            host = "127.0.0.1"
        return "http://%s:%d" % (host, port)


def _job_from_group(group_key, items):
    """Rebuild the plain-data job a worker executes from a batch."""
    kind = group_key[0]
    if kind in ("optimize", "pareto", "yield"):
        # The method rides per item (it is not part of the group key).
        _, flavor, engine = group_key
        return {"kind": kind, "flavor": flavor, "engine": engine,
                "items": items}
    if kind == "evaluate":
        return {"kind": kind, "flavor": group_key[1], "items": items}
    if kind == "montecarlo":
        _, flavor, metrics, engine = group_key
        return {"kind": kind, "flavor": flavor, "metrics": list(metrics),
                "engine": engine, "items": items}
    raise ValueError("unknown batch group kind %r" % (kind,))


class OptimizationServer:
    """One service instance: sockets, batcher, pool, cache, metrics."""

    def __init__(self, config=None, session=None):
        self.config = config or ServiceConfig()
        self.session = session      # may be pre-built (tests/bench)
        self.metrics = ServiceMetrics()
        self._cache = ResultCache(
            max_entries=self.config.cache_entries,
            ttl=self.config.cache_ttl,
        )
        self._flight = Singleflight()
        self._batcher = None
        self._pool = None
        self._server = None
        self._writers = set()
        self._conn_tasks = set()
        self._draining = False
        self._started_at = None
        self.port = None
        self.jobs = None            # JobQueue when jobs_path is set
        self.store = None           # ExperimentStore when configured
        self._job_threads = []
        self._job_stop = None
        self.fleet = None           # FleetTopology when peers configured
        self._probe_task = None
        #: Shard-routing outcome counts (rendered under /metrics).
        self._shard_stats = {"local": 0, "remote_owned": 0, "proxied": 0,
                             "failovers": 0, "proxy_retries": 0}

    # -- lifecycle ---------------------------------------------------------

    async def start(self):
        """Build the pool + batcher and start listening.

        Blocking setup (the session build) runs before the socket
        opens, so a request can never observe a half-built server.
        """
        config = self.config
        if self.session is None:
            self.session = Session.create(
                cache_path=config.cache_path or None,
                voltage_mode=config.voltage_mode,
            )
        # Engine threads share the one warm session.
        self._pool = ThreadPoolExecutor(
            max_workers=config.resolved_workers(),
            thread_name_prefix="repro-service",
        )
        self._batcher = BatchQueue(
            self._dispatch,
            max_batch=config.max_batch,
            max_wait=config.max_wait_ms / 1e3,
            max_pending=config.max_pending,
            on_batch=self.metrics.observe_batch,
        )
        # Bind before serving: the listen port is this replica's ring
        # identity, and the fleet/store/jobs plumbing must exist before
        # the first request can arrive.
        sock = socket.socket(
            socket.AF_INET6 if ":" in config.host else socket.AF_INET,
            socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((config.host, config.port))
        self.port = sock.getsockname()[1]
        self._start_fleet()
        self._start_jobs()
        self._server = await asyncio.start_server(
            self._handle_connection, sock=sock
        )
        self._started_at = time.monotonic()
        if self.fleet is not None:
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, self.fleet.probe_all)
            self._probe_task = asyncio.ensure_future(self._probe_loop())
        return self

    def _start_fleet(self):
        """Build the topology/ring when peers are configured."""
        if not self.config.peers:
            return
        from ..fleet.topology import FleetTopology

        self.fleet = FleetTopology(
            self.config.resolved_self_url(self.port),
            peer_urls=self.config.peers,
            vnodes=self.config.ring_vnodes,
            peer_timeout=self.config.peer_timeout_s,
        )

    async def _probe_loop(self):
        """Background peer health probing (marks peers up/down)."""
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self.config.probe_interval_s)
            with contextlib.suppress(Exception):
                await loop.run_in_executor(None, self.fleet.probe_all)

    def _start_jobs(self):
        """Open the queue/store and start the background worker pool.

        The workers share the server's warm session through a seeded
        :class:`SessionProvider`, so a submitted sweep starts computing
        immediately — no per-job characterization.
        """
        config = self.config
        store_path = config.resolved_store_path()
        if store_path:
            self.store = ExperimentStore(store_path)
            if self.fleet is not None:
                # Replicate results across the fleet: reads fall through
                # to peers, writes fan out (write-back with a backlog
                # for peers that are down).
                from ..store.replicated import ReplicatedStore

                self.store = ReplicatedStore(
                    self.store, replicas=list(self.fleet.peers),
                    timeout=config.peer_timeout_s,
                )
        if not config.jobs_path:
            return
        self.jobs = JobQueue(config.jobs_path)
        provider = SessionProvider(
            default_cache_path=config.cache_path or None)
        provider.seed(self.session, cache_path=config.cache_path or None)
        self._job_stop = threading.Event()
        for index in range(max(0, config.job_workers)):
            worker_id = "svc-%d-w%d" % (os.getpid(), index)
            thread = threading.Thread(
                target=run_worker,
                kwargs=dict(
                    queue_path=config.jobs_path, store_path=store_path,
                    # The background workers share the server's store
                    # object, so their checkpoints replicate too.
                    store=self.store,
                    worker_id=worker_id,
                    lease_seconds=config.job_lease_seconds,
                    poll_interval=config.job_poll_ms / 1e3,
                    stop=self._job_stop, sessions=provider,
                    default_cache_path=config.cache_path or None,
                ),
                name="repro-job-%s" % worker_id, daemon=True,
            )
            thread.start()
            self._job_threads.append(thread)

    async def drain(self):
        """Graceful shutdown: stop accepting, finish in-flight work."""
        self._draining = True
        if self._probe_task is not None:
            self._probe_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._probe_task
            self._probe_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._batcher is not None:
            await self._batcher.drain()
        # In-flight responses are resolved by now; close lingering
        # keep-alive connections so their handler tasks finish.
        for writer in list(self._writers):
            with contextlib.suppress(Exception):
                writer.close()
        # Let handler tasks observe the close and finish, so loop
        # teardown never cancels one mid-await (noisy otherwise).
        if self._conn_tasks:
            await asyncio.wait(set(self._conn_tasks), timeout=5)
        if self._job_stop is not None:
            # Job workers notice the stop flag at the next cell/poll
            # boundary; an unfinished sweep keeps its checkpoints and is
            # re-queued when its lease expires.
            self._job_stop.set()
            loop = asyncio.get_running_loop()
            for thread in self._job_threads:
                await loop.run_in_executor(None, thread.join, 60)
        if self._pool is not None:
            self._pool.shutdown(wait=True)
        if self.fleet is not None:
            self.fleet.close()
        if self.store is not None and hasattr(self.store, "close"):
            self.store.close()

    # -- dispatch ----------------------------------------------------------

    async def _dispatch(self, group_key, items):
        # Correlation ids ride along with the batch items; strip them
        # before the job reaches the engines.
        request_ids = [item.pop("_request_id", None) for item in items]
        logger.debug("dispatch %s batch of %d rid=%s", group_key[0],
                     len(items),
                     ",".join(rid or "-" for rid in request_ids))
        job = _job_from_group(group_key, items)
        return await asyncio.get_running_loop().run_in_executor(
            self._pool, execute_job, self.session, job
        )

    # -- connection handling -----------------------------------------------

    async def _handle_connection(self, reader, writer):
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        self._writers.add(writer)
        try:
            while True:
                try:
                    request = await read_request(reader)
                except ProtocolError as exc:
                    await write_response(writer, exc.status,
                                         {"error": str(exc)},
                                         keep_alive=False)
                    break
                if request is None:
                    break
                start = time.perf_counter()
                # Callers may supply their own correlation id; otherwise
                # one is minted here.  Either way it is echoed back and
                # threaded through the dispatch logs.
                request_id = (request.headers.get("x-request-id")
                              or "req-%s" % uuid.uuid4().hex[:12])
                status, payload, headers = await self._route(request,
                                                             request_id)
                elapsed = time.perf_counter() - start
                headers = dict(headers or {})
                headers["X-Request-Id"] = request_id
                self.metrics.observe_request(request.path, status,
                                             elapsed)
                logger.debug("%s %s -> %d (%.1f ms) rid=%s",
                             request.method, request.path, status,
                             elapsed * 1e3, request_id)
                keep = request.keep_alive and not self._draining
                await write_response(writer, status, payload, headers,
                                     keep_alive=keep)
                if not keep:
                    break
        except (ConnectionResetError, BrokenPipeError,
                asyncio.CancelledError):
            pass
        finally:
            self._writers.discard(writer)
            self._conn_tasks.discard(task)
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _route(self, request, request_id=None):
        """``(status, payload, extra_headers)`` for one request."""
        path = request.path
        if path == "/healthz":
            if request.method != "GET":
                return 405, {"error": "use GET"}, {"Allow": "GET"}
            return 200, self._health_payload(), {}
        if path == "/metrics":
            if request.method != "GET":
                return 405, {"error": "use GET"}, {"Allow": "GET"}
            return 200, self._metrics_payload(), {}
        if path == "/v1/jobs" or path.startswith("/v1/jobs/"):
            try:
                return await self._handle_jobs(path, request, request_id)
            except ProtocolError as exc:
                return exc.status, {"error": str(exc)}, {}
            except Exception as exc:
                return 500, {"error": "%s: %s"
                             % (type(exc).__name__, exc)}, {}
        if path.startswith("/v1/store/"):
            try:
                return await self._handle_store(path, request,
                                                request_id)
            except ProtocolError as exc:
                return exc.status, {"error": str(exc)}, {}
            except Exception as exc:
                return 500, {"error": "%s: %s"
                             % (type(exc).__name__, exc)}, {}
        if path == "/v1/fleet" or path == "/v1/fleet/metrics":
            if request.method != "GET":
                return 405, {"error": "use GET"}, {"Allow": "GET"}
            try:
                if path == "/v1/fleet":
                    return 200, self._fleet_payload(), {}
                return 200, await self._fleet_metrics_payload(), {}
            except Exception as exc:
                return 500, {"error": "%s: %s"
                             % (type(exc).__name__, exc)}, {}
        if path in PARSERS:
            if request.method != "POST":
                return 405, {"error": "use POST"}, {"Allow": "POST"}
            if self._draining:
                return 503, {"error": "server is draining"}, {}
            try:
                return await self._handle_api(path, request, request_id)
            except BadRequest as exc:
                return 400, {"error": str(exc)}, {}
            except ProtocolError as exc:
                return exc.status, {"error": str(exc)}, {}
            except QueueFull as exc:
                return 429, {"error": str(exc)}, {
                    "Retry-After": "%d" % max(int(exc.retry_after), 1)
                }
            except Exception as exc:
                return 500, {"error": "%s: %s"
                             % (type(exc).__name__, exc)}, {}
        return 404, {"error": "unknown path %r" % path}, {}

    async def _handle_api(self, route, request, request_id=None):
        req = parse_request(route, request.json())
        key = req.key()
        hit, item = self._cache.get(key)
        if hit:
            return self._item_response(item, cached=True)
        if (self.fleet is not None
                and route in ("/v1/optimize", "/v1/pareto", "/v1/yield")
                and "x-fleet-forwarded" not in request.headers):
            proxied = await self._shard_route(route, request, key,
                                              request_id)
            if proxied is not None:
                return proxied
        store_key = self._store_key(route, req)
        if store_key is not None:
            stored = await asyncio.get_running_loop().run_in_executor(
                None, self.store.get, store_key)
            if stored is not None:
                # Someone — a job worker, a past service run, the study
                # runner — already computed this exact search; serve it
                # from the experiment store and warm the in-memory
                # cache on the way out.
                response = payload_json_safe(stored)
                response.pop("landscape", None)
                response["engine"] = req.engine
                if route == "/v1/pareto":
                    # The stored front is exponent-free; the E^a D^b
                    # pick is re-derived per request from plain data.
                    response["best_weighted"] = best_weighted_fields(
                        response["front"], req.energy_exponent,
                        req.delay_exponent,
                    )
                item = {"ok": True, "result": response}
                self._cache.put(key, item)
                return self._item_response(item, cached=True,
                                           stored=True)
        future, leader = self._flight.join(key)
        if not leader:
            # An identical request is already computing; share its
            # outcome (including a QueueFull, which _route maps to 429).
            item = await future
            return self._item_response(item, cached=False, coalesced=True)
        try:
            item_fields = req.item()
            item_fields["_request_id"] = request_id
            batch_future = self._batcher.enqueue(req.group_key(),
                                                 item_fields)
            item = await batch_future
        except BaseException as exc:
            self._flight.reject(key, exc)
            # Mark retrieved so a flight with no followers does not log
            # an "exception was never retrieved" warning at GC.
            future.exception()
            raise
        store_payload = item.pop("store_payload", None)
        if item["ok"]:
            if store_key is not None and store_payload is not None:
                await asyncio.get_running_loop().run_in_executor(
                    None, self.store.put, store_key, store_payload,
                    make_provenance(
                        inputs={"route": route, "request_id": request_id,
                                "capacity_bytes": req.capacity_bytes,
                                "flavor": req.flavor,
                                "method": req.method,
                                "engine": req.engine},
                        worker="service",
                    ))
            self._cache.put(key, item)
        self._flight.resolve(key, item)
        return self._item_response(item, cached=False)

    async def _shard_route(self, route, request, key, request_id):
        """Route one optimize/pareto/yield request by its cache-key
        shard.

        Returns a ``(status, payload, headers)`` response when a peer
        owns the key and answered, or ``None`` when the key is local
        (or the proxy budget is exhausted — failover to local compute,
        which the store fast-path still deduplicates globally).  A
        failed hop no longer falls straight back to local compute: up
        to ``config.proxy_retries`` further attempts walk the *healthy*
        ring preference order (each counted as ``fleet.proxy_retries``
        in /metrics), so one flaky owner does not forfeit the shard's
        warm cache on its successor.  The ``X-Fleet-Forwarded`` marker
        caps the hop count at one, so two replicas with momentarily
        different health views can never proxy a request in a loop.
        """
        owner, peer = self.fleet.route(key)
        if peer is None:
            if owner == self.fleet.self_url:
                self._shard_stats["local"] += 1
            else:
                # Owner (and every later preference) is down; compute
                # locally rather than fail the request.
                self._shard_stats["failovers"] += 1
                perf.count("fleet.shard_failovers")
            return None
        self._shard_stats["remote_owned"] += 1
        loop = asyncio.get_running_loop()
        budget = 1 + max(0, int(self.config.proxy_retries))
        attempts = 0
        for url in self.fleet.ring.preference(key):
            if url == self.fleet.self_url:
                # Every later preference routes back through here.
                break
            candidate = self.fleet.peers.get(url)
            if candidate is None or not candidate.healthy:
                continue
            if attempts >= budget:
                break
            if attempts:
                self._shard_stats["proxy_retries"] += 1
                perf.count("fleet.proxy_retries")
            attempts += 1
            try:
                status, payload, _ = await loop.run_in_executor(
                    None, lambda peer=candidate: peer.pool.request(
                        request.method, route, request.json(),
                        request_id=request_id,
                        extra_headers={"X-Fleet-Forwarded": "1"}))
            except (ServiceError, OSError) as exc:
                self.fleet.mark_down(candidate.url, exc)
                logger.debug("shard proxy to %s failed (%s); trying "
                             "next preference rid=%s",
                             candidate.url, exc, request_id)
                continue
            if status >= 500:
                # The peer is up but broken for this request; the next
                # preference (or local compute) is a better answer than
                # relaying its 5xx.
                continue
            self._shard_stats["proxied"] += 1
            perf.count("fleet.proxied_requests")
            if status == 200 and isinstance(payload, dict):
                meta = dict(payload.get("meta") or {})
                meta.update({"proxied": True, "shard": candidate.url})
                payload["meta"] = meta
                # Warm the local cache so repeats of a hot remote-owned
                # key answer here without another hop.
                cached = {k: v for k, v in payload.items()
                          if k != "meta"}
                self._cache.put(key, {"ok": True, "result": cached})
            return status, payload, {}
        self._shard_stats["failovers"] += 1
        perf.count("fleet.shard_failovers")
        return None

    def _store_key(self, route, req):
        """The experiment-store key of a request, when it has one.

        ``/v1/optimize`` answers address exactly one study-matrix cell,
        so the service deduplicates against job workers, the study
        runner, and the CLI; ``/v1/pareto`` fronts key the same cell
        identity under their own kind (exponent-free, so requests that
        differ only in the ``best_weighted`` query share one sweep).
        """
        if self.store is None:
            return None
        if route == "/v1/optimize":
            return study_cell_key(self.session, DesignSpace(),
                                  req.capacity_bytes, req.flavor,
                                  req.method, req.engine)
        if route == "/v1/pareto":
            return pareto_cell_key(self.session, DesignSpace(),
                                   req.capacity_bytes, req.flavor,
                                   req.method, req.engine)
        if route == "/v1/yield":
            return yield_cell_key(self.session, DesignSpace(),
                                  req.capacity_bytes, req.flavor,
                                  req.method, req.code, req.y_target,
                                  req.engine, sampler=req.sampler,
                                  ci_target=req.ci_target,
                                  max_samples=req.max_samples)
        return None

    def _item_response(self, item, cached, coalesced=False, stored=False):
        if item["ok"]:
            payload = dict(item["result"])
            payload["meta"] = {"cached": cached, "coalesced": coalesced,
                               "stored": stored}
            return 200, payload, {}
        return item["status"], {"error": item["error"]}, {}

    # -- jobs API ----------------------------------------------------------

    async def _handle_jobs(self, path, request, request_id=None):
        if self.jobs is None:
            return 404, {"error": "jobs are not enabled on this server "
                                  "(start it with a jobs path, e.g. "
                                  "repro serve --jobs jobs.db)"}, {}
        loop = asyncio.get_running_loop()
        if path == "/v1/jobs":
            if request.method == "POST":
                if self._draining:
                    return 503, {"error": "server is draining"}, {}
                return await self._submit_job(request, request_id)
            if request.method == "GET":
                jobs = await loop.run_in_executor(
                    None, self.jobs.list_jobs, None, 100)
                counts = await loop.run_in_executor(None,
                                                    self.jobs.counts)
                return 200, {"jobs": [job.to_payload() for job in jobs],
                             "counts": counts}, {}
            return 405, {"error": "use GET or POST"}, \
                {"Allow": "GET, POST"}
        rest = path[len("/v1/jobs/"):]
        if rest == "claim" or "/" in rest:
            return await self._handle_jobs_protocol(rest, request,
                                                    request_id)
        job_id = rest
        if request.method == "GET":
            try:
                job = await loop.run_in_executor(None, self.jobs.get,
                                                 job_id)
            except JobError as exc:
                return 404, {"error": str(exc)}, {}
            payload = job.to_payload()
            if (job.state == "done" and job.result_key
                    and self.store is not None):
                result = await loop.run_in_executor(
                    None, self._sweep_payload, job.result_key)
                if result is not None:
                    payload["result"] = result
            return 200, payload, {}
        if request.method == "DELETE":
            try:
                cancelled = await loop.run_in_executor(
                    None, self.jobs.cancel, job_id)
                job = await loop.run_in_executor(None, self.jobs.get,
                                                 job_id)
            except JobError as exc:
                return 404, {"error": str(exc)}, {}
            if cancelled:
                logger.debug("job %s cancelled rid=%s", job_id,
                             request_id)
                return 200, job.to_payload(), {}
            return 409, {"error": "job %s is already %s"
                                  % (job_id, job.state),
                         "job": job.to_payload()}, {}
        return 405, {"error": "use GET or DELETE"}, \
            {"Allow": "GET, DELETE"}

    async def _handle_jobs_protocol(self, rest, request,
                                    request_id=None):
        """The remote-claim surface: ``POST /v1/jobs/claim`` plus
        ``POST /v1/jobs/{id}/heartbeat|complete|fail``.

        Exposes the queue's lease protocol verbatim: a claim answers
        with the job payload plus a **lease token** fencing that
        attempt, and every subsequent verb must present the token —
        a stale claimant (lease expired, job re-claimed) is refused
        with a 409 no matter which worker it is.
        """
        from ..jobs.remote import make_lease_token, parse_lease_token

        loop = asyncio.get_running_loop()
        if request.method != "POST":
            return 405, {"error": "use POST"}, {"Allow": "POST"}
        body = request.json()
        if not isinstance(body, dict):
            return 400, {"error": "request body must be a JSON "
                                  "object"}, {}
        worker = body.get("worker")
        if not worker or not isinstance(worker, str):
            return 400, {"error": "missing worker identity"}, {}
        lease_seconds = body.get("lease_seconds",
                                 self.config.job_lease_seconds)
        if not isinstance(lease_seconds, (int, float)) \
                or isinstance(lease_seconds, bool) or lease_seconds <= 0:
            return 400, {"error": "lease_seconds must be a positive "
                                  "number"}, {}
        if rest == "claim":
            if self._draining:
                return 503, {"error": "server is draining"}, {}
            job = await loop.run_in_executor(
                None, self.jobs.claim, worker, float(lease_seconds))
            if job is None:
                return 200, {"job": None}, {}
            payload = job.to_payload()
            payload["lease_token"] = make_lease_token(job.id,
                                                      job.attempts)
            logger.debug("job %s claimed by remote worker %s "
                         "(attempt %d) rid=%s", job.id, worker,
                         job.attempts, request_id)
            perf.count("fleet.remote_claims_served")
            return 200, {"job": payload}, {}
        job_id, _, action = rest.partition("/")
        if action not in ("heartbeat", "complete", "fail"):
            return 404, {"error": "unknown jobs action %r" % action}, {}
        try:
            token_job, attempt = parse_lease_token(
                body.get("lease_token"))
        except JobError as exc:
            return 400, {"error": str(exc)}, {}
        if token_job != job_id:
            return 400, {"error": "lease token %r does not match job "
                                  "%r" % (body.get("lease_token"),
                                          job_id)}, {}
        if action == "heartbeat":
            ok = await loop.run_in_executor(
                None, lambda: self.jobs.heartbeat(
                    job_id, worker, float(lease_seconds),
                    progress=body.get("progress"), attempt=attempt))
            if ok:
                return 200, {"ok": True}, {}
            return 409, {"ok": False,
                         "error": "stale lease: job %s is not running "
                                  "under this worker/attempt"
                                  % job_id}, {}
        if action == "complete":
            ok = await loop.run_in_executor(
                None, lambda: self.jobs.complete(
                    job_id, worker, result_key=body.get("result_key"),
                    attempt=attempt))
            if ok:
                logger.debug("job %s completed by remote worker %s "
                             "rid=%s", job_id, worker, request_id)
                return 200, {"ok": True}, {}
            perf.count("jobs.stale_complete_rejected")
            return 409, {"ok": False,
                         "error": "stale lease: complete of %s "
                                  "rejected" % job_id}, {}
        state = await loop.run_in_executor(
            None, lambda: self.jobs.fail(
                job_id, worker, body.get("error", "remote failure"),
                attempt=attempt))
        if state is None:
            return 409, {"state": None,
                         "error": "stale lease: fail of %s rejected"
                                  % job_id}, {}
        return 200, {"state": state}, {}

    async def _submit_job(self, request, request_id=None):
        body = request.json()
        if not isinstance(body, dict):
            return 400, {"error": "request body must be a JSON "
                                  "object"}, {}
        kind = body.get("kind", "study")
        if kind != "study":
            return 400, {"error": "unknown job kind %r" % (kind,)}, {}
        try:
            spec = normalize_study_spec(body.get("spec") or {})
        except JobError as exc:
            return 400, {"error": str(exc)}, {}
        priority = body.get("priority", 0)
        max_attempts = body.get("max_attempts", 3)
        for name, value in (("priority", priority),
                            ("max_attempts", max_attempts)):
            if not isinstance(value, int) or isinstance(value, bool):
                return 400, {"error": "%s must be an integer" % name}, {}
        if max_attempts < 1:
            return 400, {"error": "max_attempts must be >= 1"}, {}
        loop = asyncio.get_running_loop()
        # The 202 reports the row this submit committed: a job worker
        # may claim the job before a separate read could run.
        job = await loop.run_in_executor(
            None, lambda: self.jobs.submit(kind, spec, priority,
                                           max_attempts))
        logger.debug("job %s submitted (%d cells) rid=%s", job.id,
                     len(spec["capacities"]) * len(spec["flavors"])
                     * len(spec["methods"]), request_id)
        return 202, job.to_payload(), \
            {"Location": "/v1/jobs/%s" % job.id}

    def _sweep_payload(self, result_key):
        """The JSON view of a finished sweep (spec + per-cell results)."""
        record = self.store.get(result_key)
        if record is None:
            return None
        cells = []
        for key in record.get("cells", []):
            cell = self.store.get(key)
            if cell is not None:
                cell = payload_json_safe(cell)
                cell.pop("landscape", None)
                cells.append(cell)
        return {"key": result_key, "spec": record.get("spec"),
                "cells": cells}

    # -- store sync API ----------------------------------------------------

    #: Store keys are ``kind-<hex digest>``; anything else is rejected
    #: before touching SQLite.
    _STORE_KEY_RE = re.compile(r"[A-Za-z0-9_]{1,32}-[0-9a-f]{6,64}")

    async def _handle_store(self, path, request, request_id=None):
        """``GET/PUT /v1/store/<key>`` — the replication wire surface.

        Reads and writes go to the replica's **local** store (never
        read-through here), so two replicas syncing from each other can
        never amplify a miss into a request loop.  Payload JSON rides
        unmodified in both directions: Python serializes floats via
        shortest ``repr``, so a blob pulled over the wire compares
        bitwise equal to the original — the bit-identical-resume
        contract extends across hosts.
        """
        if self.store is None:
            return 404, {"error": "no experiment store on this server "
                                  "(start it with --store or --jobs)"}, {}
        key = path[len("/v1/store/"):]
        if not self._STORE_KEY_RE.fullmatch(key):
            return 400, {"error": "malformed store key %r" % key}, {}
        store = getattr(self.store, "local", self.store)
        loop = asyncio.get_running_loop()
        if request.method == "GET":
            payload = await loop.run_in_executor(
                None, lambda: store.get(key, touch=False))
            if payload is None:
                return 404, {"error": "no entry %r" % key}, {}
            provenance = await loop.run_in_executor(
                None, store.provenance, key)
            perf.count("fleet.store_serves")
            return 200, {"key": key, "payload": payload,
                         "provenance": provenance}, {}
        if request.method == "PUT":
            body = request.json()
            if not isinstance(body, dict) or "payload" not in body:
                return 400, {"error": "body must be an object with a "
                                      "'payload' field"}, {}
            await loop.run_in_executor(
                None, lambda: store.put(key, body["payload"],
                                        body.get("provenance") or {}))
            perf.count("fleet.store_accepts")
            logger.debug("store accepted %s rid=%s", key, request_id)
            return 200, {"key": key, "stored": True}, {}
        return 405, {"error": "use GET or PUT"}, {"Allow": "GET, PUT"}

    # -- fleet introspection -----------------------------------------------

    def _fleet_payload(self):
        """``GET /v1/fleet`` — membership, health, ring, replication."""
        if self.fleet is None:
            return {"self": self.config.resolved_self_url(self.port),
                    "peers": [], "ring": None, "enabled": False}
        payload = self.fleet.to_payload()
        payload["enabled"] = True
        payload["shards"] = dict(self._shard_stats)
        if self.store is not None and hasattr(self.store, "pending"):
            payload["store_pending"] = self.store.pending()
        return payload

    async def _fleet_metrics_payload(self):
        """``GET /v1/fleet/metrics`` — this replica's metrics plus every
        reachable peer's, with fleet-wide request/backlog totals."""
        replicas = {
            (self.fleet.self_url if self.fleet is not None
             else self.config.resolved_self_url(self.port)):
            self._metrics_payload(),
        }
        if self.fleet is not None:
            loop = asyncio.get_running_loop()

            def scrape(peer):
                try:
                    status, payload, _ = peer.pool.request(
                        "GET", "/metrics")
                except (ServiceError, OSError) as exc:
                    self.fleet.mark_down(peer.url, exc)
                    return {"error": str(exc)}
                return (payload if status == 200
                        else {"error": "HTTP %d" % status})

            for peer in list(self.fleet.peers.values()):
                if peer.healthy:
                    replicas[peer.url] = await loop.run_in_executor(
                        None, scrape, peer)
                else:
                    replicas[peer.url] = {"error": "peer is down: %s"
                                          % (peer.last_error or
                                             "unprobed")}
        totals = {"requests": 0, "replicas_up": 0, "replicas_down": 0}
        gauge_totals = {}
        for payload in replicas.values():
            if "error" in payload and "requests" not in payload:
                totals["replicas_down"] += 1
                continue
            totals["replicas_up"] += 1
            totals["requests"] += (payload.get("requests") or {}) \
                .get("total", 0)
            for name, value in (payload.get("gauges") or {}).items():
                gauge_totals[name] = gauge_totals.get(name, 0) + value
        totals["gauges"] = gauge_totals
        return {"replicas": replicas, "totals": totals}

    # -- introspection payloads --------------------------------------------

    def _health_payload(self):
        payload = {
            "status": "draining" if self._draining else "ok",
            "uptime_seconds": round(
                time.monotonic() - (self._started_at or time.monotonic()),
                3,
            ),
            "pending": self._batcher.pending if self._batcher else 0,
            "workers": self.config.resolved_workers(),
        }
        if self.jobs is not None:
            payload["jobs"] = self.jobs.counts()
        return payload

    def _metrics_payload(self):
        extra = {
            "cache": self._cache.stats(),
            "singleflight": self._flight.stats(),
            "batching": {
                "pending": self._batcher.pending if self._batcher else 0,
                "max_batch": self.config.max_batch,
                "max_wait_ms": self.config.max_wait_ms,
                "max_pending": self.config.max_pending,
            },
        }
        gauges = {}
        if self.jobs is not None:
            counts = self.jobs.counts()
            extra["jobs"] = {
                "counts": counts,
                "workers": len(self._job_threads),
                "lease_seconds": self.config.job_lease_seconds,
            }
            # Flat queue-depth gauges, stable names for scrapers (and
            # for /v1/fleet/metrics which sums them across replicas).
            for state in ("queued", "running", "done", "failed",
                          "cancelled"):
                gauges["jobs.%s" % state] = counts.get(state, 0)
        if self.store is not None:
            extra["store"] = self.store.stats()
        if self.fleet is not None:
            extra["fleet"] = {
                "self": self.fleet.self_url,
                "peers_healthy": len(self.fleet.healthy_peers()),
                "peers_total": len(self.fleet.peers),
                "shards": dict(self._shard_stats),
            }
            gauges["fleet.peers_healthy"] = len(
                self.fleet.healthy_peers())
        extra["gauges"] = gauges
        return self.metrics.render(extra=extra)


async def serve_forever(config, session=None):
    """CLI entry: start, serve until SIGTERM/SIGINT, drain, return."""
    server = OptimizationServer(config, session=session)
    await server.start()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError):
            loop.add_signal_handler(signum, stop.set)
    print("repro service listening on http://%s:%d  "
          "(workers=%d batch<=%d wait<=%.1fms)"
          % (config.host, server.port, config.resolved_workers(),
             config.max_batch,
             config.max_wait_ms))
    await stop.wait()
    print("draining...")
    await server.drain()
    print("drained; %d requests served." % server.metrics.total_requests)
    return server


class ServerThread:
    """Run a server on a background thread (tests, benchmarks, smoke).

    ::

        with ServerThread(ServiceConfig(port=0), session=session) as srv:
            client = ServiceClient(port=srv.port)
            ...

    Entering starts the loop thread and blocks until the socket is
    listening (re-raising any startup failure); exiting requests a
    drain and joins the thread.
    """

    def __init__(self, config=None, session=None):
        self.config = config or ServiceConfig(port=0)
        self._session = session
        self.server = None
        self.port = None
        self._thread = None
        self._loop = None
        self._stop = None
        self._ready = threading.Event()
        self._error = None

    def __enter__(self):
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-service-loop")
        self._thread.start()
        self._ready.wait()
        if self._error is not None:
            self._thread.join()
            raise self._error
        self.port = self.server.port
        return self

    def __exit__(self, exc_type, exc, tb):
        self.stop()
        return False

    def _run(self):
        async def body():
            self.server = OptimizationServer(self.config,
                                             session=self._session)
            try:
                await self.server.start()
            except Exception as exc:
                self._error = exc
                self._ready.set()
                return
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            self._ready.set()
            await self._stop.wait()
            await self.server.drain()

        asyncio.run(body())

    def stop(self):
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=120)
        self._loop = None
