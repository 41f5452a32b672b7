"""Sharded serving across peered replicas: consistent routing, proxy
metadata, failover to local compute, fleet introspection, metrics
aggregation — plus the keep-alive client plumbing the fleet rides on."""

from __future__ import annotations

import socket
import time

import pytest

from repro.service import ServerThread, ServiceClient, ServiceConfig

from .conftest import CACHE_PATH


def free_ports(n):
    sockets = [socket.socket() for _ in range(n)]
    try:
        for sock in sockets:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind(("127.0.0.1", 0))
        return [sock.getsockname()[1] for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()


def fleet_config(port, peer_ports, tmp_path=None, name=None, **extra):
    peers = tuple("http://127.0.0.1:%d" % p for p in peer_ports)
    kwargs = dict(port=port, workers=2,
                  cache_path=CACHE_PATH, peers=peers,
                  probe_interval_s=0.2)
    if tmp_path is not None:
        kwargs["store_path"] = str(tmp_path / ("%s.db" % name))
    kwargs.update(extra)
    return ServiceConfig(**kwargs)


@pytest.fixture(scope="module")
def pair(paper_session, tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("fleet")
    port_a, port_b = free_ports(2)
    with ServerThread(fleet_config(port_a, [port_b], tmp_path, "a"),
                      session=paper_session) as replica_a:
        with ServerThread(fleet_config(port_b, [port_a], tmp_path, "b"),
                          session=paper_session) as replica_b:
            # Let the initial probes see each other.
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if (replica_a.server.fleet.healthy_peers()
                        and replica_b.server.fleet.healthy_peers()):
                    break
                time.sleep(0.05)
            yield replica_a, replica_b


# ---------------------------------------------------------------------------
# Ring agreement and shard routing
# ---------------------------------------------------------------------------

def test_replicas_derive_identical_rings(pair):
    replica_a, replica_b = pair
    ring_a = replica_a.server.fleet.ring
    ring_b = replica_b.server.fleet.ring
    assert ring_a.nodes == ring_b.nodes
    for n in range(50):
        key = "probe:%d" % n
        assert ring_a.node_for(key) == ring_b.node_for(key)


def test_non_owner_proxies_to_owner_with_shard_meta(pair):
    replica_a, replica_b = pair
    with ServiceClient(port=replica_a.port) as ca, \
            ServiceClient(port=replica_b.port) as cb:
        first = ca.optimize(256, flavor="lvt", method="M1")
        second = cb.optimize(256, flavor="lvt", method="M1")
    proxied = [p for p in (first, second) if p["meta"].get("proxied")]
    assert len(proxied) == 1
    owner_url = proxied[0]["meta"]["shard"]
    assert owner_url in (replica_a.server.fleet.self_url,
                         replica_b.server.fleet.self_url)
    # Both replicas agree on the answer itself.
    assert first["design"] == second["design"]
    assert first["metrics"]["edp"] == second["metrics"]["edp"]


def test_proxied_key_warms_the_local_cache(pair):
    replica_a, replica_b = pair
    with ServiceClient(port=replica_a.port) as ca, \
            ServiceClient(port=replica_b.port) as cb:
        first = ca.optimize(512, flavor="lvt", method="M1")
        second = cb.optimize(512, flavor="lvt", method="M1")
        # Repeat on the replica that proxied: now a local cache hit,
        # no second hop.
        repeat_client = ca if first["meta"].get("proxied") else cb
        repeat = repeat_client.optimize(512, flavor="lvt", method="M1")
    assert repeat["meta"]["cached"] is True
    assert repeat["metrics"]["edp"] == first["metrics"]["edp"]


def test_forwarded_requests_never_loop(pair):
    """A request already carrying the forwarded marker must be served
    locally no matter who owns the key."""
    replica_a, _ = pair
    with ServiceClient(port=replica_a.port) as client:
        for capacity in (128, 256, 512, 1024):
            status, payload, _ = client.request(
                "POST", "/v1/optimize",
                {"capacity_bytes": capacity, "flavor": "lvt",
                 "method": "M1", "engine": "vectorized"},
                extra_headers={"X-Fleet-Forwarded": "1"})
            assert status == 200
            assert "proxied" not in payload["meta"]


# ---------------------------------------------------------------------------
# Failover
# ---------------------------------------------------------------------------

def test_dead_peer_fails_over_to_local_compute(paper_session,
                                               tmp_path):
    port_live, port_dead = free_ports(2)
    with ServerThread(fleet_config(port_live, [port_dead]),
                      session=paper_session) as survivor:
        fleet = survivor.server.fleet
        # The peer never came up; probes must have marked it down.
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if not fleet.healthy_peers():
                break
            time.sleep(0.05)
        assert fleet.healthy_peers() == []
        with ServiceClient(port=survivor.port) as client:
            # Whatever the owner, every request is answered locally.
            for capacity in (128, 256, 512, 1024):
                payload = client.optimize(capacity, flavor="lvt",
                                          method="M1")
                assert payload["metrics"]["edp"] > 0
                assert "proxied" not in payload["meta"]
        remote_owned = [k for k in ("s:%d" % n for n in range(64))
                        if fleet.owner_of(k) != fleet.self_url]
        assert remote_owned    # the ring does assign keys to the peer
        # ... but routing answers self for all of them while it's down.
        assert all(fleet.route(k) == (fleet.self_url, None)
                   for k in remote_owned)


def _wait_peers_healthy(fleet, timeout=10.0):
    """Block until every peer is healthy again (probes run at 0.2 s,
    so a peer marked down by an earlier injected failure recovers)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if len(fleet.healthy_peers()) == len(fleet.peers):
            return
        time.sleep(0.05)
    raise AssertionError("peers never became healthy: %r"
                         % [p.to_payload() for p in fleet.peers.values()])


@pytest.fixture(scope="module")
def trio(paper_session):
    """Three live replicas in a full mesh — enough ring members for a
    failed proxy hop to have a *remote* next preference."""
    ports = free_ports(3)
    replicas = []
    try:
        for port in ports:
            peer_ports = [p for p in ports if p != port]
            replica = ServerThread(fleet_config(port, peer_ports),
                                   session=paper_session)
            replica.__enter__()
            replicas.append(replica)
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if all(len(r.server.fleet.healthy_peers()) == 2
                   for r in replicas):
                break
            time.sleep(0.05)
        yield replicas
    finally:
        for replica in reversed(replicas):
            replica.__exit__(None, None, None)


def test_proxy_retry_walks_to_next_ring_preference(trio):
    """When the owning peer's proxy hop fails, the retry budget tries
    the next healthy ring preference instead of computing locally —
    and the attempt is counted in the shard stats and /metrics."""
    from repro.service.api import parse_request

    entry = trio[0]
    fleet = entry.server.fleet
    _wait_peers_healthy(fleet)
    peer_urls = set(fleet.peers)
    chosen = None
    for capacity in (128, 256, 512, 1024, 2048, 4096, 8192, 16384):
        for flavor in ("lvt", "hvt"):
            body = {"capacity_bytes": capacity, "flavor": flavor,
                    "method": "M1", "engine": "vectorized"}
            pref = fleet.ring.preference(
                parse_request("/v1/optimize", dict(body)).key())
            if pref[0] in peer_urls and pref[1] in peer_urls:
                chosen = (body, pref)
                break
        if chosen:
            break
    assert chosen, "no probe key with two remote preferences"
    body, pref = chosen

    # Fail only the proxied POST hops to the first preference; health
    # probes (GET /healthz) keep passing so the peer stays eligible.
    first_peer = fleet.peers[pref[0]]
    real_request = first_peer.pool.request

    def flaky(method, path, *args, **kwargs):
        if method == "POST":
            raise OSError("injected proxy failure")
        return real_request(method, path, *args, **kwargs)

    before = dict(entry.server._shard_stats)
    first_peer.pool.request = flaky
    try:
        with ServiceClient(port=entry.port) as client:
            payload = client.request("POST", "/v1/optimize", body)[1]
    finally:
        first_peer.pool.request = real_request

    assert payload["meta"]["proxied"] is True
    assert payload["meta"]["shard"] == pref[1]
    stats = entry.server._shard_stats
    assert stats["proxy_retries"] == before["proxy_retries"] + 1
    assert stats["proxied"] == before["proxied"] + 1
    with ServiceClient(port=entry.port) as client:
        metrics = client.metrics()
    assert metrics["fleet"]["shards"]["proxy_retries"] >= 1


def test_zero_retry_budget_fails_over_locally(trio):
    """``proxy_retries=0`` restores the old single-attempt behavior:
    the failed hop falls straight back to local compute."""
    from repro.service.api import parse_request

    entry = trio[0]
    entry.server.config.proxy_retries = 0
    fleet = entry.server.fleet
    _wait_peers_healthy(fleet)
    peer_urls = set(fleet.peers)
    chosen = None
    for capacity in (128, 256, 512, 1024, 2048, 4096, 8192, 16384):
        for method in ("M2", "M1"):
            body = {"capacity_bytes": capacity, "flavor": "lvt",
                    "method": method, "engine": "loop"}
            pref = fleet.ring.preference(
                parse_request("/v1/optimize", dict(body)).key())
            if pref[0] in peer_urls and pref[1] in peer_urls:
                chosen = (body, pref)
                break
        if chosen:
            break
    assert chosen, "no probe key with two remote preferences"
    body, pref = chosen

    first_peer = fleet.peers[pref[0]]
    real_request = first_peer.pool.request

    def flaky(method, path, *args, **kwargs):
        if method == "POST":
            raise OSError("injected proxy failure")
        return real_request(method, path, *args, **kwargs)

    before = dict(entry.server._shard_stats)
    first_peer.pool.request = flaky
    try:
        with ServiceClient(port=entry.port) as client:
            payload = client.request("POST", "/v1/optimize", body)[1]
    finally:
        first_peer.pool.request = real_request
        entry.server.config.proxy_retries = 1

    assert "proxied" not in payload["meta"]
    stats = entry.server._shard_stats
    assert stats["proxy_retries"] == before["proxy_retries"]
    assert stats["failovers"] == before["failovers"] + 1


# ---------------------------------------------------------------------------
# Introspection: /v1/fleet, /v1/fleet/metrics, /metrics gauges
# ---------------------------------------------------------------------------

def test_fleet_payload_reports_topology_and_health(pair):
    replica_a, replica_b = pair
    with ServiceClient(port=replica_a.port) as client:
        payload = client.fleet()
    assert payload["enabled"] is True
    assert payload["self"] == replica_a.server.fleet.self_url
    assert [p["url"] for p in payload["peers"]] == \
        [replica_b.server.fleet.self_url]
    assert payload["peers"][0]["healthy"] is True
    assert sorted(payload["ring"]["nodes"]) == sorted(
        [replica_a.server.fleet.self_url,
         replica_b.server.fleet.self_url])
    assert set(payload["shards"]) == {"local", "remote_owned",
                                      "proxied", "failovers",
                                      "proxy_retries"}
    assert "store_pending" in payload    # both replicas carry stores


def test_fleet_disabled_payload_without_peers(paper_session):
    config = ServiceConfig(port=0, workers=2,
                           cache_path=CACHE_PATH)
    with ServerThread(config, session=paper_session) as solo:
        with ServiceClient(port=solo.port) as client:
            payload = client.fleet()
    assert payload["enabled"] is False
    assert payload["peers"] == []


def test_fleet_metrics_aggregates_both_replicas(pair):
    replica_a, replica_b = pair
    with ServiceClient(port=replica_a.port) as client:
        client.optimize(128, flavor="lvt", method="M1")
        payload = client.fleet_metrics()
    urls = {replica_a.server.fleet.self_url,
            replica_b.server.fleet.self_url}
    assert set(payload["replicas"]) == urls
    totals = payload["totals"]
    assert totals["replicas_up"] == 2
    assert totals["replicas_down"] == 0
    assert totals["requests"] >= 1
    # Each replica sees one healthy peer; the fleet-wide gauge sums.
    assert totals["gauges"]["fleet.peers_healthy"] == 2


def test_metrics_exposes_queue_depth_gauges(paper_session, tmp_path):
    config = ServiceConfig(port=0, workers=2,
                           cache_path=CACHE_PATH,
                           jobs_path=str(tmp_path / "gauge-jobs.db"),
                           job_workers=0)
    with ServerThread(config, session=paper_session) as service:
        with ServiceClient(port=service.port) as client:
            client.submit_job({"capacities": [128], "flavors": ["lvt"],
                               "methods": ["M1"]})
            gauges = client.metrics()["gauges"]
    assert gauges["jobs.queued"] == 1
    for state in ("running", "done", "failed", "cancelled"):
        assert gauges["jobs.%s" % state] == 0


def test_fleet_section_in_metrics(pair):
    replica_a, _ = pair
    with ServiceClient(port=replica_a.port) as client:
        payload = client.metrics()
    fleet = payload["fleet"]
    assert fleet["self"] == replica_a.server.fleet.self_url
    assert fleet["peers_total"] == 1
    assert fleet["peers_healthy"] == 1
    assert payload["gauges"]["fleet.peers_healthy"] == 1


# ---------------------------------------------------------------------------
# ServiceClient plumbing the fleet depends on
# ---------------------------------------------------------------------------

def test_sequential_requests_reuse_one_connection(pair):
    replica_a, _ = pair
    with ServiceClient(port=replica_a.port) as client:
        for _ in range(5):
            client.healthz()
        assert client.connections_opened == 1


def test_connect_timeout_defaults_to_read_timeout():
    client = ServiceClient(timeout=123.0)
    assert client.connect_timeout == 123.0
    client = ServiceClient(timeout=300.0, connect_timeout=2.0)
    assert client.connect_timeout == 2.0


def test_short_connect_timeout_with_long_read_budget(pair):
    """The fleet pattern: fail fast on dead peers, stream slowly from
    live ones — both on the same client."""
    replica_a, _ = pair
    with ServiceClient(port=replica_a.port, timeout=300.0,
                       connect_timeout=2.0) as client:
        payload = client.optimize(128, flavor="lvt", method="M1")
        assert payload["metrics"]["edp"] > 0
        assert client.connections_opened == 1
