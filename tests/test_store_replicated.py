"""Store replication over HTTP: read-through, write-back, backlog,
read repair, and exact float preservation across the wire."""

from __future__ import annotations

import socket

import pytest

from repro.service import ServerThread, ServiceClient, ServiceConfig
from repro.store import ExperimentStore, ReplicatedStore

from .conftest import CACHE_PATH

#: Awkward floats: shortest-repr round-tripping must preserve each one
#: bit-exactly through JSON -> HTTP -> JSON -> SQLite.
PAYLOAD = {"edp": 1.0000000000000002e-21, "third": 1.0 / 3.0,
           "tiny": 5e-324, "avogadro": 6.02214076e23,
           "point_one": 0.1, "nested": {"values": [0.2, 0.30000000000004]}}


def store_config(tmp_path, name, port=0):
    return ServiceConfig(port=port, workers=2,
                         cache_path=CACHE_PATH,
                         store_path=str(tmp_path / ("%s.db" % name)))


@pytest.fixture()
def replica(paper_session, tmp_path):
    with ServerThread(store_config(tmp_path, "replica"),
                      session=paper_session) as running:
        yield running


def free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def url_of(server):
    return "http://127.0.0.1:%d" % server.port


# ---------------------------------------------------------------------------
# The /v1/store wire surface
# ---------------------------------------------------------------------------

def test_store_put_get_round_trip_is_bit_exact(replica):
    with ServiceClient(port=replica.port) as client:
        client.store_put("cell-feedc0de01", PAYLOAD,
                         provenance={"worker": "wire-test"})
        blob = client.store_get("cell-feedc0de01")
    assert blob["payload"] == PAYLOAD
    # Bitwise, not merely approximately: the resume contract.
    assert repr(blob["payload"]["edp"]) == repr(PAYLOAD["edp"])
    assert repr(blob["payload"]["tiny"]) == repr(PAYLOAD["tiny"])
    assert blob["provenance"]["worker"] == "wire-test"


def test_store_get_missing_key_is_none(replica):
    with ServiceClient(port=replica.port) as client:
        assert client.store_get("cell-00000000ff") is None


def test_store_rejects_malformed_keys_and_bodies(replica):
    with ServiceClient(port=replica.port) as client:
        for bad in ("../etc/passwd", "no_digest", "cell-XYZ",
                    "-abcdef", "cell-abc"):
            status, payload, _ = client.request(
                "GET", "/v1/store/%s" % bad, check=False)
            assert status == 400, bad
        status, payload, _ = client.request(
            "PUT", "/v1/store/cell-abcdef012345", {"nope": 1},
            check=False)
        assert status == 400
        status, _, _ = client.request(
            "DELETE", "/v1/store/cell-abcdef012345", check=False)
        assert status == 405


def test_store_sync_echoes_request_id(replica):
    with ServiceClient(port=replica.port) as client:
        _, _, headers = client.request(
            "PUT", "/v1/store/cell-a1dc0de401",
            {"payload": {"x": 1.5}}, request_id="sync-rid-42")
        assert headers["x-request-id"] == "sync-rid-42"
        _, _, headers = client.request(
            "GET", "/v1/store/cell-a1dc0de401",
            request_id="sync-rid-43")
        assert headers["x-request-id"] == "sync-rid-43"


# ---------------------------------------------------------------------------
# ReplicatedStore: write-back
# ---------------------------------------------------------------------------

def test_put_writes_locally_then_pushes_to_replica(replica, tmp_path):
    store = ReplicatedStore(str(tmp_path / "local.db"),
                            replicas=[url_of(replica)])
    store.put("cell-abc123def456", PAYLOAD, {"worker": "pusher"})
    assert store.local.has("cell-abc123def456")
    assert store.pending() == {url_of(replica): 0}
    with ServiceClient(port=replica.port) as client:
        blob = client.store_get("cell-abc123def456")
    assert blob["payload"] == PAYLOAD
    assert blob["provenance"]["worker"] == "pusher"
    store.close()


def test_down_replica_defers_to_backlog_then_flushes(paper_session,
                                                     tmp_path):
    port = free_port()
    url = "http://127.0.0.1:%d" % port
    store = ReplicatedStore(str(tmp_path / "local.db"), replicas=[url],
                            retry_seconds=0.01, connect_timeout=0.5)
    store.put("cell-0011aabbcc", PAYLOAD)
    assert store.pending() == {url: 1}
    assert store.local.has("cell-0011aabbcc")    # local durability first

    # The replica comes back (same port); flush converges it.
    with ServerThread(store_config(tmp_path, "revived", port=port),
                      session=paper_session) as revived:
        assert store.flush() == 0
        assert store.pending() == {url: 0}
        with ServiceClient(port=revived.port) as client:
            assert client.store_get("cell-0011aabbcc")["payload"] \
                == PAYLOAD
    store.close()


# ---------------------------------------------------------------------------
# ReplicatedStore: read-through and read repair
# ---------------------------------------------------------------------------

def test_local_miss_reads_through_and_caches_locally(replica,
                                                     tmp_path):
    with ServiceClient(port=replica.port) as client:
        client.store_put("cell-4ead7a4a0001", PAYLOAD,
                         provenance={"worker": "origin"})
    store = ReplicatedStore(str(tmp_path / "local.db"),
                            replicas=[url_of(replica)])
    assert not store.local.has("cell-4ead7a4a0001")
    assert store.get("cell-4ead7a4a0001") == PAYLOAD
    # Write-through: the next read (and has()) is a local hit, with
    # the origin's provenance preserved.
    assert store.local.has("cell-4ead7a4a0001")
    assert store.provenance("cell-4ead7a4a0001")["worker"] == "origin"
    store.close()


def test_has_pulls_in_cells_another_host_computed(replica, tmp_path):
    """``has`` is the resumed sweep's skip check — a replica hit must
    both answer True and materialize the cell locally."""
    with ServiceClient(port=replica.port) as client:
        client.store_put("cell-aa55b0110001", PAYLOAD)
    store = ReplicatedStore(str(tmp_path / "local.db"),
                            replicas=[url_of(replica)])
    assert store.has("cell-aa55b0110001")
    assert store.local.get("cell-aa55b0110001", touch=False) == PAYLOAD
    assert not store.has("cell-ab5e90000001")
    store.close()


def test_read_repair_owes_pulled_blobs_to_other_replicas(
        paper_session, replica, tmp_path):
    """A blob pulled from one replica must flow to replicas that
    missed it (they were down when it was written)."""
    with ServerThread(store_config(tmp_path, "second"),
                      session=paper_session) as second:
        with ServiceClient(port=second.port) as client:
            client.store_put("cell-4e9a14000001", PAYLOAD)
        # Preference order [replica, second]: the pull misses the
        # first replica, hits the second, and owes the first.
        store = ReplicatedStore(
            str(tmp_path / "local.db"),
            replicas=[url_of(replica), url_of(second)])
        assert store.get("cell-4e9a14000001") == PAYLOAD
        assert store.pending()[url_of(replica)] == 1
        assert store.flush() == 0
        with ServiceClient(port=replica.port) as client:
            assert client.store_get("cell-4e9a14000001")["payload"] \
                == PAYLOAD
        store.close()


def test_stats_reports_replication_state(replica, tmp_path):
    store = ReplicatedStore(str(tmp_path / "local.db"),
                            replicas=[url_of(replica)])
    store.put("cell-57a750000001", {"x": 1.0})
    stats = store.stats()
    assert stats["replication"]["pending"] == {url_of(replica): 0}
    replicas = stats["replication"]["replicas"]
    assert replicas[0]["url"] == url_of(replica)
    assert replicas[0]["healthy"] is True
    store.close()


def test_unreachable_replica_never_blocks_local_work(tmp_path):
    url = "http://127.0.0.1:%d" % free_port()
    store = ReplicatedStore(str(tmp_path / "local.db"), replicas=[url],
                            retry_seconds=60.0, connect_timeout=0.5)
    store.put("cell-5010000001", PAYLOAD)
    assert store.get("cell-5010000001") == PAYLOAD
    assert store.has("cell-5010000001")
    assert store.get("cell-ab5e90000002") is None
    assert store.pending() == {url: 1}
    # Within the retry window the dead replica is not even retried.
    store.put("cell-5010000002", PAYLOAD)
    assert store.pending() == {url: 2}
    store.close()
