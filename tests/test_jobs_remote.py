"""Remote job claiming over HTTP: lease tokens, races, failure
semantics.  A real server (jobs enabled, zero in-process workers) and
real :class:`RemoteJobQueue` clients."""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro import perf
from repro.errors import JobError
from repro.jobs import JobQueue
from repro.jobs.remote import (
    RemoteJobQueue,
    make_lease_token,
    parse_lease_token,
)
from repro.jobs.worker import (
    SessionProvider,
    execute_study_job,
    run_worker,
)
from repro.service import ServerThread, ServiceClient, ServiceConfig
from repro.store import ExperimentStore

from .conftest import CACHE_PATH

SPEC = {"capacities": [128], "flavors": ["lvt"], "methods": ["M1"]}


@pytest.fixture()
def service(paper_session, tmp_path):
    db_path = str(tmp_path / "jobs.db")
    config = ServiceConfig(port=0, workers=2,
                           cache_path=CACHE_PATH, jobs_path=db_path,
                           job_workers=0)
    with ServerThread(config, session=paper_session) as running:
        running.db_path = db_path
        yield running


@pytest.fixture()
def remote(service):
    with RemoteJobQueue("http://127.0.0.1:%d" % service.port) as queue:
        yield queue


def counter_value(name):
    return perf.get_registry().snapshot()["counters"].get(name, 0)


def free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


# ---------------------------------------------------------------------------
# Lease tokens
# ---------------------------------------------------------------------------

def test_lease_token_round_trip():
    token = make_lease_token("job-00ff", 7)
    assert parse_lease_token(token) == ("job-00ff", 7)


@pytest.mark.parametrize("bogus", [None, "", "lt", "lt.x.job", "7.job",
                                   "lt.7.", 42])
def test_malformed_lease_tokens_raise(bogus):
    with pytest.raises(JobError):
        parse_lease_token(bogus)


# ---------------------------------------------------------------------------
# Claim / heartbeat / complete lifecycle over HTTP
# ---------------------------------------------------------------------------

def test_remote_claim_lifecycle(remote):
    job_id = remote.submit("study", SPEC).id
    job = remote.claim("remote-w1", lease_seconds=30.0)
    assert job is not None and job.id == job_id
    assert job.state == "running" and job.attempts == 1
    # The claim remembered its lease token and correlation id.
    assert remote.request_id_for(job_id).startswith("work-")
    assert remote.heartbeat(job_id, "remote-w1", 30.0,
                            progress={"completed": 1, "total": 1})
    assert remote.complete(job_id, "remote-w1", result_key=None)
    assert remote.get(job_id).state == "done"
    assert remote.counts()["done"] >= 1
    # The claim bookkeeping is dropped once the job is finished.
    assert remote.request_id_for(job_id) is None


def test_remote_claim_returns_none_when_idle(remote):
    assert remote.claim("remote-idle") is None


def test_remote_fail_retries_then_parks(remote):
    job_id = remote.submit("study", SPEC, max_attempts=2).id
    remote.claim("remote-w1", lease_seconds=30.0)
    assert remote.fail(job_id, "remote-w1", "boom") == "queued"
    remote.claim("remote-w1", lease_seconds=30.0)
    assert remote.fail(job_id, "remote-w1", "boom again") == "failed"
    assert remote.get(job_id).error == "boom again"


# ---------------------------------------------------------------------------
# Stale leases: the fencing contract
# ---------------------------------------------------------------------------

def test_stale_lease_complete_rejected_and_job_reclaimed(service):
    url = "http://127.0.0.1:%d" % service.port
    with RemoteJobQueue(url) as stale, RemoteJobQueue(url) as fresh:
        job_id = stale.submit("study", SPEC).id
        stale_job = stale.claim("worker-stale", lease_seconds=0.3)
        assert stale_job is not None
        time.sleep(0.5)        # lease expires server-side

        # Re-claim bumps the attempt counter; the stale claimant's
        # token now fences out every verb — even from the same worker
        # identity.
        fresh_job = fresh.claim("worker-fresh", lease_seconds=30.0)
        assert fresh_job is not None and fresh_job.id == job_id
        assert fresh_job.attempts == stale_job.attempts + 1

        before = counter_value("jobs.stale_complete_rejected")
        assert stale.complete(job_id, "worker-stale") is False
        assert counter_value("jobs.stale_complete_rejected") == \
            before + 1
        assert stale.heartbeat(job_id, "worker-stale", 30.0) is False
        assert stale.fail(job_id, "worker-stale", "late") is None

        # The live claimant is unaffected by the stale attempts.
        assert fresh.heartbeat(job_id, "worker-fresh", 30.0)
        assert fresh.complete(job_id, "worker-fresh")
        assert fresh.get(job_id).state == "done"


def test_stale_lease_rejected_for_same_worker_identity(service):
    """Attempt fencing must hold even when the SAME worker re-claims
    its own expired job: the old claim handle's token is dead."""
    url = "http://127.0.0.1:%d" % service.port
    with RemoteJobQueue(url) as old, RemoteJobQueue(url) as new:
        job_id = old.submit("study", SPEC).id
        assert old.claim("worker-x", lease_seconds=0.3) is not None
        time.sleep(0.5)
        assert new.claim("worker-x", lease_seconds=30.0) is not None
        assert old.complete(job_id, "worker-x") is False
        assert new.complete(job_id, "worker-x") is True


# ---------------------------------------------------------------------------
# Concurrent claims: never double-claim
# ---------------------------------------------------------------------------

def test_concurrent_remote_claims_never_double_claim(service):
    url = "http://127.0.0.1:%d" % service.port
    n_jobs = 8
    with RemoteJobQueue(url) as producer:
        submitted = {producer.submit("study", SPEC, priority=i).id
                     for i in range(n_jobs)}

    claimed = {"a": [], "b": []}
    barrier = threading.Barrier(2)

    def drain(name):
        with RemoteJobQueue(url) as queue:
            barrier.wait()
            while True:
                job = queue.claim("racer-%s" % name, lease_seconds=30.0)
                if job is None:
                    break
                claimed[name].append(job.id)
                queue.complete(job.id, "racer-%s" % name)

    threads = [threading.Thread(target=drain, args=(name,))
               for name in claimed]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)

    overlap = set(claimed["a"]) & set(claimed["b"])
    assert overlap == set()
    assert set(claimed["a"]) | set(claimed["b"]) == submitted
    assert len(claimed["a"]) + len(claimed["b"]) == n_jobs


# ---------------------------------------------------------------------------
# Network failure semantics
# ---------------------------------------------------------------------------

def test_unreachable_queue_maps_to_crash_semantics():
    queue = RemoteJobQueue("http://127.0.0.1:%d" % free_port(),
                           timeout=1.0, connect_timeout=0.5)
    assert queue.claim("worker-lost") is None
    assert queue.heartbeat("job-x", "worker-lost") is False
    assert queue.complete("job-x", "worker-lost") is False
    assert queue.fail("job-x", "worker-lost", "err") is None
    # Producer-side calls are not crash-tolerant — they surface the
    # transport failure to the submitter instead of swallowing it.
    with pytest.raises(OSError):
        queue.submit("study", SPEC)
    queue.close()


# ---------------------------------------------------------------------------
# The worker loop over a remote queue
# ---------------------------------------------------------------------------

def test_run_worker_drains_remote_queue(service, paper_session,
                                        tmp_path):
    url = "http://127.0.0.1:%d" % service.port
    provider = SessionProvider(default_cache_path=CACHE_PATH)
    provider.seed(paper_session, cache_path=CACHE_PATH)
    with RemoteJobQueue(url) as remote:
        job_id = remote.submit("study", SPEC).id
        store = ExperimentStore(str(tmp_path / "worker-store.db"))
        stats = run_worker(queue=remote, store=store,
                           worker_id="remote-loop", once=True,
                           sessions=provider, poll_interval=0.05)
        assert stats.jobs_done == 1
        assert stats.outcomes == [(job_id, "done")]
        job = remote.get(job_id)
        assert job.state == "done"
        # The sweep record landed in the worker's own store.
        assert store.get(job.result_key) is not None


def test_remote_request_id_threads_into_the_store(service,
                                                  paper_session,
                                                  tmp_path):
    """The claim's correlation id must reach the store's sync hook —
    that is how one sweep's id survives host hops."""
    url = "http://127.0.0.1:%d" % service.port
    provider = SessionProvider(default_cache_path=CACHE_PATH)
    provider.seed(paper_session, cache_path=CACHE_PATH)

    class RecordingStore:
        def __init__(self, inner):
            self.inner = inner
            self.request_ids = []

        def set_request_id(self, request_id):
            self.request_ids.append(request_id)

        def __getattr__(self, name):
            return getattr(self.inner, name)

    with RemoteJobQueue(url) as remote:
        remote.submit("study", SPEC)
        job = remote.claim("rid-worker", lease_seconds=30.0)
        claim_rid = remote.request_id_for(job.id)
        assert claim_rid.startswith("work-")
        store = RecordingStore(
            ExperimentStore(str(tmp_path / "rid-store.db")))
        outcome = execute_study_job(job, remote, store, "rid-worker",
                                    provider, lease_seconds=30.0)
        assert outcome == "done"
        assert store.request_ids == [claim_rid]
