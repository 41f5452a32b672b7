"""Durable job queue: lifecycle, leases, crash requeue, durability."""

import threading
import time

import pytest

from repro.errors import JobError
from repro.jobs import JobQueue, JOB_STATES


@pytest.fixture()
def queue(tmp_path):
    return JobQueue(str(tmp_path / "jobs.db"))


def test_submit_and_get(queue):
    submitted = queue.submit("study", {"capacities": [128]})
    job_id = submitted.id
    job = queue.get(job_id)
    # submit() returns exactly the row its transaction committed.
    assert job == submitted
    assert job.id == job_id
    assert job.kind == "study"
    assert job.spec == {"capacities": [128]}
    assert job.state == "queued"
    assert job.attempts == 0
    assert job.worker is None
    assert not job.terminal


def test_get_missing_raises(queue):
    with pytest.raises(JobError) as excinfo:
        queue.get("job-nope")
    assert excinfo.value.job_id == "job-nope"


def test_counts_zero_filled(queue):
    counts = queue.counts()
    assert set(counts) == set(JOB_STATES)
    assert all(value == 0 for value in counts.values())
    queue.submit("study", {})
    assert queue.counts()["queued"] == 1


def test_claim_empty_queue_returns_none(queue):
    assert queue.claim("w1") is None


def test_claim_marks_running_with_lease(queue):
    job_id = queue.submit("study", {}).id
    job = queue.claim("w1", lease_seconds=30.0)
    assert job.id == job_id
    assert job.state == "running"
    assert job.worker == "w1"
    assert job.attempts == 1
    assert job.lease_expires_at > time.time()
    # Nothing else to claim while the lease is live.
    assert queue.claim("w2") is None


def test_claim_fifo_within_priority(queue):
    first = queue.submit("study", {"n": 1}).id
    second = queue.submit("study", {"n": 2}).id
    assert queue.claim("w").id == first
    assert queue.claim("w").id == second


def test_priority_beats_age(queue):
    queue.submit("study", {"n": "old"})
    urgent = queue.submit("study", {"n": "urgent"}, priority=10).id
    assert queue.claim("w").id == urgent


def test_heartbeat_extends_lease_and_records_progress(queue):
    job_id = queue.submit("study", {}).id
    queue.claim("w1", lease_seconds=5.0)
    assert queue.heartbeat(job_id, "w1", lease_seconds=60.0,
                           progress={"completed": 3, "total": 16})
    job = queue.get(job_id)
    assert job.progress == {"completed": 3, "total": 16}
    assert job.lease_expires_at > time.time() + 30


def test_heartbeat_fails_for_wrong_worker_or_state(queue):
    job_id = queue.submit("study", {}).id
    queue.claim("w1")
    assert not queue.heartbeat(job_id, "w2", 30.0)
    queue.cancel(job_id)
    assert not queue.heartbeat(job_id, "w1", 30.0)


def test_complete(queue):
    job_id = queue.submit("study", {}).id
    queue.claim("w1")
    assert queue.complete(job_id, "w1", result_key="sweep-abc")
    job = queue.get(job_id)
    assert job.state == "done"
    assert job.terminal
    assert job.result_key == "sweep-abc"
    assert job.finished_at is not None


def test_complete_fails_after_ownership_lost(queue):
    job_id = queue.submit("study", {}).id
    queue.claim("w1")
    queue.cancel(job_id)
    assert not queue.complete(job_id, "w1")
    assert queue.get(job_id).state == "cancelled"


def test_cancel_queued_and_running(queue):
    queued = queue.submit("study", {}).id
    assert queue.cancel(queued)
    assert queue.get(queued).state == "cancelled"
    running = queue.submit("study", {}).id
    queue.claim("w1")
    assert queue.cancel(running)
    assert queue.get(running).state == "cancelled"


def test_cancel_terminal_returns_false(queue):
    job_id = queue.submit("study", {}).id
    queue.claim("w1")
    queue.complete(job_id, "w1")
    assert queue.cancel(job_id) is False


def test_cancel_missing_raises(queue):
    with pytest.raises(JobError):
        queue.cancel("job-nope")


def test_fail_requeues_until_attempts_exhausted(queue):
    job_id = queue.submit("study", {}, max_attempts=2).id
    queue.claim("w1")
    assert queue.fail(job_id, "w1", "boom 1") == "queued"
    assert queue.get(job_id).state == "queued"
    queue.claim("w1")
    assert queue.fail(job_id, "w1", "boom 2") == "failed"
    job = queue.get(job_id)
    assert job.state == "failed"
    assert job.terminal
    assert "boom 2" in job.error


def test_fail_by_non_owner_is_ignored(queue):
    job_id = queue.submit("study", {}).id
    queue.claim("w1")
    assert queue.fail(job_id, "w2", "not mine") is None
    assert queue.get(job_id).state == "running"


def test_expired_lease_is_requeued_on_next_claim(queue):
    """The crash-recovery core: a dead worker's job goes back to the
    queue as soon as any worker claims, no janitor required."""
    job_id = queue.submit("study", {}).id
    queue.claim("w1", lease_seconds=0.02)
    time.sleep(0.05)
    job = queue.claim("w2", lease_seconds=30.0)
    assert job is not None
    assert job.id == job_id
    assert job.worker == "w2"
    assert job.attempts == 2
    # The dead worker's late heartbeat must bounce.
    assert not queue.heartbeat(job_id, "w1", 30.0)


def test_expired_lease_with_exhausted_attempts_fails(queue):
    job_id = queue.submit("study", {}, max_attempts=1).id
    queue.claim("w1", lease_seconds=0.02)
    time.sleep(0.05)
    assert queue.claim("w2") is None
    job = queue.get(job_id)
    assert job.state == "failed"
    assert "lease expired" in job.error


def test_list_jobs_filtering(queue):
    a = queue.submit("study", {}).id
    queue.submit("study", {})
    queue.claim("w1")
    assert {job.id for job in queue.list_jobs(state="running")} == {a}
    assert len(queue.list_jobs()) == 2
    assert len(queue.list_jobs(limit=1)) == 1
    with pytest.raises(JobError):
        queue.list_jobs(state="bogus")


def test_queue_is_durable_across_instances(tmp_path):
    path = str(tmp_path / "jobs.db")
    job_id = JobQueue(path).submit("study", {"capacities": [128]}).id
    job = JobQueue(path).get(job_id)
    assert job.state == "queued"
    assert job.spec == {"capacities": [128]}


def test_concurrent_claims_hand_out_each_job_once(queue):
    for _ in range(8):
        queue.submit("study", {})
    claimed = []
    lock = threading.Lock()

    def worker(name):
        while True:
            job = queue.claim(name)
            if job is None:
                return
            with lock:
                claimed.append(job.id)

    threads = [threading.Thread(target=worker, args=("w%d" % i,))
               for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(claimed) == 8
    assert len(set(claimed)) == 8


def test_job_payload_is_jsonable(queue):
    import json

    job_id = queue.submit("study", {"capacities": [128]}).id
    payload = queue.get(job_id).to_payload()
    assert json.loads(json.dumps(payload))["id"] == job_id
    assert payload["state"] == "queued"
