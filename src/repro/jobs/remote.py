"""Remote job claiming: the queue's lease protocol over HTTP.

:class:`RemoteJobQueue` mirrors the worker-side surface of
:class:`~repro.jobs.queue.JobQueue` (``claim`` / ``heartbeat`` /
``complete`` / ``fail`` plus ``submit`` / ``get`` / ``counts``) against
a queue hosted by another machine's ``repro serve --jobs`` instance, so
``run_worker`` drains a remote queue through the exact same loop it
uses locally — fleet workers need no new execution code.

Lease tokens
------------

Every successful claim returns a **lease token** encoding the claim's
attempt number.  The worker presents it on each heartbeat / complete /
fail, and the server fences the update with ``AND attempts = ?``: once
a lease expires and the job is re-claimed (bumping ``attempts``), the
stale claimant's token no longer matches — even when the *same* worker
re-claimed its own job — so a dead-then-resurrected remote worker can
never complete over a live one's run.

Failure semantics
-----------------

The network is allowed to fail; the protocol maps transport errors to
the same outcomes a crashed local worker produces:

* ``claim`` -> ``None`` (idle; the worker polls again),
* ``heartbeat`` -> ``False`` (abandon the job; the server-side lease
  expires and the job is re-queued exactly like a SIGKILLed local
  worker's),
* ``complete``/``fail`` -> ownership-lost (the store keeps the cells;
  the re-claimed run skips them).

Correlation: the claim's ``X-Request-Id`` (the server's echo of ours)
is remembered per job and re-sent on every subsequent heartbeat /
complete / fail — and exposed via :meth:`request_id_for` so the store
sync traffic of the same sweep carries it across host hops too.
"""

from __future__ import annotations

import threading
import uuid

from .. import perf
from ..errors import JobError, ServiceError
from .queue import Job

#: Fields of a job payload consumed back into a :class:`Job`.
_JOB_FIELDS = ("id", "kind", "spec", "state", "priority", "attempts",
               "max_attempts", "created_at", "updated_at", "started_at",
               "finished_at", "lease_expires_at", "worker", "error",
               "progress", "result_key")


def make_lease_token(job_id, attempt):
    """The fencing token of one claim (job identity + attempt)."""
    return "lt.%d.%s" % (int(attempt), job_id)


def parse_lease_token(token):
    """``(job_id, attempt)`` from a token; raises JobError when bogus."""
    try:
        prefix, attempt, job_id = str(token).split(".", 2)
        if prefix != "lt" or not job_id:
            raise ValueError
        return job_id, int(attempt)
    except (ValueError, AttributeError):
        raise JobError("malformed lease token %r" % (token,))


def job_from_payload(payload):
    """Rebuild a :class:`Job` from its JSON service representation."""
    return Job(**{name: payload.get(name) for name in _JOB_FIELDS})


class RemoteJobQueue:
    """Claim and drive jobs on a queue served by another host.

    One keep-alive :class:`~repro.service.client.ServiceClient` under a
    lock (heartbeat traffic must not open a socket per beat); safe to
    share across threads, though each fleet worker normally owns one.
    """

    def __init__(self, url, timeout=60.0, connect_timeout=5.0,
                 client=None):
        from ..fleet.topology import normalize_peer_url, parse_peer_url
        from ..service.client import ServiceClient

        self.url = normalize_peer_url(url)
        if client is None:
            host, port = parse_peer_url(self.url)
            client = ServiceClient(host=host, port=port, timeout=timeout,
                                   connect_timeout=connect_timeout,
                                   max_retries=1)
        self._client = client
        self._lock = threading.Lock()
        #: job id -> (lease token, correlation id) of the live claim.
        self._claims = {}

    def close(self):
        with self._lock:
            self._client.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    # -- plumbing ----------------------------------------------------------

    def _request(self, method, path, body=None, request_id=None):
        with self._lock:
            return self._client.request(method, path, body, check=False,
                                        request_id=request_id)

    def _claim_of(self, job_id):
        token, request_id = self._claims.get(job_id, (None, None))
        return token, request_id

    def request_id_for(self, job_id):
        """The correlation id of the live claim on ``job_id`` (None
        when this queue does not hold one)."""
        return self._claim_of(job_id)[1]

    # -- worker side -------------------------------------------------------

    def claim(self, worker, lease_seconds=30.0):
        """Atomically claim the best queued job; ``None`` when idle or
        when the queue host is unreachable."""
        request_id = "work-%s" % uuid.uuid4().hex[:12]
        try:
            status, payload, headers = self._request(
                "POST", "/v1/jobs/claim",
                {"worker": worker,
                 "lease_seconds": float(lease_seconds)},
                request_id=request_id)
        except (ServiceError, OSError):
            perf.count("fleet.remote_claim_errors")
            return None
        if status != 200 or not payload.get("job"):
            if status != 200:
                perf.count("fleet.remote_claim_errors")
            return None
        job = job_from_payload(payload["job"])
        token = payload["job"].get("lease_token")
        # The server echoes our id (or minted its own); either way the
        # echoed one is the sweep's correlation id from here on.
        request_id = headers.get("x-request-id", request_id)
        self._claims[job.id] = (token, request_id)
        perf.count("fleet.remote_claims")
        return job

    def heartbeat(self, job_id, worker, lease_seconds=30.0,
                  progress=None):
        token, request_id = self._claim_of(job_id)
        body = {"worker": worker, "lease_token": token,
                "lease_seconds": float(lease_seconds)}
        if progress is not None:
            body["progress"] = progress
        try:
            status, payload, _ = self._request(
                "POST", "/v1/jobs/%s/heartbeat" % job_id, body,
                request_id=request_id)
        except (ServiceError, OSError):
            # Unreachable queue host == lost ownership: abandon the job
            # and let the lease expire server-side.
            perf.count("fleet.remote_heartbeat_errors")
            return False
        return status == 200 and bool(payload.get("ok"))

    def complete(self, job_id, worker, result_key=None):
        token, request_id = self._claim_of(job_id)
        try:
            status, payload, _ = self._request(
                "POST", "/v1/jobs/%s/complete" % job_id,
                {"worker": worker, "lease_token": token,
                 "result_key": result_key},
                request_id=request_id)
        except (ServiceError, OSError):
            perf.count("fleet.remote_complete_errors")
            return False
        self._claims.pop(job_id, None)
        return status == 200 and bool(payload.get("ok"))

    def fail(self, job_id, worker, error):
        token, request_id = self._claim_of(job_id)
        try:
            status, payload, _ = self._request(
                "POST", "/v1/jobs/%s/fail" % job_id,
                {"worker": worker, "lease_token": token,
                 "error": str(error)},
                request_id=request_id)
        except (ServiceError, OSError):
            perf.count("fleet.remote_fail_errors")
            return None
        self._claims.pop(job_id, None)
        if status != 200:
            return None
        return payload.get("state")

    # -- producer / introspection side ---------------------------------

    def submit(self, kind, spec, priority=0, max_attempts=3):
        status, payload, _ = self._request(
            "POST", "/v1/jobs",
            {"kind": kind, "spec": spec, "priority": priority,
             "max_attempts": max_attempts})
        if status != 202:
            raise JobError("remote submit failed: HTTP %d: %s"
                           % (status, payload.get("error", payload)))
        return job_from_payload(payload)

    def cancel(self, job_id):
        status, payload, _ = self._request("DELETE",
                                           "/v1/jobs/%s" % job_id)
        if status == 404:
            raise JobError(payload.get("error",
                                       "no such job %r" % job_id),
                           job_id=job_id)
        return status == 200

    def get(self, job_id):
        status, payload, _ = self._request("GET", "/v1/jobs/%s" % job_id)
        if status != 200:
            raise JobError(payload.get("error",
                                       "no such job %r" % job_id),
                           job_id=job_id)
        return job_from_payload(payload)

    def counts(self):
        status, payload, _ = self._request("GET", "/v1/jobs")
        if status != 200:
            raise JobError("remote job listing failed: HTTP %d" % status)
        return payload["counts"]
