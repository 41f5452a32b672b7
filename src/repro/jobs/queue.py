"""Durable job queue: one SQLite table, lease-based claiming.

Lifecycle::

            submit              claim                complete
    (new) --------> queued --------------> running ----------> done
                      ^                      |  |
                      |   lease expired /    |  +-- fail ----> failed
                      +---- fail w/ retry ---+      (attempts
                      |                             exhausted)
                      +--- cancel (any non-terminal state) --> cancelled

A worker *claims* the oldest queued job, which marks it ``running`` and
grants a **lease** (``lease_expires_at``).  While working it
*heartbeats* to extend the lease; if the worker dies (SIGKILL, OOM,
power loss) the lease expires and the next ``claim`` by any worker
re-queues the job first — no separate janitor process is needed.  A job
whose attempts are exhausted parks in ``failed`` with the last error.

Durability model: every transition is one SQLite transaction
(``BEGIN IMMEDIATE`` under WAL), so any number of worker processes can
share a queue file; there is no in-memory state to lose.
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field

from .. import perf
from ..errors import JobError

JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: States a job can never leave.
TERMINAL_STATES = ("done", "failed", "cancelled")

_SCHEMA_SQL = """
CREATE TABLE IF NOT EXISTS jobs (
    id               TEXT PRIMARY KEY,
    kind             TEXT NOT NULL,
    spec             TEXT NOT NULL,
    state            TEXT NOT NULL,
    priority         INTEGER NOT NULL DEFAULT 0,
    attempts         INTEGER NOT NULL DEFAULT 0,
    max_attempts     INTEGER NOT NULL DEFAULT 3,
    created_at       REAL NOT NULL,
    updated_at       REAL NOT NULL,
    started_at       REAL,
    finished_at      REAL,
    lease_expires_at REAL,
    worker           TEXT,
    error            TEXT,
    progress         TEXT NOT NULL DEFAULT '{}',
    result_key       TEXT
);
CREATE INDEX IF NOT EXISTS idx_jobs_state ON jobs (state, priority, created_at);
"""


@dataclass
class Job:
    """One row of the job table, decoded."""

    id: str
    kind: str
    spec: dict
    state: str
    priority: int = 0
    attempts: int = 0
    max_attempts: int = 3
    created_at: float = 0.0
    updated_at: float = 0.0
    started_at: float = None
    finished_at: float = None
    lease_expires_at: float = None
    worker: str = None
    error: str = None
    progress: dict = field(default_factory=dict)
    result_key: str = None

    @classmethod
    def from_row(cls, row):
        return cls(
            id=row["id"], kind=row["kind"],
            spec=json.loads(row["spec"]), state=row["state"],
            priority=row["priority"], attempts=row["attempts"],
            max_attempts=row["max_attempts"],
            created_at=row["created_at"], updated_at=row["updated_at"],
            started_at=row["started_at"], finished_at=row["finished_at"],
            lease_expires_at=row["lease_expires_at"],
            worker=row["worker"], error=row["error"],
            progress=json.loads(row["progress"] or "{}"),
            result_key=row["result_key"],
        )

    @property
    def terminal(self):
        return self.state in TERMINAL_STATES

    def to_payload(self):
        """JSON-able status view (the service/CLI representation)."""
        return {
            "id": self.id,
            "kind": self.kind,
            "spec": self.spec,
            "state": self.state,
            "priority": self.priority,
            "attempts": self.attempts,
            "max_attempts": self.max_attempts,
            "created_at": self.created_at,
            "updated_at": self.updated_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "lease_expires_at": self.lease_expires_at,
            "worker": self.worker,
            "error": self.error,
            "progress": self.progress,
            "result_key": self.result_key,
        }


def new_job_id():
    return "job-%s" % uuid.uuid4().hex[:12]


class JobQueue:
    """SQLite-backed durable queue; safe across threads and processes."""

    def __init__(self, path):
        self.path = path
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        # executescript() commits implicitly, so it must not run inside
        # the _txn() BEGIN/COMMIT pair.
        with self._read() as conn:
            conn.executescript(_SCHEMA_SQL)

    def _connect(self):
        conn = sqlite3.connect(self.path, timeout=30.0,
                               isolation_level=None)
        conn.row_factory = sqlite3.Row
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        return conn

    @contextmanager
    def _read(self):
        conn = self._connect()
        try:
            yield conn
        finally:
            conn.close()

    @contextmanager
    def _txn(self):
        """One write transaction; ``BEGIN IMMEDIATE`` takes the write
        lock up front so a claim's read-then-update is atomic."""
        conn = self._connect()
        try:
            conn.execute("BEGIN IMMEDIATE")
            yield conn
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        finally:
            conn.close()

    # -- producer side -----------------------------------------------------

    def submit(self, kind, spec, priority=0, max_attempts=3):
        """Enqueue one job; returns the :class:`Job` row as committed.

        The returned row is the state this insert wrote (``queued``),
        never a later read — a worker may claim the job the moment the
        transaction commits.
        """
        now = time.time()
        encoded = json.dumps(spec)
        job = Job(id=new_job_id(), kind=kind, spec=json.loads(encoded),
                  state="queued", priority=int(priority),
                  max_attempts=int(max_attempts), created_at=now,
                  updated_at=now)
        with self._txn() as conn:
            conn.execute(
                "INSERT INTO jobs (id, kind, spec, state, priority, "
                "max_attempts, created_at, updated_at) "
                "VALUES (?, ?, ?, 'queued', ?, ?, ?, ?)",
                (job.id, kind, encoded, job.priority, job.max_attempts,
                 job.created_at, job.updated_at),
            )
        perf.count("jobs.submitted")
        return job

    def cancel(self, job_id):
        """Cancel a queued or running job.

        A running job's worker notices at its next heartbeat (which
        fails) and abandons the sweep; completed cells stay in the
        store.  Returns False when the job is already terminal.
        """
        now = time.time()
        with self._txn() as conn:
            cursor = conn.execute(
                "UPDATE jobs SET state = 'cancelled', updated_at = ?, "
                "finished_at = ?, lease_expires_at = NULL "
                "WHERE id = ? AND state IN ('queued', 'running')",
                (now, now, job_id),
            )
            if cursor.rowcount == 0:
                exists = conn.execute(
                    "SELECT 1 FROM jobs WHERE id = ?", (job_id,)
                ).fetchone()
        if cursor.rowcount > 0:
            perf.count("jobs.cancelled")
            return True
        if not exists:
            raise JobError("no such job %r" % job_id, job_id=job_id)
        return False

    # -- worker side -------------------------------------------------------

    def _requeue_expired(self, conn, now):
        """Give crashed workers' jobs back to the queue (or fail them)."""
        rows = conn.execute(
            "SELECT id, attempts, max_attempts FROM jobs "
            "WHERE state = 'running' AND lease_expires_at < ?", (now,)
        ).fetchall()
        for row in rows:
            if row["attempts"] >= row["max_attempts"]:
                conn.execute(
                    "UPDATE jobs SET state = 'failed', updated_at = ?, "
                    "finished_at = ?, lease_expires_at = NULL, error = ? "
                    "WHERE id = ? AND state = 'running'",
                    (now, now,
                     "lease expired after %d attempt%s"
                     % (row["attempts"],
                        "" if row["attempts"] == 1 else "s"),
                     row["id"]),
                )
                perf.count("jobs.lease_failed")
            else:
                conn.execute(
                    "UPDATE jobs SET state = 'queued', updated_at = ?, "
                    "lease_expires_at = NULL, worker = NULL "
                    "WHERE id = ? AND state = 'running'",
                    (now, row["id"]),
                )
                perf.count("jobs.lease_requeued")

    def claim(self, worker, lease_seconds=30.0):
        """Atomically claim the best queued job; ``None`` when idle.

        Also re-queues any expired leases first, so a fleet of plain
        workers is self-healing without a supervisor.
        """
        now = time.time()
        with self._txn() as conn:
            self._requeue_expired(conn, now)
            row = conn.execute(
                "SELECT * FROM jobs WHERE state = 'queued' "
                "ORDER BY priority DESC, created_at, id LIMIT 1"
            ).fetchone()
            if row is None:
                return None
            conn.execute(
                "UPDATE jobs SET state = 'running', worker = ?, "
                "attempts = attempts + 1, updated_at = ?, "
                "started_at = COALESCE(started_at, ?), "
                "lease_expires_at = ? WHERE id = ?",
                (worker, now, now, now + float(lease_seconds), row["id"]),
            )
            claimed = conn.execute(
                "SELECT * FROM jobs WHERE id = ?", (row["id"],)
            ).fetchone()
        perf.count("jobs.claimed")
        return Job.from_row(claimed)

    def heartbeat(self, job_id, worker, lease_seconds=30.0,
                  progress=None, attempt=None):
        """Extend the lease (and optionally record progress).

        Returns False when the job is no longer this worker's — it was
        cancelled, or the lease expired and another worker took over —
        in which case the worker must abandon the job.  ``attempt``
        (when given) additionally fences against the worker's *own*
        stale claim: a lease that expired and was re-claimed bumped the
        attempt counter, so updates carrying the old attempt number are
        rejected even if the same worker holds the new claim.
        """
        now = time.time()
        sets = ["lease_expires_at = ?", "updated_at = ?"]
        args = [now + float(lease_seconds), now]
        if progress is not None:
            sets.append("progress = ?")
            args.append(json.dumps(progress))
        args += [job_id, worker]
        clause = ""
        if attempt is not None:
            clause = " AND attempts = ?"
            args.append(int(attempt))
        with self._txn() as conn:
            cursor = conn.execute(
                "UPDATE jobs SET %s WHERE id = ? AND worker = ? "
                "AND state = 'running'%s" % (", ".join(sets), clause),
                args,
            )
        return cursor.rowcount == 1

    def complete(self, job_id, worker, result_key=None, attempt=None):
        """Mark a running job done; False when ownership was lost.

        ``attempt`` fences stale claims exactly as in
        :meth:`heartbeat` — the remote-claim protocol always passes it.
        """
        now = time.time()
        args = [now, now, result_key, job_id, worker]
        clause = ""
        if attempt is not None:
            clause = " AND attempts = ?"
            args.append(int(attempt))
        with self._txn() as conn:
            cursor = conn.execute(
                "UPDATE jobs SET state = 'done', updated_at = ?, "
                "finished_at = ?, lease_expires_at = NULL, error = NULL, "
                "result_key = ? "
                "WHERE id = ? AND worker = ? AND state = 'running'"
                + clause,
                args,
            )
        if cursor.rowcount == 1:
            perf.count("jobs.completed")
            return True
        return False

    def fail(self, job_id, worker, error, attempt=None):
        """Record a failure: re-queue while attempts remain, else park
        the job in ``failed``.  Returns the resulting state (or None
        when ownership was lost)."""
        now = time.time()
        args = [job_id, worker]
        clause = ""
        if attempt is not None:
            clause = " AND attempts = ?"
            args.append(int(attempt))
        with self._txn() as conn:
            row = conn.execute(
                "SELECT attempts, max_attempts FROM jobs "
                "WHERE id = ? AND worker = ? AND state = 'running'"
                + clause,
                args,
            ).fetchone()
            if row is None:
                return None
            retry = row["attempts"] < row["max_attempts"]
            state = "queued" if retry else "failed"
            conn.execute(
                "UPDATE jobs SET state = ?, updated_at = ?, error = ?, "
                "lease_expires_at = NULL, worker = NULL, "
                "finished_at = CASE WHEN ? = 'failed' THEN ? ELSE NULL "
                "END WHERE id = ?",
                (state, now, str(error)[:4000], state, now, job_id),
            )
        perf.count("jobs.failed" if state == "failed"
                   else "jobs.retried")
        return state

    # -- introspection -----------------------------------------------------

    def get(self, job_id):
        with self._read() as conn:
            row = conn.execute(
                "SELECT * FROM jobs WHERE id = ?", (job_id,)
            ).fetchone()
        if row is None:
            raise JobError("no such job %r" % job_id, job_id=job_id)
        return Job.from_row(row)

    def list_jobs(self, state=None, limit=None):
        query = "SELECT * FROM jobs"
        args = []
        if state is not None:
            if state not in JOB_STATES:
                raise JobError("unknown job state %r" % state)
            query += " WHERE state = ?"
            args.append(state)
        query += " ORDER BY created_at DESC, id"
        if limit is not None:
            query += " LIMIT ?"
            args.append(int(limit))
        with self._read() as conn:
            rows = conn.execute(query, args).fetchall()
        return [Job.from_row(row) for row in rows]

    def counts(self):
        """``state -> number of jobs`` (zero-filled for every state)."""
        with self._read() as conn:
            rows = conn.execute(
                "SELECT state, COUNT(*) AS n FROM jobs GROUP BY state"
            ).fetchall()
        out = {state: 0 for state in JOB_STATES}
        for row in rows:
            out[row["state"]] = row["n"]
        return out
