"""Disk cache for characterization results.

Full-array studies re-use the same cell/periphery characterizations over
and over (every capacity and method shares the same LUTs), and some of
them — transient write-delay sweeps in particular — take seconds each.
This cache stores plain JSON next to a user-chosen path so repeated
benchmark runs skip recharacterization.

Keys must be strings; values are anything JSON-serializable (the
characterization code stores grids and sampled arrays as lists).

Writes are batched: :meth:`put` marks the store dirty and rewrites the
file immediately *unless* the cache is inside a ``with cache.deferred():``
block (or used as a context manager itself), in which case all inserts
of the block land in a single atomic rewrite on exit.  As a final
safety net, every file-backed cache is also flushed at interpreter
exit (``atexit``), so a process that dies without unwinding its
``deferred()`` block still persists what it computed.  Cold-start
characterization runs many ``get_or_compute`` calls, so without
deferral the JSON file would be serialized once per insert — O(n^2)
bytes written.  Deferral is crash-safe: the exit flush runs from a
``finally`` even when a compute raises, so everything computed before
the failure is persisted, and the rewrite itself stays atomic
(write-to-temp then ``os.replace``).

Thread safety: every public operation holds one re-entrant lock, so a
cache shared across a thread pool (the optimization service's engine
threads share one warm :class:`~repro.analysis.experiments.Session`)
never interleaves a ``put`` with a ``flush`` or double-computes a key.
:meth:`get_or_compute` holds the lock *across* the compute — the first
caller characterizes, every concurrent caller for any key waits and
then reads the stored value.  Characterization computes are idempotent
and read-mostly after warm-up, so serializing cold computes is the
right trade against running the same multi-second simulation twice.
"""

from __future__ import annotations

import atexit
import json
import os
import tempfile
import threading
import weakref
from contextlib import contextmanager

from .. import perf

#: Every live file-backed cache, flushed once more at interpreter exit
#: so dirty entries survive a process that never leaves its
#: ``deferred()`` block the orderly way (sys.exit, an unhandled
#: exception in a worker's main, ...).  A weak set: caches die with
#: their owners; registration never extends a lifetime.
_LIVE_CACHES = weakref.WeakSet()


@atexit.register
def _flush_all_at_exit():
    for cache in list(_LIVE_CACHES):
        try:
            cache.flush()
        except Exception:
            # Exit-time best effort: a read-only filesystem or a
            # half-torn-down interpreter must not mask the real exit.
            pass


class CharacterizationCache:
    """A tiny persistent key-value store (JSON file) with batched writes."""

    def __init__(self, path=None):
        self.path = path
        self._data = {}
        self._dirty = False
        self._defer_depth = 0
        self._lock = threading.RLock()
        if path is not None and os.path.exists(path):
            with open(path) as handle:
                self._data = json.load(handle)
        if path is not None:
            _LIVE_CACHES.add(self)

    def get(self, key):
        with self._lock:
            return self._data.get(key)

    def __contains__(self, key):
        with self._lock:
            return key in self._data

    def put(self, key, value):
        with self._lock:
            self._data[key] = value
            self._dirty = True
            if self._defer_depth == 0:
                self.flush()

    def get_or_compute(self, key, compute):
        """Return the cached value for ``key`` or compute-and-store it.

        The lock is held across the compute, so concurrent callers of
        the same key run ``compute`` exactly once.
        """
        with self._lock:
            if key in self._data:
                return self._data[key]
            value = compute()
            self.put(key, value)
            return value

    @contextmanager
    def deferred(self):
        """Batch every ``put`` of the block into one flush on exit.

        Nestable; only the outermost exit writes.  The flush runs even
        when the block raises, so partial progress survives a crash.
        """
        with self._lock:
            self._defer_depth += 1
        try:
            yield self
        finally:
            with self._lock:
                self._defer_depth -= 1
                if self._defer_depth == 0:
                    self.flush()

    def __enter__(self):
        with self._lock:
            self._defer_depth += 1
        return self

    def __exit__(self, exc_type, exc, tb):
        with self._lock:
            self._defer_depth -= 1
            if self._defer_depth == 0:
                self.flush()
        return False

    def flush(self):
        """Write the store to disk now (no-op when clean or memory-only)."""
        with self._lock:
            if self.path is None or not self._dirty:
                return
            directory = os.path.dirname(os.path.abspath(self.path))
            os.makedirs(directory, exist_ok=True)
            # Atomic replace so a crash mid-write cannot corrupt the cache.
            fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as handle:
                    json.dump(self._data, handle)
                os.replace(tmp_path, self.path)
            except BaseException:
                if os.path.exists(tmp_path):
                    os.unlink(tmp_path)
                raise
            self._dirty = False
        perf.count("cache.flushes")

    def clear(self):
        with self._lock:
            self._data = {}
            self._dirty = True
            if self._defer_depth == 0:
                self.flush()

    def __len__(self):
        with self._lock:
            return len(self._data)
