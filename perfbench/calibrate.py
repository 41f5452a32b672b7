"""Host-speed calibration: fixed work timed between ops, so that every
end-to-end timing can be stated at one reference host speed.

The reference container shares a host whose speed moves while nothing
in the container does: the same op takes up to ~2.2x longer in one hour
than in another (see README.md, "Seeds, noise and bounds").  The passes
below call no code of the program, so a change to the program cannot
move them.

A CPU pass (:func:`kernel`) is interpreted Python and numpy calls on
tiny arrays, where the call overhead dominates: that is what the
workloads' time goes to, and the kind of work the host's slow state
slows most (~2x, against ~1.4x for numpy arithmetic on 4096-element
arrays).  It is timed with the thread's CPU clock, so waiting on a lock
or on another process does not count, while a slower core does.  The
host flips between fast and slow states many times a second (a pass
takes ~5 ms to ~10 ms), and the share of slow time drifts over minutes.
An op of 100 ms or more averages over the states, so a run is
calibrated as a whole: CPU time is scaled by :data:`REFERENCE_KERNEL_S`
over the mean pass time of the run (the mean, because pass times are
bimodal).

An I/O pass (:func:`io_pass`) opens a WAL-mode SQLite connection,
commits one row and closes it, as the program's job queue and store do.
``sweep`` opens and closes ~130 connections per op, and each close
waits on the file system for ~0.4 ms, with a heavy tail whose weight
doubles or halves between runs independently of CPU speed.  An op's
wall time beyond its CPU time is scaled by :data:`REFERENCE_WAIT_S` over
the mean wait of the run's I/O passes.  The number of I/O passes
follows the previous op's wait, so ops that hardly wait get few.
"""

from __future__ import annotations

import os
import resource
import time

#: Kernel time (thread CPU seconds per pass) of the reference host
#: speed that every normalized timing is stated at.
REFERENCE_KERNEL_S = 0.0075
#: Wait (wall minus CPU seconds) of one I/O pass at the reference host
#: speed.
REFERENCE_WAIT_S = 0.0008
#: Kernel time before each op, as a share of the previous op's CPU
#: time, and the fewest CPU passes of one burst.
SHARE = 0.08
MIN_PASSES = 3
#: I/O passes before each op, per second of the previous op's wait
#: (wall minus CPU time), and the most of them in one burst.
IO_PASSES_PER_WAIT_S = 400
MAX_IO_PASSES = 40
_IO_PAYLOAD = b"x" * 2048


def kernel():
    """One pass of fixed work (~5-10 ms on the reference container)."""
    import numpy as np

    counts = {}
    for i in range(20000):
        counts[i & 1023] = counts.get(i & 1023, 0) + i
    y = np.ones(16)
    for _ in range(2000):
        y = y * 1.0001 + 1e-9
    return float(y[0]) + len(counts)


def process_cpu():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def io_pass(path, index):
    """One short-lived WAL connection writing one row, as the program's
    job queue and store do; returns its wall minus CPU seconds."""
    import sqlite3

    start, cpu = time.perf_counter(), process_cpu()
    conn = sqlite3.connect(path, timeout=30.0, isolation_level=None)
    try:
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute("CREATE TABLE IF NOT EXISTS kv "
                     "(k INTEGER PRIMARY KEY, v BLOB)")
        conn.execute("BEGIN IMMEDIATE")
        conn.execute("INSERT OR REPLACE INTO kv VALUES (?, ?)",
                     (index % 32, _IO_PAYLOAD))
        conn.execute("COMMIT")
    finally:
        conn.close()
    return (time.perf_counter() - start) - (process_cpu() - cpu)


class Calibration:
    """The calibration passes of one run and the factors they give.
    ``directory`` holds the I/O passes' database; without it a burst
    runs CPU passes only."""

    def __init__(self, directory=None):
        self.path = directory and os.path.join(directory, "calibrate.db")
        self.cpu = []     # thread-CPU seconds of each kernel pass
        self.wait = []    # wall minus CPU seconds of each I/O pass
        self._warm = False

    def burst(self, passes=MIN_PASSES, io_passes=0):
        if not self._warm:
            kernel()      # imports numpy, untimed
            self._warm = True
        for _ in range(passes):
            start = time.thread_time()
            kernel()
            self.cpu.append(time.thread_time() - start)
        for _ in range(io_passes if self.path else 0):
            self.wait.append(io_pass(self.path, len(self.wait)))

    def before_op(self, cpu_s, wall_s):
        """The burst before an op that follows one of ``cpu_s`` CPU and
        ``wall_s`` wall seconds."""
        self.burst(max(MIN_PASSES,
                       round(SHARE * cpu_s / REFERENCE_KERNEL_S)),
                   min(MAX_IO_PASSES,
                       round(IO_PASSES_PER_WAIT_S * max(0.0,
                                                        wall_s - cpu_s))))

    def cpu_factor(self):
        """Multiplier taking CPU-bound time to the reference speed."""
        return REFERENCE_KERNEL_S * len(self.cpu) / sum(self.cpu)

    def wait_factor(self):
        """Multiplier taking waiting time to the reference speed (the
        CPU factor when the run made no I/O passes)."""
        if not self.wait:
            return self.cpu_factor()
        return REFERENCE_WAIT_S * len(self.wait) / max(sum(self.wait),
                                                       1e-9)

    def scale(self, wall_s, cpu_s=None):
        """``wall_s`` at the reference speed: its CPU part by the CPU
        factor and the rest by the wait factor (all by the CPU factor
        when ``cpu_s`` is not known)."""
        if cpu_s is None:
            return wall_s * self.cpu_factor()
        cpu_s = min(cpu_s, wall_s)
        return cpu_s * self.cpu_factor() \
            + (wall_s - cpu_s) * self.wait_factor()
