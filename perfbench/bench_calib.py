"""Host-speed calibration for the timed passes.

On a shared host the speed of one core drifts by 20-30% within seconds
and stays off for minutes, so raw times of the same code spread too far
between runs to bound.  A fixed piece of reference work that never
calls lissbraid samples the host's speed next to the operations, and
the operations' times are scaled by it.  Each workload names the
reference whose speed follows its own work best (REFERENCES):

- "loop": interpreter dispatch and small objects, like the per-call
  work of the sweep and verify workloads;
- "bigint": 2x2 integer matrix products and quotients with kilobit
  entries, like the exact stages at large |m| (ladder).  Its speed
  swings less than the loop's when the host speeds up, as that work's
  does;
- "process": the start and exit of a bare interpreter, like a CLI
  process, which is mostly interpreter start and imports.

In-process references run from a CPU-time interval timer every
INTERVAL_S seconds of the process's own CPU time, so long operations
are sampled inside too; every reference also runs between operations
(`Clock.between`) when no sample is recent.  Time spent in the samples
is cut out of every operation.  Each stretch of an operation's time
between two samples is scaled by the reference's nominal time over the
median of the sample times around it (WINDOW on each side): the result
is the time the work would take on a host where the reference takes
its nominal time.  It follows the program's own cost and drops most of
the host's drift.  Set-up time, interpreter start and imports in a
fresh process, is scaled by process starts (`scaled_once`).

    clock = Clock("loop")
    for op in ops:
        clock.between()
        t0 = time.perf_counter(); op(); t1 = time.perf_counter()
    clock.close()
    clock.scaled(t0, t1)  # scaled seconds of the last op
"""

from __future__ import annotations

import signal
import statistics
import subprocess
import sys
import time
from bisect import bisect_right

INTERVAL_S = 0.1
WINDOW = 3


def loop_work(loops: int = 10000) -> int:
    """Interpreter dispatch, small tuples, dict and list traffic and
    kilobit integers."""
    acc, x, rows, seen = 0, 1, [], {}
    for i in range(loops):
        a, b = divmod(i * 7919 + acc, 97)
        rows.append((a, b))
        seen[b] = a
        x = x * 3 + b if x.bit_length() < 2000 else x >> 1000
        acc = (acc + a * b + len(seen)) & 0xFFFF
        if len(rows) > 64:
            rows.clear()
    return acc ^ (x & 0xFF)


def bigint_work(steps: int = 4000) -> int:
    """A continuant recurrence (entries grow to ~6 kbit), with a product
    and a quotient of two entries every 50 steps."""
    a, b, c, d, acc = 1, 0, 0, 1, 0
    for i in range(steps):
        k = 2 + (i & 1)
        a, b, c, d = a * k + b, a, c * k + d, c
        if i % 50 == 49:
            acc ^= divmod(a * c, b + 1)[1] & 0xFFFF
    return acc


def process_start() -> None:
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)


# name -> (work, its time on a host of nominal speed, whether it runs in-process)
REFERENCES = {
    "loop": (loop_work, 0.010, True),
    "bigint": (bigint_work, 0.010, True),
    "process": (process_start, 0.020, False),
}


def process_start_s() -> float:
    t0 = time.perf_counter()
    process_start()
    return time.perf_counter() - t0


def scaled_once(seconds: float, starts: list[float]) -> float:
    """`seconds` of work in child processes scaled by the median of
    `process_start_s` times taken next to it (for set-up time)."""
    return seconds * REFERENCES["process"][1] / statistics.median(starts)


class Clock:
    """Samples host speed while it is open (see the module doc)."""

    def __init__(self, reference: str):
        """`reference`: a key of REFERENCES."""
        self.work, self.nominal, self.timer = REFERENCES[reference]
        self.starts: list[float] = []  # perf_counter at each sample's start
        self.ends: list[float] = []
        self.refs: list[float] = []  # each sample's duration
        self._sample()
        if self.timer:
            self._old = signal.signal(signal.SIGVTALRM, self._on_timer)
            signal.setitimer(signal.ITIMER_VIRTUAL, INTERVAL_S, INTERVAL_S)

    def _sample(self):
        t0 = time.perf_counter()
        self.work()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self.refs.append(t1 - t0)

    def _on_timer(self, signum, frame):
        self._sample()

    def between(self):
        """Call between operations: samples if the last sample is old."""
        if time.perf_counter() - self.ends[-1] >= INTERVAL_S:
            self._sample()

    def close(self):
        """Stop the timer and take a last sample."""
        if self.timer:
            signal.setitimer(signal.ITIMER_VIRTUAL, 0)
            signal.signal(signal.SIGVTALRM, self._old)
        self._sample()

    def _pieces(self, t0: float, t1: float):
        """(index of the next sample, seconds) for each stretch of
        [t0, t1] between samples."""
        k = bisect_right(self.starts, t0)
        a = t0
        while k < len(self.starts) and self.starts[k] < t1:
            yield k, self.starts[k] - a
            a = self.ends[k]
            k += 1
        yield k, t1 - a

    def raw(self, t0: float, t1: float) -> float:
        """Seconds in [t0, t1], samples left out."""
        return sum(d for _, d in self._pieces(t0, t1))

    def scaled(self, t0: float, t1: float) -> float:
        """Scaled seconds in [t0, t1], samples left out."""
        refs = self.refs
        return sum(d * self.nominal / statistics.median(refs[max(0, k - WINDOW):k + WINDOW])
                   for k, d in self._pieces(t0, t1))
