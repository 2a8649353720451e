"""Host-speed correction: CPU time as on an unshared core of a reference speed.

The benchmark runs on shared machines.  Other tenants' load slows an
operation in three ways, in bursts lasting seconds that no amount of
repetition inside one run averages out:

* the operation's processes wait in the run queue while another task
  holds their CPU;
* the hypervisor takes the virtual CPU away (steal time);
* the operation runs at fewer instructions per second while other work
  shares its physical core.

The benchmark times an operation by its CPU time (:func:`cpu_seconds`:
user plus system time of this process and of the children it has
reaped, which includes a process pool's workers once the pool has shut
down).  CPU time leaves out the first two slow-downs.  For the third,
the benchmark times a fixed pure-Python loop (:func:`reference_loop`)
in this thread's CPU time, between operations, at most every
``EVERY_S`` seconds, and scales a time measured over an interval by
``NOMINAL_S / (median loop time within PAD_S of the interval)``.

A reported time is therefore the operation's CPU time at the speed of a
core that runs the loop in ``NOMINAL_S``.  For an operation that runs
on one thread and never blocks, that is its latency on an unshared
host.  An unloaded 2-vCPU x86-64 host with CPython 3.11 runs the loop
in ~0.85 ms, so there a reported millisecond is ~0.85 ms on the CPU.

The loop runs while the program is idle, so only work the program
leaves running between operations (threads, processes) can slow it; a
change that does so flatters the reported times, which is why ``run.py``
keeps the raw figures, CPU and wall time, beside them.
"""

from __future__ import annotations

import bisect
import resource
import statistics
import time

#: Iterations of the reference loop.
LOOP = 20_000
#: The reference loop's duration at the reference speed.
NOMINAL_S = 1e-3
#: Seconds between samples that :meth:`HostSpeed.maybe_sample` aims at.
EVERY_S = 0.05
#: Half-width of the window of samples around a measured interval.
PAD_S = 0.5
#: Fewest samples a scale is computed from; the window widens until met.
MIN_SAMPLES = 5


def cpu_seconds() -> float:
    """User plus system CPU seconds of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def mark() -> tuple[float, float]:
    """Now, as (wall seconds, CPU seconds), to pass to :func:`lap`."""
    return time.perf_counter(), cpu_seconds()


def lap(start: tuple[float, float]) -> tuple[float, float]:
    """(wall seconds, CPU seconds) since ``start``."""
    wall, cpu = mark()
    return wall - start[0], cpu - start[1]


def reference_loop() -> float:
    """Run the fixed loop once; return its duration in this thread's CPU seconds.

    The loop stays in the core's first-level cache, so its speed does
    not depend on what the program left in the caches before it.
    """
    start = time.thread_time()
    total = 0
    for i in range(LOOP):
        total += i * i
    return time.thread_time() - start


class HostSpeed:
    """Reference-loop samples taken on the calling thread, with times."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []

    def sample(self, count: int = 1) -> None:
        """Time the reference loop ``count`` times now."""
        for _ in range(count):
            start = time.perf_counter()
            self.took.append(reference_loop())
            self.at.append(start)

    def maybe_sample(self) -> None:
        """Keep about one sample per ``EVERY_S`` seconds, up to ``MIN_SAMPLES`` at once.

        Called between operations: after a long operation it takes
        several samples, so each operation has samples on both sides.
        """
        if not self.at:
            self.sample(MIN_SAMPLES)
            return
        due = int((time.perf_counter() - self.at[-1]) / EVERY_S)
        self.sample(min(due, MIN_SAMPLES))

    def scale(self, begin: float, end: float) -> float:
        """``NOMINAL_S`` over the median loop time around ``[begin, end]``."""
        pad = PAD_S
        for _ in range(16):
            first = bisect.bisect_left(self.at, begin - pad)
            last = bisect.bisect_right(self.at, end + pad)
            if last - first >= MIN_SAMPLES:
                break
            pad *= 2.0
        if last == first:
            return 1.0
        return NOMINAL_S / statistics.median(self.took[first:last])
