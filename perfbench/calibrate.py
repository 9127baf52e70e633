"""Host speed, measured by a fixed kernel run all through the timed work.

The benchmark's host is a few cores of a shared machine whose speed
drifts by tens of percent, in bursts from a fraction of a second to
minutes, as its neighbours come and go; a raw host time mixes that
drift into every measurement.  The kernel below is a frozen miniature
of the simulator's hot loop -- list-based LRU cache sets, a heap of
miss events and a route table in a dict -- and belongs to the
benchmark, not to the program, so a change to the program never
changes it.

While a :class:`Sampler` is active, a ``SIGALRM`` timer interrupts the
main thread every ``INTERVAL_S`` of wall time and runs the kernel
there, on the core doing the work.  The samples are spread evenly over
wall time, so their mean speed (reference kernel seconds over measured
kernel seconds) is the host's mean speed over the interval, and

    (seconds - kernel seconds) × mean speed

is the interval's host time at the speed of a quiet host, with the
kernel's own time taken out.
"""

from __future__ import annotations

import heapq
import signal
import threading
import time
from typing import Dict, List

#: Kernel seconds on a quiet host (2-core Intel Xeon VM at 2.1 GHz);
#: only fixes the scale of the normalised times, never their ratios.
REFERENCE_S = 0.0014
#: Accesses per kernel call.
ACCESSES = 1000
#: Wall seconds between kernel calls (the kernel takes about 5% of them).
INTERVAL_S = 0.02


def kernel(accesses: int = ACCESSES) -> int:
    """Replay a fixed pseudo-random address stream through a 2-level
    set-associative LRU cache and schedule every L2 miss on a heap;
    returns a checksum so that no work can be skipped."""
    l1 = [[] for _ in range(64)]
    l2 = [[] for _ in range(256)]
    routes = {}
    heap: List[tuple] = []
    x = 12345
    t = 0
    misses = 0
    for _ in range(accesses):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        line = (x >> 8) & 0x1FFF if x & 3 else (x >> 8) & 0x3F
        w1 = l1[line & 63]
        t += 1
        if line in w1:
            if w1[0] != line:
                w1.remove(line)
                w1.insert(0, line)
            continue
        w2 = l2[line & 255]
        if line in w2:
            if w2[0] != line:
                w2.remove(line)
                w2.insert(0, line)
        else:
            w2.insert(0, line)
            if len(w2) > 8:
                w2.pop()
            key = (line & 15, (line >> 4) & 3)
            hops = routes.get(key)
            if hops is None:
                hops = routes[key] = abs(key[0] % 4 - key[1]) + key[0] // 4
            heapq.heappush(heap, (t + 20 * hops, misses, line))
            misses += 1
            while heap and heap[0][0] <= t:
                heapq.heappop(heap)
        w1.insert(0, line)
        if len(w1) > 4:
            w1.pop()
    return misses + len(heap)


def _ignore(*_) -> None:
    pass


class Sampler:
    """Samples the host speed while active (``with Sampler() as s``).

    ``kernel_s`` is the wall time the kernel took, ``samples`` the
    number of calls and ``speed_sum`` the sum of their speeds.  Outside
    the main thread, where no signal handler can be set, and when the
    interval ends before the first tick, one call at exit (not counted
    in ``kernel_s``, as it falls after the interval) stands for it.
    """

    def __init__(self) -> None:
        self.kernel_s = 0.0
        self.samples = 0
        self.speed_sum = 0.0
        self._active = False
        self._previous = None

    def _tick(self, *_) -> None:
        start = time.perf_counter()
        kernel()
        took = time.perf_counter() - start
        self.kernel_s += took
        self.samples += 1
        self.speed_sum += REFERENCE_S / took

    def __enter__(self) -> "Sampler":
        if threading.current_thread() is threading.main_thread():
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            self._active = True
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_) -> None:
        if self._active:
            signal.setitimer(signal.ITIMER_REAL, 0)
            # A tick already raised but not yet handled must not meet
            # the default action, which ends the process.
            signal.signal(signal.SIGALRM, self._previous
                          if callable(self._previous) else _ignore)
            self._active = False
        if not self.samples:
            kernel_s = self.kernel_s
            self._tick()
            self.kernel_s = kernel_s

    def record(self) -> Dict[str, float]:
        return {"kernel_s": self.kernel_s, "samples": self.samples,
                "speed_sum": self.speed_sum}


def normalised(seconds: float, record: Dict[str, float],
               threads: int = 1) -> float:
    """``seconds`` of wall time at the reference host speed, given the
    sampler ``record`` of the ``threads`` processes that worked
    through exactly that time side by side."""
    speed = record["speed_sum"] / record["samples"]
    return (seconds - record["kernel_s"] / threads) * speed


def combined(records: List[Dict[str, float]]) -> Dict[str, float]:
    """The sum of several sampler records."""
    return {key: sum(r[key] for r in records)
            for key in ("kernel_s", "samples", "speed_sum")}
