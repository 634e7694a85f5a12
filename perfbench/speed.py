"""A clock that runs at the machine's reference speed, not at its current one.

On a shared host the speed of a core drifts by up to a third within a minute
(other tenants, frequency changes), and a workload pass of several seconds
takes as long as the machine's speed at that moment allows.  That drift swamps
the change a code edit makes.  ``SpeedClock`` takes it out: while it is active a
timer signal interrupts the program every ``INTERVAL_S`` seconds and, in the
main thread, runs a fixed pure-Python kernel (permutation products, tuple
hashing, dict lookups and bit masks, the operations fuskit spends its time in;
it shares no code with fuskit).  The kernel's time is the machine's speed at
that moment.  The clock advances by the elapsed time outside the handler,
scaled by ``REF_KERNEL_S`` over the kernel's recent time, so an interval that
ran at half speed counts half.  A reading is thus in reference seconds: the
time the same work takes on a machine where the kernel takes ``REF_KERNEL_S``.
Time spent in the handler is left out of the clock.

The kernel runs with the garbage collector off, so the size of fuskit's heap
does not change the kernel's time.  The clock is single-threaded: it uses
SIGALRM and ``setitimer`` in the main thread and starts no thread or process.
"""

from __future__ import annotations

import gc
import signal
import time
from collections import deque

INTERVAL_S = 0.04       # wall time between two kernel runs
SMOOTH = 4              # kernel times averaged for the current speed
# The kernel's median time on the machine the benchmark was sized on (a 2-vCPU
# VM, Python 3.11.7).  It only scales the readings; any constant would do.
REF_KERNEL_S = 0.001

_DEGREE = 12
_GENS = ((1, 0, 3, 2, 5, 4, 7, 6, 9, 8, 11, 10),
         (2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 0, 1),
         (0, 2, 4, 6, 8, 10, 1, 3, 5, 7, 9, 11))
_KERNEL_ELEMENTS = 400


def kernel() -> int:
    """Close a set of permutations of 12 points under three generators until it
    holds _KERNEL_ELEMENTS elements; returns a checksum of the bit mask."""
    start = tuple(range(_DEGREE))
    index = {start: 0}
    frontier = [start]
    mask = 0
    while frontier and len(index) < _KERNEL_ELEMENTS:
        g = frontier.pop()
        for h in _GENS:
            k = tuple(g[i] for i in h)
            if k not in index:
                index[k] = len(index)
                frontier.append(k)
                mask |= 1 << (hash(k) & 255)
    return mask.bit_count() + len(index)


class SpeedClock:
    """Context manager; ``now()`` reads the speed-normalized clock.

    Readings are valid only while the clock is active.  ``samples`` keeps the
    kernel times measured, and ``raw_now()`` reads wall time without the
    handler's share, for the record next to the normalized figures.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._recent: deque[float] = deque(maxlen=SMOOTH)
        self._spent = 0.0          # wall seconds spent in the handler
        self._base_raw = 0.0       # raw_now() at the last speed change
        self._base_norm = 0.0      # now() at the last speed change
        self._factor = 1.0         # reference seconds per raw second
        self._busy = False
        self._version = 0          # bumped when the handler has updated the state
        self._old_handler = None

    def raw_now(self) -> float:
        while True:   # retry when the handler ran in between the two reads
            seen = self._version
            value = time.perf_counter() - self._spent
            if seen == self._version:
                return value

    def now(self) -> float:
        while True:
            seen = self._version
            value = self._base_norm + (time.perf_counter() - self._spent - self._base_raw) * self._factor
            if seen == self._version:
                return value

    def speed_factor(self) -> float:
        """Mean reference seconds per raw second over every kernel run so far."""
        if not self.samples:
            return 1.0
        return REF_KERNEL_S * len(self.samples) / sum(self.samples)

    def _measure(self) -> None:
        entered = time.perf_counter()
        gc_was_on = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            kernel()
            took = time.perf_counter() - t0
        finally:
            if gc_was_on:
                gc.enable()
        # fold the interval that ended at `entered` in at the old speed
        raw = entered - self._spent
        self._base_norm += (raw - self._base_raw) * self._factor
        self._base_raw = raw
        self.samples.append(took)
        self._recent.append(took)
        self._factor = REF_KERNEL_S * len(self._recent) / sum(self._recent)
        self._spent += time.perf_counter() - entered
        self._version += 1

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            self._measure()
        finally:
            self._busy = False

    def __enter__(self) -> "SpeedClock":
        self._old_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        self._base_raw = self.raw_now()
        self._busy = True
        try:
            self._measure()           # the speed at the start
        finally:
            self._busy = False
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
