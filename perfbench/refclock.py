"""Wall time scaled to a fixed reference speed of the machine.

On a shared machine the speed of one core drifts by 20% and more within
seconds, with the program unchanged: neighbours load the host.  Every
end-to-end time of this benchmark is therefore a *reference-speed* time.  A
fixed pure-Python loop (`reference_work`, about 0.2 ms) runs between
queries, at most once every TICK_S seconds, several times around every
set-up and global phase, and every SIDE_S seconds from a side thread during
calls that cannot be interrupted for it.  A measured interval is multiplied by NOMINAL_S
divided by the mean time of the loop over the calibrations around it.  A
change to the program moves its own time and not the loop's, so a gain or
a regression shows in full while the machine's drift cancels.  The raw wall
times are printed beside the scaled ones.
"""

from __future__ import annotations

import contextlib
import threading
from bisect import bisect_left, bisect_right
from time import perf_counter, thread_time

# A reference-speed second is a second of a machine on which one call of
# reference_work() takes NOMINAL_S (it takes 0.15-0.3 ms on the 2-core box
# the bounds were set on, depending on the box's load).
NOMINAL_S = 0.00025
# Calibrations on each side of an interval that its factor averages over.
SPAN = 4
# Least time between calibrations made between queries, and between those
# made from a side thread (each takes the interpreter lock from the program).
TICK_S = 0.01
SIDE_S = 0.05
_MASK = (1 << 64) - 1


def reference_work() -> int:
    """Fixed work of the kinds a query does: tuple keys, set and dict
    lookups, 64-bit integer mixing and list growth."""
    seen: set[tuple[str, int]] = set()
    table: dict[int, int] = {}
    out: list[int] = []
    x = 0x9E3779B97F4A7C15
    for i in range(250):
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        key = ("L", x & 1023)
        if key not in seen:
            seen.add(key)
            out.append(i)
        table[x & 511] = table.get((x >> 7) & 511, 0) + i
    return len(out) + len(table)


class RefClock:
    def __init__(self) -> None:
        self._samples: list[tuple[float, float, float]] = []  # (start, end, loop time)
        self._starts: list[float] = []  # sorted starts, rebuilt when stale
        self._due = 0.0

    def calibrate(self, times: int = 1) -> None:
        """Time reference_work() `times` times, each in this thread's CPU
        time, which counts the machine's slowness but not waits for the
        interpreter lock."""
        for _ in range(times):
            start = perf_counter()
            c0 = thread_time()
            reference_work()
            cpu = thread_time() - c0
            self._samples.append((start, perf_counter(), cpu))
        self._due = perf_counter() + TICK_S

    def tick(self) -> None:
        """Calibrate if the last calibration is older than TICK_S."""
        if perf_counter() >= self._due:
            self.calibrate()

    @contextlib.contextmanager
    def background(self):
        """Calibrate every SIDE_S from another thread while the body runs
        code that cannot be interrupted for it (a whole `lcmd bench`)."""
        stop = threading.Event()

        def loop() -> None:
            while not stop.wait(SIDE_S):
                self.calibrate()

        worker = threading.Thread(target=loop, name="refclock", daemon=True)
        worker.start()
        try:
            yield
        finally:
            stop.set()
            worker.join()

    def _sorted(self) -> list[tuple[float, float, float]]:
        if len(self._starts) != len(self._samples):
            self._samples.sort()
            self._starts = [s for s, _, _ in self._samples]
        return self._samples

    def factor(self, t0: float, t1: float) -> float:
        """NOMINAL_S over the mean loop time of the calibrations made during
        t0..t1 and of SPAN calibrations on each side of it."""
        samples = self._sorted()
        lo = max(0, bisect_right(self._starts, t0) - SPAN)
        hi = min(len(samples), bisect_left(self._starts, t1) + SPAN)
        window = [cpu for _, _, cpu in samples[lo:hi]]
        return NOMINAL_S * len(window) / sum(window)

    def total(self) -> tuple[float, float]:
        """(raw, scaled) time from the first calibration to the last, without
        the calibrations: each gap between two calibrations is scaled by the
        factor around it."""
        samples = self._sorted()
        raw = scaled = 0.0
        for i in range(1, len(samples)):
            gap = samples[i][0] - samples[i - 1][1]
            raw += gap
            scaled += gap * self.factor(samples[i - 1][0], samples[i][0])
        return raw, scaled
