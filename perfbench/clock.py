"""A run clock in reference seconds.

The machine this benchmark was defined on runs Python code at speeds that
differ by up to a factor of two from one moment to the next. Its two
vCPUs share host cores with other tenants, and the slow phases last from
a fraction of a second to minutes. A median of raw wall times over a run
then says more about the neighbours than about projlat.

So while a run lasts, an interval timer interrupts it every TICK_S. The
interrupt times a fixed calibration routine (CALIBRATION_S at the
reference speed) and sets the clock's rate to CALIBRATION_S over the
median of the last three samples. The clock advances at that rate until
the next tick, and the calibration pauses are not counted. The ticks
fire inside long library calls too, so those are scaled by the speed
measured while they ran. On a quiet machine at the reference speed,
reference seconds equal wall seconds. If projlat does more work, the
clock shows it in full. The raw wall time is kept beside the scaled time.
"""

from __future__ import annotations

import gc
import signal
import statistics
from collections import deque
from time import perf_counter

TICK_S = 0.05
# Median time of calibration_sample() at the fast end of what the defining
# machine (Intel Xeon vCPU, Python 3.11) gives.
CALIBRATION_S = 0.0010


def calibration_sample() -> float:
    """Seconds taken by fixed interpreter work, shaped like the searches'
    inner loops: bitmask filtering, tuple permutations, dict grouping."""
    t0 = perf_counter()
    m = 64
    masks = [((i * 2654435761) & ((1 << m) - 1)) | 1 for i in range(m)]
    table = {i: (i * 37) % m for i in range(m)}
    acc = 0
    for r in range(32):
        cand = masks.copy()
        for z in range(m):
            c = cand[z] & ~(1 << ((z + r) % m))
            cand[z] = c if c else 1
            acc += c.bit_count()
        perm = tuple(table[(i + r) % m] for i in range(m))
        acc += sum(perm[perm[i]] for i in range(m))
        groups: dict[int, list[int]] = {}
        for i in range(m):
            groups.setdefault(perm[i] & 7, []).append(i)
        acc += len(groups)
    return perf_counter() - t0


class Clock:
    """Use as a context manager: the timer runs between enter and exit.
    now() gives reference seconds since the clock was made."""

    def __init__(self):
        self.samples: deque[float] = deque((calibration_sample() for _ in range(3)), maxlen=3)
        self.paused = 0.0  # wall seconds spent calibrating
        self.ticks = 0
        self._start = perf_counter()
        # (reference seconds at the last tick, wall time of that tick, rate)
        self._state = (0.0, self._start, self._rate())
        self._in_tick = False

    def _rate(self) -> float:
        return CALIBRATION_S / statistics.median(self.samples)

    def _tick(self, signum, frame) -> None:
        if self._in_tick:
            return
        self._in_tick = True
        t_enter = perf_counter()
        ref, t, rate = self._state
        gc_enabled = gc.isenabled()
        gc.disable()
        self.samples.append(calibration_sample())
        if gc_enabled:
            gc.enable()
        t_exit = perf_counter()
        self._state = (ref + (t_enter - t) * rate, t_exit, self._rate())
        self.paused += t_exit - t_enter
        self.ticks += 1
        self._in_tick = False

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    def now(self) -> float:
        t_now = perf_counter()
        ref, t, rate = self._state
        # a tick between the two reads leaves t > t_now
        return ref + max(0.0, t_now - t) * rate

    def raw_now(self) -> float:
        """Wall seconds since the clock was made, calibration pauses excluded."""
        return perf_counter() - self._start - self.paused
