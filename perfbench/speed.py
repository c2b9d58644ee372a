"""The machine's speed, sampled while an operation runs.

The box the benchmark runs on shares its cores: the same Python work takes
from 1x to 1.8x its best time, in spells from milliseconds to minutes, and
the whole of one 30 s run can be 50% slower than the next.  Raw operation
times therefore spread more between runs than any code change worth
measuring.  While an operation runs, a SIGALRM timer interrupts it every
INTERVAL_S seconds and times a fixed pure-Python loop (the probe).  The
operation's time with the probes taken out, scaled by how fast the probes
ran against REFERENCE_S, is its time at a fixed reference speed:

    scaled = net_time * mean(REFERENCE_S / probe_time)

The probes are spread evenly in time over the operation, so the mean of
their speeds is the machine's mean speed while the operation ran.  Only the
main thread is interrupted; the program is single-threaded.

A traced operation is not interrupted, since its spans would time the
probes too.  It is probed after it returns instead, for a share
AFTER_SHARE of its time: coarser, but good enough to scale the tracing
overhead.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.005
# The probe's time at the reference speed: near its usual time on the
# 2-core box the README's figures come from (its fastest is about 85 us).
# Scaled times read as the operation would take on that box at that speed.
REFERENCE_S = 100e-6
# An operation too short to be interrupted this often is probed right
# after it returns, until it has this many probes.
MIN_PROBES = 3
AFTER_SHARE = 0.05


def probe_loop() -> Fraction:
    """Fraction arithmetic, the program's own kind of work."""
    total = Fraction(0)
    for i in range(1, 30):
        total += Fraction(i % 7, i % 5 + 1)
    return total


class SpeedProbe:
    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        probe_loop()
        self.samples.append(perf_counter() - t0)

    def start(self, timer: bool = True) -> None:
        """Begin an operation; with timer=False it is not interrupted, and
        factor() probes only after it."""
        self.samples = []
        self._timer = timer
        if timer:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def halt(self) -> float:
        """Stop the timer; the seconds spent in probes since start()."""
        if self._timer:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)
        return sum(self.samples)

    def factor(self, after_s: float = 0.0) -> float:
        """Mean of REFERENCE_S / probe time over the operation's probes,
        after probing for at least after_s more seconds."""
        after = 0.0
        while len(self.samples) < MIN_PROBES or after < after_s:
            self._tick(None, None)
            after += self.samples[-1]
        return sum(REFERENCE_S / s for s in self.samples) / len(self.samples)
