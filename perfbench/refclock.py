"""A clock that reads in reference-host seconds.

The benchmark runs on shared hosts whose speed swings by up to 2x for
seconds at a time, while CPU time keeps pace with wall time: a neighbour
slows every instruction, it does not take the processor away.  Wall time of
a run then measures the neighbours as much as ssmverify.  This clock
corrects for that.  A fixed pure-Python ``Fraction`` loop, the probe, runs
at every reading and, from a ``SIGALRM`` handler, every ``PROBE_EVERY``
seconds in between.  Each stretch of wall time between two probes is scaled
by ``REFERENCE_PROBE_S`` over the mean duration of those two probes.  A
difference of two readings is therefore the time the span would have taken
on a host where the probe takes ``REFERENCE_PROBE_S``.  The probes' own time
is left out of both the wall and the scaled totals.

The probe does what ssmverify's hot loops do, pure-Python integer and
``Fraction`` arithmetic, so a neighbour slows both alike; nothing in the
probe depends on ssmverify, so a change to ssmverify moves the readings in
full.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

PROBE_ITERATIONS = 600
# About the probe's duration on an unloaded 2-core x86-64 host under
# CPython 3.11; readings there are close to wall seconds.
REFERENCE_PROBE_S = 2.5e-3
PROBE_EVERY = 0.25


def probe(iterations: int = PROBE_ITERATIONS) -> float:
    """Seconds the fixed Fraction loop takes."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, iterations + 1):
        acc += Fraction(i % 7 - 3, i % 5 + 1) * Fraction(i % 3 + 1, 4)
    return time.perf_counter() - start


class RefClock:
    """Use as a context manager; ``read()`` inside it returns the wall and
    reference-host seconds that have passed outside probes since it was
    entered."""

    def __init__(self) -> None:
        self.wall = 0.0
        self.ref = 0.0
        self.probes: list[float] = []
        self._last_end = 0.0
        self._last_took = 0.0
        self._busy = False
        self._old_handler = None

    def _probe(self) -> None:
        if self._busy:  # the timer fired during a reading
            return
        self._busy = True
        try:
            began = time.perf_counter()
            took = probe()
            if self.probes:
                stretch = began - self._last_end
                self.wall += stretch
                self.ref += stretch * 2 * REFERENCE_PROBE_S / (self._last_took + took)
            self.probes.append(took)
            self._last_end, self._last_took = time.perf_counter(), took
        finally:
            self._busy = False

    def read(self) -> tuple[float, float]:
        """(wall seconds, reference-host seconds) so far, after a probe."""
        self._probe()
        return self.wall, self.ref

    def __enter__(self) -> "RefClock":
        self._old_handler = signal.signal(signal.SIGALRM, lambda *_: self._probe())
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY, PROBE_EVERY)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
