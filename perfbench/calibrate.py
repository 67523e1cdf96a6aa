"""Samples the host's speed while the benchmark runs, to scale its
times to a reference machine speed.

Shared cloud machines change speed by tens of percent from one second
to the next (another tenant on the sibling hyper-thread, for one),
which is the source paper's subject.  :class:`SpeedProbe` runs a tiny
fixed loop of interpreted Python from a ``SIGALRM`` timer every
``INTERVAL_S`` and records how fast it ran.  Work done at speed
``s(t)`` takes ``units / (rate * mean(s))``, so dividing a measured rate
by the mean sampled speed estimates the rate at reference speed.  The
loop uses nothing from the program, so a change to the program never
moves it, and it imports nothing, so it can run from process start.
"""

import signal
import statistics
import time

#: Seconds one probe takes at reference speed (a 2-vCPU Intel Xeon VM
#: with Python 3.11, when no neighbour competes for its core).
REFERENCE_S = 1.6e-4

#: Seconds between two probes.
INTERVAL_S = 0.05


def _probe() -> float:
    total = 0.0
    table = {}
    for i in range(2000):
        total += i * 0.5
        table[i & 255] = total
    return total


class SpeedProbe:
    """Samples speed relative to reference while it is started.

    ``spent`` is the time the probes took so far; callers subtract the
    part that fell inside a timed region from that region's wall time.
    """

    def __init__(self) -> None:
        self.speeds: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        _probe()
        elapsed = time.perf_counter() - start
        self.speeds.append(REFERENCE_S / elapsed)
        self.spent += elapsed

    def start(self) -> "SpeedProbe":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def speed(self, first: int = 0) -> float:
        """Mean speed of the samples from index ``first`` on."""
        return statistics.fmean(self.speeds[first:])
