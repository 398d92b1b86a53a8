"""The host's current speed, sampled with a fixed reference loop.

On a shared host the speed of one core changes by up to 1.6x in episodes
of a few seconds, as other tenants come and go, so the wall time of a job
says as much about the neighbours as about the program.  `HostSpeed`
times a fixed pure-Python loop (`reference`) right before and right after
each job, and every INTERVAL seconds during it from a SIGALRM handler.
`normalized(job_s)` scales a job's wall time by REFERENCE_S over the mean
loop time of those samples: the time the job would take on a host that
runs the loop in REFERENCE_S.  The loop is part of the benchmark, not of
coxrep, so no change to the program moves it.
"""

from __future__ import annotations

import signal
import time

# Loop time on an idle core of the 2-core x86-64 VM the benchmark was
# written on (CPython 3.11): the scale of the normalized times.
REFERENCE_S = 0.00031
INTERVAL = 0.01


def reference() -> int:
    """A fixed amount of interpreter work: integer arithmetic in a loop."""
    total = 0
    for i in range(5000):
        total += i * i % 7
    return total


class HostSpeed:
    def __init__(self):
        self.samples: list[float] = []
        self._busy = False

    def sample(self) -> None:
        if self._busy:  # the timer fired inside a sample
            return
        self._busy = True
        start = time.perf_counter()
        reference()
        self.samples.append(time.perf_counter() - start)
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> int:
        """Sample now; returns the index from which a job's samples count."""
        index = len(self.samples)
        self.sample()
        return index

    def normalized(self, job_s: float, mark: int) -> float:
        """`job_s` scaled to a host that runs the loop in REFERENCE_S, by the
        samples taken since `mark` (call after sampling at the job's end)."""
        window = self.samples[mark:]
        return job_s * REFERENCE_S * len(window) / sum(window)
