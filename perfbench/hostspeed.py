"""The host's speed, sampled densely while a pass runs.

A shared VM's speed drifts by a third or more over seconds to minutes, so a
raw pass time mostly measures the host.  ``sample_host_speed()`` runs a small
fixed loop of plain Python every ``INTERVAL_S`` seconds of wall time, from a
``SIGALRM`` handler in the measured process itself, so each sample sees the
same vCPU at the same moment as the work around it.  A pass time divided by
the pass's host factor (median sample over ``REFERENCE_S``) is the time the
pass would take on the reference host.

The loop is this file's own code and never changes with the program under
test, so a change to the program moves the normalised figure and a change of
host speed moves it much less (README.md gives the measured spreads).
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager
from typing import Iterator, List

#: Wall time between two samples.
INTERVAL_S = 0.025

#: Iterations of the calibration loop in one sample (about 0.5 ms).
LOOP_STEPS = 3000

#: The calibration loop's time on the reference host.  It only sets the
#: scale of normalised times (a 2-vCPU Intel Xeon VM with CPython 3.11.7 took
#: 0.45-0.8 ms); any fixed value compares two commits the same way.
REFERENCE_S = 0.0005


def calibration_loop(steps: int = LOOP_STEPS) -> int:
    """Fixed interpreter work: list and dict updates and integer arithmetic."""
    state = [0] * 16
    counts = {}
    for step in range(steps):
        slot = (step * 7) & 15
        state[slot] += step
        key = state[slot] & 63
        counts[key] = counts.get(key, 0) + 1
    return len(counts)


@contextmanager
def sample_host_speed() -> Iterator[List[float]]:
    """Time ``calibration_loop`` every ``INTERVAL_S`` inside the block.

    Yields the list the samples (seconds) are appended to; one more sample
    is taken as the block ends, so the list is never empty.  The handler
    that was in force before the block is restored after it.
    """
    samples: List[float] = []

    def take_sample(signum=None, frame=None):
        started = time.perf_counter()
        calibration_loop()
        samples.append(time.perf_counter() - started)

    previous = signal.signal(signal.SIGALRM, take_sample)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    try:
        yield samples
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, previous)
        take_sample()


def host_factor(samples: List[float]) -> float:
    """How much slower than the reference host the samples ran (1.0 = as fast)."""
    return statistics.median(samples) / REFERENCE_S
