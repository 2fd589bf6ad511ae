"""A fixed pure-Python loop that measures how fast the machine runs now.

On a shared host the same CPU-bound job runs up to half again slower in
phases that last minutes, longer than a run, so a run's median job time
says as much about the neighbours as about the program.  The benchmark
therefore times this loop between timed items and rescales an item's
CPU seconds (and, on the CPU-bound batch workloads, its wall time) by
``NOMINAL_S`` over the loop's time around it: the item as it would read
on a machine on which the loop takes ``NOMINAL_S``.  The loop does the
kind of work a job does (split, encode, hash, count, sort) on a fixed
input that owes nothing to the program or the seed, and runs with the
garbage collector off, so neither the program's heap nor a change to
the program moves it.
"""

from __future__ import annotations

import bisect
import gc
import time
import zlib

#: The loop's median time on the 2.1 GHz Xeon VM the bounds were set on.
NOMINAL_S = 0.2
#: A batch job outlasts this, so the loop runs between every two jobs;
#: small_jobs, at ~50 ms a job, times it once per ~20 jobs.
EVERY_S = 1.0

_LINES = [" ".join(f"w{(line * 31 + word * 977) % 5003}" for word in range(12))
          for line in range(2500)]
_PASSES = 12


def _loop() -> int:
    # Records are sorted and dropped line by line, so the loop holds well
    # under a MB and never sets a run's peak RSS.
    total = 0
    for _ in range(_PASSES):
        counts: dict[str, int] = {}
        for line in _LINES:
            records = []
            for word in line.split():
                counts[word] = counts.get(word, 0) + 1
                key = word.encode()
                records.append((zlib.crc32(key) & 1, key, len(key)))
            records.sort()
            total += len(records)
        total += len(counts)
    return total


def loop_seconds() -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _loop()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Yardstick:
    """Times the loop between timed items, at most once every ``EVERY_S``,
    and gives any item the factor that rescales it to nominal speed."""

    def __init__(self) -> None:
        #: (midpoint, seconds) of every timing of the loop, in time order.
        self.samples: list[tuple[float, float]] = []
        self.time_loop()

    def time_loop(self) -> None:
        start = time.perf_counter()
        seconds = loop_seconds()
        self.samples.append((start + seconds / 2, seconds))

    def tick(self) -> None:
        """After a timed item: time the loop if ``EVERY_S`` has passed."""
        midpoint, seconds = self.samples[-1]
        if time.perf_counter() - (midpoint + seconds / 2) >= EVERY_S:
            self.time_loop()

    def factor(self, start: float, end: float) -> float:
        """``NOMINAL_S`` over the loop's time at the item's midpoint,
        interpolated between the timings on either side of it."""
        middle = (start + end) / 2
        index = bisect.bisect(self.samples, (middle,))
        if index == 0:
            return NOMINAL_S / self.samples[0][1]
        if index == len(self.samples):
            return NOMINAL_S / self.samples[-1][1]
        (before, loop_before), (after, loop_after) = self.samples[index - 1 : index + 1]
        share = (middle - before) / (after - before)
        return NOMINAL_S / (loop_before + (loop_after - loop_before) * share)
