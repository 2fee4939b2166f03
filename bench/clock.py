"""Wall time rescaled by the speed the machine has right now.

On a shared VM the same single-threaded Python work can take 1.6x longer
for tens of seconds at a time while neighbours load the host; CPU time
slows down with it, so neither wall nor CPU time repeats from one run to
the next.  ``reference_loop`` is a fixed piece of pure-Python work of the
kind cmtop does (list indexing, small-int arithmetic).  ``SpeedClock``
times it between operations, at most every ``SAMPLE_S`` seconds, and
scales the wall time of each stretch of work between two samples by
``REF_NOMINAL_S`` over the mean of the two samples.  The result is in
reference seconds: on a machine where the loop takes ``REF_NOMINAL_S`` it
equals the wall time.  The loop's own time is not counted.
"""

from __future__ import annotations

import time

REF_NOMINAL_S = 0.002
SAMPLE_S = 0.1
_TABLE = [[(i * 7 + j * 3) % 11 for j in range(11)] for i in range(11)]


def reference_loop() -> float:
    """Seconds taken by the fixed reference work (about 2 ms here)."""
    table = _TABLE
    t0 = time.perf_counter()
    acc = 0
    for i in range(14000):
        acc = table[acc][i % 11] + (acc * i) % 5
        acc %= 11
    return time.perf_counter() - t0


class SpeedClock:
    def __init__(self):
        self.ref = reference_loop()
        self.since = time.perf_counter()
        self.scaled = 0.0  # reference seconds so far
        self.wall = 0.0  # wall seconds so far, sampling excluded

    def tick(self, force: bool = False) -> None:
        """Close the current stretch if it is long enough (or if forced)."""
        now = time.perf_counter()
        stretch = now - self.since
        if stretch < SAMPLE_S and not force:
            return
        ref = reference_loop()
        self.scaled += stretch * REF_NOMINAL_S / ((self.ref + ref) / 2)
        self.wall += stretch
        self.ref = ref
        self.since = time.perf_counter()

    def lap(self) -> tuple[float, float]:
        """(reference seconds, wall seconds) since the last lap."""
        self.tick(force=True)
        out = (self.scaled, self.wall)
        self.scaled = self.wall = 0.0
        return out
