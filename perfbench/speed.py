"""How fast this machine runs at the moment, from a fixed reference
computation timed between operations.

The machine the benchmark runs on is shared: the same operations take up to
a third longer for seconds or minutes at a time, and runs of one workload
moved by 20-30 % from run to run with the timing left raw.  A run therefore
times `reference()` after every REF_EVERY_S of measured operations (and at
the start and the end of the timed phase), and scales each operation's time
by NOMINAL_S over the mean of the reference times just before and just after
it: the scaled time is what the operation would take on this machine while
the reference takes NOMINAL_S.  The reference is plain interpreter work that
calls nothing of loopfloer, so a change to the program cannot move it; it
runs with the garbage collector off, so that the objects the program keeps
alive do not slow it either.
"""

from __future__ import annotations

import gc
import statistics
import sys
import time
from typing import List

clock = time.perf_counter
# the median reference time on the machine the bounds were set on (two
# cores of a shared x86-64 host, CPython 3.11), so that scaled rates read
# about as the raw ones there
NOMINAL_S = 0.007
REF_EVERY_S = 0.2

# Set-up is mostly starting an interpreter and importing modules, work that
# the drift moves differently from the loop below: scaled by it, the set-up
# times of two sets of ten runs had medians 24 % apart.  Set-up probes are
# therefore paired with this command, a fresh interpreter that imports what
# loopfloer imports from outside itself (numpy and the standard library) but
# not loopfloer, and START_NOMINAL_S is its median wall time on the machine
# the bounds were set on.
START_COMMAND = [sys.executable, "-c",
                 "import numpy, argparse, concurrent.futures, dataclasses, fractions, json"]
START_NOMINAL_S = 0.23


def reference() -> int:
    acc = {}
    s = 0
    for i in range(30000):
        k = i % 97
        acc[k] = acc.get(k, 0) + i
        s ^= (i * 31) & 1023
    return s + len(acc)


class Speed:
    """Reference times taken during a run, in order."""

    def __init__(self):
        self.times: List[float] = []

    def measure(self) -> int:
        """Time the reference once; returns the index of the reading."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = clock()
            reference()
            self.times.append(clock() - t0)
        finally:
            if enabled:
                gc.enable()
        return len(self.times) - 1

    def scale(self, i: int) -> float:
        """Factor for a time taken between readings i and i + 1."""
        return NOMINAL_S / ((self.times[i] + self.times[i + 1]) / 2)

    def median(self) -> float:
        return statistics.median(self.times)
