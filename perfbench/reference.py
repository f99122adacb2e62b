"""A fixed piece of reference work, timed around every op to gauge the host's speed.

The host's speed drifts by up to a factor of two over seconds to minutes, and
the drift is common to all code: CPU time tracks wall time, so the process is
not waiting, the hardware is running slower.  An op's time divided by the time
of this reference work, measured just before and just after it, cancels most
of that drift.  The reference mixes what the program spends its time on: text
formatting and parsing with dict counting in Python, and numpy sorting,
``unique`` and ``bincount``.  Its inputs are fixed, and it never touches the
program, so a faster program shows as a smaller ratio.
"""

from __future__ import annotations

import time

import numpy as np


SIZE = 15_000  # ~40 ms of work on the host used for the baseline


class Reference:
    """Fixed inputs, built once; ``time()`` runs the work and returns seconds."""

    def __init__(self) -> None:
        size = SIZE
        rng = np.random.default_rng(20_240_801)
        self.keys = rng.integers(0, 1 << 20, 4 * size)
        self.vals = rng.integers(0, 6, 4 * size)
        self.pairs = list(zip(self.keys[:size].tolist(), self.vals[:size].tolist()))

    def time(self) -> float:
        start = time.perf_counter()
        text = "\n".join(f"{a} {b}" for a, b in self.pairs)
        counts: dict[str, int] = {}
        for line in text.split("\n"):
            a, b = line.split(" ")
            counts[a] = counts.get(a, 0) + int(b)
        order = np.lexsort((self.vals, self.keys))
        np.unique(self.keys[order])
        np.bincount(self.vals[order], minlength=8)
        return time.perf_counter() - start
