"""Host speed probe: a fixed slice of pure-Python work, timed between queries.

On a shared host the CPU's speed swings between states about 1.7x apart
that last from one to tens of seconds, so a whole run can land in a slow
stretch.  The harness runs this slice every ``INTERVAL_S`` between queries
and scales each query's time by ``REFERENCE_SLICE_S`` / (median of the
slices nearest to it): a query run in a slow stretch then reads about what it
would read at the reference speed.  The slice runs no hilbertfn code, so a
change to the program moves the scaled times exactly as much as the raw
ones.  The raw times are printed beside them.
"""

from __future__ import annotations

import statistics
import time
from math import comb

# Median slice time on the reference machine (2-vCPU Linux VM, Python 3.11.7).
REFERENCE_SLICE_S = 0.0015

INTERVAL_S = 0.05

# Slices per local estimate: about half a second, shorter than the host's
# speed states.
WINDOW = 9

# The work resembles the engine's: exponent tuples, componentwise max,
# dict updates and binomials.
_GENS = [(i % 5, (i * 3) % 7, (i * 5) % 4, i % 3) for i in range(24)]


def _slice() -> int:
    acc: dict[tuple[int, ...], int] = {}
    for a in _GENS:
        for b in _GENS:
            m = tuple(max(x, y) for x, y in zip(a, b))
            acc[m] = acc.get(m, 0) + comb(sum(m) + 3, 3)
    return len(acc)


class SpeedProbe:
    """Collects slice times; a factor converts raw seconds to reference seconds."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = time.perf_counter()

    def sample(self) -> None:
        t0 = time.perf_counter()
        _slice()
        self._last = time.perf_counter()
        self.samples.append(self._last - t0)

    def due(self) -> bool:
        return time.perf_counter() - self._last >= INTERVAL_S

    def factor(self) -> float:
        """One factor from all samples."""
        return REFERENCE_SLICE_S / statistics.median(self.samples)

    def local_factor(self, mark: int) -> float:
        """Factor for work done when ``mark`` samples had been taken: the
        median of the ``WINDOW`` samples around that point."""
        lo = max(0, min(mark - WINDOW // 2, len(self.samples) - WINDOW))
        return REFERENCE_SLICE_S / statistics.median(self.samples[lo : lo + WINDOW])
