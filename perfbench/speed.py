"""The box's speed, read from a fixed reference kernel timed around
each piece of measured work.

On a shared VM the same flow can take 1.7 times as long from one
minute to the next (other tenants slow the CPU rather than take it:
CPU time rises with wall time).  Slow and fast spells last from
seconds to minutes, longer than a run, so no statistic over one run's
flows removes them.  The kernel below does fixed work of the same two
kinds the program does (interpreted Python on dictionaries, and small
HiGHS MILP solves through SciPy) and calls no code of the program, so
a change to the program cannot move it.  Timed just before and just
after a flow, its mean tells how slow the box was during the flow, and

    normalized time = measured time * REFERENCE_S / kernel time

is the flow's time at the speed where the kernel takes
``REFERENCE_S`` (its time on a quiet 2-vCPU Intel Xeon VM).  A change
that makes the program slower makes the measured time, and so the
normalized one, longer by the same factor.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

#: Kernel time on a quiet 2-vCPU Intel Xeon VM (Python 3.11, SciPy 1.17).
REFERENCE_S = 0.25
#: Kernel repetitions; each is one dictionary loop and one MILP solve.
UNITS = 20

_rng = np.random.default_rng(7)
_N = 16
_COST = -_rng.integers(5, 40, _N).astype(float)
_ROWS = _rng.integers(1, 20, (2, _N)).astype(float)
_CONSTRAINTS = LinearConstraint(_ROWS, -np.inf, _ROWS.sum(axis=1) / 3)
_BOUNDS = Bounds(0, 1)
_INTEGRALITY = np.ones(_N)


def _unit() -> None:
    table: dict[int, int] = {}
    for i in range(30000):
        table[i % 977] = table.get(i % 977, 0) + i
    milp(
        _COST,
        constraints=_CONSTRAINTS,
        integrality=_INTEGRALITY,
        bounds=_BOUNDS,
    )


def kernel_s() -> float:
    """Wall time of one run of the reference kernel."""
    t0 = time.perf_counter()
    for _ in range(UNITS):
        _unit()
    return time.perf_counter() - t0


class Speedometer:
    """Times the kernel between pieces of work; each piece is scaled by
    the mean of the kernel times just before and just after it."""

    def __init__(self) -> None:
        _unit()  # first-call costs of SciPy's MILP path
        self.last = kernel_s()
        self.readings = [self.last]

    def scale(self) -> float:
        """Call right after a piece of work: the factor that turns its
        measured time into normalized time.  The reading taken now also
        serves as the "before" reading of the next piece."""
        before, self.last = self.last, kernel_s()
        self.readings.append(self.last)
        return REFERENCE_S / statistics.fmean((before, self.last))
