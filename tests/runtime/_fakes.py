"""Window tasks and module-level fake solver backends for runtime tests
(picklable for process tests).

The fakes that return a solution delegate the solve to
:class:`~repro.milp.highs_backend.HighsBackend`, so a task's worker
decodes real moves from it.
"""

from __future__ import annotations

import dataclasses
import time

from repro.check.generators import generate_case
from repro.core.formulation import window_slice
from repro.milp.highs_backend import HighsBackend
from repro.milp.solution import Solution
from repro.runtime import WindowTask


def slice_task(seed: int = 0, *, task_id: int = 0, solver=None, **fields):
    """The window task production would ship for the check case of
    generator ``seed``: its one window's slice, built and solved in the
    worker (HiGHS unless ``solver`` is given)."""
    case = generate_case(seed)
    return WindowTask(
        task_id=task_id,
        family=0,
        solver=solver or HighsBackend(time_limit=5.0),
        design=window_slice(case.design, case.window),
        window=case.window,
        params=case.params,
        lx=case.lx,
        ly=case.ly,
        allow_flip=case.allow_flip,
        **fields,
    )


class FixedSolveTimeBackend:
    """Solves with HiGHS but reports a caller-chosen ``solve_seconds``."""

    def __init__(self, solve_seconds: float = 0.5) -> None:
        self.solve_seconds = solve_seconds

    def solve_arrays(self, arrays) -> Solution:
        return dataclasses.replace(
            HighsBackend().solve_arrays(arrays),
            solve_seconds=self.solve_seconds,
        )


class SleepyBackend:
    """Sleeps, then solves with HiGHS — for timeout tests."""

    def __init__(self, sleep_seconds: float) -> None:
        self.sleep_seconds = sleep_seconds

    def solve_arrays(self, arrays) -> Solution:
        time.sleep(self.sleep_seconds)
        return HighsBackend().solve_arrays(arrays)


class FlakyBackend:
    """Raises on the first N calls, then solves with HiGHS (retry
    tests).

    State lives on the instance, so this only behaves as intended
    with in-process executors (serial/thread).
    """

    def __init__(self, failures: int = 1) -> None:
        self.failures = failures
        self.calls = 0

    def solve_arrays(self, arrays) -> Solution:
        self.calls += 1
        if self.calls <= self.failures:
            raise RuntimeError(f"flaky failure #{self.calls}")
        return HighsBackend().solve_arrays(arrays)


class AlwaysErrorBackend:
    """Every solve raises — for graceful-degradation tests."""

    def solve_arrays(self, arrays) -> Solution:
        raise RuntimeError("solver is down")


class CorruptBackend:
    """Solves with HiGHS, then selects no candidate at all: every λ
    column of the answer reads 0, so no cell decodes.  Counts its
    calls (in-process executors only)."""

    def __init__(self) -> None:
        self.calls = 0

    def solve_arrays(self, arrays) -> Solution:
        self.calls += 1
        solution = HighsBackend().solve_arrays(arrays)
        return dataclasses.replace(
            solution, values={}, x=solution.x * (arrays.integrality == 0)
        )
