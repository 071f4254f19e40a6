"""Parallel window-solve execution engine for DistOpt (§4.1).

The paper's Algorithm 2 groups windows into independently-optimizable
families precisely so they can be *distributed*; this package is the
machinery that actually does it:

* :mod:`repro.runtime.task` — :class:`WindowTask`, the picklable
  window subproblem: one window's cell/net slice, which crosses a
  process boundary together with the MILP backend that solves it, and
  which the worker builds, solves and decodes.
* :mod:`repro.runtime.executors` — interchangeable backends that run
  any task with a ``run()`` method, window and shard tasks alike:
  :class:`SerialExecutor` (inline, default), :class:`ThreadExecutor`
  (GIL-releasing solvers), :class:`MultiprocessExecutor`.
* :mod:`repro.runtime.scheduler` — family-by-family dispatch with
  per-task timeout, bounded retry, and graceful degradation.
* :mod:`repro.runtime.telemetry` — the v5 telemetry document as a
  view of a run's span tree: per-window build/queue/solve records,
  per-pass entries, and the speedup-vs-model report.

Determinism contract: solutions are applied in canonical window order
regardless of completion order, so a parallel run produces a placement
byte-identical to the serial run on the same seed.
"""

from repro.runtime.executors import (
    EXECUTOR_KINDS,
    Executor,
    MultiprocessExecutor,
    SerialExecutor,
    ThreadExecutor,
    available_cores,
    make_executor,
)
from repro.runtime.scheduler import FamilyScheduler, ScheduleConfig
from repro.runtime.task import WindowTask, WindowTaskResult
from repro.runtime.telemetry import (
    TELEMETRY_SCHEMA,
    RunTelemetry,
    WindowRecord,
)

__all__ = [
    "EXECUTOR_KINDS",
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "MultiprocessExecutor",
    "make_executor",
    "available_cores",
    "FamilyScheduler",
    "ScheduleConfig",
    "WindowTask",
    "WindowTaskResult",
    "RunTelemetry",
    "WindowRecord",
    "TELEMETRY_SCHEMA",
]

from repro.log import subsystem_logger

logger = subsystem_logger("repro.runtime")
