"""Family-by-family dispatch with timeouts, retries, degradation.

DistOpt hands the scheduler one independent family at a time; the
scheduler fans its windows out over the executor and collects results
keyed by ``task_id`` so the caller can apply them in canonical order.

Failure policy (graceful degradation — a bad window never aborts the
pass):

* solver failure (worker exception or ``ERROR`` status) — retried up
  to ``max_retries`` extra attempts, then recorded as failed;
* per-task timeout — recorded as timed out, never retried (it would
  almost certainly time out again) and its eventual result discarded;
* executor breakdown (e.g. a killed process pool) — remaining tasks
  are run inline in the scheduler thread (serial fallback), marked
  ``degraded`` so telemetry can count the fallback.

When a :class:`~repro.chaos.inject.ChaosController` is attached, the
scheduler *arms* worker/solver faults here — in the single-threaded
submit loop — and ships the directive on the task itself, so fault
placement is deterministic under any executor.
"""

from __future__ import annotations

import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass

from repro.runtime.executors import Executor, SerialExecutor
from repro.runtime.task import WindowTask, WindowTaskResult

from repro.log import subsystem_logger

logger = subsystem_logger("repro.runtime")


@dataclass(frozen=True)
class ScheduleConfig:
    """Dispatch policy knobs.

    Attributes:
        task_timeout: wall-clock budget per solve attempt, measured
            from submission (None = wait forever).  This is a safety
            net *above* the MILP backend's own time limit; it only
            preempts on pool executors (the serial executor solves
            inline at submit time).
        max_retries: extra attempts after a solver failure.
    """

    task_timeout: float | None = None
    max_retries: int = 1

    @classmethod
    def for_time_limit(
        cls, time_limit: float | None
    ) -> "ScheduleConfig":
        """Default policy for a given per-window solver time limit:
        generous enough to never fire on a healthy solve (limit x4
        plus model-transfer slack), tight enough to unstick a hung
        worker."""
        if time_limit is None:
            return cls(task_timeout=None)
        return cls(task_timeout=4.0 * time_limit + 30.0)


class FamilyScheduler:
    """Dispatches one window family at a time over an executor."""

    def __init__(
        self,
        executor: Executor,
        config: ScheduleConfig | None = None,
        *,
        chaos=None,
    ) -> None:
        self.executor = executor
        self.config = config or ScheduleConfig()
        #: optional :class:`~repro.chaos.inject.ChaosController`;
        #: None (production default) adds one ``is None`` test per
        #: submit.
        self.chaos = chaos

    def run_family(
        self, tasks: list[WindowTask]
    ) -> dict[int, WindowTaskResult]:
        """Solve every task; returns results keyed by ``task_id``.

        Never raises: every task gets a result, failed or not.
        """
        results: dict[int, WindowTaskResult] = {}
        attempts = {task.task_id: 0 for task in tasks}
        stashed_spans: dict[int, list[dict]] = {}
        queue = list(tasks)
        while queue:
            in_flight: list[
                tuple[WindowTask, Future, float, bool]
            ] = []
            for task in queue:
                attempts[task.task_id] += 1
                armed = task
                if self.chaos is not None:
                    armed = self.chaos.arm_task(
                        task, attempt=attempts[task.task_id]
                    )
                degraded = False
                try:
                    future = self.executor.submit(armed)
                except Exception as exc:  # noqa: BLE001 — broken pool
                    # A broken pool re-raises its *first* worker's
                    # death at every subsequent submit; recording
                    # that as the task's permanent failure would pin
                    # one historical exception on windows that solve
                    # fine serially.  Degrade instead: run the task
                    # inline in the scheduler thread.
                    logger.warning(
                        "executor refused window (%d,%d) (%r) — "
                        "running inline",
                        task.window.ix, task.window.iy, exc,
                    )
                    future = SerialExecutor().submit(armed)
                    degraded = True
                in_flight.append(
                    (task, future, time.perf_counter(), degraded)
                )
            retry: list[WindowTask] = []
            for task, future, submitted, degraded in in_flight:
                result = self._collect(task, future, submitted)
                result.attempts = attempts[task.task_id]
                result.degraded = degraded
                if (
                    result.error
                    and not result.timed_out
                    and attempts[task.task_id]
                    <= self.config.max_retries
                ):
                    logger.warning(
                        "window (%d,%d) attempt %d failed: %s — "
                        "retrying",
                        task.window.ix, task.window.iy,
                        attempts[task.task_id], result.error,
                    )
                    if result.spans:
                        # Keep the failed attempt's error spans: the
                        # final result carries them so a recovered
                        # window still shows what went wrong.
                        stashed_spans.setdefault(
                            task.task_id, []
                        ).extend(result.spans)
                    retry.append(task)
                    continue
                if stashed_spans.get(task.task_id):
                    result.retry_spans = tuple(
                        stashed_spans[task.task_id]
                    )
                results[task.task_id] = result
            queue = retry
        return results

    def _collect(
        self, task: WindowTask, future: Future, submitted: float
    ) -> WindowTaskResult:
        timeout = self.config.task_timeout
        remaining = None
        if timeout is not None:
            remaining = max(
                0.0, timeout - (time.perf_counter() - submitted)
            )
        try:
            result = future.result(timeout=remaining)
        except FutureTimeoutError:
            future.cancel()
            logger.warning(
                "window (%d,%d) timed out after %.1fs — skipped",
                task.window.ix, task.window.iy, timeout,
            )
            return WindowTaskResult(
                task_id=task.task_id,
                timed_out=True,
                error=f"timed out after {timeout:.1f}s",
            )
        except Exception as exc:  # noqa: BLE001 — broken pool etc.
            return WindowTaskResult(
                task_id=task.task_id, error=f"executor failure: {exc!r}"
            )
        wall = time.perf_counter() - submitted
        # Queue wait = submission-to-result wall minus the work the
        # worker actually did (it builds as well as solves, so both
        # belong to work, not waiting).
        worked = result.build_seconds + result.solve_seconds
        result.queue_seconds = max(0.0, wall - worked)
        return result
