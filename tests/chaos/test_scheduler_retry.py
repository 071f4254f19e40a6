"""Satellite regression: a transient first-attempt failure must not
poison the final result, and a broken pool must not pin its first
worker's death on every remaining window."""

from concurrent.futures import Future

from repro.chaos import ChaosController, FaultPlan, FaultRule
from repro.core.distopt import _absorb_spans
from repro.milp.solution import SolveStatus
from repro.obs.trace import Tracer
from repro.runtime import (
    FamilyScheduler,
    RunTelemetry,
    ScheduleConfig,
    SerialExecutor,
)

from tests.runtime._fakes import slice_task


def make_tasks(n=3):
    return [
        slice_task(i, task_id=i, trace=("trace0", "pass0"))
        for i in range(n)
    ]


def span_counters(tasks, results) -> dict:
    """The telemetry counters of ``results`` once their spans are
    absorbed the way DistOpt absorbs them."""
    tracer = Tracer()
    for task in tasks:
        _absorb_spans(tracer, task, results[task.task_id], "applied", 0)
    return RunTelemetry.from_spans(tracer.spans).summary()["counters"]


def test_one_transient_failure_result_used_one_retry():
    """One injected first-attempt failure: the retried result is the
    one used, and telemetry counts exactly one retry."""
    chaos = ChaosController(
        plan=FaultPlan(
            seed=0,
            faults=(
                FaultRule(
                    site="runtime.worker", action="raise", nth=1
                ),
            ),
        )
    )
    scheduler = FamilyScheduler(
        SerialExecutor(), ScheduleConfig(max_retries=1), chaos=chaos
    )
    tasks = make_tasks(3)
    results = scheduler.run_family(tasks)
    assert len(results) == 3
    # every task ends with a usable (OPTIMAL) result — the injected
    # failure was transient and its retry ran clean
    for result in results.values():
        assert result.ok, result.error
        assert result.solution.status is SolveStatus.OPTIMAL
    attempts = sorted(r.attempts for r in results.values())
    assert attempts == [1, 1, 2]

    counters = span_counters(tasks, results)
    assert counters.get("repro_run_retries_total") == 1


class _BrokenExecutor:
    """Refuses every submit, like a pool whose worker was OOM-killed:
    the original bug re-raised that first death for every window."""

    def __init__(self):
        self.submits = 0

    def submit(self, task) -> Future:
        self.submits += 1
        raise RuntimeError("worker died: first worker exception")


def test_broken_pool_degrades_inline_instead_of_reraising():
    executor = _BrokenExecutor()
    scheduler = FamilyScheduler(executor, ScheduleConfig())
    results = scheduler.run_family(make_tasks(3))
    assert executor.submits == 3
    for result in results.values():
        # the historical failure is NOT pinned on these windows
        assert result.ok, result.error
        assert result.degraded  # serial fallback is visible
        assert result.attempts == 1


def test_degraded_windows_counted_in_telemetry():
    scheduler = FamilyScheduler(_BrokenExecutor(), ScheduleConfig())
    tasks = make_tasks(2)
    results = scheduler.run_family(tasks)
    counters = span_counters(tasks, results)
    degradations = counters.get("repro_run_degradations_total", {})
    assert degradations.get("serial_fallback") == 2


def test_retry_spans_survive_on_recovered_result():
    chaos = ChaosController(
        plan=FaultPlan(
            seed=0,
            faults=(
                FaultRule(
                    site="runtime.worker", action="raise", nth=1
                ),
            ),
        )
    )
    tasks = [slice_task(trace=("trace0", None))]
    scheduler = FamilyScheduler(
        SerialExecutor(), ScheduleConfig(max_retries=1), chaos=chaos
    )
    results = scheduler.run_family(tasks)
    result = results[0]
    assert result.ok
    assert result.attempts == 2
    statuses = [
        str(s.get("status", "ok")) for s in result.retry_spans
    ]
    assert any(s.startswith("error:") for s in statuses)
