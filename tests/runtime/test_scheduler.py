"""Scheduler tests: retry, timeout, graceful degradation, ordering."""

import pytest

from repro.chaos import ChaosController, FaultPlan, FaultRule
from repro.runtime import (
    FamilyScheduler,
    ScheduleConfig,
    SerialExecutor,
    ThreadExecutor,
)

from tests.runtime._fakes import (
    AlwaysErrorBackend,
    FlakyBackend,
    SleepyBackend,
    slice_task,
)


def make_tasks(backend=None, n=3):
    return [slice_task(i, task_id=i, solver=backend) for i in range(n)]


def test_results_keyed_by_canonical_task_id():
    tasks = make_tasks(n=4)
    scheduler = FamilyScheduler(SerialExecutor())
    results = scheduler.run_family(tasks)
    assert sorted(results) == [t.task_id for t in tasks]
    assert all(results[i].ok for i in results)


def test_retry_recovers_from_transient_failure():
    backend = FlakyBackend(failures=1)
    tasks = make_tasks(backend, n=1)
    scheduler = FamilyScheduler(
        SerialExecutor(), ScheduleConfig(max_retries=2)
    )
    results = scheduler.run_family(tasks)
    assert results[0].ok
    assert results[0].attempts == 2
    assert backend.calls == 2


def test_retry_is_bounded():
    backend = FlakyBackend(failures=10)
    tasks = make_tasks(backend, n=1)
    scheduler = FamilyScheduler(
        SerialExecutor(), ScheduleConfig(max_retries=2)
    )
    results = scheduler.run_family(tasks)
    assert not results[0].ok
    assert results[0].attempts == 3  # 1 try + 2 retries
    assert "flaky" in results[0].error
    assert backend.calls == 3


def test_always_failing_solver_degrades_gracefully():
    tasks = make_tasks(AlwaysErrorBackend(), n=3)
    scheduler = FamilyScheduler(
        SerialExecutor(), ScheduleConfig(max_retries=1)
    )
    results = scheduler.run_family(tasks)  # must not raise
    assert len(results) == 3
    assert all(not r.ok for r in results.values())
    assert all("solver is down" in r.error for r in results.values())


def test_timeout_marks_task_and_pass_continues():
    slow = slice_task(0, task_id=0, solver=SleepyBackend(5.0))
    fast = slice_task(1, task_id=1, solver=SleepyBackend(0.0))
    with ThreadExecutor(jobs=2) as executor:
        scheduler = FamilyScheduler(
            executor, ScheduleConfig(task_timeout=0.5, max_retries=1)
        )
        results = scheduler.run_family([slow, fast])
    assert results[0].timed_out
    assert not results[0].ok
    assert results[0].attempts == 1  # timeouts are never retried
    assert results[1].ok


@pytest.mark.parametrize(
    "action, attempts, timed_out",
    [
        (None, 1, False),
        ("error", 2, False),
        ("infeasible", 2, False),
        ("timeout", 1, True),
    ],
    ids=["clean", "error", "infeasible", "timeout"],
)
def test_verdict_on_each_solver_outcome(action, attempts, timed_out):
    """A window whose first solve errs or comes back infeasible is
    retried and recovers the clean run's moves; one that hits the
    solver's time limit is marked timed out and never retried."""
    chaos = None
    if action is not None:
        rule = FaultRule(site="milp.solve", action=action, nth=1)
        chaos = ChaosController(plan=FaultPlan(seed=0, faults=(rule,)))
    scheduler = FamilyScheduler(
        SerialExecutor(), ScheduleConfig(max_retries=1), chaos=chaos
    )
    result = scheduler.run_family([slice_task(1)])[0]
    assert result.attempts == attempts
    assert result.timed_out is timed_out
    if timed_out:
        assert "time limit" in result.error
        assert result.moves is None
    else:
        assert result.error == ""
        assert result.moves == slice_task(1).run().moves
        assert result.moves is not None


def test_queue_seconds_accounted():
    tasks = make_tasks(SleepyBackend(0.05), n=2)
    with ThreadExecutor(jobs=1) as executor:  # forced queuing
        scheduler = FamilyScheduler(executor)
        results = scheduler.run_family(tasks)
    assert all(r.ok for r in results.values())
    # With one worker the second task waits for the first.
    assert results[1].queue_seconds >= 0.0


def test_for_time_limit_policy():
    assert ScheduleConfig.for_time_limit(None).task_timeout is None
    config = ScheduleConfig.for_time_limit(5.0)
    assert config.task_timeout == pytest.approx(50.0)
