"""Scheduler tests: retry, timeout, graceful degradation, ordering."""

import pytest

from repro.milp.highs_backend import HighsBackend
from repro.runtime import (
    FamilyScheduler,
    ScheduleConfig,
    SerialExecutor,
    ThreadExecutor,
    WindowTask,
)

from tests.runtime._fakes import (
    AlwaysErrorBackend,
    FlakyBackend,
    SleepyBackend,
    tiny_model,
)


def make_tasks(backend, n=3):
    return [
        WindowTask(
            task_id=i, ix=i, iy=0, family=0,
            model=tiny_model(f"m{i}"), solver=backend,
        )
        for i in range(n)
    ]


def test_results_keyed_by_canonical_task_id():
    backend = HighsBackend(time_limit=5.0)
    tasks = [
        WindowTask(
            task_id=i, ix=i, iy=0, family=0,
            model=tiny_model(f"m{i}"), solver=backend,
        )
        for i in range(4)
    ]
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
    slow = make_tasks(SleepyBackend(5.0), n=1)[0]
    fast = make_tasks(SleepyBackend(0.0), n=2)[1]
    fast = WindowTask(
        task_id=1, ix=1, iy=0, family=0,
        model=tiny_model("fast"), solver=fast.solver,
    )
    with ThreadExecutor(jobs=2) as executor:
        scheduler = FamilyScheduler(
            executor, ScheduleConfig(task_timeout=0.5, max_retries=1)
        )
        results = scheduler.run_family([slow, fast])
    assert results[0].timed_out
    assert not results[0].ok
    assert results[0].attempts == 1  # timeouts are never retried
    assert results[1].ok


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
