"""Executor backend tests: serial, thread, process, factory."""

import time

import pytest

from repro.runtime import (
    EXECUTOR_KINDS,
    MultiprocessExecutor,
    SerialExecutor,
    ThreadExecutor,
    make_executor,
)

from tests.runtime._fakes import SleepyBackend, slice_task


def batch(n=4):
    return [slice_task(i, task_id=i) for i in range(n)]


def sleepy_batch(n, sleep_seconds=0.3):
    backend = SleepyBackend(sleep_seconds)
    return [slice_task(i, task_id=i, solver=backend) for i in range(n)]


def run_batch(executor, tasks):
    futures = [executor.submit(t) for t in tasks]
    return [f.result(timeout=60) for f in futures]


@pytest.mark.parametrize(
    "factory",
    [
        SerialExecutor,
        lambda: ThreadExecutor(jobs=2),
        lambda: MultiprocessExecutor(jobs=2),
    ],
    ids=["serial", "thread", "process"],
)
def test_executors_solve_batches_identically(factory):
    tasks = batch()
    serial = run_batch(SerialExecutor(), tasks)
    with factory() as executor:
        results = run_batch(executor, tasks)
    assert [r.task_id for r in results] == [t.task_id for t in tasks]
    for result, expected in zip(results, serial):
        assert result.ok, result.error
        assert result.moves is not None
        assert result.moves == expected.moves
        assert result.solution.objective == expected.solution.objective
        assert result.solve_seconds >= 0.0


def test_make_executor_auto_matches_jobs():
    with make_executor("auto", jobs=1) as ex:
        assert isinstance(ex, SerialExecutor)
    with make_executor("auto", jobs=2) as ex:
        assert isinstance(ex, ThreadExecutor)
        assert ex.jobs == 2


@pytest.mark.parametrize("kind", ["serial", "thread", "process"])
def test_make_executor_explicit_kinds(kind):
    assert kind in EXECUTOR_KINDS
    with make_executor(kind, jobs=2) as ex:
        assert ex.name == kind
        [result] = run_batch(ex, batch(1))
        assert result.ok


def test_make_executor_rejects_unknown_kind():
    with pytest.raises(ValueError):
        make_executor("gpu", jobs=2)


def test_serial_executor_is_single_job():
    assert SerialExecutor().jobs == 1


def test_close_is_idempotent():
    executor = ThreadExecutor(jobs=1)
    executor.close()
    executor.close()


def _wait_until_in_flight(futures, timeout=30.0):
    """Block until every future has been picked up by a worker —
    drain's guarantee is about in-flight work, so start it first."""
    deadline = time.time() + timeout
    while time.time() < deadline:
        if all(f.running() or f.done() for f in futures):
            return
        time.sleep(0.01)
    pytest.fail("submitted tasks never started running")


@pytest.mark.parametrize(
    "factory",
    [lambda: ThreadExecutor(jobs=2), lambda: MultiprocessExecutor(jobs=2)],
    ids=["thread", "process"],
)
def test_drain_waits_for_in_flight_tasks(factory):
    """Satellite: drain() blocks until every task a worker picked up
    has finished — the graceful-shutdown path relies on this to avoid
    orphaning window solves."""
    executor = factory()
    try:
        futures = [
            executor.submit(t) for t in sleepy_batch(2, 0.3)
        ]
        _wait_until_in_flight(futures)
        executor.drain()
        assert all(f.done() for f in futures)
        for future in futures:
            result = future.result(timeout=0)  # already resolved
            assert result.ok, result.error
    finally:
        executor.close()
    executor.drain()  # idempotent after close


def test_context_exit_drains_in_flight_tasks():
    """Leaving the ``with`` block — including via an exception, as the
    SIGTERM abort path does — must join workers, not abandon them."""
    with pytest.raises(RuntimeError, match="abort"):
        with MultiprocessExecutor(jobs=2) as executor:
            futures = [
                executor.submit(t) for t in sleepy_batch(2, 0.3)
            ]
            _wait_until_in_flight(futures)
            raise RuntimeError("abort mid-pass")
    assert all(f.done() for f in futures)
    assert all(f.result(timeout=0).ok for f in futures)
