"""Interchangeable execution backends for window and shard tasks.

An executor runs any task with a ``run()`` method — a
:class:`~repro.runtime.task.WindowTask` or a shard layer
``ShardTask`` alike — behind one interface, ``submit(task) ->
Future``:

* :class:`SerialExecutor` — runs the task inline in the calling
  process; the default, and the right choice on 1-core CI machines.
* :class:`ThreadExecutor` — a thread pool; HiGHS releases the GIL
  during the native solve.
* :class:`MultiprocessExecutor` — a process pool; the task and its
  result cross the boundary via pickle.

Executors only *run* tasks; dispatch order, timeouts, and retries are
the scheduler's job (:mod:`repro.runtime.scheduler`).
"""

from __future__ import annotations

import os
from concurrent.futures import (
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)

EXECUTOR_KINDS = ("serial", "thread", "process", "auto")


class Executor:
    """Common interface: ``submit`` one task, get a ``Future`` back."""

    name: str = "base"

    def __init__(self, jobs: int = 1) -> None:
        self.jobs = max(1, int(jobs))

    def submit(self, task) -> Future:
        raise NotImplementedError

    def close(self) -> None:
        """Release worker resources without waiting; idempotent."""

    def drain(self) -> None:
        """Graceful teardown: let in-flight tasks finish, discard
        queued work, and join every worker before returning.

        This is the SIGTERM/SIGINT path — after a drain no worker
        thread or process is left behind, so the owning process can
        exit nonzero without orphaning children.  Idempotent.
        """
        self.close()

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        # Context exit drains rather than closes: on the normal path
        # all tasks are already done (drain == close); on an abort
        # (cooperative cancel / SIGTERM between passes) in-flight
        # solves finish and workers are joined, never orphaned.
        self.drain()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(jobs={self.jobs})"


class SerialExecutor(Executor):
    """Runs each task inline at submit time.

    Per-task timeouts cannot preempt an inline solve — bounding solve
    time is the MILP backend's own ``time_limit``'s job here.  An
    exception from ``task.run()`` is left on the future, as a pool
    leaves it.
    """

    name = "serial"

    def __init__(self) -> None:
        super().__init__(jobs=1)

    def submit(self, task) -> Future:
        future: Future = Future()
        try:
            future.set_result(task.run())
        except Exception as exc:  # noqa: BLE001 — left on the future
            future.set_exception(exc)
        return future


class _PoolExecutor(Executor):
    """A stdlib ``concurrent.futures`` pool of ``jobs`` workers."""

    _pool_type: type

    def __init__(self, jobs: int = 2) -> None:
        super().__init__(jobs=jobs)
        self._pool = self._pool_type(max_workers=self.jobs)

    def submit(self, task) -> Future:
        # A bound method pickles as (task, "run"), so a process pool
        # ships the task itself.
        return self._pool.submit(task.run)

    def close(self) -> None:
        self._pool.shutdown(wait=False, cancel_futures=True)

    def drain(self) -> None:
        self._pool.shutdown(wait=True, cancel_futures=True)


class ThreadExecutor(_PoolExecutor):
    """Thread-pool executor for GIL-releasing solver backends."""

    name = "thread"
    _pool_type = ThreadPoolExecutor


class MultiprocessExecutor(_PoolExecutor):
    """Process-pool executor; tasks/results cross via pickle."""

    name = "process"
    _pool_type = ProcessPoolExecutor


def make_executor(kind: str = "auto", jobs: int = 1) -> Executor:
    """Build an executor by name.

    ``auto`` picks :class:`SerialExecutor` for ``jobs <= 1`` and
    :class:`ThreadExecutor` otherwise.  HiGHS releases the GIL while
    it solves, and a window task is small next to the pickling and
    the worker round trip of a process pool: on a 2-vCPU box,
    unsharded ``run_flow`` with two jobs spent 13-24% less time in
    ``opt`` than a serial run on threads, and 7-41% more on processes,
    with the same placement under all three.  Shard tasks are whole
    optimizer runs and keep their process pool, which
    :func:`repro.shard.plan_workers` and the seam pass ask for by
    name.
    """
    kind = (kind or "auto").lower()
    if kind not in EXECUTOR_KINDS:
        raise ValueError(
            f"unknown executor {kind!r}; expected one of {EXECUTOR_KINDS}"
        )
    if kind == "auto":
        kind = "serial" if jobs <= 1 else "thread"
    if kind == "serial":
        return SerialExecutor()
    if kind == "thread":
        return ThreadExecutor(jobs=jobs)
    return MultiprocessExecutor(jobs=jobs)


def available_cores() -> int:
    """Usable CPU count (cgroup-affinity aware where possible)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1
