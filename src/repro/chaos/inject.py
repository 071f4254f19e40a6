"""Runtime half of the chaos harness: controller + hook helpers.

A :class:`ChaosController` wraps a :class:`~repro.chaos.plan.FaultPlan`
and answers one question at each *hook point*: "does a fault fire
here, now?".  Hook points are explicit calls threaded through the
production code (``barrier(...)``, ``chaos.check(...)``,
``chaos.arm_task(...)``) — never monkeypatching — and every one of
them starts with a ``None``/not-installed test so the disabled hot
path costs a single attribute load, mirroring the ``NULL_SPAN``
pattern in :mod:`repro.obs.trace`.

Determinism contract:

* trigger state (per-rule call counters, per-rule seeded RNGs) lives
  in the controller, which is consulted only from the single-threaded
  scheduler loop / flow thread — never concurrently from workers;
* worker-side faults are *armed* in the parent: the scheduler asks
  ``arm_task(task, attempt=n)`` and ships the armed directive to the
  worker as a plain picklable tuple on the task, so the same plan
  and seed fault the same windows under any executor.
"""

from __future__ import annotations

import contextlib
import os
import random
import signal
import threading
import time
from dataclasses import dataclass, field

from repro.chaos.plan import FaultPlan, FaultRule
from repro.obs.trace import current_span_names


class ChaosFault(RuntimeError):
    """An injected fault.  Deliberate; carries its site in the message."""


@dataclass
class _RuleState:
    rule: FaultRule
    rng: random.Random
    calls: int = 0
    fires: int = 0


@dataclass
class ChaosController:
    """Evaluates a fault plan's triggers at each hook point.

    Not thread-safe by design: consult it only from the coordinating
    thread (scheduler submit loop, flow thread).  Worker processes
    never see the controller — only armed directives.
    """

    plan: FaultPlan
    _states: list[_RuleState] = field(default_factory=list)
    #: every (site, name) consulted — lets tests and the fuzzer
    #: discover which barrier names a flow actually passes.
    observed: list[tuple[str, str]] = field(default_factory=list)
    _drained: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.plan.validate()
        for index, rule in enumerate(self.plan.faults):
            self._states.append(
                _RuleState(
                    rule=rule,
                    rng=random.Random(self.plan.seed * 100_003 + index),
                )
            )

    # -- trigger evaluation -------------------------------------------

    def check(
        self, site: str, name: str = "", *, attempt: int = 1
    ) -> FaultRule | None:
        """First rule that fires for this call, or None.

        ``name`` is the hook's qualifier (barrier name, task id);
        ``attempt`` is 1-based — rules skip retries unless they opt in
        with ``on_retry`` so injected per-window faults stay transient.
        """
        self.observed.append((site, name))
        fired: FaultRule | None = None
        for state in self._states:
            rule = state.rule
            if rule.site != site:
                continue
            if rule.match and rule.match not in name:
                continue
            if rule.span and not any(
                rule.span in open_name
                for open_name in current_span_names()
            ):
                continue
            if attempt > 1 and not rule.on_retry:
                continue
            state.calls += 1
            if rule.max_fires and state.fires >= rule.max_fires:
                continue
            fires = (
                (rule.nth and state.calls == rule.nth)
                or (rule.every and state.calls % rule.every == 0)
                or (
                    rule.probability
                    and state.rng.random() < rule.probability
                )
            )
            if fires and fired is None:
                state.fires += 1
                fired = rule
        return fired

    def arm_task(self, task, *, attempt: int = 1):
        """Arm worker/solver faults for one window task.

        Returns the task unchanged, or a copy whose ``chaos`` field
        carries a picklable ``(site, action, seconds)`` directive the
        worker applies inside ``WindowTask.run``.
        """
        import dataclasses

        name = task.task_id
        for site in ("runtime.worker", "milp.solve", "runtime.result"):
            rule = self.check(site, name, attempt=attempt)
            if rule is not None:
                return dataclasses.replace(
                    task,
                    chaos=(rule.site, rule.action, rule.seconds),
                )
        return task

    # -- accounting ---------------------------------------------------

    def fires_by_site(self) -> dict[str, int]:
        """Cumulative fires per site over the controller's lifetime."""
        counts: dict[str, int] = {}
        for state in self._states:
            if state.fires:
                site = state.rule.site
                counts[site] = counts.get(site, 0) + state.fires
        return counts

    def total_fires(self) -> int:
        return sum(state.fires for state in self._states)

    def fired_rules(self) -> tuple[FaultRule, ...]:
        """The plan's rules that fired at least once, in plan order.

        A declared rule may never fire: its trigger can miss the
        workload's call census, or another rule can pre-empt it
        (:meth:`check` fires only the first matching rule per call).
        """
        return tuple(
            state.rule for state in self._states if state.fires
        )

    def drain_counts(self) -> dict[str, int]:
        """Fires per site since the last drain (for telemetry)."""
        current = self.fires_by_site()
        delta = {
            site: count - self._drained.get(site, 0)
            for site, count in current.items()
            if count - self._drained.get(site, 0) > 0
        }
        self._drained = current
        return delta


# -- installation: thread-local with global fallback ------------------
# Same shape as repro.obs.trace's tracer installation so the two
# subsystems compose (and so `chaos=None` paths cost one attribute
# load plus an `is None` test).

_TLS = threading.local()
_GLOBAL: ChaosController | None = None
_UNSET = object()


def install(controller: ChaosController | None) -> None:
    """Install a controller globally (all threads without an override)."""
    global _GLOBAL
    _GLOBAL = controller


def uninstall() -> None:
    install(None)


def active_chaos() -> ChaosController | None:
    local = getattr(_TLS, "controller", _UNSET)
    if local is not _UNSET:
        return local
    return _GLOBAL


@contextlib.contextmanager
def chaos_scope(controller: ChaosController | None):
    """Thread-local override, restored on exit (exception-safe)."""
    previous = getattr(_TLS, "controller", _UNSET)
    _TLS.controller = controller
    try:
        yield controller
    finally:
        if previous is _UNSET:
            del _TLS.controller
        else:
            _TLS.controller = previous


# -- hook helpers -----------------------------------------------------


def barrier(name: str) -> None:
    """Named barrier: a crash point the plan can target by name.

    Production call sites sprinkle ``barrier("checkpoint:move[...]")``
    etc. after durability boundaries; with no controller installed
    this is one function call + one ``is None`` test.
    """
    chaos = active_chaos()
    if chaos is None:
        return
    rule = chaos.check("barrier", name)
    if rule is None:
        return
    if rule.action == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    raise ChaosFault(f"barrier[{name}]")


def maybe_crash_worker(directive: tuple | None) -> None:
    """Apply ``crash``/``hang`` before the worker's own error handling.

    A ``crash`` escapes :meth:`WindowTask.run` entirely — the
    scheduler sees an executor failure, like a worker that died; a
    ``hang`` sleeps past the per-task timeout so the deadline path
    fires.
    """
    if directive is None:
        return
    site, action, seconds = directive
    if site != "runtime.worker":
        return
    if action == "crash":
        raise ChaosFault("runtime.worker[crash]")
    if action == "hang":
        time.sleep(seconds)


def maybe_raise_worker(directive: tuple | None) -> None:
    """Apply ``raise`` inside the worker's try block: the exception is
    folded into ``WindowTaskResult.error`` like any solver crash."""
    if directive is None:
        return
    site, action, _seconds = directive
    if site == "runtime.worker" and action == "raise":
        raise ChaosFault("runtime.worker[raise]")


def fault_solution(directive: tuple | None, solution):
    """Swap a solver return for a faulted one per an armed directive."""
    if directive is None:
        return solution
    site, action, _seconds = directive
    if site != "milp.solve":
        return solution
    from repro.milp.solution import Solution, SolveStatus

    if action == "error":
        return Solution(
            status=SolveStatus.ERROR,
            objective=0.0,
            values={},
            message="chaos: injected solver error",
        )
    if action == "infeasible":
        return Solution(
            status=SolveStatus.INFEASIBLE,
            objective=0.0,
            values={},
            message="chaos: injected infeasible",
        )
    if action == "timeout":
        return Solution(
            status=SolveStatus.ERROR,
            objective=0.0,
            values={},
            message="chaos: injected time limit reached",
        )
    return solution


class PoisonPill:
    """Unpicklable stand-in for a result crossing a process boundary.

    ``__reduce__`` raises, so a process-pool worker dies trying to
    ship the result back; serial/thread executors have no pickle
    boundary, so plans using ``runtime.result: poison`` pin
    ``run: {"executor": "process"}``.
    """

    def __reduce__(self):
        raise ChaosFault("runtime.result[poison]")
