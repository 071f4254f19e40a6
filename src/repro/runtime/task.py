"""Picklable window subproblems for cross-process execution.

A :class:`WindowTask` is the unit of work the execution engine ships
to a worker.  It carries the window's *cell/net slice* — a minimal
sub-``Design`` holding every instance the model build reads plus the
movable cells' nets — and the MILP backend to solve with: any object
with a ``solve_arrays(arrays)`` method that pickles, such as
:class:`~repro.milp.highs_backend.HighsBackend`.  The worker builds
the model (:func:`~repro.core.formulation.build_window_model` writes
it reduced, as solver arrays), solves it and decodes the moves from
its λ columns, so all of that parallelizes across the executor
instead of serializing in the parent.  Only plain data crosses back:
the solve outcome and the decoded moves ``(cell, column, row,
flipped)``, which the parent re-applies behind the local-objective
guard — what keeps parallel runs byte-identical to serial ones.

Spans come back the way a shard worker's do: :meth:`WindowTask.run`
records a ``window`` span around the attempt and ``build`` and
``solve`` spans around the work they name, live (the ``solve`` span
carries HiGHS' ``mip_node_count`` and ``simplex_iteration_count``
where the backend reports them),
under :class:`~repro.obs.trace.collecting` seeded from the shipped
trace context, and returns the collector's export.  Which child spans
appear depends only on the task and its outcome, so the tree has the
same shape under every executor.  :class:`WindowTaskResult` carries
each phase's seconds for the pass totals and the scheduler's queue
wait: the phase span's own wall when traced, so the span records add
up to those totals, and a ``perf_counter`` difference otherwise.
``presolve_seconds`` is always 0.0: the build writes its model
already reduced, and the field stays because saved telemetry and
checkpoints carry it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.milp.solution import Solution, SolveStatus
from repro.obs.trace import NULL_SPAN, collecting, span

if TYPE_CHECKING:  # circular-import guard: formulation is heavy
    from repro.core.params import OptParams
    from repro.core.window import Window
    from repro.netlist.design import Design


@dataclass
class WindowTaskResult:
    """What comes back from one window-solve attempt."""

    task_id: int
    solution: Solution | None = None
    solve_seconds: float = 0.0
    presolve_seconds: float = 0.0
    build_seconds: float = 0.0
    queue_seconds: float = 0.0
    attempts: int = 1
    timed_out: bool = False
    error: str = ""
    #: False when the build found nothing optimizable (the window had
    #: no legal candidates); such windows are silently dropped by the
    #: caller.
    built: bool = True
    #: the built problem's touched-net names — the parent evaluates
    #: its local-objective guard over exactly these.
    nets: tuple[str, ...] = ()
    #: the built problem's movable cell names (canonical build order),
    #: for snapshot/revert bookkeeping in the parent.
    movable: tuple[str, ...] = ()
    #: decoded solution as ``(cell, column, row, flipped)`` per
    #: movable cell; None when no usable solution came back.
    moves: tuple[tuple[str, int, int, bool], ...] | None = None
    #: candidate dM1 pin pairs in the built model.
    num_pairs: int = 0
    #: a solution came back but could not be decoded into moves
    #: (corrupt λ selection).  Deterministic — never retried.
    apply_error: str = ""
    #: finished span dicts the worker recorded live when the task
    #: carried a trace context, children before their ``window`` root;
    #: the submitting side absorbs them in canonical task order (see
    #: :mod:`repro.obs.trace`).
    spans: tuple[dict, ...] = ()
    #: the scheduler ran this task inline after the executor refused
    #: it (broken pool) — graceful serial degradation, counted in
    #: telemetry as ``repro_run_degradations_total``.
    degraded: bool = False
    #: span dicts from earlier failed attempts of the same task, so a
    #: retried-then-recovered window still shows its ``error:`` spans
    #: in the trace.
    retry_spans: tuple[dict, ...] = ()

    @property
    def ok(self) -> bool:
        """True when a usable (optimal/feasible) solution came back."""
        return (
            not self.error
            and self.solution is not None
            and self.solution.status.has_solution
        )


@dataclass(frozen=True)
class WindowTask:
    """Self-contained, picklable window subproblem.

    Attributes:
        task_id: canonical (submission-order) id; solutions are applied
            in ascending ``task_id`` order regardless of completion
            order, which is what makes parallel runs deterministic.
        family: independent-family index the window belongs to.
        solver: the MILP backend the worker solves with; it crosses
            the process boundary pickled, as is.
        design: the window's cell/net slice (see
            :func:`repro.core.formulation.window_slice`).
        window: the window to build; its ``ix``/``iy`` grid
            coordinates label the task in spans and logs.
        params: objective weights for the build.
        lx/ly: perturbation range (sites/rows).
        allow_flip: enable the flip degree of freedom.
        trace: ``(trace_id, parent_span_id)`` shipped by the
            submitting pass when tracing is on; the worker then
            records its window/build/solve spans live under
            :class:`~repro.obs.trace.collecting` and returns them in
            ``WindowTaskResult.spans``.  ``None`` (tracing off) masks
            every tracer for the task, so its spans are no-ops.
        chaos: armed fault directive ``(site, action, seconds)`` set
            by the scheduler when a fault plan targets this task (see
            :mod:`repro.chaos.inject`); ``None`` — the default and
            the only production value — costs one ``is None`` test.
    """

    task_id: int
    family: int
    solver: object
    design: "Design"
    window: "Window"
    params: "OptParams"
    lx: int
    ly: int
    allow_flip: bool
    trace: tuple[str, str | None] | None = None
    chaos: tuple | None = None

    def run(self) -> WindowTaskResult:
        """Execute the task; when a trace context rides along, record
        the window's span tree live and return it in ``result.spans``
        (children first, the ``window`` root last)."""
        if self.chaos is not None:
            from repro.chaos.inject import maybe_crash_worker

            maybe_crash_worker(self.chaos)
        with collecting(self.trace) as collector, span(
            "window",
            task_id=self.task_id,
            ix=self.window.ix,
            iy=self.window.iy,
            family=self.family,
        ) as root:
            result = self._run()
            # Result faults apply before the root closes so a lost
            # result still leaves an ``error:solve`` span in the trace.
            if self.chaos is not None:
                result = self._fault_result(result)
            if self.trace is not None and (
                result.error or result.apply_error
            ):
                root.status = (
                    "error:solve" if result.error else "error:apply"
                )
        result.spans = tuple(collector.export())
        return result

    def _fault_result(self, result: WindowTaskResult) -> WindowTaskResult:
        """Apply an armed ``runtime.result`` directive to the outcome."""
        site, action, _seconds = self.chaos
        if site != "runtime.result":
            return result
        if action == "lost":
            return WindowTaskResult(
                task_id=self.task_id,
                error="chaos: result lost in transit",
            )
        if action == "poison":
            from repro.chaos.inject import PoisonPill

            result.solution = PoisonPill()
        return result

    def _run(self) -> WindowTaskResult:
        """Execute one build+solve attempt; never raises.

        Runs inside the worker (process, thread, or inline for the
        serial executor).  Solver exceptions and ``ERROR`` statuses are
        folded into ``WindowTaskResult.error`` so the scheduler can
        decide whether to retry.  Solutions are decoded into moves
        before they cross the boundary.
        """
        from repro.core.formulation import (
            build_window_model,
            solution_moves,
        )

        started = time.perf_counter()
        result = WindowTaskResult(task_id=self.task_id, built=False)
        try:
            if self.chaos is not None:
                from repro.chaos.inject import maybe_raise_worker

                maybe_raise_worker(self.chaos)
            t0 = time.perf_counter()
            with span("build") as phase:
                problem = build_window_model(
                    self.design,
                    self.window,
                    self.params,
                    lx=self.lx,
                    ly=self.ly,
                    allow_flip=self.allow_flip,
                )
            result.build_seconds = _phase_seconds(phase, t0)
            if problem is None:
                return result
            result.built = True
            result.nets = tuple(problem.nets)
            result.movable = tuple(problem.movable)
            result.num_pairs = problem.num_pairs
            t0 = time.perf_counter()
            with span("solve", num_pairs=problem.num_pairs) as phase:
                solution = self.solver.solve_arrays(problem.arrays)
                if self.chaos is not None:
                    from repro.chaos.inject import fault_solution

                    solution = fault_solution(self.chaos, solution)
                if solution.mip_node_count is not None:
                    phase.set(
                        mip_node_count=solution.mip_node_count,
                        simplex_iteration_count=(
                            solution.simplex_iteration_count
                        ),
                    )
            result.solve_seconds = _phase_seconds(phase, t0)
        except Exception as exc:  # noqa: BLE001 — worker boundary
            result.solve_seconds = max(
                0.0,
                time.perf_counter() - started - result.build_seconds,
            )
            result.error = f"{type(exc).__name__}: {exc}"
            return result
        result.solution = solution
        if solution.status is SolveStatus.ERROR:
            result.error = solution.message or "solver returned ERROR"
            # A solve that exhausted the backend's own time limit
            # without an incumbent is a timeout, not a transient
            # failure — retrying it would just burn the budget again.
            result.timed_out = "time limit" in result.error.lower()
        elif solution.status in (
            SolveStatus.INFEASIBLE,
            SolveStatus.UNBOUNDED,
        ):
            # Window models always admit the identity assignment, so
            # an infeasible/unbounded verdict is a solver fault, not a
            # property of the problem — surface it as a retryable
            # error instead of silently dropping the window.
            result.error = (
                f"solver returned {solution.status.value} for a "
                f"window model"
            )
        elif solution.status.has_solution:
            try:
                result.moves = solution_moves(problem, solution)
            except ValueError as exc:
                result.apply_error = str(exc)
        return result


def _phase_seconds(phase, t0: float) -> float:
    """Wall seconds of an attempt phase that began at ``t0``: its live
    span's own measurement when the attempt is traced, so the span tree
    and :class:`WindowTaskResult` carry one figure, else the
    ``perf_counter`` difference."""
    if phase is NULL_SPAN:
        return time.perf_counter() - t0
    return phase.wall_seconds
