"""Picklable window subproblems for cross-process execution.

A :class:`WindowTask` is the unit of work the execution engine ships
to a worker.  It comes in two flavors:

* **slice mode** (the DistOpt hot path): the task carries the
  window's *cell/net slice* — a minimal sub-``Design`` holding every
  instance the model build reads plus the movable cells' nets — and
  the build itself (:func:`~repro.core.formulation.build_window_model`
  + presolve) runs inside the worker, so model-construction cost
  parallelizes across the executor instead of serializing in the
  parent.  The worker returns the solve outcome *and* the decoded
  moves ``(cell, column, row, flipped)``; the parent re-applies them
  behind the local-objective guard, which is what keeps parallel runs
  byte-identical to serial ones.
* **model mode** (tests): the task carries a fully-built
  :class:`~repro.milp.model.Model` verbatim and the worker only
  solves it.

Either way the task carries its MILP backend itself — any object
with a ``solve(model)`` method that pickles, such as
:class:`~repro.milp.highs_backend.HighsBackend` — and only plain data
crosses back.

Spans come back the way a shard worker's do: :meth:`WindowTask.run`
records a ``window`` span around the attempt and ``build``,
``presolve`` and ``solve`` spans around the work they name, live,
under :class:`~repro.obs.trace.collecting` seeded from the shipped
trace context, and returns the collector's export.  Which child spans
appear depends only on the task and its outcome, so the tree has the
same shape under every executor.  :class:`WindowTaskResult` carries
each phase's seconds for the pass totals and the scheduler's queue
wait: the phase span's own wall when traced, so the span records add
up to those totals, and a ``perf_counter`` difference otherwise.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.milp.model import Model
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
    #: False when a slice-mode build found nothing optimizable (the
    #: window had no legal candidates); such windows are silently
    #: dropped by the caller, exactly like a parent-side build
    #: returning ``None`` used to be.
    built: bool = True
    #: slice mode: the built problem's touched-net names — the parent
    #: evaluates its local-objective guard over exactly these.
    nets: tuple[str, ...] = ()
    #: slice mode: the built problem's movable cell names (canonical
    #: build order), for snapshot/revert bookkeeping in the parent.
    movable: tuple[str, ...] = ()
    #: slice mode: decoded solution as ``(cell, column, row, flipped)``
    #: per movable cell; None when no usable solution came back.
    moves: tuple[tuple[str, int, int, bool], ...] | None = None
    #: slice mode: candidate dM1 pin pairs in the built model.
    num_pairs: int = 0
    #: slice mode: a solution came back but could not be decoded into
    #: moves (corrupt λ selection).  Deterministic — never retried.
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
        ix/iy: window grid coordinates (for telemetry/debugging).
        family: independent-family index the window belongs to.
        solver: the MILP backend the worker solves with; it crosses
            the process boundary pickled, as is.
        model: a pre-built window MILP (model mode); ``None`` selects
            slice mode, where ``design``/``window``/``params`` +
            ``lx``/``ly``/``allow_flip`` describe the build to run
            inside the worker.
        design: slice mode — the window's cell/net slice (see
            :func:`repro.core.formulation.window_slice`).
        window: slice mode — the window to build.
        params: slice mode — objective weights for the build.
        lx/ly: slice mode — perturbation range (sites/rows).
        allow_flip: slice mode — enable the flip degree of freedom.
        nets: names of the window's touched nets (model-mode metadata;
            slice mode reports them from the worker-side build).
        num_pairs: candidate dM1 pin pairs (model-mode metadata).
        presolve: run :func:`repro.milp.presolve.presolve` on the
            model inside the worker (and lift the solution back), so
            the reduction cost parallelizes with the solves.
        trace: ``(trace_id, parent_span_id)`` shipped by the
            submitting pass when tracing is on; the worker then
            records its window/build/presolve/solve spans live under
            :class:`~repro.obs.trace.collecting` and returns them in
            ``WindowTaskResult.spans``.  ``None`` (tracing off) masks
            every tracer for the task, so its spans are no-ops.
        chaos: armed fault directive ``(site, action, seconds)`` set
            by the scheduler when a fault plan targets this task (see
            :mod:`repro.chaos.inject`); ``None`` — the default and
            the only production value — costs one ``is None`` test.
    """

    task_id: int
    ix: int
    iy: int
    family: int
    solver: object
    model: Model | None = None
    design: "Design | None" = None
    window: "Window | None" = None
    params: "OptParams | None" = None
    lx: int = 0
    ly: int = 0
    allow_flip: bool = False
    nets: tuple[str, ...] = ()
    num_pairs: int = 0
    presolve: bool = True
    trace: tuple[str, str | None] | None = None
    chaos: tuple | None = None

    @classmethod
    def from_slice(
        cls,
        design: "Design",
        window: "Window",
        params: "OptParams",
        *,
        task_id: int,
        family: int,
        solver,
        lx: int,
        ly: int,
        allow_flip: bool,
        presolve: bool = True,
        trace: tuple[str, str | None] | None = None,
    ) -> "WindowTask":
        """Slice-mode task: the worker builds, presolves, and solves."""
        return cls(
            task_id=task_id,
            ix=window.ix,
            iy=window.iy,
            family=family,
            solver=solver,
            design=design,
            window=window,
            params=params,
            lx=lx,
            ly=ly,
            allow_flip=allow_flip,
            presolve=presolve,
            trace=trace,
        )

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
            ix=self.ix,
            iy=self.iy,
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
        decide whether to retry.  Solutions of a presolved model are
        lifted back to the original variable space before they cross
        the boundary — the parent only ever sees original indices.
        """
        started = time.perf_counter()
        build_seconds = 0.0
        presolve_seconds = 0.0
        built = self.model is not None
        nets = self.nets
        movable: tuple[str, ...] = ()
        num_pairs = self.num_pairs
        problem = None
        try:
            if self.chaos is not None:
                from repro.chaos.inject import maybe_raise_worker

                maybe_raise_worker(self.chaos)
            model = self.model
            if model is None:
                from repro.core.formulation import build_window_model

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
                build_seconds = _phase_seconds(phase, t0)
                if problem is None:
                    return WindowTaskResult(
                        task_id=self.task_id,
                        build_seconds=build_seconds,
                        built=False,
                    )
                built = True
                model = problem.model
                nets = tuple(problem.nets)
                movable = tuple(problem.movable)
                num_pairs = problem.num_pairs
            reduction = None
            if self.presolve:
                from repro.milp.presolve import presolve as _presolve

                t0 = time.perf_counter()
                with span("presolve") as phase:
                    reduction = _presolve(model)
                presolve_seconds = _phase_seconds(phase, t0)
                model = reduction.model
            t0 = time.perf_counter()
            with span("solve", num_pairs=num_pairs) as phase:
                solution = self.solver.solve(model)
                if reduction is not None:
                    solution = reduction.lift(solution)
                if self.chaos is not None:
                    from repro.chaos.inject import fault_solution

                    solution = fault_solution(self.chaos, solution)
            solve_seconds = _phase_seconds(phase, t0)
        except Exception as exc:  # noqa: BLE001 — worker boundary
            overhead = build_seconds + presolve_seconds
            return WindowTaskResult(
                task_id=self.task_id,
                solve_seconds=max(
                    0.0, time.perf_counter() - started - overhead
                ),
                build_seconds=build_seconds,
                presolve_seconds=presolve_seconds,
                built=built,
                nets=nets,
                movable=movable,
                num_pairs=num_pairs,
                error=f"{type(exc).__name__}: {exc}",
            )
        error = ""
        timed_out = False
        if solution.status is SolveStatus.ERROR:
            error = solution.message or "solver returned ERROR"
            # A solve that exhausted the backend's own time limit
            # without an incumbent is a timeout, not a transient
            # failure — retrying it would just burn the budget again.
            timed_out = "time limit" in error.lower()
        elif problem is not None and solution.status in (
            SolveStatus.INFEASIBLE,
            SolveStatus.UNBOUNDED,
        ):
            # Window models always admit the identity assignment, so
            # an infeasible/unbounded verdict in slice mode is a
            # solver fault, not a property of the problem — surface
            # it as a retryable error instead of silently dropping
            # the window.
            error = (
                f"solver returned {solution.status.value} for a "
                f"window model"
            )
        moves = None
        apply_error = ""
        if (
            problem is not None
            and not error
            and solution.status.has_solution
        ):
            from repro.core.formulation import solution_moves

            try:
                moves = solution_moves(problem, solution)
            except ValueError as exc:
                apply_error = str(exc)
        return WindowTaskResult(
            task_id=self.task_id,
            solution=solution,
            solve_seconds=solve_seconds,
            presolve_seconds=presolve_seconds,
            build_seconds=build_seconds,
            timed_out=timed_out,
            error=error,
            built=built,
            nets=nets,
            movable=movable,
            moves=moves,
            num_pairs=num_pairs,
            apply_error=apply_error,
        )


def _phase_seconds(phase, t0: float) -> float:
    """Wall seconds of an attempt phase that began at ``t0``: its live
    span's own measurement when the attempt is traced, so the span tree
    and :class:`WindowTaskResult` carry one figure, else the
    ``perf_counter`` difference."""
    if phase is NULL_SPAN:
        return time.perf_counter() - t0
    return phase.wall_seconds
