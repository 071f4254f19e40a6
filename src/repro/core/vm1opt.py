"""Algorithm 1: VM1Opt — the metaheuristic outer loop.

For each parameter set u in the sequence U, alternate a perturbation
pass (DistOpt with u.lx/u.ly, flips off) and a flip pass (DistOpt with
zero displacement, flips on), shifting the window grid between
iterations so boundary cells get optimized, until the normalized
objective improvement drops below θ.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.chaos.inject import barrier as chaos_barrier
from repro.core.checkpoint import VM1Checkpoint
from repro.core.dirty import DirtyTracker
from repro.core.distopt import DistOptResult, PassTotals, dist_opt
from repro.core.objective import calculate_objective
from repro.core.params import OptParams
from repro.milp.highs_backend import HighsBackend
from repro.netlist.design import Design
from repro.obs.trace import current_context, span
from repro.runtime import RunTelemetry, ScheduleConfig, SerialExecutor

#: Hard cap on inner iterations per parameter set (safety net; the
#: θ = 1% test of the paper normally stops after 1-3 iterations).
_MAX_INNER_ITERATIONS = 8


@dataclass
class VM1OptResult(PassTotals):
    """Outcome of a full VM1Opt run; the totals sum over ``passes``."""

    initial_objective: float
    final_objective: float
    iterations: int = 0
    wall_seconds: float = 0.0
    passes: list[DistOptResult] = field(default_factory=list)

    @property
    def improvement(self) -> float:
        """Normalized objective improvement over the run."""
        if self.initial_objective == 0:
            return 0.0
        return (
            self.initial_objective - self.final_objective
        ) / abs(self.initial_objective)


def vm1_opt(
    design: Design,
    params: OptParams,
    *,
    solver=None,
    executor=None,
    schedule: ScheduleConfig | None = None,
    telemetry: RunTelemetry | None = None,
    progress=None,
    enable_flip: bool = True,
    enable_shift: bool = True,
    presolve: bool = True,
    dirty_tracking: bool = True,
    objective_audit: bool = False,
    checkpoint_sink=None,
    resume: VM1Checkpoint | None = None,
) -> VM1OptResult:
    """Run the full vertical-M1-aware detailed placement optimization.

    Args:
        design: legal placed design; optimized in place.
        params: weights plus the parameter-set sequence U.
        solver: MILP backend shared by all windows (default HiGHS with
            ``params.time_limit`` per window).
        executor: :mod:`repro.runtime` executor shared by all DistOpt
            passes (default: a fresh :class:`SerialExecutor`).
        schedule: dispatch policy (per-task timeout, retries).
        telemetry: optional :class:`RunTelemetry` accumulating
            per-window records across the whole run.
        progress: optional callable ``(label, DistOptResult)`` invoked
            after every DistOpt pass.
        enable_flip: run the f=1 (flip) DistOpt pass after each move
            pass (ablation knob; Algorithm 1 lines 7-8).
        enable_shift: shift the window grid between iterations so
            boundary cells get optimized (ablation knob; Algorithm 1
            line 9).
        presolve: run the window-model presolve reductions before
            every solve (see :mod:`repro.milp.presolve`).  Placements
            are byte-identical with it on or off only at
            ``mip_gap=0``; at a nonzero gap HiGHS may return a
            different within-gap solution for the reduced model.
        dirty_tracking: run the incremental convergence engine — a
            cross-pass :class:`~repro.core.dirty.DirtyTracker` skips
            verified-clean windows before slice/build, and the global
            objective is delta-accounted from the guarded applies
            instead of re-swept after every pass (both
            behaviour-preserving; placements stay byte-identical with
            the flag on or off).  Off, every pass re-solves every
            window (plain Algorithm 2).
        objective_audit: paranoia knob — with ``dirty_tracking``,
            every pass also runs the full objective sweep and raises
            if the delta-accounted value drifts ≥ 1e-6 from it.
        checkpoint_sink: optional callable invoked with a
            :class:`~repro.core.checkpoint.VM1Checkpoint` after every
            completed DistOpt pass (crash-safe persistence is the
            caller's job, e.g. ``repro.service.jobstore``).
        resume: optional :class:`~repro.core.checkpoint.VM1Checkpoint`
            to continue from: the checkpointed placement and dirty
            state are restored and every pass up to and including the
            checkpointed one is skipped.  Passes are deterministic, so
            the resumed run finishes with a placement byte-identical
            to the uninterrupted run.

    Returns:
        A :class:`VM1OptResult` with objective history and timing.
        On ``resume``, timing aggregates and ``passes`` cover only the
        work done after the checkpoint; ``iterations`` continues the
        checkpointed count.
    """
    dirty = DirtyTracker() if dirty_tracking else None
    if solver is None:
        solver = HighsBackend(
            time_limit=params.time_limit, mip_rel_gap=params.mip_gap
        )
    owns_executor = executor is None
    if executor is None:
        executor = SerialExecutor()
    started = time.perf_counter()
    tech = design.tech

    resume_u = resume_iter = -1
    resume_phase = ""
    if resume is not None:
        resume.restore(design, dirty)
        initial = resume.initial_objective
        objective = resume.objective
        tx, ty = resume.tx, resume.ty
        resume_u = resume.u_index
        resume_iter = resume.iteration
        resume_phase = resume.phase
    else:
        initial = calculate_objective(design, params)
        objective = initial
        tx = ty = 0
    result = VM1OptResult(
        initial_objective=initial, final_objective=objective
    )
    if resume is not None:
        result.iterations = resume.iterations

    # Assigned inside the run span below; rides every checkpoint so a
    # resumed run can re-join this trace (closure sees the late value).
    trace_ctx: tuple[str, str | None] | None = None

    def _checkpoint(
        u_index: int, iteration: int, phase: str, pre: float
    ) -> None:
        if checkpoint_sink is None:
            return
        checkpoint_sink(
            VM1Checkpoint.capture(
                design,
                dirty,
                u_index=u_index,
                iteration=iteration,
                phase=phase,
                tx=tx,
                ty=ty,
                pre_objective=pre,
                objective=objective,
                initial_objective=initial,
                iterations=result.iterations,
                trace=trace_ctx,
            )
        )

    run_span = span(
        "vm1_opt",
        sequence_len=len(params.sequence),
        executor=executor.name,
        jobs=executor.jobs,
        resumed=resume is not None,
    )
    with run_span as run_span_obj:
        trace_ctx = current_context()
        chaos_barrier("vm1:start")
        try:
            for u_index, u in enumerate(params.sequence):
                if u_index < resume_u:
                    continue
                bw = max(tech.site_width, tech.dbu(u.bw_um))
                bh = max(tech.row_height, tech.dbu(u.bh_um))
                for iteration in range(_MAX_INNER_ITERATIONS):
                    if u_index == resume_u and iteration < resume_iter:
                        continue
                    # At the exact resume point, skip the pass(es) the
                    # checkpoint already covers; the end-of-iteration
                    # control flow below re-runs on checkpointed values.
                    at_resume = (
                        u_index == resume_u and iteration == resume_iter
                    )
                    skip_move = at_resume and resume_phase in (
                        "move",
                        "flip",
                    )
                    skip_flip = at_resume and resume_phase == "flip"
                    pre = (
                        resume.pre_objective if skip_move else objective
                    )
                    label = f"u{u_index}.i{iteration}"
                    if not skip_move:
                        move_pass = dist_opt(
                            design,
                            params,
                            tx=tx,
                            ty=ty,
                            bw=bw,
                            bh=bh,
                            lx=u.lx,
                            ly=u.ly,
                            allow_flip=False,
                            solver=solver,
                            executor=executor,
                            schedule=schedule,
                            telemetry=telemetry,
                            pass_label=f"move[{label}]",
                            presolve=presolve,
                            dirty=dirty,
                            objective=(
                                objective if dirty_tracking else None
                            ),
                            audit=objective_audit,
                        )
                        _absorb(result, move_pass)
                        objective = move_pass.objective
                        _checkpoint(u_index, iteration, "move", pre)
                        chaos_barrier(f"checkpoint:move[{label}]")
                        if progress is not None:
                            progress("move", move_pass)
                    if enable_flip and not skip_flip:
                        flip_pass = dist_opt(
                            design,
                            params,
                            tx=tx,
                            ty=ty,
                            bw=bw,
                            bh=bh,
                            lx=0,
                            ly=0,
                            allow_flip=True,
                            solver=solver,
                            executor=executor,
                            schedule=schedule,
                            telemetry=telemetry,
                            pass_label=f"flip[{label}]",
                            presolve=presolve,
                            dirty=dirty,
                            objective=(
                                objective if dirty_tracking else None
                            ),
                            audit=objective_audit,
                        )
                        _absorb(result, flip_pass)
                        objective = flip_pass.objective
                        _checkpoint(u_index, iteration, "flip", pre)
                        chaos_barrier(f"checkpoint:flip[{label}]")
                        if progress is not None:
                            progress("flip", flip_pass)
                    result.iterations += 1
                    if enable_shift:
                        # Shift the window grid so last iteration's
                        # boundary cells fall inside a window next time
                        # (Algorithm 1 line 9).
                        tx = (tx + bw // 2) % bw
                        ty = (ty + bh // 2) % bh
                    if pre == 0:
                        break
                    delta = (pre - objective) / abs(pre)
                    if delta < params.theta:
                        break
        finally:
            if owns_executor:
                executor.close()

        result.final_objective = objective
        run_span_obj.set(
            initial_objective=initial,
            final_objective=objective,
            iterations=result.iterations,
            moved_cells=result.moved_cells,
        )
    result.wall_seconds = time.perf_counter() - started
    if telemetry is not None:
        telemetry.wall_seconds = result.wall_seconds
    return result


def _absorb(result: VM1OptResult, pass_result: DistOptResult) -> None:
    result.passes.append(pass_result)
    result.add(pass_result)
