"""Algorithm 2: DistOpt — distributable window optimization.

Windows are partitioned, grouped into independently-optimizable
families (disjoint x/y projections, §4.1), and each family's windows
are solved as separate MILPs through the :mod:`repro.runtime`
execution engine.  Per family the engine (1) slices every window's
cells/nets out of the common pre-family placement (through one
:class:`~repro.core.formulation.SliceIndex` of it), (2) dispatches the
slices over the configured executor (serial / thread pool / process
pool) — the window model is **built inside the worker** so build cost
parallelizes too — and (3) applies the returned moves in canonical
window order regardless of completion order, which is why a parallel
run reproduces the serial placement bit-for-bit on the same seed.  The
index carries over to the next family until a window applies a move
(a reverted move restores every position it touched).

The incremental engine rides on three cooperating pieces:

* an optional window memo skips a window whose slice is exactly what
  an earlier solve of the same window answered without moving a cell
  — after slicing, before any building (see :func:`dist_opt`'s
  ``memo``); it
  is the only cross-pass skip, so without it every window is re-solved
  every pass (plain Algorithm 2);
* the pass objective is maintained as a running delta (the guarded
  apply already computes exact before/after local objectives over the
  touched nets of the cells that move, and those nets fully cover the
  global change), so passing ``objective=`` replaces the O(all-nets)
  ``calculate_objective`` sweep at pass end; ``audit=True`` recomputes
  the full sweep anyway and raises if the delta drifted;
* per-window ``build_seconds`` now comes from the worker-side build.

Two parallel-time figures are reported: ``modeled_parallel_seconds``
(per family the slowest window build+solve path — what an
unbounded parallel machine would see now that the whole path runs in
a worker) and ``measured_parallel_seconds`` (the wall clock the engine
actually achieved for the dispatch phases).

Under an active tracer the pass is recorded as spans, which
:class:`~repro.runtime.RunTelemetry` is a view of: the ``distopt``
span carries every :class:`PassTotals` field and the pass's fault
counts, each window root span the apply verdict (see
:func:`_absorb_spans`), each memo skip a ``skipped_clean`` span.

Every applied window solution is guarded: the local objective
(HPWL − α·alignments over the nets of the cells that move) is
recomputed after the move and the move is reverted if it did not
improve — this
protects against time-limited solves returning a worse incumbent.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields, replace

from repro.chaos.inject import active_chaos
from repro.core.formulation import SliceIndex, window_slice
from repro.core.objective import calculate_objective
from repro.core.params import OptParams
from repro.core.window import independent_families, partition
from repro.milp.highs_backend import HighsBackend
from repro.milp.solution import SolveStatus
from repro.netlist.design import Design
from repro.obs.trace import active as active_tracer
from repro.obs.trace import current_context, span
from repro.runtime import (
    FamilyScheduler,
    ScheduleConfig,
    SerialExecutor,
    WindowTask,
    WindowTaskResult,
)

#: Objective-delta accounting must agree with a full recompute to
#: within this bound (the audit raises past it).
DRIFT_TOLERANCE = 1e-6


def _total(default, entry: str):
    """A :class:`PassTotals` field the telemetry pass entry carries,
    under the key ``entry``."""
    return field(default=default, metadata={"pass_entry": entry})


@dataclass(kw_only=True)
class PassTotals:
    """The additive totals of DistOpt passes, declared once.

    :class:`DistOptResult`, :class:`~repro.core.vm1opt.VM1OptResult`
    and the shard layer's ``ShardOutcome`` inherit these fields.
    Summing passes or shards, copying a shard's totals, its ``done``
    record and the telemetry pass entry all loop over them; only the
    rules that are not sums (the sharded view's max and wall-clock
    terms) are spelled out where they apply.  The declaration order is
    the key order of the telemetry pass entry.
    """

    build_seconds: float = _total(0.0, "build_seconds")
    #: always 0.0 (the build writes its model reduced); kept for the
    #: telemetry and checkpoints that carry it.
    presolve_seconds: float = _total(0.0, "presolve_seconds")
    solve_seconds: float = _total(0.0, "solve_seconds")
    #: wall clock of the dispatch phases the engine achieved.
    measured_parallel_seconds: float = _total(
        0.0, "measured_parallel_seconds"
    )
    #: per family the slowest window build+solve path.
    modeled_parallel_seconds: float = _total(
        0.0, "modeled_parallel_seconds"
    )
    windows_built: int = _total(0, "windows")
    windows_applied: int = _total(0, "applied")
    windows_failed: int = _total(0, "failed")
    windows_timed_out: int = _total(0, "timed_out")
    #: windows the window memo skipped before building.
    windows_skipped_clean: int = _total(0, "windows_skipped_clean")
    # Not in the telemetry pass entry:
    windows_reverted: int = 0
    moved_cells: int = 0
    pairs_considered: int = 0

    def add(self, other: "PassTotals") -> None:
        """Add every total of ``other`` into this one."""
        for name in TOTAL_FIELDS:
            setattr(
                self, name, getattr(self, name) + getattr(other, name)
            )

    def totals(self) -> dict:
        """Every total, by field name (span attrs, ``done`` records)."""
        return {name: getattr(self, name) for name in TOTAL_FIELDS}


#: Names of the additive totals, in declaration order.
TOTAL_FIELDS = tuple(f.name for f in fields(PassTotals))


@dataclass
class DistOptResult(PassTotals):
    """Outcome of one DistOpt invocation."""

    objective: float
    #: sum of guarded-apply objective deltas over applied windows.
    objective_delta: float = 0.0
    #: |delta-accounted − fully-recomputed| objective; None unless the
    #: pass ran with ``audit=True``.
    objective_drift: float | None = None
    wall_seconds: float = 0.0
    family_count: int = 0
    executor: str = "serial"
    jobs: int = 1


def dist_opt(
    design: Design,
    params: OptParams,
    *,
    tx: int,
    ty: int,
    bw: int,
    bh: int,
    lx: int,
    ly: int,
    allow_flip: bool,
    solver=None,
    executor=None,
    schedule: ScheduleConfig | None = None,
    pass_label: str = "distopt",
    window_filter=None,
    memo: dict | None = None,
    objective: float | None = None,
    audit: bool = False,
) -> DistOptResult:
    """Run one DistOpt pass over the whole design.

    Args:
        design: placed design, modified in place.
        params: objective weights.
        tx/ty: window grid offset in DBU (Algorithm 1 line 9 shifts).
        bw/bh: window width/height in DBU.
        lx/ly: per-cell perturbation range (sites/rows).
        allow_flip: enable the flip degree of freedom (the f input).
        solver: MILP backend; defaults to HiGHS with the params' time
            limit.
        executor: a :mod:`repro.runtime` executor; defaults to a
            :class:`SerialExecutor`.
        schedule: dispatch policy (timeout/retry); defaults to
            :meth:`ScheduleConfig.for_time_limit` of the solver limit.
        pass_label: label stamped on this pass's ``distopt`` span
            (the telemetry records' pass label).
        window_filter: optional predicate ``Window -> bool``; when
            given, only accepted windows are optimized (the shard
            layer's seam pass restricts a DistOpt to the windows
            straddling shard boundaries).
        memo: optional cross-pass window memo, a dict the caller
            keeps across passes (``vm1_opt`` keeps one per run).  Its
            key is ``(window rect, lx, ly, allow_flip)``, its value
            ``(state, reverted)``: the window's slice state,
            ``(name, x, y, orientation)`` per slice instance in slice
            order, recorded when a solve of that slice ended
            ``OPTIMAL`` with no move or with its move reverted; any
            other outcome drops the entry.  A window whose slice state
            equals its entry is skipped before the build: its model
            would be the remembered one, array for array, so its
            solve would again move nothing.  A reverted entry also
            needs its guard to read the same slice, so it is recorded
            only while no earlier apply of the family moved a slice
            instance, and used only while no window dispatched before
            it in the family could (DESIGN.md §11).
        objective: the design's exact global objective *before* this
            pass.  When given, the post-pass objective is accounted
            incrementally (``objective`` + the guarded applies' local
            deltas) instead of via the full ``calculate_objective``
            sweep.  ``None`` keeps the legacy full recompute.
        audit: with ``objective``, also run the full sweep and raise
            ``AssertionError`` if the delta-accounted value drifted
            more than :data:`DRIFT_TOLERANCE` from it (paranoia knob
            for tests and debugging).

    The active :class:`~repro.chaos.inject.ChaosController`, if any
    (:func:`~repro.chaos.inject.active_chaos`: one installed with
    ``chaos_scope`` or ``install``), arms its faults on this pass's
    window tasks; without one the hot path pays a single ``is None``
    test per submit.

    Returns:
        A :class:`DistOptResult`; ``objective`` is the global
        post-pass objective (CalculateObj of Algorithm 2).
    """
    if solver is None:
        solver = HighsBackend(
            time_limit=params.time_limit, mip_rel_gap=params.mip_gap
        )
    if executor is None:
        executor = SerialExecutor()
    if schedule is None:
        schedule = ScheduleConfig.for_time_limit(
            getattr(solver, "time_limit", None)
        )
    chaos = active_chaos()
    scheduler = FamilyScheduler(executor, schedule, chaos=chaos)

    started = time.perf_counter()
    result = DistOptResult(
        objective=0.0, executor=executor.name, jobs=executor.jobs
    )

    windows = partition(design, tx, ty, bw, bh)
    if window_filter is not None:
        windows = [w for w in windows if window_filter(w)]
    families = independent_families(windows)
    result.family_count = len(families)

    with span(
        "distopt",
        pass_label=pass_label,
        windows=len(windows),
        families=len(families),
        executor=executor.name,
        jobs=executor.jobs,
    ) as pass_span:
        # The context every task of this pass ships to its worker;
        # the window spans workers record parent under this pass span
        # (None when tracing is off — workers then record nothing).
        trace_ctx = current_context()
        next_task_id = 0
        index = None
        for family_index, family in enumerate(families):
            next_task_id, index = _run_family(
                design, params, family, family_index,
                solver=solver, scheduler=scheduler, result=result,
                lx=lx, ly=ly, allow_flip=allow_flip,
                next_task_id=next_task_id, memo=memo,
                trace_ctx=trace_ctx, index=index,
            )

        if objective is None:
            result.objective = calculate_objective(design, params)
        else:
            result.objective = objective + result.objective_delta
            if audit:
                full = calculate_objective(design, params)
                result.objective_drift = abs(result.objective - full)
                if result.objective_drift >= DRIFT_TOLERANCE:
                    raise AssertionError(
                        f"pass {pass_label}: delta-accounted objective "
                        f"{result.objective!r} drifted "
                        f"{result.objective_drift:.3e} from full "
                        f"recompute {full!r} "
                        f"(tolerance {DRIFT_TOLERANCE:g})"
                    )
        if chaos is not None:
            pass_span.set(faults=chaos.drain_counts())
        pass_span.set(objective=result.objective, **result.totals())
    result.wall_seconds = time.perf_counter() - started
    return result


def _task_params(params: OptParams, slice_design: Design) -> OptParams:
    """Per-task params: prune ``net_beta`` to the slice's nets so a
    large criticality map is not pickled into every task.  Sound
    because ``beta_of`` falls back to the uniform ``beta`` for any
    net missing from the map, and the worker only evaluates nets
    present in the slice."""
    if params.net_beta is None:
        return params
    pruned = {
        name: params.net_beta[name]
        for name in slice_design.nets
        if name in params.net_beta
    }
    return replace(params, net_beta=pruned)


def _run_family(
    design: Design,
    params: OptParams,
    family,
    family_index: int,
    *,
    solver,
    scheduler: FamilyScheduler,
    result: DistOptResult,
    lx: int,
    ly: int,
    allow_flip: bool,
    next_task_id: int,
    memo: dict | None,
    trace_ctx: tuple[str, str | None] | None = None,
    index: SliceIndex | None = None,
) -> tuple[int, SliceIndex | None]:
    """Slice, dispatch (worker-side build+solve), and apply one
    independent family.

    ``index`` is a :class:`SliceIndex` of the current placement, or
    None.  Returns the next free task id and the index the next family
    may slice with: this family's, unless one of its windows applied a
    move (which leaves None)."""
    tasks: list[WindowTask] = []
    # task id -> (memo key, slice state) the task's model is built from.
    states: dict[int, tuple] = {}
    tracer = active_tracer() if trace_ctx is not None else None
    # The placement holds still until the family's applies, so one
    # index serves every slice; without one from an earlier family it
    # is built on the family's first window.
    for window in family:
        if index is None:
            index = SliceIndex(design)
        sliced = window_slice(design, window, index)
        if sliced is None:
            continue
        if memo is not None:
            key = (window.rect, lx, ly, allow_flip)
            state = _slice_state(sliced)
            entry = memo.get(key)
            if (
                entry is not None
                and entry[0] == state
                and (not entry[1] or _out_of_reach(sliced, tasks))
            ):
                # The model would be the remembered one, so its solve
                # would move nothing again.
                result.windows_skipped_clean += 1
                # Not a ``window`` span: nothing was built.
                with span(
                    "skipped_clean",
                    family=family_index,
                    ix=window.ix,
                    iy=window.iy,
                    outcome="skipped_clean",
                ):
                    pass
                continue
            states[next_task_id] = (key, state)
        task = WindowTask(
            task_id=next_task_id,
            family=family_index,
            solver=solver,
            design=sliced,
            window=window,
            params=_task_params(params, sliced),
            lx=lx,
            ly=ly,
            allow_flip=allow_flip,
            trace=trace_ctx,
        )
        next_task_id += 1
        tasks.append(task)
    if not tasks:
        return next_task_id, index

    solve_started = time.perf_counter()
    outcomes = scheduler.run_family(tasks)
    result.measured_parallel_seconds += (
        time.perf_counter() - solve_started
    )

    slowest_path = 0.0
    for task in tasks:  # canonical order — determinism contract
        outcome = outcomes[task.task_id]
        slowest_path = max(
            slowest_path, outcome.build_seconds + outcome.solve_seconds
        )
        result.build_seconds += outcome.build_seconds
        result.solve_seconds += outcome.solve_seconds
        if outcome.built or outcome.error or outcome.timed_out:
            if outcome.built:
                result.windows_built += 1
                result.pairs_considered += outcome.num_pairs
            status, moved, delta = _apply_outcome(
                design, params, outcome, result
            )
        else:
            # The worker-side build found nothing optimizable —
            # silently dropped, like the parent-side build returning
            # None used to be.
            status, moved, delta = "empty", 0, 0.0
        _absorb_spans(tracer, task, outcome, status, moved)
        result.moved_cells += moved
        if status == "applied":
            index = None
            result.objective_delta += delta
        if memo is not None:
            key, state = states[task.task_id]
            fixpoint = (
                status in ("no_move", "reverted")
                and outcome.solution.status is SolveStatus.OPTIMAL
            )
            # A reverted move's guard read the slice when the window
            # was applied: remembered only if no earlier apply of the
            # family had moved a slice instance by then.
            if fixpoint and (
                status == "no_move" or _slice_state(task.design) == state
            ):
                memo[key] = (state, status == "reverted")
            else:
                memo.pop(key, None)
    result.modeled_parallel_seconds += slowest_path
    return next_task_id, index


def _out_of_reach(sliced: Design, tasks: list[WindowTask]) -> bool:
    """True when no window dispatched so far in the family can move an
    instance of ``sliced``: a window moves only the cells inside its
    rect."""
    for task in tasks:
        rect = task.window.rect
        for inst in sliced.instances.values():
            if (
                rect.xlo <= inst.x
                and inst.x + inst.macro.width <= rect.xhi
                and rect.ylo <= inst.y
                and inst.y + inst.macro.height <= rect.yhi
            ):
                return False
    return True


def _slice_state(sliced: Design) -> tuple:
    """The placement of every slice instance, in slice order: all of
    the design a window build reads that can change within a run."""
    return tuple([
        (name, inst.x, inst.y, inst.orientation)
        for name, inst in sliced.instances.items()
    ])


def _absorb_spans(
    tracer,
    task: WindowTask,
    outcome: WindowTaskResult,
    status: str,
    moved: int,
) -> None:
    """Fold a worker's spans into the pass tracer, stamping what only
    the submitting side knows onto the final attempt's window root
    span: the apply verdict, attempts, queue wait, moved cells, error
    and serial fallback.  An outcome that came back without spans (a
    timed-out task, a failed executor) gets a bare root, opened here
    under the pass span, so the trace holds every window.  Runs in
    canonical task order, so the trace file is deterministic under any
    executor."""
    if tracer is None:
        return
    stamp = dict(
        outcome=status,
        attempts=outcome.attempts,
        queue_seconds=outcome.queue_seconds,
        moved_cells=moved,
        error=outcome.error or outcome.apply_error,
        degraded=outcome.degraded,
    )
    # Failed attempts' spans first (already ``error:`` status) — a
    # retried-then-recovered window keeps its failure history.
    tracer.absorb(outcome.retry_spans)
    if outcome.spans:
        # A worker exports children before their root: the root is
        # the last span of the attempt.
        outcome.spans[-1]["attrs"].update(stamp)
        tracer.absorb(outcome.spans)
        return
    with span(
        "window",
        task_id=task.task_id,
        ix=task.window.ix,
        iy=task.window.iy,
        family=task.family,
        **stamp,
    ) as root:
        root.status = (
            "error:timeout" if outcome.timed_out else "error:executor"
        )


def _apply_outcome(
    design: Design,
    params: OptParams,
    outcome: WindowTaskResult,
    result: DistOptResult,
) -> tuple[str, int, float]:
    """Fold one solve outcome into the design; returns
    ``(status, moved, objective_delta)``."""
    if outcome.timed_out:
        result.windows_timed_out += 1
        return "timed_out", 0, 0.0
    if outcome.error:
        result.windows_failed += 1
        return "failed", 0, 0.0
    solution = outcome.solution
    if solution is None or not solution.status.has_solution:
        result.windows_failed += 1
        return "no_solution", 0, 0.0
    if outcome.apply_error or outcome.moves is None:
        # The worker could not decode the solution into moves
        # (corrupt λ selection) — deterministic, not retried.
        result.windows_failed += 1
        return "failed", 0, 0.0
    return _apply_guarded(design, params, outcome, result)


def _apply_guarded(
    design: Design,
    params: OptParams,
    outcome: WindowTaskResult,
    result: DistOptResult,
) -> tuple[str, int, float]:
    """Apply one window's moves behind the local-objective guard.

    Returns ``(status, moved, delta)`` where ``delta`` is the *exact*
    global objective change (``after − before`` over the touched nets
    of the cells that change place — every net whose HPWL/alignment
    terms the move can change is in that set, so the local delta IS
    the global delta).
    """
    snapshot = {
        name: _placement_of(design, name) for name in outcome.movable
    }
    changed = [
        name
        for name, column, row, flipped in outcome.moves
        if design.placement_at(column, row, flipped) != snapshot[name]
    ]
    if not changed:
        return "no_move", 0, 0.0
    # The guard's objectives are only needed when something moves, so
    # a no-move window evaluates none; and only over the nets of the
    # cells that move, in the window's net order, since no other
    # net's terms change.
    instances = design.instances
    moving_nets = set()
    for name in changed:
        moving_nets.update(instances[name].net_of_pin.values())
    nets = [
        design.nets[name] for name in outcome.nets if name in moving_nets
    ]
    before_local = calculate_objective(design, params, nets)
    for name, column, row, flipped in outcome.moves:
        design.place(name, column, row, flipped)
    after_local = calculate_objective(design, params, nets)
    if after_local > before_local - 1e-9:
        for name, state in snapshot.items():
            inst = design.instances[name]
            inst.x, inst.y, inst.orientation = state
        result.windows_reverted += 1
        return "reverted", 0, 0.0
    result.windows_applied += 1
    return "applied", len(changed), after_local - before_local


def _placement_of(design: Design, name: str):
    inst = design.instances[name]
    return (inst.x, inst.y, inst.orientation)
