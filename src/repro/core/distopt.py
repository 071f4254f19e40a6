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

* an optional :class:`~repro.core.dirty.DirtyTracker` skips windows
  that were verified fixpoints and whose probe neighborhood nothing
  has touched since — before any slicing or building; it is the only
  cross-pass skip, so without it every window is re-solved every pass
  (plain Algorithm 2);
* the pass objective is maintained as a running delta (the guarded
  apply already computes exact before/after local objectives over the
  window's touched nets, and those nets fully cover the global
  change), so passing ``objective=`` replaces the O(all-nets)
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
:func:`_absorb_spans`), each dirty-tracker skip a ``skipped_clean``
span.

Every applied window solution is guarded: the local objective
(HPWL − α·alignments over the window's touched nets) is recomputed
after the move and the move is reverted if it did not improve — this
protects against time-limited solves returning a worse incumbent.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields, replace

from repro.chaos.inject import active_chaos
from repro.core.dirty import DirtyTracker, dirty_write_for_moves
from repro.core.formulation import SliceIndex, probe_rect, window_slice
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
    #: windows skipped by the dirty tracker before slicing/building.
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
    dirty: DirtyTracker | None = None,
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
        dirty: optional cross-pass :class:`~repro.core.dirty.
            DirtyTracker`; verified-clean windows are skipped before
            slicing (no slice, no build), applied moves are
            recorded as dirty regions, and fixpoints are marked clean.
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
                next_task_id=next_task_id, dirty=dirty,
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
    dirty: DirtyTracker | None,
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
    # task id -> (dirty key, probe rect) for the fixpoint mark.
    marks: dict[int, tuple] = {}
    tracer = active_tracer() if trace_ctx is not None else None
    # The placement holds still until the family's applies, so one
    # index serves every slice; without one from an earlier family it
    # is built on the first window not skipped.
    for window in family:
        key = probe = None
        if dirty is not None:
            key = DirtyTracker.window_key(window, lx, ly, allow_flip)
            if dirty.is_clean(key):
                # Previously verified fixpoint, nothing written in its
                # neighborhood since: re-solving would provably
                # reproduce the same non-move (see repro.core.dirty).
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
            probe = probe_rect(design, window)
        if index is None:
            index = SliceIndex(design)
        sliced = window_slice(design, window, index)
        if sliced is None:
            # No movable cells, so the build reads no nets at all —
            # the mark's net set is empty.  Clean by construction: a
            # cell can only appear inside this window via a move whose
            # cell rect intersects the window rect (⊆ probe rect).
            if dirty is not None:
                dirty.mark_clean(key, probe)
            continue
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
        if dirty is not None:
            marks[task.task_id] = (key, probe)
    if not tasks:
        return next_task_id, index

    solve_started = time.perf_counter()
    outcomes = scheduler.run_family(tasks)
    result.measured_parallel_seconds += (
        time.perf_counter() - solve_started
    )

    slowest_path = 0.0
    family_cell_rects: list = []
    family_nets: list[str] = []
    for task in tasks:  # canonical order — determinism contract
        outcome = outcomes[task.task_id]
        slowest_path = max(
            slowest_path, outcome.build_seconds + outcome.solve_seconds
        )
        result.build_seconds += outcome.build_seconds
        result.solve_seconds += outcome.solve_seconds
        if (
            not outcome.built
            and not outcome.error
            and not outcome.timed_out
        ):
            # The worker-side build found nothing optimizable —
            # silently dropped, like the parent-side build returning
            # None used to be.
            _absorb_spans(tracer, task, outcome, "empty", 0)
            continue
        if outcome.built:
            result.windows_built += 1
            result.pairs_considered += outcome.num_pairs
        status, moved, delta, write = _apply_outcome(
            design, params, outcome, result
        )
        _absorb_spans(tracer, task, outcome, status, moved)
        result.moved_cells += moved
        if status == "applied":
            index = None
            result.objective_delta += delta
            family_cell_rects.extend(write.cell_rects)
            family_nets.extend(write.nets)
        is_fixpoint = (
            status in ("no_move", "reverted")
            and outcome.solution is not None
            and outcome.solution.status is SolveStatus.OPTIMAL
        )
        if is_fixpoint and dirty is not None:
            # Fixpoint: the optimal solve produced no (surviving)
            # move, so the window may be skipped until something it
            # reads is written.  Applied windows are NOT marked — the
            # next pass enumerates candidates around the new positions.
            dirty.mark_clean(*marks[task.task_id], nets=outcome.nets)
    result.modeled_parallel_seconds += slowest_path
    if dirty is not None and (family_cell_rects or family_nets):
        # Batched per family, after its applies: this matches the
        # slice-before-apply ordering of the engine itself, so a
        # skipped window never observes a placement state a non-skip
        # run would not also have observed.
        dirty.note_dirty(family_cell_rects, nets=family_nets)
    return next_task_id, index


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
) -> tuple[str, int, float, tuple]:
    """Fold one solve outcome into the design; returns
    ``(status, moved, objective_delta, dirty_rects)``."""
    if outcome.timed_out:
        result.windows_timed_out += 1
        return "timed_out", 0, 0.0, ()
    if outcome.error:
        result.windows_failed += 1
        return "failed", 0, 0.0, ()
    solution = outcome.solution
    if solution is None or not solution.status.has_solution:
        result.windows_failed += 1
        return "no_solution", 0, 0.0, ()
    if outcome.apply_error or outcome.moves is None:
        # The worker could not decode the solution into moves
        # (corrupt λ selection) — deterministic, not retried.
        result.windows_failed += 1
        return "failed", 0, 0.0, ()
    return _apply_guarded(design, params, outcome, result)


def _apply_guarded(
    design: Design,
    params: OptParams,
    outcome: WindowTaskResult,
    result: DistOptResult,
) -> tuple[str, int, float, tuple]:
    """Apply one window's moves behind the local-objective guard.

    Returns ``(status, moved, delta, write)`` where ``delta`` is the
    *exact* global objective change (``after − before`` over the
    window's touched nets — every net whose HPWL/alignment terms an
    applied move can change is in that set, so the local delta IS the
    global delta) and ``write`` is the applied move's
    :class:`~repro.core.dirty.DirtyWrite` (``()`` when nothing was
    applied).
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
        return "no_move", 0, 0.0, ()
    # The guard's "before" objective is only needed when something
    # moves, so a no-move window evaluates no objective at all.
    nets = [design.nets[name] for name in outcome.nets]
    before_local = calculate_objective(design, params, nets)
    for name, column, row, flipped in outcome.moves:
        design.place(name, column, row, flipped)
    after_local = calculate_objective(design, params, nets)
    if after_local > before_local - 1e-9:
        for name, state in snapshot.items():
            inst = design.instances[name]
            inst.x, inst.y, inst.orientation = state
        result.windows_reverted += 1
        return "reverted", 0, 0.0, ()
    result.windows_applied += 1
    write = dirty_write_for_moves(design, changed, snapshot)
    return "applied", len(changed), after_local - before_local, write


def _placement_of(design: Design, name: str):
    inst = design.instances[name]
    return (inst.x, inst.y, inst.orientation)
