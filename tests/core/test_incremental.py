"""Convergence-accounting tests for the incremental DistOpt engine.

The delta-accounted objective (initial objective + the sum of the
guarded applies' local deltas) must agree with a full
``calculate_objective`` recompute after every kind of pass outcome —
applied, reverted, no-move, and flip passes — on all three seeded
architectures.  ``objective_audit=True`` arms the in-run drift check
(``AssertionError`` past ``DRIFT_TOLERANCE`` on any pass), and the
tests re-verify the final figure independently.

Also here: the window memo's skips (a converged pass is answered
entirely by the memo — zero builds, placement untouched) and what
keeps or drops an entry.
"""

import dataclasses
from types import SimpleNamespace

import pytest

from repro.core import OptParams, ParamSet, Window, partition
from repro.core.distopt import (
    DRIFT_TOLERANCE,
    _apply_guarded,
    _out_of_reach,
    dist_opt,
    DistOptResult,
)
from repro.core.formulation import window_slice
from repro.core.objective import calculate_objective
from repro.core.vm1opt import vm1_opt
from repro.geometry import Rect
from repro.library import build_library
from repro.milp.highs_backend import HighsBackend
from repro.milp.solution import SolveStatus
from repro.netlist import generate_design
from repro.obs.trace import Tracer, tracer_scope
from repro.placement import place_design
from repro.runtime import RunTelemetry, WindowTaskResult
from repro.tech import CellArchitecture, make_tech

EXACT = dict(mip_gap=0.0, time_limit=30.0)

#: Single-ParamSet sequence for the full-loop tests: still exercises
#: move passes, flip passes, grid shifts, and θ termination, at a
#: fraction of the default five-set sequence's runtime.
LOOP = dict(sequence=(ParamSet.square(1.25, 2, 1),), **EXACT)

GRID = dict(tx=0, ty=0, bw=1250, bh=1080, lx=2, ly=1, allow_flip=False)


def small_design(arch=CellArchitecture.CLOSED_M1, seed=2):
    """A design whose window solves all reach proven OPTIMAL within
    the time limit — required wherever two runs are compared bit for
    bit (a time-limited HiGHS incumbent is load-dependent).  The aes
    profile at this scale spreads cells over several small windows;
    m0 at tiny scales concentrates ~90 movables into one window whose
    MILP can hit the clock."""
    tech = make_tech(arch)
    lib = build_library(tech)
    design = generate_design("aes", tech, lib, scale=0.008, seed=seed)
    place_design(design, seed=1)
    return design, tech


# ----------------------------------------------- full-loop accounting
@pytest.mark.parametrize(
    "arch",
    [
        CellArchitecture.CONV_12T,
        CellArchitecture.CLOSED_M1,
        CellArchitecture.OPEN_M1,
    ],
)
def test_vm1opt_incremental_matches_full_recompute(arch):
    """The whole VM1Opt loop — move passes, flip passes, grid shifts —
    with the audit armed: any per-pass drift raises inside the run,
    and the final delta-accounted objective must equal an independent
    full recompute."""
    design, tech = small_design(arch)
    params = OptParams.for_arch(tech.arch, **LOOP)
    result = vm1_opt(design, params, objective_audit=True)
    full = calculate_objective(design, params)
    assert abs(result.final_objective - full) < DRIFT_TOLERANCE


def test_vm1opt_memo_off_unchanged_objective():
    """Memo on and off agree bit for bit on placement and objective."""
    design_on, tech = small_design()
    params = OptParams.for_arch(tech.arch, **LOOP)
    on = vm1_opt(design_on, params, objective_audit=True)
    design_off, _ = small_design()
    off = vm1_opt(
        design_off, params, window_memo=False, objective_audit=True
    )
    assert (
        design_on.placement_snapshot() == design_off.placement_snapshot()
    )
    assert on.final_objective == pytest.approx(
        off.final_objective, abs=DRIFT_TOLERANCE
    )
    assert on.iterations == off.iterations
    assert off.windows_skipped_clean == 0


# ------------------------------------------- per-outcome delta pieces
def test_apply_guarded_revert_contributes_zero_delta():
    """A worsening move is reverted and contributes no delta; the
    design is byte-identical afterwards."""
    design, tech = small_design()
    params = OptParams.for_arch(tech.arch, **EXACT)
    before = design.placement_snapshot()

    # Fabricate a worker outcome that moves one movable cell a long
    # way sideways — guaranteed to worsen HPWL on its nets (or at
    # best tie, which the guard also rejects).
    name = next(
        n for n, inst in design.instances.items() if not inst.fixed
    )
    inst = design.instances[name]
    nets = tuple(
        net.name for net in design.nets_of_instances({name})
    )
    if not nets:
        pytest.skip("picked a netless cell")
    column = inst.x // tech.site_width + 40
    row = inst.y // tech.row_height
    outcome = WindowTaskResult(
        task_id=0,
        nets=nets,
        movable=(name,),
        moves=((name, column, row, False),),
    )
    result = DistOptResult(objective=0.0)
    status, moved, delta = _apply_guarded(design, params, outcome, result)
    assert status == "reverted"
    assert moved == 0
    assert delta == 0.0
    assert result.windows_reverted == 1
    assert design.placement_snapshot() == before


def test_apply_guarded_no_move_contributes_zero_delta():
    design, tech = small_design()
    params = OptParams.for_arch(tech.arch, **EXACT)
    before = design.placement_snapshot()
    name = next(
        n for n, inst in design.instances.items() if not inst.fixed
    )
    inst = design.instances[name]
    outcome = WindowTaskResult(
        task_id=0,
        nets=tuple(
            net.name for net in design.nets_of_instances({name})
        ),
        movable=(name,),
        moves=(
            (
                name,
                inst.x // tech.site_width,
                inst.y // tech.row_height,
                False,
            ),
        ),
    )
    result = DistOptResult(objective=0.0)
    status, moved, delta = _apply_guarded(design, params, outcome, result)
    assert status == "no_move"
    assert (moved, delta) == (0, 0.0)
    assert design.placement_snapshot() == before


def test_distopt_applied_pass_delta_is_exact():
    """One real pass with applies: initial + delta == full recompute,
    to strictly below the audit tolerance."""
    design, tech = small_design()
    params = OptParams.for_arch(tech.arch, **EXACT)
    initial = calculate_objective(design, params)
    result = dist_opt(
        design, params, **GRID, memo={}, objective=initial, audit=True,
    )
    assert result.windows_applied > 0  # the pass must exercise applies
    assert result.objective_drift is not None
    assert result.objective_drift < DRIFT_TOLERANCE
    assert result.objective == pytest.approx(
        initial + result.objective_delta
    )


def test_distopt_flip_pass_delta_is_exact():
    """Flip passes (lx = ly = 0, flips enabled) go through the same
    delta path; the audit must hold there too."""
    design, tech = small_design()
    params = OptParams.for_arch(tech.arch, **EXACT)
    initial = calculate_objective(design, params)
    result = dist_opt(
        design, params,
        tx=0, ty=0, bw=1250, bh=1080, lx=0, ly=0, allow_flip=True,
        memo={}, objective=initial, audit=True,
    )
    assert result.objective_drift is not None
    assert result.objective_drift < DRIFT_TOLERANCE


# ------------------------------------------------- late-pass skipping
def test_converged_pass_is_skipped_clean_without_building():
    """Once identical passes reach a fixpoint, the next identical pass
    is answered entirely by the memo: every window the converged pass
    built or skipped is skipped *before* the build.  (Uses dist_opt
    directly: vm1_opt's alternating grid shifts delay key reuse to
    iteration 3+.)"""
    design, tech = small_design()
    params = OptParams.for_arch(tech.arch, **EXACT)
    memo: dict = {}
    objective = calculate_objective(design, params)
    kwargs = dict(**GRID, memo=memo, audit=True)

    for _ in range(10):
        result = dist_opt(
            design, params, objective=objective, **kwargs
        )
        objective = result.objective
        if result.moved_cells == 0:
            break
    assert result.moved_cells == 0

    snap = design.placement_snapshot()
    tracer = Tracer()
    with tracer_scope(tracer):
        extra = dist_opt(design, params, objective=objective, **kwargs)
    telemetry = RunTelemetry.from_spans(tracer.spans)
    assert extra.windows_built == 0
    assert extra.windows_skipped_clean > 0
    assert extra.windows_skipped_clean >= (
        result.windows_built + result.windows_skipped_clean
    )
    assert extra.moved_cells == 0
    assert extra.objective == pytest.approx(objective)
    assert design.placement_snapshot() == snap
    # Telemetry agrees with the result counters.
    assert telemetry.passes[-1]["windows_skipped_clean"] == (
        extra.windows_skipped_clean
    )
    summary = telemetry.summary()
    assert summary["windows"]["skipped_clean"] == (
        extra.windows_skipped_clean
    )


def test_applied_windows_invalidate_neighbor_marks():
    """After a pass with applies, a second pass re-solves at least the
    windows whose slices the applies changed — it cannot be answered
    entirely by the memo."""
    design, tech = small_design()
    params = OptParams.for_arch(tech.arch, **EXACT)
    memo: dict = {}
    objective = calculate_objective(design, params)
    first = dist_opt(
        design, params, **GRID,
        memo=memo, objective=objective, audit=True,
    )
    if first.windows_applied == 0:
        pytest.skip("seed produced no applies")
    second = dist_opt(
        design, params, **GRID,
        memo=memo, objective=first.objective, audit=True,
    )
    assert second.windows_built > 0


# ------------------------------------------------- what the memo keeps
def converged_grid():
    """A design run to a fixpoint on the fixed GRID, its params and
    the memo the passes filled."""
    design, tech = small_design()
    params = OptParams.for_arch(tech.arch, **EXACT)
    memo: dict = {}
    objective = calculate_objective(design, params)
    for _ in range(10):
        result = dist_opt(
            design, params, **GRID, memo=memo, objective=objective
        )
        objective = result.objective
        if result.moved_cells == 0:
            break
    assert result.moved_cells == 0
    return design, params, memo


def remembered_window(design, memo):
    """A window with a memo entry whose slice holds a terminal outside
    the window rect, that terminal, and a movable cell outside the
    slice but within the 64-site probe rect the dirty tracker watched
    around the window."""
    tech = design.tech
    margin = max(64 * tech.site_width, 4 * tech.row_height)
    for window in partition(design, GRID["tx"], GRID["ty"], 1250, 1080):
        key = (window.rect, GRID["lx"], GRID["ly"], GRID["allow_flip"])
        sliced = window_slice(design, window)
        if key not in memo or sliced is None:
            continue
        terminals = [
            name
            for name, inst in sliced.instances.items()
            if not inst.fixed and not inst.bbox.overlaps_open(window.rect)
        ]
        probe = window.rect.expanded(margin)
        outside = [
            name
            for name, inst in design.instances.items()
            if not inst.fixed
            and name not in sliced.instances
            and inst.bbox.overlaps(probe)
        ]
        if terminals and outside:
            return window, key, terminals[0], outside[0]
    pytest.fail("no remembered window with a terminal outside it")


def flip(design, name):
    inst = design.instances[name]
    design.place(
        name,
        design.column_of(inst),
        design.row_of(inst),
        flipped=not inst.orientation.is_x_mirrored,
    )


def test_move_outside_the_slice_keeps_the_entry():
    """A cell outside a window's slice moves — one the dirty tracker's
    probe rect saw, so it dropped the window's mark — and the window's
    entry survives: the window is skipped, not rebuilt."""
    design, params, memo = converged_grid()
    window, key, _, outside = remembered_window(design, memo)
    entry = memo[key]
    flip(design, outside)
    result = dist_opt(
        design, params, **GRID, memo=memo, window_filter=lambda w: w == window
    )
    assert (result.windows_skipped_clean, result.windows_built) == (1, 0)
    assert memo[key] == entry


def test_move_of_a_net_terminal_drops_the_entry():
    """A terminal of one of the window's nets moves: the slice differs
    from the entry, so the window is rebuilt."""
    design, params, memo = converged_grid()
    window, key, terminal, _ = remembered_window(design, memo)
    entry = memo[key]
    flip(design, terminal)
    result = dist_opt(
        design, params, **GRID, memo=memo, window_filter=lambda w: w == window
    )
    assert (result.windows_skipped_clean, result.windows_built) == (0, 1)
    assert memo.get(key) != entry


class FeasibleBackend(HighsBackend):
    """HiGHS, with every answer reported as a time-limited incumbent."""

    def solve_arrays(self, arrays):
        solution = super().solve_arrays(arrays)
        return dataclasses.replace(solution, status=SolveStatus.FEASIBLE)


class WorstBackend(HighsBackend):
    """HiGHS on the negated objective: a worst placement, proven
    optimal for the model it was given, which the guard reverts
    whenever it moves a cell."""

    def solve_arrays(self, arrays):
        return super().solve_arrays(dataclasses.replace(arrays, c=-arrays.c))


def test_time_limited_outcomes_are_never_remembered():
    """The same pass remembers its no-move windows when HiGHS proves
    them optimal, and none when every answer is a time-limited
    incumbent."""
    outcomes = {}
    for solver in (HighsBackend(mip_rel_gap=0.0), FeasibleBackend()):
        design, tech = small_design()
        params = OptParams.for_arch(tech.arch, **EXACT)
        memo: dict = {}
        result = dist_opt(design, params, **GRID, solver=solver, memo=memo)
        again = dist_opt(design, params, **GRID, solver=solver, memo=memo)
        outcomes[type(solver)] = (result, memo, again)
    proven, proven_memo, _ = outcomes[HighsBackend]
    assert proven_memo
    limited, limited_memo, again = outcomes[FeasibleBackend]
    assert limited.windows_built == proven.windows_built
    assert limited_memo == {}
    assert again.windows_skipped_clean == 0


def test_reverted_outcomes_are_remembered_and_skipped():
    """Once a pass applies nothing, every window of it is remembered,
    reverted ones with their flag, and an identical next pass builds
    nothing."""
    design, tech = small_design()
    params = OptParams.for_arch(tech.arch, **EXACT)
    memo: dict = {}
    kwargs = dict(**GRID, solver=WorstBackend(), memo=memo)
    for _ in range(10):
        result = dist_opt(design, params, **kwargs)
        if result.windows_applied == 0:
            break
    assert result.windows_applied == 0
    assert len(memo) == result.windows_built + result.windows_skipped_clean
    assert any(reverted for _, reverted in memo.values())
    again = dist_opt(design, params, **kwargs)
    assert again.windows_built == 0
    assert again.windows_skipped_clean == len(memo)


def test_reverted_entry_waits_for_earlier_windows_of_its_family():
    """A reverted window's guard read its slice after the earlier
    windows of its family applied theirs, so its entry is used only
    while no window dispatched before it can move a slice instance."""
    design, _ = small_design()
    windows = partition(design, GRID["tx"], GRID["ty"], 1250, 1080)
    for window in windows:
        sliced = window_slice(design, window)
        if sliced is None:
            continue
        for other in windows:
            inside = [
                inst
                for inst in sliced.instances.values()
                if not inst.fixed and other.rect.contains_rect(inst.bbox)
            ]
            if other != window and inside:
                break
        else:
            continue
        break
    else:
        pytest.fail("no window with a terminal inside another window")
    mover = SimpleNamespace(window=other)
    bystander = SimpleNamespace(
        window=Window(0, 0, Rect(-3000, -3000, -2000, -2000))
    )
    assert _out_of_reach(sliced, [])
    assert _out_of_reach(sliced, [bystander])
    assert not _out_of_reach(sliced, [bystander, mover])
