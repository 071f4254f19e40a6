"""Convergence-accounting tests for the incremental DistOpt engine.

The delta-accounted objective (initial objective + the sum of the
guarded applies' local deltas) must agree with a full
``calculate_objective`` recompute after every kind of pass outcome —
applied, reverted, no-move, and flip passes — on all three seeded
architectures.  ``objective_audit=True`` arms the in-run drift check
(``AssertionError`` past ``DRIFT_TOLERANCE`` on any pass), and the
tests re-verify the final figure independently.

Also here: the late-pass clean-skip guarantee (a converged pass is
answered entirely by the dirty tracker — zero builds, placement
untouched).
"""

import pytest

from repro.core import OptParams, ParamSet
from repro.core.distopt import (
    DRIFT_TOLERANCE,
    _apply_guarded,
    dist_opt,
    DistOptResult,
)
from repro.core.dirty import DirtyTracker
from repro.core.objective import calculate_objective
from repro.core.vm1opt import vm1_opt
from repro.library import build_library
from repro.netlist import generate_design
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
    result = vm1_opt(
        design, params, dirty_tracking=True, objective_audit=True
    )
    full = calculate_objective(design, params)
    assert abs(result.final_objective - full) < DRIFT_TOLERANCE


def test_vm1opt_dirty_off_unchanged_objective():
    """Dirty-off keeps the legacy full recompute and both switches
    agree bit for bit on placement and objective."""
    design_on, tech = small_design()
    params = OptParams.for_arch(tech.arch, **LOOP)
    on = vm1_opt(
        design_on, params, dirty_tracking=True, objective_audit=True
    )
    design_off, _ = small_design()
    off = vm1_opt(design_off, params, dirty_tracking=False)
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
    """A worsening move is reverted and contributes no delta and no
    dirty rects; the design is byte-identical afterwards."""
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
    status, moved, delta, rects = _apply_guarded(
        design, params, outcome, result
    )
    assert status == "reverted"
    assert moved == 0
    assert delta == 0.0
    assert rects == ()
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
    status, moved, delta, rects = _apply_guarded(
        design, params, outcome, result
    )
    assert status == "no_move"
    assert (moved, delta, rects) == (0, 0.0, ())
    assert design.placement_snapshot() == before


def test_distopt_applied_pass_delta_is_exact():
    """One real pass with applies: initial + delta == full recompute,
    to strictly below the audit tolerance."""
    design, tech = small_design()
    params = OptParams.for_arch(tech.arch, **EXACT)
    initial = calculate_objective(design, params)
    dirty = DirtyTracker()
    result = dist_opt(
        design, params, **GRID,
        dirty=dirty, objective=initial, audit=True,
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
        dirty=DirtyTracker(), objective=initial, audit=True,
    )
    assert result.objective_drift is not None
    assert result.objective_drift < DRIFT_TOLERANCE


# ------------------------------------------------- late-pass skipping
def test_converged_pass_is_skipped_clean_without_building():
    """Once identical passes reach a fixpoint, the next identical pass
    is answered entirely by the dirty tracker: every window the
    converged pass built or skipped is skipped *before* the build.
    (Uses dist_opt directly: vm1_opt's alternating grid shifts delay
    key reuse to iteration 3+.)"""
    design, tech = small_design()
    params = OptParams.for_arch(tech.arch, **EXACT)
    dirty = DirtyTracker()
    objective = calculate_objective(design, params)
    kwargs = dict(**GRID, dirty=dirty, audit=True)

    for _ in range(10):
        result = dist_opt(
            design, params, objective=objective, **kwargs
        )
        objective = result.objective
        if result.moved_cells == 0:
            break
    assert result.moved_cells == 0

    snap = design.placement_snapshot()
    telemetry = RunTelemetry()
    extra = dist_opt(
        design, params, objective=objective,
        telemetry=telemetry, **kwargs,
    )
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
    dirtied neighborhoods — it cannot be answered entirely by marks."""
    design, tech = small_design()
    params = OptParams.for_arch(tech.arch, **EXACT)
    dirty = DirtyTracker()
    objective = calculate_objective(design, params)
    first = dist_opt(
        design, params, **GRID,
        dirty=dirty, objective=objective, audit=True,
    )
    if first.windows_applied == 0:
        pytest.skip("seed produced no applies")
    second = dist_opt(
        design, params, **GRID,
        dirty=dirty, objective=first.objective, audit=True,
    )
    assert second.windows_built > 0
