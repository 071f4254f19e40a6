"""Tests for Algorithm 2 (DistOpt)."""

import pytest

from repro.core import OptParams
from repro.core.distopt import dist_opt
from repro.core.objective import calculate_objective
from repro.library import build_library
from repro.netlist import generate_design
from repro.placement import place_design
from repro.tech import CellArchitecture, make_tech


@pytest.fixture(scope="module")
def placed():
    tech = make_tech(CellArchitecture.CLOSED_M1)
    lib = build_library(tech)
    design = generate_design("aes", tech, lib, scale=0.015, seed=3)
    place_design(design, seed=1)
    return design


def run_pass(design, params, **kwargs):
    defaults = dict(
        tx=0, ty=0, bw=1250, bh=1080, lx=3, ly=1, allow_flip=False
    )
    defaults.update(kwargs)
    return dist_opt(design, params, **defaults)


def test_objective_never_increases(placed):
    snap = placed.placement_snapshot()
    try:
        params = OptParams.for_arch(placed.tech.arch, time_limit=5.0)
        before = calculate_objective(placed, params)
        result = run_pass(placed, params)
        assert result.objective <= before + 1e-6
        assert result.windows_built > 0
    finally:
        placed.restore_placement(snap)


def test_legality_preserved(placed):
    snap = placed.placement_snapshot()
    try:
        params = OptParams.for_arch(placed.tech.arch, time_limit=5.0)
        run_pass(placed, params)
        assert placed.check_legal() == []
    finally:
        placed.restore_placement(snap)


def test_alignment_increases_with_alpha(placed):
    from repro.core.objective import alignment_stats

    snap = placed.placement_snapshot()
    params = OptParams.for_arch(
        placed.tech.arch, alpha=5000.0, time_limit=5.0
    )
    try:
        before = alignment_stats(placed, params).num_aligned
        run_pass(placed, params)
        after = alignment_stats(placed, params).num_aligned
        assert after > before
    finally:
        placed.restore_placement(snap)


def test_flip_only_pass_moves_nothing_off_site(placed):
    snap = placed.placement_snapshot()
    try:
        params = OptParams.for_arch(placed.tech.arch, time_limit=5.0)
        before_pos = {
            name: (inst.x, inst.y)
            for name, inst in placed.instances.items()
        }
        run_pass(placed, params, lx=0, ly=0, allow_flip=True)
        for name, inst in placed.instances.items():
            assert (inst.x, inst.y) == before_pos[name]
        assert placed.check_legal() == []
    finally:
        placed.restore_placement(snap)


def test_modeled_parallel_time_not_more_than_wall(placed):
    snap = placed.placement_snapshot()
    try:
        params = OptParams.for_arch(placed.tech.arch, time_limit=5.0)
        result = run_pass(placed, params)
        assert 0 < result.modeled_parallel_seconds <= (
            result.wall_seconds + 1e-9
        )
        assert result.family_count >= 1
    finally:
        placed.restore_placement(snap)


def test_determinism(placed):
    params = OptParams.for_arch(placed.tech.arch, time_limit=5.0)
    snap = placed.placement_snapshot()
    run_pass(placed, params)
    first = placed.placement_snapshot()
    placed.restore_placement(snap)
    run_pass(placed, params)
    second = placed.placement_snapshot()
    placed.restore_placement(snap)
    assert first == second


def brute_force_slice(design, window):
    """A window slice by a full scan of the design: every instance
    whose bbox overlaps the window rect (open test), in design order,
    then the terminals of the contained movables' nets, in net order."""
    rect = window.rect
    instances = {
        name: inst
        for name, inst in design.instances.items()
        if inst.bbox.overlaps_open(rect)
    }
    movable = {
        name
        for name, inst in instances.items()
        if not inst.fixed and rect.contains_rect(inst.bbox)
    }
    if not movable:
        return None
    nets = design.nets_of_instances(movable)
    for net in nets:
        for ref in net.pins:
            instances.setdefault(ref.instance, design.instances[ref.instance])
    return list(instances), [net.name for net in nets]


def test_indexed_slices_equal_full_scans(monkeypatch):
    """Over every pass of a reference flow, the slice each window gets
    through its family's SliceIndex equals a brute-force scan of the
    window rect: the same instances in the same order, and the same
    nets.  The flow has a family that applies nothing and hands its
    index to a next family that applies a move, and every applied move
    drops the index."""
    from repro.core import ParamSet, distopt
    from repro.core.vm1opt import vm1_opt

    tech = make_tech(CellArchitecture.CLOSED_M1)
    design = generate_design(
        "aes", tech, build_library(tech), scale=0.01, seed=2
    )
    place_design(design, seed=2)
    params = OptParams.for_arch(
        tech.arch, sequence=(ParamSet.square(1.0, 3, 1),), time_limit=10.0
    )
    indexed_slice = distopt.window_slice
    compared = []

    def both(design, window, index):
        indexed = indexed_slice(design, window, index)
        full = brute_force_slice(design, window)
        assert (indexed is None) == (full is None)
        if full is not None:
            assert (list(indexed.instances), list(indexed.nets)) == full
        compared.append(window)
        return indexed

    run_family = distopt._run_family
    families = []

    def family(*args, result, index, **kwargs):
        applied = result.windows_applied
        next_id, out = run_family(*args, result=result, index=index, **kwargs)
        families.append((index, out, result.windows_applied - applied))
        return next_id, out

    monkeypatch.setattr(distopt, "window_slice", both)
    monkeypatch.setattr(distopt, "_run_family", family)
    vm1_opt(design, params)
    assert len(compared) > 100
    assert all(out is None for _, out, applied in families if applied)
    assert any(
        index is not None and applied and index is previous_out
        for (_, previous_out, previous_applied), (index, _, applied) in zip(
            families, families[1:]
        )
        if not previous_applied
    )


@pytest.mark.parametrize("arch", list(CellArchitecture))
def test_slice_builds_equal_full_design_builds(monkeypatch, arch):
    """For every window of a reference flow (memo off, so every window
    is built), the model built on the window-rect slice equals the one
    built on the full design, bit for bit: the slice is the build's
    whole input."""
    import numpy as np

    from repro.core import ParamSet, distopt
    from repro.core.formulation import build_window_model
    from repro.core.vm1opt import vm1_opt

    tech = make_tech(arch)
    design = generate_design(
        "aes", tech, build_library(tech), scale=0.008, seed=1
    )
    place_design(design, seed=1)
    params = OptParams.for_arch(
        arch, sequence=(ParamSet.square(1.0, 2, 1),), time_limit=10.0
    )
    task_class = distopt.WindowTask
    compared = []

    def checked_task(**task):
        kwargs = dict(
            lx=task["lx"], ly=task["ly"], allow_flip=task["allow_flip"]
        )
        on_slice = build_window_model(
            task["design"], task["window"], task["params"], **kwargs
        )
        on_design = build_window_model(
            design, task["window"], params, **kwargs
        )
        for name, value in vars(on_design.arrays).items():
            other = getattr(on_slice.arrays, name)
            if isinstance(value, np.ndarray):
                assert value.dtype == other.dtype, name
                assert value.tobytes() == other.tobytes(), name
            else:
                assert value == other, name
        assert on_slice.movable == on_design.movable
        assert on_slice.nets == on_design.nets
        assert on_slice.pairs == on_design.pairs
        compared.append(task["window"])
        return task_class(**task)

    monkeypatch.setattr(distopt, "WindowTask", checked_task)
    vm1_opt(design, params, window_memo=False)
    assert len(compared) >= 30
