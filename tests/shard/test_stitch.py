"""Tests for repro.shard.stitch — merge, seam filter, verification."""

import pytest

from repro.core import OptParams, ParamSet
from repro.core.window import partition
from repro.library import build_library
from repro.netlist import generate_design
from repro.placement import place_design
from repro.shard.partition import plan_shards
from repro.shard.runner import run_sharded
from repro.shard.stitch import (
    merge_shard_placements,
    seam_window_filter,
    verify_stitched,
)
from repro.tech import CellArchitecture, make_tech

TECH = make_tech(CellArchitecture.CLOSED_M1)
LIB = build_library(TECH)


@pytest.fixture(scope="module")
def design():
    design = generate_design("aes", TECH, LIB, scale=0.05, seed=1)
    place_design(design, seed=1)
    return design


def test_merge_counts_only_real_moves(design):
    name = next(iter(design.instances))
    inst = design.instances[name]
    same = {
        name: (inst.x, inst.y, inst.orientation.value),
    }
    assert merge_shard_placements(design, same) == 0
    shifted = {
        name: (
            inst.x + TECH.site_width,
            inst.y,
            inst.orientation.value,
        ),
    }
    assert merge_shard_placements(design, shifted) == 1
    assert inst.x % TECH.site_width == 0
    # Restore for the other module-scoped tests.
    merge_shard_placements(design, same)
    assert design.instances[name].x == same[name][0]


def test_seam_filter_selects_straddling_windows(design):
    plan = plan_shards(design, 3, halo_rows=2)
    accept = seam_window_filter(design, plan)
    windows = partition(design, 0, 0, 1250, 1080)
    kept = [w for w in windows if accept(w)]
    assert kept and len(kept) < len(windows)
    margin = max(1, plan.halo_rows) * TECH.row_height
    for window in kept:
        assert any(
            window.rect.ylo < y + margin
            and window.rect.yhi > y - margin
            for y in plan.seam_ys
        )
    for window in windows:
        if window not in kept:
            assert all(
                window.rect.yhi <= y - margin
                or window.rect.ylo >= y + margin
                for y in plan.seam_ys
            )


def test_verify_stitched_clean_on_legal_placement(design):
    assert verify_stitched(design) == []


def test_verify_stitched_reports_both_checkers(design):
    name = next(iter(design.instances))
    inst = design.instances[name]
    x = inst.x
    inst.x = x + 1  # off-site: illegal for both checkers
    try:
        errors = verify_stitched(design)
    finally:
        inst.x = x
    assert any(e.startswith("oracle:") for e in errors)
    assert any(e.startswith("production:") for e in errors)


def test_seam_params_exist():
    params = OptParams.for_arch(TECH.arch)
    assert params.sequence, "seam pass reads the last ParamSet"


@pytest.mark.parametrize(
    "arch, shards",
    [(CellArchitecture.OPEN_M1, 2), (CellArchitecture.CLOSED_M1, 3)],
)
def test_seam_pass_builds_every_admitted_window(arch, shards):
    """The seam pass is plain DistOpt over the windows
    :func:`seam_window_filter` admits: it builds every one of them and
    skips none."""
    tech = make_tech(arch)
    design = generate_design(
        "aes", tech, build_library(tech), scale=0.02, seed=2
    )
    place_design(design, seed=1)
    params = OptParams.for_arch(
        arch, sequence=(ParamSet.square(1.0, 3, 1),), time_limit=2.0
    )
    result = run_sharded(design, params, shards=shards, halo_rows=2)

    # The seam grid: the last parameter set's windows, shifted half a
    # window (in whole rows) vertically.
    u = params.sequence[-1]
    bh = tech.dbu(u.bh_um)
    ty = (bh // 2 // tech.row_height) * tech.row_height
    accept = seam_window_filter(design, result.plan)
    admitted = [
        w
        for w in partition(design, 0, ty, tech.dbu(u.bw_um), bh)
        if accept(w)
    ]
    seam = result.stitch.seam_pass
    assert len(admitted) >= 10
    assert seam.windows_built == len(admitted)
    assert seam.windows_skipped_clean == 0
