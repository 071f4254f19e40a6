"""Tests for SCP candidate enumeration."""

import pytest

from repro.geometry import Orientation, Rect
from repro.core import enumerate_candidates
from repro.library import build_library
from repro.netlist import Design
from repro.tech import CellArchitecture, make_tech

TECH = make_tech(CellArchitecture.CLOSED_M1)
LIB = build_library(TECH)


@pytest.fixture()
def design():
    die = Rect(0, 0, 40 * TECH.site_width, 4 * TECH.row_height)
    d = Design("t", TECH, die)
    d.add_instance("u1", LIB.macro("INV_X1_RVT"))
    d.place("u1", column=10, row=1)
    return d


def test_identity_candidate_first(design):
    inst = design.instances["u1"]
    cands = enumerate_candidates(
        design, inst, design.die, lx=2, ly=1, allow_flip=True
    )
    first = cands[0]
    assert (first.column, first.row, first.flipped) == (10, 1, False)
    assert first.orientation is Orientation.FS


def test_candidate_count(design):
    inst = design.instances["u1"]
    cands = enumerate_candidates(
        design, inst, design.die, lx=2, ly=1, allow_flip=True
    )
    # 5 columns x 3 rows x 2 flips, all interior: 30
    assert len(cands) == 30
    keys = {(c.column, c.row, c.flipped) for c in cands}
    assert len(keys) == len(cands)


def test_zero_perturbation_flip_only(design):
    inst = design.instances["u1"]
    cands = enumerate_candidates(
        design, inst, design.die, lx=0, ly=0, allow_flip=True
    )
    assert len(cands) == 2
    assert {c.flipped for c in cands} == {False, True}
    assert all(c.column == 10 and c.row == 1 for c in cands)


def test_region_containment(design):
    inst = design.instances["u1"]
    region = Rect(
        9 * TECH.site_width,
        TECH.row_height,
        16 * TECH.site_width,
        2 * TECH.row_height,
    )
    cands = enumerate_candidates(
        design, inst, region, lx=4, ly=2, allow_flip=False
    )
    for cand in cands:
        footprint = Rect(
            cand.x, cand.y, cand.x + inst.width, cand.y + inst.height
        )
        assert region.contains_rect(footprint)
    assert all(c.row == 1 for c in cands)  # region is one row tall
    assert {c.column for c in cands} == {9, 10, 11, 12}


def test_die_boundary_clipping(design):
    design.place("u1", column=0, row=0)
    inst = design.instances["u1"]
    cands = enumerate_candidates(
        design, inst, design.die, lx=3, ly=2, allow_flip=False
    )
    assert all(c.column >= 0 and c.row >= 0 for c in cands)
    assert min(c.column for c in cands) == 0


def test_orientation_follows_row(design):
    inst = design.instances["u1"]
    cands = enumerate_candidates(
        design, inst, design.die, lx=0, ly=1, allow_flip=False
    )
    for cand in cands:
        assert cand.orientation is Orientation.for_row(
            cand.row, cand.flipped
        )


def test_covered_sites(design):
    inst = design.instances["u1"]
    cands = enumerate_candidates(
        design, inst, design.die, lx=0, ly=0, allow_flip=False
    )
    sites = list(cands[0].covered_sites(inst.macro.width_sites))
    assert sites == [(1, 10), (1, 11), (1, 12), (1, 13)]


def test_covered_sites_precomputed_at_construction(design):
    """Satellite: every enumerated candidate carries its site tuple so
    the site-packing rows never recompute it per pair."""
    inst = design.instances["u1"]
    width = inst.macro.width_sites
    for cand in enumerate_candidates(
        design, inst, design.die, lx=2, ly=1, allow_flip=True
    ):
        assert cand.sites  # populated, not lazily derived
        assert cand.sites == tuple(
            (cand.row, col)
            for col in range(cand.column, cand.column + width)
        )
        assert cand.covered_sites(width) is cand.sites


def test_no_flips_when_flip_disabled(design):
    inst = design.instances["u1"]
    cands = enumerate_candidates(
        design, inst, design.die, lx=3, ly=2, allow_flip=False
    )
    assert cands
    assert all(not c.flipped for c in cands)


def test_zero_perturbation_no_flip_is_exactly_identity(design):
    inst = design.instances["u1"]
    cands = enumerate_candidates(
        design, inst, design.die, lx=0, ly=0, allow_flip=False
    )
    assert len(cands) == 1
    only = cands[0]
    assert (only.column, only.row, only.flipped) == (10, 1, False)
    assert (only.x, only.y) == (inst.x, inst.y)


def test_identity_always_first_with_perturbation(design):
    """The identity candidate is index 0 regardless of lx/ly/flip.
    The window model's identity assignment (λ on candidate 0), the
    tie-break's lightest weight and the presolve rely on that
    ordering."""
    inst = design.instances["u1"]
    for lx, ly, flip in [(1, 0, False), (3, 2, True), (0, 1, True)]:
        cands = enumerate_candidates(
            design, inst, design.die, lx=lx, ly=ly, allow_flip=flip
        )
        first = cands[0]
        assert (first.column, first.row, first.flipped) == (
            10, 1, False,
        )
