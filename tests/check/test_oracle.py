"""The oracle vs the production implementation — two independent
derivations of pin geometry, legality, and the objective must agree on
real designs, and the oracle must catch constructed violations the
production optimizer could introduce."""

import pytest

from repro.check.oracle import (
    check_displacement,
    check_fixed_unmoved,
    check_legal,
    oracle_alignment_stats,
    oracle_objective,
    oracle_pin_interval,
    oracle_pin_point,
)
from repro.core.objective import alignment_stats, calculate_objective
from repro.core.params import OptParams
from repro.library import build_library
from repro.netlist import generate_design
from repro.placement import place_design
from repro.tech import CellArchitecture, make_tech

ARCHS = list(CellArchitecture)


def _placed(arch, seed=4, scale=0.01):
    tech = make_tech(arch)
    library = build_library(tech)
    design = generate_design("aes", tech, library, scale=scale, seed=seed)
    place_design(design, seed=seed)
    return design


@pytest.fixture(scope="module", params=ARCHS, ids=lambda a: a.value)
def design(request):
    return _placed(request.param)


def test_oracle_pin_geometry_matches_production(design):
    for inst in design.instances.values():
        for pin_name, pin in inst.macro.pins.items():
            x, y = oracle_pin_point(inst, pin_name)
            pos = inst.pin_position(pin_name)
            assert (x, y) == (pos.x, pos.y), (inst.name, pin_name)
            lo, hi = oracle_pin_interval(inst, pin_name)
            iv = inst.pin_x_interval(pin_name)
            assert (lo, hi) == (iv.lo, iv.hi), (inst.name, pin_name)


def test_oracle_legality_agrees_on_legal_design(design):
    assert design.check_legal() == []
    assert check_legal(design) == []


def test_oracle_alignment_stats_match_production(design):
    params = OptParams.for_arch(design.tech.arch)
    ours = oracle_alignment_stats(design, params)
    theirs = alignment_stats(design, params)
    assert ours.num_aligned == theirs.num_aligned
    assert ours.total_overlap == theirs.total_overlap


def _window_net_subsets(design, params, count=6):
    """The local ``nets=`` lists the guarded apply evaluates: the
    touched nets of built window models."""
    from repro.core.formulation import build_window_model
    from repro.core.window import partition

    subsets = []
    for window in partition(design, 0, 0, 1250, 1080):
        problem = build_window_model(
            design, window, params, lx=2, ly=1, allow_flip=False
        )
        if problem is not None and problem.nets:
            subsets.append([design.nets[name] for name in problem.nets])
        if len(subsets) == count:
            break
    return subsets


def test_oracle_objective_matches_production(design):
    """Whole design and the guard's local ``nets=`` subsets, with
    uniform β and with a non-integer per-net weight map (nets missing
    from it keep β): the same terms summed in the same order."""
    from dataclasses import replace

    uniform = OptParams.for_arch(design.tech.arch)
    weighted = replace(
        uniform,
        net_beta={
            name: 1.0 + 0.37 * (i % 5)
            for i, name in enumerate(sorted(design.nets))
            if i % 3
        },
    )
    subsets = _window_net_subsets(design, uniform)
    assert subsets
    for params in (uniform, weighted):
        assert oracle_objective(design, params) == calculate_objective(
            design, params
        )
        for nets in subsets:
            assert oracle_objective(
                design, params, nets
            ) == calculate_objective(design, params, nets)


# ------------------------------------------------ violation detection
def test_oracle_catches_off_grid_x():
    design = _placed(CellArchitecture.CLOSED_M1)
    inst = next(iter(design.instances.values()))
    inst.x += 7
    errors = check_legal(design)
    assert any("site grid" in e for e in errors)


def test_oracle_catches_overlap():
    design = _placed(CellArchitecture.CLOSED_M1)
    names = sorted(design.instances)
    a, b = design.instances[names[0]], design.instances[names[1]]
    b.x, b.y, b.orientation = a.x, a.y, a.orientation
    errors = check_legal(design)
    assert any("occupied by both" in e for e in errors)


def test_oracle_catches_orientation_parity():
    design = _placed(CellArchitecture.CLOSED_M1)
    inst = next(iter(design.instances.values()))
    row = design.row_of(inst)
    inst.orientation = inst.orientation.flipped()  # keeps parity
    assert not any(
        "orientation" in e for e in check_legal(design)
    )
    # Re-place into the adjacent row WITHOUT fixing the orientation.
    inst.y += design.tech.row_height * (1 if row == 0 else -1)
    errors = check_legal(design)
    assert any("illegal in row" in e for e in errors)


def test_oracle_catches_fixed_cell_motion():
    design = _placed(CellArchitecture.CLOSED_M1)
    before = design.placement_snapshot()
    name = sorted(design.instances)[0]
    design.instances[name].fixed = True
    design.instances[name].x += design.tech.site_width
    errors = check_fixed_unmoved(design, before)
    assert errors and name in errors[0]


def test_oracle_catches_displacement_violation():
    design = _placed(CellArchitecture.CLOSED_M1)
    before = design.placement_snapshot()
    name = sorted(design.instances)[0]
    inst = design.instances[name]
    inst.x += 5 * design.tech.site_width
    errors = check_displacement(
        design, before, [name], design.die, lx=2, ly=0,
        allow_flip=True,
    )
    assert any("moved 5 sites" in e for e in errors)
    # And a non-window cell moving at all is flagged.
    other = sorted(design.instances)[1]
    design.instances[other].x += design.tech.site_width
    errors = check_displacement(
        design, before, [name], design.die, lx=8, ly=0,
        allow_flip=True,
    )
    assert any(other in e and "non-window" in e for e in errors)


def test_oracle_catches_forbidden_flip():
    design = _placed(CellArchitecture.CLOSED_M1)
    before = design.placement_snapshot()
    name = sorted(design.instances)[0]
    inst = design.instances[name]
    inst.orientation = inst.orientation.flipped()
    errors = check_displacement(
        design, before, [name], design.die, lx=1, ly=0,
        allow_flip=False,
    )
    assert any("allow_flip" in e for e in errors)
