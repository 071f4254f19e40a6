"""Tests for the window MILP formulation — §3.1 / §3.2 semantics."""

import pytest

from repro.core import OptParams, Window, build_window_model
from repro.core.formulation import apply_solution
from repro.core.objective import alignment_stats
from repro.geometry import Rect
from repro.library import build_library
from repro.milp import HighsBackend
from repro.netlist import Design
from repro.tech import CellArchitecture, make_tech

SOLVER = HighsBackend()


def make_design(arch, placements, macro="INV_X1_RVT", wire=True):
    tech = make_tech(arch)
    lib = build_library(tech)
    die = Rect(0, 0, 40 * tech.site_width, 4 * tech.row_height)
    d = Design("t", tech, die)
    for i, (col, row) in enumerate(placements):
        d.add_instance(f"u{i}", lib.macro(macro))
        d.place(f"u{i}", column=col, row=row)
    if wire and len(placements) >= 2:
        d.add_net("n")
        u0 = d.instances["u0"].macro
        u1 = d.instances["u1"].macro
        d.connect("n", "u0", u0.output_pins[0].name)
        d.connect("n", "u1", u1.input_pins[0].name)
    return d


def whole_die_window(d):
    return Window(0, 0, d.die)


def solve_window(d, params, lx=3, ly=1, allow_flip=False):
    problem = build_window_model(
        d, whole_die_window(d), params, lx=lx, ly=ly,
        allow_flip=allow_flip,
    )
    assert problem is not None
    solution = SOLVER.solve_arrays(problem.arrays)
    assert solution.status.has_solution
    apply_solution(d, problem, solution)
    return problem, solution


def test_alpha_drives_alignment_closedm1():
    """With a large α the MILP aligns the INV pair; with α=0 it does
    not bother (the pair is 2 sites off; aligning costs HPWL)."""
    d = make_design(CellArchitecture.CLOSED_M1, [(10, 0), (13, 1)])
    params = OptParams.for_arch(d.tech.arch, alpha=5000.0)
    solve_window(d, params)
    assert d.check_legal() == []
    assert alignment_stats(d, params).num_aligned == 1

    d0 = make_design(CellArchitecture.CLOSED_M1, [(10, 0), (13, 1)])
    zero = OptParams.for_arch(d0.tech.arch, alpha=0.0)
    solve_window(d0, zero)
    # Pure HPWL: cells pulled together but no reason to align exactly
    # beyond what HPWL minimization gives for free.
    assert d0.total_hpwl() <= 2 * d.total_hpwl()


def test_milp_never_worsens_objective():
    """Identity is always feasible, so the optimum cannot exceed the
    initial objective."""
    d = make_design(CellArchitecture.CLOSED_M1, [(5, 0), (20, 2)])
    params = OptParams.for_arch(d.tech.arch)
    from repro.core.objective import calculate_objective

    before = calculate_objective(d, params)
    solve_window(d, params)
    after = calculate_objective(d, params)
    assert after <= before + 1e-6


def test_site_packing_prevents_overlap():
    """Two cells squeezed toward each other must not overlap."""
    d = make_design(CellArchitecture.CLOSED_M1, [(10, 0), (14, 0)])
    params = OptParams.for_arch(d.tech.arch, alpha=10**6)
    solve_window(d, params, lx=4, ly=0)
    assert d.check_legal() == []


def test_boundary_cells_block_sites():
    """A cell straddling the window boundary is immovable and its
    sites are unavailable to movable cells."""
    tech = make_tech(CellArchitecture.CLOSED_M1)
    lib = build_library(tech)
    die = Rect(0, 0, 40 * tech.site_width, 2 * tech.row_height)
    d = Design("t", tech, die)
    d.add_instance("in_w", lib.macro("INV_X1_RVT"))
    d.place("in_w", column=5, row=0)
    d.add_instance("straddle", lib.macro("INV_X1_RVT"))
    d.place("straddle", column=9, row=0)  # covers sites 9..12
    window = Window(0, 0, Rect(0, 0, 10 * tech.site_width,
                               2 * tech.row_height))
    params = OptParams.for_arch(tech.arch)
    problem = build_window_model(
        d, window, params, lx=4, ly=0, allow_flip=False
    )
    assert problem.movable == ["in_w"]
    for cand in problem.candidates["in_w"]:
        assert cand.column + 4 <= 9  # never into the straddler
    solution = SOLVER.solve_arrays(problem.arrays)
    apply_solution(d, problem, solution)
    assert d.check_legal() == []


def test_flip_only_pass_aligns():
    """The f=1 pass (no displacement) can align via mirroring."""
    d = make_design(CellArchitecture.CLOSED_M1, [(10, 0), (10, 1)])
    params = OptParams.for_arch(d.tech.arch, alpha=5000.0)
    assert alignment_stats(d, params).num_aligned == 0
    solve_window(d, params, lx=0, ly=0, allow_flip=True)
    assert alignment_stats(d, params).num_aligned == 1
    assert d.instances["u1"].flipped or d.instances["u0"].flipped


def test_openm1_overlap_objective():
    """OpenM1: the MILP creates pin overlap where ClosedM1-style exact
    alignment is unnecessary."""
    d = make_design(
        CellArchitecture.OPEN_M1, [(5, 0), (15, 1)], macro="NAND2_X1_RVT"
    )
    # Wire ZN(u0) -> A1(u1).
    params = OptParams.for_arch(d.tech.arch, alpha=8000.0)
    before = alignment_stats(d, params)
    assert before.num_aligned == 0
    solve_window(d, params, lx=6, ly=1)
    after = alignment_stats(d, params)
    assert after.num_aligned == 1
    assert d.check_legal() == []


def test_openm1_epsilon_prefers_longer_overlap():
    """With ε large, the chosen placement maximizes overlap length,
    not just the indicator."""
    d1 = make_design(CellArchitecture.OPEN_M1, [(5, 0), (12, 1)])
    p_ind = OptParams.for_arch(d1.tech.arch, alpha=4000.0, epsilon=0.0)
    solve_window(d1, p_ind, lx=6, ly=0)
    s1 = alignment_stats(d1, p_ind)

    d2 = make_design(CellArchitecture.OPEN_M1, [(5, 0), (12, 1)])
    p_eps = OptParams.for_arch(d2.tech.arch, alpha=4000.0, epsilon=50.0)
    solve_window(d2, p_eps, lx=6, ly=0)
    s2 = alignment_stats(d2, p_eps)
    assert s2.num_aligned >= s1.num_aligned
    assert s2.total_overlap >= s1.total_overlap


def test_gamma_blocks_far_pairs():
    """Pins that cannot come within γ rows under any candidate get no
    alignment variable at all (sound pruning)."""
    d = make_design(CellArchitecture.CLOSED_M1, [(10, 0), (11, 3)])
    params = OptParams.for_arch(d.tech.arch)  # gamma = 1
    problem = build_window_model(
        d, whole_die_window(d), params, lx=3, ly=0, allow_flip=False
    )
    assert problem.num_pairs == 0
    # With ly=1 the cells can reach rows 1 and 2: pair kept.
    problem2 = build_window_model(
        d, whole_die_window(d), params, lx=3, ly=1, allow_flip=False
    )
    assert problem2.num_pairs == 1


def test_empty_window_returns_none():
    d = make_design(CellArchitecture.CLOSED_M1, [(10, 0)], wire=False)
    window = Window(
        0, 0, Rect(20 * 36, 0, 30 * 36, d.tech.row_height)
    )
    params = OptParams.for_arch(d.tech.arch)
    assert build_window_model(
        d, window, params, lx=2, ly=0, allow_flip=False
    ) is None


def test_pads_anchor_hpwl():
    """A net with an IO pad keeps the pad inside its bounding box, so
    the MILP cannot pretend HPWL vanishes."""
    from repro.geometry import Point

    d = make_design(CellArchitecture.CLOSED_M1, [(10, 0)], wire=False)
    d.add_net("n")
    d.connect("n", "u0", "ZN")
    d.nets["n"].pads.append(Point(0, 0))
    params = OptParams.for_arch(d.tech.arch, alpha=0.0)
    problem, solution = None, None
    problem = build_window_model(
        d, whole_die_window(d), params, lx=5, ly=1, allow_flip=False
    )
    solution = SOLVER.solve_arrays(problem.arrays)
    apply_solution(d, problem, solution)
    # Pure HPWL pull: the cell walks toward the pad at (0, 0).
    assert d.column_of(d.instances["u0"]) == 5
    assert d.row_of(d.instances["u0"]) == 0


def test_model_objective_matches_local_objective():
    """The MILP objective evaluated at its solution equals the real
    (recomputed) local objective up to the tie-break budget — no
    formulation drift beyond the deliberate λ perturbation."""
    from repro.core.formulation import _TIE_BREAK_BUDGET
    from repro.core.objective import calculate_objective

    d = make_design(CellArchitecture.CLOSED_M1, [(10, 0), (13, 1)])
    params = OptParams.for_arch(d.tech.arch, alpha=700.0)
    problem = build_window_model(
        d, whole_die_window(d), params, lx=3, ly=1, allow_flip=False
    )
    solution = SOLVER.solve_arrays(problem.arrays)
    apply_solution(d, problem, solution)
    nets = [d.nets[name] for name in problem.nets]
    drift = solution.objective - calculate_objective(d, params, nets)
    assert 0.0 <= drift < _TIE_BREAK_BUDGET
