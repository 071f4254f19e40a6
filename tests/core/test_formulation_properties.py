"""Property tests of the window MILP: soundness on random designs.

For arbitrary small legal designs, the window MILP must (1) be
feasible (the identity placement is always a candidate), (2) never
return an objective above the initial local objective, (3) produce a
legal placement, and (4) report an objective that exactly matches the
re-evaluated placement — the formulation and the evaluator agree.
(5) With every λ pinned to candidate 0 the model stays feasible and
its optimum is the initial local objective plus the tie-break weight.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import OptParams, Window, build_window_model
from repro.core.formulation import _TIE_BREAK_BUDGET, apply_solution
from repro.core.objective import calculate_objective
from repro.geometry import Rect
from repro.library import build_library
from repro.milp import HighsBackend
from repro.netlist import Design
from repro.tech import CellArchitecture, make_tech

SOLVER = HighsBackend(time_limit=10.0)
MACRO_NAMES = ("INV_X1_RVT", "NAND2_X1_RVT", "BUF_X1_RVT")


def random_design(arch, seed):
    rng = np.random.RandomState(seed)
    tech = make_tech(arch)
    lib = build_library(tech)
    die = Rect(0, 0, 40 * tech.site_width, 4 * tech.row_height)
    d = Design("t", tech, die)
    # Greedy legal placement of 4-8 random cells.
    frontier = [0, 0, 0, 0]
    n_cells = rng.randint(4, 9)
    for i in range(n_cells):
        macro = lib.macro(MACRO_NAMES[rng.randint(len(MACRO_NAMES))])
        row = int(rng.randint(4))
        gap = int(rng.randint(0, 5))
        col = frontier[row] + gap
        if col + macro.spec.width_sites > 40:
            continue
        name = f"u{i}"
        d.add_instance(name, macro)
        d.place(name, column=col, row=row,
                flipped=bool(rng.randint(2)))
        frontier[row] = col + macro.spec.width_sites
    names = sorted(d.instances)
    if len(names) < 2:
        return None
    # Random 2-3 pin nets.
    for k in range(max(2, len(names) - 2)):
        net = d.add_net(f"n{k}")
        members = rng.choice(
            len(names), size=min(len(names), 2 + (k % 2)),
            replace=False,
        )
        used_output = False
        for idx in members:
            inst = d.instances[names[idx]]
            pins = (
                inst.macro.output_pins
                if not used_output
                else inst.macro.input_pins
            )
            free = [
                p for p in pins if p.name not in inst.net_of_pin
            ]
            if not free:
                continue
            d.connect(net.name, names[idx], free[0].name)
            used_output = True
    return d


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from(
        [CellArchitecture.CLOSED_M1, CellArchitecture.OPEN_M1]
    ),
    st.integers(0, 10**6),
)
def test_window_milp_soundness(arch, seed):
    design = random_design(arch, seed)
    if design is None:
        return
    assert design.check_legal() == []
    params = OptParams.for_arch(arch, alpha=800.0, time_limit=10.0)
    window = Window(0, 0, design.die)
    problem = build_window_model(
        design, window, params, lx=3, ly=1, allow_flip=True
    )
    if problem is None:
        return
    nets = [design.nets[n] for n in problem.nets]
    before = calculate_objective(design, params, nets)

    # (5) the identity assignment is feasible and scores the current
    # placement: every window solve relies on it.
    lb = problem.arrays.lb.copy()
    for cols in problem.lambda_cols.values():
        lb[cols[0]] = 1.0
    identity = replace(problem.arrays, lb=lb)
    pinned = SOLVER.solve_arrays(identity)
    assert pinned.status.has_solution
    assert before - 1e-6 <= pinned.objective < before + _TIE_BREAK_BUDGET

    solution = SOLVER.solve_arrays(problem.arrays)
    # (1) feasible — identity always exists.
    assert solution.status.has_solution
    apply_solution(design, problem, solution)
    after = calculate_objective(design, params, nets)
    # (2) never worse than the initial placement.
    assert after <= before + 1e-6
    # (3) legal.
    assert design.check_legal() == []
    # (4) model objective == re-evaluated objective, up to the
    # deliberate λ tie-break perturbation (always in [0, budget)).
    drift = solution.objective - after
    assert -1e-6 <= drift < _TIE_BREAK_BUDGET
