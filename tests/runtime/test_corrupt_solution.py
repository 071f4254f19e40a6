"""A solution that selects no candidate, or two, of some cell: the
decode refuses it, and the window fails without a retry."""

import numpy as np
import pytest

from repro.check.generators import generate_case
from repro.core.distopt import dist_opt
from repro.core.formulation import build_window_model, solution_moves
from repro.milp.solution import Solution, SolveStatus
from repro.runtime import FamilyScheduler, ScheduleConfig, SerialExecutor

from tests.runtime._fakes import CorruptBackend, slice_task


def _problem(seed: int = 0):
    task = slice_task(seed)
    problem = build_window_model(
        task.design, task.window, task.params,
        lx=task.lx, ly=task.ly, allow_flip=task.allow_flip,
    )
    assert problem is not None
    return problem


def _identity(problem) -> np.ndarray:
    """Every cell on its candidate 0, the current placement."""
    x = np.zeros(problem.arrays.n)
    for cols in problem.lambda_cols.values():
        x[cols.start] = 1.0
    return x


def test_identity_selection_decodes_to_the_current_placement():
    problem = _problem()
    solution = Solution(status=SolveStatus.OPTIMAL, x=_identity(problem))
    moves = solution_moves(problem, solution)
    assert [name for name, *_ in moves] == problem.movable
    for name, column, row, flipped in moves:
        cand = problem.candidates[name][0]
        assert (column, row, flipped) == (cand.column, cand.row, cand.flipped)


def test_a_cell_with_no_selected_candidate_is_refused():
    problem = _problem()
    x = _identity(problem)
    name = problem.movable[0]
    x[problem.lambda_cols[name].start] = 0.0
    solution = Solution(status=SolveStatus.OPTIMAL, x=x)
    with pytest.raises(ValueError, match=f"{name}: 0 candidates selected"):
        solution_moves(problem, solution)


def test_a_cell_with_two_selected_candidates_is_refused():
    problem = _problem()
    name = next(
        name for name, cols in problem.lambda_cols.items() if len(cols) > 1
    )
    x = _identity(problem)
    x[problem.lambda_cols[name][1]] = 1.0
    solution = Solution(status=SolveStatus.OPTIMAL, x=x)
    with pytest.raises(ValueError, match=f"{name}: 2 candidates selected"):
        solution_moves(problem, solution)


def test_corrupt_solution_is_an_apply_error_and_not_retried():
    backend = CorruptBackend()
    scheduler = FamilyScheduler(
        SerialExecutor(), ScheduleConfig(max_retries=2)
    )
    result = scheduler.run_family([slice_task(0, solver=backend)])[0]
    assert result.error == ""
    assert "0 candidates selected" in result.apply_error
    assert result.moves is None
    assert result.attempts == 1
    assert backend.calls == 1


def test_corrupt_solutions_fail_their_windows_in_the_pass():
    case = generate_case(0)
    design = case.design
    before = design.placement_snapshot()
    result = dist_opt(
        design, case.params,
        tx=0, ty=0, bw=case.window.rect.width, bh=case.window.rect.height,
        lx=case.lx, ly=case.ly, allow_flip=case.allow_flip,
        solver=CorruptBackend(),
    )
    assert result.windows_built > 0
    assert result.windows_failed == result.windows_built
    assert result.windows_applied == 0
    assert design.placement_snapshot() == before
