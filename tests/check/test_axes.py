"""The differential equivalence axes: the reduced window model vs the
unreduced reference model, serial vs pooled executors, and
checkpoint-resume vs straight run.

The quick variants run in tier-1; the heavyweight process-pool and
full-flow resume variants carry ``slow`` and run in the nightly job
(plus the check-smoke CI job via ``repro check --axes ...``).  The
time-limit guard of the VM1Opt axes is tested here too: a window cut
by its limit makes a byte-for-byte comparison depend on load.
"""

import pytest

from repro.check import generate_case
from repro.check.differential import (
    _certify_solver,
    check_executor_axis,
    check_resume_axis,
)
from repro.check.serialize import clone_design
from repro.core.formulation import apply_solution, build_window_model
from repro.milp import HighsBackend, SolveStatus
from repro.milp.solution import Solution
from repro.runtime import WindowRecord
from repro.runtime.telemetry import time_limit_errors
from tests.reference import reference_problem


def reduced_vs_unreduced(case) -> list[str]:
    """The window model as built (reduced) and the reference build
    without its presolve must apply the same placement and reach the
    same objective."""
    solver = _certify_solver()
    design = clone_design(case.design)
    before = design.placement_snapshot()
    kwargs = dict(lx=case.lx, ly=case.ly, allow_flip=case.allow_flip)
    reduced = build_window_model(design, case.window, case.params, **kwargs)
    plain = reference_problem(design, case.window, case.params, **kwargs)
    if reduced is None:
        return [] if plain is None else ["reduced build found no model"]
    fast = solver.solve_arrays(reduced.arrays)
    slow = solver.solve_arrays(plain.arrays)
    if SolveStatus.OPTIMAL not in (fast.status, slow.status):
        return []
    if fast.status is not slow.status:
        return [f"statuses differ: {fast.status} vs {slow.status}"]
    apply_solution(design, reduced, fast)
    fast_snapshot = design.placement_snapshot()
    design.restore_placement(before)
    apply_solution(design, plain, slow)
    errors = []
    if design.placement_snapshot() != fast_snapshot:
        errors.append("the reductions changed the applied placement")
    if abs(fast.objective - slow.objective) > 1e-6:
        errors.append(
            f"the reductions changed the objective: {fast.objective} "
            f"vs {slow.objective}"
        )
    return errors


@pytest.mark.parametrize("seed", range(12))
def test_presolve_axis_on_generated_cases(seed):
    assert reduced_vs_unreduced(generate_case(seed)) == []


def test_executor_axis_thread_matches_serial():
    assert check_executor_axis(kinds=("serial", "thread")) == []


@pytest.mark.slow
def test_executor_axis_process_matches_serial():
    assert check_executor_axis(kinds=("serial", "process")) == []


@pytest.mark.slow
def test_resume_axis_matches_straight_run():
    assert check_resume_axis() == []


def test_time_limit_errors_flags_cut_and_timed_out_windows():
    ok = WindowRecord("move", 0, 0, 0, solve_seconds=0.5, status="applied")
    cut = WindowRecord("move", 0, 1, 0, solve_seconds=9.8, status="no_move")
    lost = WindowRecord("flip", 0, 2, 0, status="timed_out")
    errors = time_limit_errors([ok, cut, lost], 10.0)
    assert errors == [
        "window move (1,0) solved in 9.800 s, at its 10 s limit",
        "window flip (2,0) timed out",
    ]


def _time_limit_stop(self, arrays):
    """Every solve stops at the backend's time limit with no
    incumbent, as HiGHS reports it."""
    return Solution(
        status=SolveStatus.ERROR,
        message="Time limit reached (HiGHS model status 13); "
        "no feasible solution",
    )


def test_resume_axis_reports_windows_cut_by_the_time_limit(monkeypatch):
    monkeypatch.setattr(HighsBackend, "solve_arrays", _time_limit_stop)
    errors = check_resume_axis()
    assert errors
    assert all("timed out" in error for error in errors)
    assert any(error.startswith("straight run: ") for error in errors)


def test_chaos_case_reports_a_clean_run_cut_by_the_time_limit(monkeypatch):
    from repro.chaos.plan import FaultPlan, FaultRule
    from repro.chaos.runner import run_chaos_case

    monkeypatch.setattr(HighsBackend, "solve_arrays", _time_limit_stop)
    plan = FaultPlan(
        seed=2,
        faults=(FaultRule(site="runtime.worker", action="raise", nth=1),),
    )
    outcome = run_chaos_case(plan)
    assert not outcome.converged
    assert any(
        error.startswith("clean run: ") and "timed out" in error
        for error in outcome.errors
    )
