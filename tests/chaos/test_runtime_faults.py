"""Worker-side fault application: armed directives inside WindowTask."""

import pickle

import pytest

from repro.chaos import ChaosFault, PoisonPill
from repro.milp.solution import SolveStatus

from tests.runtime._fakes import slice_task


def task(chaos=None, trace=None):
    return slice_task(trace=trace, chaos=chaos)


def test_no_directive_runs_clean():
    result = task().run()
    assert result.ok
    assert result.solution.status is SolveStatus.OPTIMAL


def test_raise_directive_folds_into_error():
    result = task(chaos=("runtime.worker", "raise", 30.0)).run()
    assert not result.ok
    assert "ChaosFault" in result.error
    assert "runtime.worker[raise]" in result.error


def test_crash_directive_escapes_run():
    with pytest.raises(ChaosFault, match="crash"):
        task(chaos=("runtime.worker", "crash", 30.0)).run()


def test_hang_directive_sleeps_then_solves():
    result = task(chaos=("runtime.worker", "hang", 0.01)).run()
    assert result.ok  # a short hang just delays the solve


def test_milp_error_directive():
    result = task(chaos=("milp.solve", "error", 30.0)).run()
    assert not result.ok
    assert "chaos: injected solver error" in result.error
    assert not result.timed_out


def test_milp_timeout_directive_marks_timeout():
    result = task(chaos=("milp.solve", "timeout", 30.0)).run()
    assert not result.ok
    assert result.timed_out  # "time limit" errors are never retried


def test_milp_infeasible_directive_swaps_status():
    """An infeasible verdict on a window model is a solver fault: a
    retryable error, not a plain status."""
    result = task(chaos=("milp.solve", "infeasible", 30.0)).run()
    assert result.solution.status is SolveStatus.INFEASIBLE
    assert not result.ok
    assert result.error == (
        "solver returned infeasible for a window model"
    )
    assert not result.timed_out
    assert result.moves is None


def test_lost_directive_drops_the_result():
    result = task(chaos=("runtime.result", "lost", 30.0)).run()
    assert not result.ok
    assert result.error == "chaos: result lost in transit"
    assert result.solution is None


def test_poison_directive_defeats_pickle():
    result = task(chaos=("runtime.result", "poison", 30.0)).run()
    assert isinstance(result.solution, PoisonPill)
    with pytest.raises(ChaosFault, match="poison"):
        pickle.dumps(result)


def test_lost_result_still_leaves_error_span():
    result = task(
        chaos=("runtime.result", "lost", 30.0),
        trace=("trace0", None),
    ).run()
    assert not result.ok
    statuses = [s.get("status", "ok") for s in result.spans]
    assert any(str(s).startswith("error:") for s in statuses)


def test_foreign_site_directive_is_inert():
    result = task(chaos=("jobstore.event", "torn", 30.0)).run()
    assert result.ok
