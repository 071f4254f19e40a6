"""WindowTask serialization-layer tests."""

import pickle

from repro.milp.highs_backend import HighsBackend

from tests.runtime._fakes import (
    AlwaysErrorBackend,
    FixedSolveTimeBackend,
    slice_task,
)


def test_solver_spec_roundtrip_highs():
    """A pickled task's HiGHS backend keeps its options."""
    task = slice_task(
        solver=HighsBackend(time_limit=3.5, mip_rel_gap=0.01)
    )
    backend = pickle.loads(pickle.dumps(task)).solver
    assert type(backend) is HighsBackend
    assert backend.time_limit == 3.5
    assert backend.mip_rel_gap == 0.01


def test_solver_spec_wraps_unknown_backend():
    """Any other backend rides along as itself."""
    fake = FixedSolveTimeBackend(0.25)
    task = slice_task(solver=fake)
    assert task.solver is fake
    assert task.run().solution.solve_seconds == 0.25
    clone = pickle.loads(pickle.dumps(task)).solver
    assert type(clone) is FixedSolveTimeBackend
    assert clone.solve_seconds == 0.25


def test_task_pickle_roundtrip_solves_identically():
    task = slice_task(1)
    clone = pickle.loads(pickle.dumps(task))
    assert clone.task_id == task.task_id
    assert clone.window == task.window
    original = task.run()
    restored = clone.run()
    assert original.ok and restored.ok
    assert original.moves is not None
    assert original.moves == restored.moves
    assert original.nets == restored.nets
    assert original.solution.objective == restored.solution.objective


def test_run_never_raises_and_reports_error():
    task = slice_task(solver=AlwaysErrorBackend())
    # The backend raises; run() must fold it into the result instead
    # of propagating.
    result = task.run()
    assert not result.ok
    assert "solver is down" in result.error
    # The build ran before the solve raised; its outputs still ride.
    assert result.built and result.movable
