"""WindowTask serialization-layer tests."""

import pickle

import pytest

from repro.milp.highs_backend import HighsBackend
from repro.runtime import SolverSpec, WindowTask

from tests.runtime._fakes import FixedSolveTimeBackend, tiny_model


def make_task(task_id=0, solver=None):
    return WindowTask(
        task_id=task_id,
        ix=1,
        iy=2,
        family=0,
        model=tiny_model(f"t{task_id}"),
        solver=solver or SolverSpec(backend="highs", time_limit=2.0),
        nets=("n1", "n2"),
        num_pairs=1,
    )


def test_solver_spec_roundtrip_highs():
    spec = SolverSpec.from_backend(
        HighsBackend(time_limit=3.5, mip_rel_gap=0.01)
    )
    assert spec.backend == "highs"
    backend = spec.build()
    assert isinstance(backend, HighsBackend)
    assert backend.time_limit == 3.5
    assert backend.mip_rel_gap == 0.01


def test_solver_spec_wraps_unknown_backend():
    fake = FixedSolveTimeBackend(0.25)
    spec = SolverSpec.from_backend(fake)
    assert spec.build() is fake


def test_solver_spec_rejects_unknown_name():
    with pytest.raises(ValueError):
        SolverSpec(backend="cplex").build()


def test_task_pickle_roundtrip_solves_identically():
    task = make_task()
    clone = pickle.loads(pickle.dumps(task))
    assert clone.task_id == task.task_id
    assert clone.nets == task.nets
    original = task.run()
    restored = clone.run()
    assert original.ok and restored.ok
    assert original.solution.objective == restored.solution.objective


def test_run_never_raises_and_reports_error():
    task = make_task(
        solver=SolverSpec(backend="custom", instance=None)
    )
    # build() raises ValueError for the unknown name; run() must fold
    # it into the result instead of propagating.
    result = task.run()
    assert not result.ok
    assert "custom" in result.error
