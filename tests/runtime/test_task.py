"""WindowTask serialization-layer tests."""

import pickle

import pytest

from repro.milp import highs_backend
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


@pytest.mark.skipif(
    highs_backend._highs is None,
    reason="SciPy without the bundled HiGHS binding",
)
def test_solve_spans_carry_highs_effort(monkeypatch):
    """A traced pass puts the node and simplex iteration counts of
    each HiGHS call on its window's ``solve`` span.  HiGHS receives
    the same calls, and the pass ends in the same placement, as
    untraced."""
    import hashlib

    from repro.core import OptParams
    from repro.core.distopt import dist_opt
    from repro.library import build_library
    from repro.netlist import generate_design
    from repro.obs.trace import Tracer, tracer_scope
    from repro.placement import place_design
    from repro.tech import CellArchitecture, make_tech

    tech = make_tech(CellArchitecture.OPEN_M1)
    library = build_library(tech)
    invoke = HighsBackend._invoke

    def run(tracer):
        calls, efforts = [], []

        def record(arrays, options):
            digest = hashlib.sha256(repr(sorted(options.items())).encode())
            for name in ("c", "integrality", "lb", "ub", "lo", "hi",
                         "row_ptr", "cols", "vals"):
                digest.update(getattr(arrays, name).tobytes())
            calls.append(digest.hexdigest())
            answer = invoke(arrays, options)
            efforts.append(answer[-1])
            return answer

        monkeypatch.setattr(HighsBackend, "_invoke", staticmethod(record))
        design = generate_design("aes", tech, library, scale=0.01, seed=1)
        place_design(design, seed=1)
        params = OptParams.for_arch(tech.arch, time_limit=10.0)
        with tracer_scope(tracer):
            dist_opt(
                design, params, tx=0, ty=0, bw=1250, bh=1080, lx=2, ly=1,
                allow_flip=False,
            )
        return design.placement_snapshot(), calls, efforts

    untraced = run(None)
    tracer = Tracer()
    snapshot, calls, efforts = run(tracer)
    assert (snapshot, calls) == untraced[:2]
    solves = [s.attrs for s in tracer.spans if s.name == "solve"]
    assert len(solves) == len(efforts) >= 5
    assert [
        (attrs["mip_node_count"], attrs["simplex_iteration_count"])
        for attrs in solves
    ] == efforts
    assert all(nodes >= 1 for nodes, _ in efforts)
    assert sum(iterations for _, iterations in efforts) > 0
