"""Cross-executor determinism: parallel == serial, bit for bit.

The engine's contract (and the PR's acceptance bar): on a fixed seed,
``MultiprocessExecutor`` / ``ThreadExecutor`` runs produce a placement
byte-identical to the ``SerialExecutor`` run, with the same objective
— solutions are applied in canonical window order regardless of
completion order.
"""

import pytest

from repro.core import OptParams
from repro.core.distopt import dist_opt
from repro.core.vm1opt import vm1_opt
from repro.library import build_library
from repro.netlist import generate_design
from repro.obs.trace import Tracer, tracer_scope
from repro.placement import place_design
from repro.runtime import (
    MultiprocessExecutor,
    RunTelemetry,
    SerialExecutor,
    ThreadExecutor,
)
from repro.tech import CellArchitecture, make_tech

TECH = make_tech(CellArchitecture.CLOSED_M1)
LIB = build_library(TECH)


def fresh_design():
    design = generate_design("aes", TECH, LIB, scale=0.015, seed=3)
    place_design(design, seed=1)
    return design


def run_one_pass(executor, tracer=None):
    design = fresh_design()
    # Generous limit: these window MILPs solve in milliseconds, and a
    # limit that actually fires would make outcomes timing-dependent.
    params = OptParams.for_arch(TECH.arch, time_limit=30.0)
    with tracer_scope(tracer):
        result = dist_opt(
            design, params, tx=0, ty=0, bw=1250, bh=1080, lx=3, ly=1,
            allow_flip=False, executor=executor,
        )
    return design.placement_snapshot(), result


@pytest.fixture(scope="module")
def serial_run():
    return run_one_pass(SerialExecutor())


def test_multiprocess_matches_serial_exactly(serial_run):
    serial_snapshot, serial_result = serial_run
    tracer = Tracer()
    with MultiprocessExecutor(jobs=2) as executor:
        parallel_snapshot, parallel_result = run_one_pass(
            executor, tracer
        )
    assert parallel_snapshot == serial_snapshot
    assert parallel_result.objective == serial_result.objective
    assert parallel_result.moved_cells == serial_result.moved_cells
    assert (
        parallel_result.windows_applied
        == serial_result.windows_applied
    )
    assert parallel_result.executor == "process"
    assert parallel_result.jobs == 2
    summary = RunTelemetry.from_spans(tracer.spans).summary()
    assert (summary["executor"], summary["jobs"]) == ("process", 2)
    assert summary["windows"]["failed"] == 0


def test_thread_matches_serial_exactly(serial_run):
    serial_snapshot, serial_result = serial_run
    with ThreadExecutor(jobs=2) as executor:
        parallel_snapshot, parallel_result = run_one_pass(executor)
    assert parallel_snapshot == serial_snapshot
    assert parallel_result.objective == serial_result.objective


def test_vm1opt_multiprocess_matches_serial():
    """Full Algorithm 1 (multi-pass, shifted grids) equivalence."""
    from repro.core import ParamSet

    params = OptParams.for_arch(
        TECH.arch,
        sequence=(ParamSet.square(1.25, 2, 1),),
        time_limit=30.0,
    )

    design_a = fresh_design()
    serial = vm1_opt(design_a, params, executor=SerialExecutor())
    snapshot_a = design_a.placement_snapshot()

    design_b = fresh_design()
    with MultiprocessExecutor(jobs=2) as executor:
        parallel = vm1_opt(design_b, params, executor=executor)
    snapshot_b = design_b.placement_snapshot()

    assert snapshot_a == snapshot_b
    assert serial.final_objective == parallel.final_objective
    assert serial.iterations == parallel.iterations
    assert parallel.windows_failed == 0
    assert parallel.windows_timed_out == 0


def test_measured_parallel_reported(serial_run):
    _, serial_result = serial_run
    assert serial_result.measured_parallel_seconds > 0.0
    assert serial_result.measured_parallel_seconds <= (
        serial_result.wall_seconds + 1e-9
    )
    # Solve-only model never exceeds the measured dispatch+solve wall
    # for the serial executor (no overlap possible on one worker).
    assert serial_result.modeled_parallel_seconds <= (
        serial_result.measured_parallel_seconds + 1e-9
    )
