"""Tests for repro.shard.runner — execution, resume, reproducibility.

The anchors:

* ``shards=1`` is byte-identical to a plain ``vm1_opt`` run (the fast
  path bypasses the shard layer entirely);
* a sharded run produces a legal, oracle-verified stitched placement
  with every shard's objective monotone non-increasing;
* killing a run between shards and resuming reproduces the
  uninterrupted placement byte for byte (shard-granular crash safety).
"""

import json
import os

import pytest

from repro.core import OptParams
from repro.core.distopt import TOTAL_FIELDS, DistOptResult, PassTotals
from repro.core.vm1opt import vm1_opt
from repro.library import build_library
from repro.netlist import generate_design
from repro.placement import place_design
from repro.runtime import SerialExecutor
from repro.shard.runner import (
    ShardCheckpointStore,
    ShardOutcome,
    ShardPlanError,
    ShardRunResult,
    plan_workers,
    run_sharded,
)
from repro.shard.stitch import StitchResult
from repro.tech import CellArchitecture, make_tech

TECH = make_tech(CellArchitecture.CLOSED_M1)
LIB = build_library(TECH)

PARAMS = OptParams.for_arch(CellArchitecture.CLOSED_M1, time_limit=2.0)


def fresh_design():
    design = generate_design("m0", TECH, LIB, scale=0.03, seed=2)
    place_design(design, seed=1)
    return design


@pytest.fixture(scope="module")
def sharded_reference():
    """One uninterrupted 2-shard run, shared by several tests."""
    design = fresh_design()
    result = run_sharded(design, PARAMS, shards=2, halo_rows=2)
    return design.placement_snapshot(), result


def test_single_shard_is_byte_identical_to_direct():
    direct = fresh_design()
    with SerialExecutor() as ex:
        vm1_opt(direct, PARAMS, executor=ex)
    via_shard = fresh_design()
    result = run_sharded(via_shard, PARAMS, shards=1)
    assert via_shard.placement_snapshot() == direct.placement_snapshot()
    assert result.num_shards == 1
    assert result.direct is not None
    assert result.to_vm1_result() is result.direct


def test_sharded_run_is_legal_and_monotone(sharded_reference):
    _, result = sharded_reference
    assert result.stitch is not None and result.stitch.legal
    assert result.num_shards == 2
    for outcome in result.outcomes:
        assert outcome.final_objective <= outcome.initial_objective
    seam = result.stitch.seam_pass
    assert seam is not None
    assert result.final_objective <= result.initial_objective


def test_sharded_vm1_view_aggregates(sharded_reference):
    _, result = sharded_reference
    opt = result.to_vm1_result()
    assert opt.initial_objective == result.initial_objective
    assert opt.final_objective == result.final_objective
    assert opt.moved_cells >= sum(
        o.moved_cells for o in result.outcomes
    )
    assert opt.solve_seconds > 0
    summary = result.summary()
    assert summary["num_shards"] == 2
    assert summary["legal"] is True


def test_sharded_run_is_deterministic(sharded_reference):
    snapshot, _ = sharded_reference
    design = fresh_design()
    run_sharded(design, PARAMS, shards=2, halo_rows=2)
    assert design.placement_snapshot() == snapshot


def test_interrupt_and_resume_byte_identical(
    tmp_path, sharded_reference
):
    snapshot, _ = sharded_reference

    class Stop(RuntimeError):
        pass

    seen = []

    def bomb(stage, info):
        if stage == "shard":
            seen.append(info["index"])
            raise Stop("simulated kill after first shard")

    interrupted = fresh_design()
    with pytest.raises(Stop):
        run_sharded(
            interrupted,
            PARAMS,
            shards=2,
            halo_rows=2,
            checkpoint_dir=tmp_path,
            progress=bomb,
        )
    assert seen == [0]
    store = ShardCheckpointStore(tmp_path)
    assert store.load_done(0) is not None
    assert store.load_done(1) is None

    resumed = fresh_design()
    result = run_sharded(
        resumed,
        PARAMS,
        shards=2,
        halo_rows=2,
        checkpoint_dir=tmp_path,
        resume=True,
    )
    assert result.resumed_shards >= 1
    assert result.outcomes[0].resumed is False  # fast-forwarded done
    assert resumed.placement_snapshot() == snapshot


def test_resume_refuses_foreign_checkpoint_dir(tmp_path):
    design = fresh_design()
    store = ShardCheckpointStore(tmp_path)
    store.begin(design, 2, 2, resume=False)
    with pytest.raises(ValueError, match="different run"):
        store.begin(design, 3, 2, resume=True)
    # Without resume the mismatched state is simply cleared.
    assert store.begin(design, 3, 2, resume=False) is False


def test_run_sharded_rejects_bad_counts():
    design = fresh_design()
    with pytest.raises(ValueError):
        run_sharded(design, PARAMS, shards=0)
    with pytest.raises((ValueError, ShardPlanError)):
        run_sharded(design, PARAMS, shards=design.num_rows)


def test_plan_workers_budget():
    # Whole budget to windows when shard level is serial.
    assert plan_workers(4, 1, "auto") == ("serial", 1, "serial", 1)
    assert plan_workers(4, 4, "serial") == ("serial", 1, "process", 4)
    # Shard-parallel first, remainder as threads within.
    kind, workers, inner_kind, inner_jobs = plan_workers(2, 4, "auto")
    assert (kind, workers) == ("process", 2)
    assert (inner_kind, inner_jobs) == ("thread", 2)
    # More shards than jobs: one worker per job, serial inside.
    kind, workers, inner_kind, inner_jobs = plan_workers(8, 2, "auto")
    assert (kind, workers) == ("process", 2)
    assert (inner_kind, inner_jobs) == ("serial", 1)
    with pytest.raises(ValueError):
        plan_workers(2, 2, "warp")


def test_sharded_vm1_view_sums_shard_and_seam_counts():
    """Build/presolve seconds and clean skips of every shard, plus the
    seam pass's own counts (failed and timed-out windows included),
    reach the aggregate view the flow reports."""
    outcomes = [
        ShardOutcome(
            index=index,
            placements={},
            initial_objective=10.0,
            final_objective=9.0,
            build_seconds=0.5,
            presolve_seconds=0.25,
            solve_seconds=1.0,
            windows_failed=index,
            windows_skipped_clean=3,
        )
        for index in range(2)
    ]
    seam = DistOptResult(
        objective=8.0,
        build_seconds=0.125,
        presolve_seconds=0.0625,
        solve_seconds=0.5,
        windows_failed=1,
        windows_timed_out=2,
        windows_skipped_clean=4,
    )
    result = ShardRunResult(
        num_shards=2,
        halo_rows=2,
        initial_objective=20.0,
        final_objective=8.0,
        outcomes=outcomes,
        stitch=StitchResult(seam_pass=seam),
    )
    opt = result.to_vm1_result()
    assert opt.build_seconds == 1.125
    assert opt.presolve_seconds == 0.5625
    assert opt.solve_seconds == 2.5
    assert opt.windows_skipped_clean == 10
    assert opt.windows_failed == 2
    assert opt.windows_timed_out == 2
    assert opt.passes == [seam]


def test_write_done_fsyncs_and_leaves_no_temp_file(
    tmp_path, monkeypatch
):
    synced = []
    real_fsync = os.fsync

    def counting_fsync(fd):
        synced.append(fd)
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", counting_fsync)
    store = ShardCheckpointStore(tmp_path)
    outcome = ShardOutcome(
        index=0,
        placements={"a": (10, 20, "N")},
        initial_objective=2.0,
        final_objective=1.0,
    )
    store.write_done(outcome)
    assert len(synced) == 1
    assert [p.name for p in tmp_path.iterdir()] == [
        "shard_000.done.json"
    ]
    assert store.load_done(0) == outcome


@pytest.fixture(scope="module")
def vm1_reference():
    design = fresh_design()
    with SerialExecutor() as ex:
        return vm1_opt(design, PARAMS, executor=ex)


def _value(name: str, n: int):
    """``n`` as the type of total ``name`` (int counts, float seconds)."""
    return type(getattr(PassTotals(), name))(n)


@pytest.mark.parametrize("name", TOTAL_FIELDS)
def test_every_total_is_accounted_once(name, vm1_reference):
    """Each additive total: ``vm1_opt`` sums it over its passes, the
    sharded view sums it over shards plus seam (max over shards for
    the modeled parallel time, the shard wall clock for the measured
    one), and a shard's done record carries it."""
    assert getattr(vm1_reference, name) == sum(
        (getattr(p, name) for p in vm1_reference.passes),
        _value(name, 0),
    )

    outcomes = [
        ShardOutcome(
            index=index,
            placements={},
            initial_objective=10.0,
            final_objective=9.0,
            iterations=2 + index,
            **{name: _value(name, 1 + 3 * index)},
        )
        for index in range(2)
    ]
    seam = DistOptResult(objective=8.0, **{name: _value(name, 16)})
    opt = ShardRunResult(
        num_shards=2,
        halo_rows=2,
        initial_objective=20.0,
        final_objective=8.0,
        outcomes=outcomes,
        stitch=StitchResult(seam_pass=seam),
        shard_wall_seconds=64.0,
    ).to_vm1_result()
    shard_part = {
        "modeled_parallel_seconds": max(1, 4),
        "measured_parallel_seconds": 64,
    }.get(name, 1 + 4)
    assert getattr(opt, name) == shard_part + 16
    assert opt.iterations == 3
    others = [n for n in TOTAL_FIELDS if n != name]
    assert all(
        getattr(opt, n) == (64 if n == "measured_parallel_seconds" else 0)
        for n in others
    )

    doc = json.loads(json.dumps(outcomes[1].to_dict()))
    assert doc[name] == _value(name, 4)
    loaded = ShardOutcome.from_dict(doc)
    assert loaded == outcomes[1]
    assert type(getattr(loaded, name)) is type(_value(name, 0))


#: The keys of a done record written before windows built/applied/
#: reverted, pairs considered and the measured parallel time were
#: carried.
OLDER_DONE_KEYS = {
    "schema", "index", "placements", "initial_objective",
    "final_objective", "iterations", "moved_cells", "wall_seconds",
    "build_seconds", "presolve_seconds", "solve_seconds",
    "modeled_parallel_seconds", "windows_failed", "windows_timed_out",
    "windows_skipped_clean", "resumed", "spans",
}


def test_older_done_record_resumes(tmp_path, sharded_reference):
    snapshot, _ = sharded_reference

    class Stop(RuntimeError):
        pass

    def bomb(stage, info):
        if stage == "shard":
            raise Stop("simulated kill after first shard")

    with pytest.raises(Stop):
        run_sharded(
            fresh_design(), PARAMS, shards=2, halo_rows=2,
            checkpoint_dir=tmp_path, progress=bomb,
        )
    store = ShardCheckpointStore(tmp_path)
    path = store.done_path(0)
    doc = json.loads(path.read_text())
    old = {key: doc[key] for key in OLDER_DONE_KEYS}
    path.write_text(json.dumps(old))

    loaded = store.load_done(0)
    for name in set(TOTAL_FIELDS) - OLDER_DONE_KEYS:
        assert getattr(loaded, name) == 0
    with pytest.raises(KeyError):
        ShardOutcome.from_dict(
            {k: v for k, v in old.items() if k != "windows_failed"}
        )

    resumed = fresh_design()
    result = run_sharded(
        resumed, PARAMS, shards=2, halo_rows=2,
        checkpoint_dir=tmp_path, resume=True,
    )
    assert result.outcomes[0] == loaded
    assert resumed.placement_snapshot() == snapshot
