"""End-to-end flow tests (small scale)."""

import pytest

from repro.flow import FlowConfig, run_flow, table2_row
from repro.tech import CellArchitecture


@pytest.fixture(scope="module")
def result():
    return run_flow(
        FlowConfig(
            profile="aes",
            arch=CellArchitecture.CLOSED_M1,
            scale=0.012,
            seed=1,
            window_um=1.0,
            lx=3,
            ly=1,
            time_limit=3.0,
        )
    )


def test_flow_produces_all_stages(result):
    assert result.init_route.routed_wirelength > 0
    assert result.final_route is not None
    assert result.opt is not None
    assert result.init_timing.critical_path_ps > 0
    assert result.final_timing is not None
    assert result.init_power.total_mw > 0
    assert result.final_power is not None
    assert result.design.check_legal() == []


def test_flow_improves_the_paper_metrics(result):
    init, final = result.init_route, result.final_route
    assert final.num_dm1 > init.num_dm1
    assert final.routed_wirelength < init.routed_wirelength
    assert final.num_via12 <= init.num_via12


def test_timing_not_degraded(result):
    # Same clock period for both: WNS must not get worse (paper: "no
    # adverse timing impact").
    assert result.final_timing.clock_period_ps == (
        result.init_timing.clock_period_ps
    )
    assert result.final_timing.wns_ns >= (
        result.init_timing.wns_ns - 0.005
    )


def test_table2_row_contents(result):
    row = table2_row(result)
    assert row["design"] == "aes"
    assert row["arch"] == "closedm1"
    assert row["#inst"] == len(result.design.instances)
    assert row["RWL %"] < 0
    assert row["#dM1 final"] > row["#dM1 init"]
    assert row["runtime (s)"] > 0
    assert 0 < row["runtime parallel-model (s)"] <= row["runtime (s)"]


def test_route_only_flow():
    r = run_flow(
        FlowConfig(
            profile="m0",
            arch=CellArchitecture.CONV_12T,
            scale=0.01,
            optimize=False,
        )
    )
    assert r.final_route is None
    assert r.opt is None
    with pytest.raises(ValueError):
        table2_row(r)


def test_auto_two_job_flow_ends_in_the_serial_placement():
    """``auto`` with two jobs solves the windows on a thread pool and
    ends in the serial run's placement and objective."""

    def flow(executor, jobs):
        return run_flow(
            FlowConfig(
                profile="aes",
                arch=CellArchitecture.CLOSED_M1,
                scale=0.01,
                seed=2,
                window_um=1.0,
                lx=2,
                ly=1,
                time_limit=10.0,
                executor=executor,
                jobs=jobs,
            )
        )

    serial = flow("serial", 1)
    auto = flow("auto", 2)
    summary = auto.telemetry.summary()
    assert (summary["executor"], summary["jobs"]) == ("thread", 2)
    assert (
        auto.design.placement_snapshot()
        == serial.design.placement_snapshot()
    )
    assert auto.opt.final_objective == serial.opt.final_objective


def test_explicit_params_override():
    from repro.core import OptParams, ParamSet

    params = OptParams.for_arch(
        CellArchitecture.CLOSED_M1,
        alpha=0.0,
        sequence=(ParamSet.square(1.0, 2, 0),),
        time_limit=2.0,
        theta=0.5,
    )
    r = run_flow(
        FlowConfig(
            profile="aes", scale=0.01, params=params, seed=2
        )
    )
    # alpha=0: still a valid flow; dM1 may or may not change.
    assert r.final_route is not None
    assert r.design.check_legal() == []


def test_resumed_sharded_flow_counts_fast_forwarded_shards(tmp_path):
    """A resumed sharded flow's document also holds the windows of the
    shard fast-forwarded from its done record: its counts and seconds
    are ``FlowResult.opt``'s, which include that shard's totals."""
    config = FlowConfig(
        profile="aes",
        scale=0.008,
        window_um=1.0,
        time_limit=2.0,
        shards=2,
        executor="serial",
    )

    class Stop(RuntimeError):
        pass

    def stop_after_first_shard(stage, info):
        if stage == "shard":
            raise Stop

    with pytest.raises(Stop):
        run_flow(
            config,
            progress=stop_after_first_shard,
            shard_checkpoint_dir=tmp_path,
        )
    resumed = run_flow(
        config, shard_checkpoint_dir=tmp_path, shard_resume=True
    )
    replayed = resumed.shard.outcomes[0]
    assert replayed.resumed is False and replayed.windows_built > 0
    opt = resumed.opt
    doc = resumed.telemetry.summary()
    windows = doc["windows"]
    assert windows["total"] - windows["skipped_clean"] == (
        opt.windows_built
    )
    assert windows["skipped_clean"] == opt.windows_skipped_clean
    assert windows["applied"] == opt.windows_applied
    assert doc["seconds"]["solve"] == opt.solve_seconds


def test_failed_shard_checkpoint_writes_do_not_fail_the_flow(
    tmp_path, monkeypatch, caplog
):
    """A shard checkpoint that cannot be written is logged and skipped,
    as an unsharded service job's is: the flow still ends in the
    placement of an unfaulted run."""
    import repro.shard.runner as runner

    config = FlowConfig(
        profile="aes",
        scale=0.008,
        window_um=1.0,
        time_limit=2.0,
        shards=2,
        executor="serial",
    )
    clean = run_flow(config).design.placement_snapshot()

    def failing_write(path, text, **kwargs):
        raise OSError(f"no space left for {path.name}")

    monkeypatch.setattr(runner, "atomic_write_text", failing_write)
    with caplog.at_level("WARNING", logger="repro.shard"):
        faulted = run_flow(config, shard_checkpoint_dir=tmp_path)
    assert faulted.design.placement_snapshot() == clean
    failed = {
        record.args[0].name
        for record in caplog.records
        if record.name == "repro.shard"
    }
    assert failed == {
        "plan.json",
        "shard_000.ckpt.json",
        "shard_000.done.json",
        "shard_001.ckpt.json",
        "shard_001.done.json",
    }
    assert list(tmp_path.iterdir()) == []

