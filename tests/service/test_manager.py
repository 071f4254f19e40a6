"""Job manager: spec validation, execution, cancel, drain."""

import time

import pytest

from repro.flow import FlowConfig
from repro.runtime import TELEMETRY_SCHEMA
from repro.service import (
    JobManager,
    JobState,
    JobStore,
    flow_config_from_spec,
)
from repro.tech import CellArchitecture

QUICK_SPEC = {
    "profile": "aes",
    "scale": 0.008,
    "window_um": 1.0,
    "time_limit": 2.0,
}


# ------------------------------------------------------ spec parsing
def test_spec_defaults_match_flow_config():
    assert flow_config_from_spec({}) == FlowConfig()


def test_spec_full_roundtrip():
    config = flow_config_from_spec(
        {
            "profile": "jpeg",
            "arch": "openm1",
            "scale": 0.1,
            "utilization": 0.6,
            "seed": 7,
            "window_um": 1.5,
            "lx": 3,
            "ly": 2,
            "time_limit": 1.5,
            "executor": "thread",
            "jobs": 4,
            "presolve": False,
            "timing_driven": True,
        }
    )
    assert config.profile == "jpeg"
    assert config.arch is CellArchitecture.OPEN_M1
    assert config.jobs == 4
    assert config.executor == "thread"
    assert config.presolve is False


@pytest.mark.parametrize(
    "bad, match",
    [
        ({"jobs": 0}, "jobs"),
        ({"jobs": -2}, "jobs"),
        ({"scale": -1.0}, "scale"),
        ({"scale": "not-a-number"}, "scale"),
        ({"time_limit": 0}, "time_limit"),
        ({"utilization": 1.5}, "utilization"),
        ({"profile": "nope"}, "profile"),
        ({"arch": "nope"}, "arch"),
        ({"executor": "gpu"}, "executor"),
        ({"presolve": "yes"}, "presolve"),
        ({"frobnicate": 1}, "unknown spec field"),
        ({"window_cache": False}, "unknown spec field"),
    ],
)
def test_spec_rejects_bad_values(bad, match):
    with pytest.raises(ValueError, match=match):
        flow_config_from_spec(bad)


def test_spec_rejects_non_dict():
    with pytest.raises(ValueError, match="JSON object"):
        flow_config_from_spec([1, 2])


# --------------------------------------------------------- execution
@pytest.fixture()
def service(tmp_path):
    store = JobStore(tmp_path / "root")
    manager = JobManager(store, workers=1, poll_interval=0.02)
    manager.start()
    yield store, manager
    manager.shutdown(timeout=60)


def test_flow_job_runs_to_done_with_artifacts(service):
    store, manager = service
    record = store.submit("flow", QUICK_SPEC)
    deadline = time.time() + 120
    while time.time() < deadline:
        if store.get(record.job_id).state.terminal:
            break
        time.sleep(0.05)
    final = store.get(record.job_id)
    assert final.state is JobState.DONE, final.error

    result = store.load_result(record.job_id)
    assert result["schema"] == "repro.service.result/v1"
    assert result["table2"]["design"] == "aes"
    assert "RWL %" in result["table2"]
    assert result["resumed"] is False

    telemetry = store.load_telemetry(record.job_id)
    assert telemetry["schema"] == TELEMETRY_SCHEMA
    assert telemetry["windows"]["total"] > 0

    post_def = store.artifact_path(record.job_id, "post.def")
    assert post_def.exists()
    assert "DESIGN" in post_def.read_text()

    types = [e["type"] for e in store.read_events(record.job_id)]
    for expected in (
        "generate",
        "place",
        "route_init",
        "pass",
        "route_final",
    ):
        assert expected in types
    # Pass events are lifted from the telemetry pass entries.
    pass_event = next(
        e
        for e in store.read_events(record.job_id)
        if e["type"] == "pass"
    )
    for key in (
        "label", "windows", "windows_skipped_clean", "presolve_seconds"
    ):
        assert key in pass_event
    assert manager.counters["jobs_done"] == 1
    assert manager.counters["passes"] > 0


def test_bad_spec_job_fails_cleanly(service):
    store, manager = service
    record = store.submit("flow", {"profile": "nope"})
    deadline = time.time() + 30
    while time.time() < deadline:
        if store.get(record.job_id).state.terminal:
            break
        time.sleep(0.02)
    final = store.get(record.job_id)
    assert final.state is JobState.FAILED
    assert "profile" in final.error
    assert manager.counters["jobs_failed"] == 1


def test_cancel_running_job_stops_at_pass_boundary(service):
    store, manager = service
    record = store.submit(
        "flow", {**QUICK_SPEC, "scale": 0.02}
    )
    # Wait until the optimizer is mid-run (first pass event).
    deadline = time.time() + 60
    while time.time() < deadline:
        types = [e["type"] for e in store.read_events(record.job_id)]
        if "pass" in types:
            break
        time.sleep(0.02)
    manager.request_cancel(record.job_id)
    deadline = time.time() + 60
    while time.time() < deadline:
        if store.get(record.job_id).state.terminal:
            break
        time.sleep(0.05)
    final = store.get(record.job_id)
    assert final.state is JobState.CANCELLED
    # The checkpoint of the last completed pass survives the cancel.
    assert store.load_checkpoint(record.job_id) is not None


def test_shutdown_requeues_running_job_with_checkpoint(tmp_path):
    store = JobStore(tmp_path / "root")
    manager = JobManager(store, workers=1, poll_interval=0.02)
    manager.start()
    record = store.submit("flow", {**QUICK_SPEC, "scale": 0.02})
    deadline = time.time() + 60
    while time.time() < deadline:
        if store.load_checkpoint(record.job_id) is not None:
            break
        time.sleep(0.02)
    assert store.load_checkpoint(record.job_id) is not None
    manager.shutdown(timeout=120)  # graceful drain
    final = store.get(record.job_id)
    assert final.state is JobState.QUEUED  # back in the queue
    states = [
        e.get("state")
        for e in store.read_events(record.job_id)
        if e["type"] == "state"
    ]
    assert states[-1] == "requeued"
    assert manager.counters["jobs_interrupted"] == 1
