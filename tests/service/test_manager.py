"""Job manager: spec validation, execution, cancel, drain."""

import os
import sys
import time

import pytest

from repro.flow import FlowConfig, run_flow, table2_row
from repro.lefdef import write_def
from repro.obs import trace as obs_trace
from repro.obs.trace import Tracer, tracer_scope, tree_shape
from repro.runtime import TELEMETRY_SCHEMA, RunTelemetry
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
            "timing_driven": True,
            "shards": "auto",
            "halo_rows": 0,
            "trace": True,
        }
    )
    assert config.profile == "jpeg"
    assert config.arch is CellArchitecture.OPEN_M1
    assert config.jobs == 4
    assert config.executor == "thread"
    assert config.timing_driven is True
    assert config.shards == "auto"


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
        ({"window_um": 0}, "window_um"),
        ({"window_um": -1.0}, "window_um"),
        ({"lx": -1}, "lx"),
        ({"ly": -2}, "ly"),
        ({"trace": 1}, "trace"),
        # The presolve and dirty-tracking off-switches are gone.
        ({"dirty_tracking": False}, "unknown spec field"),
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


def wait_terminal(store, job_id, timeout=120):
    deadline = time.time() + timeout
    while time.time() < deadline:
        record = store.get(job_id)
        if record.state.terminal:
            return record
        time.sleep(0.05)
    pytest.fail(f"job {job_id} did not finish in {timeout}s")


def _exit_3(*args, **kwargs):
    os._exit(3)


def test_job_process_that_dies_is_a_failed_job(tmp_path, monkeypatch):
    # The fork inherits the patch: the job process exits without its
    # final message.
    monkeypatch.setattr("repro.service.manager.run_flow", _exit_3)
    store = JobStore(tmp_path / "root")
    manager = JobManager(store, workers=1, poll_interval=0.02)
    manager.start()
    try:
        ids = [store.submit("flow", QUICK_SPEC).job_id for _ in range(2)]
        finals = [wait_terminal(store, job_id, 60) for job_id in ids]
    finally:
        manager.shutdown(timeout=60)
    for final in finals:  # the worker moved on to the second job
        assert final.state is JobState.FAILED
        assert "exitcode 3" in final.error, final.error
    assert manager.counters["jobs_failed"] == 2


def _five_passes(config, *, progress, **kwargs):
    for _ in range(5):
        progress("pass", {"windows_skipped_clean": 1})
    return None


def test_more_workers_than_cores_lose_no_journal_write(
    tmp_path, monkeypatch
):
    # Four worker threads journal twelve short job processes at once.
    monkeypatch.setattr("repro.service.manager.run_flow", _five_passes)
    monkeypatch.setattr(
        "repro.service.manager._deliverables",
        lambda run, result: ({"job_id": run.job_id}, None, "DESIGN\n"),
    )
    store = JobStore(tmp_path / "root")
    manager = JobManager(store, workers=4, poll_interval=0.02)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    manager.start()
    try:
        ids = [
            manager.submit("flow", QUICK_SPEC).job_id for _ in range(12)
        ]
        finals = [wait_terminal(store, job_id, 60) for job_id in ids]
    finally:
        manager.shutdown(timeout=60)
        sys.setswitchinterval(interval)
    assert [f.state for f in finals] == [JobState.DONE] * 12
    for job_id in ids:
        events = store.read_events(job_id)
        assert [e["type"] for e in events].count("pass") == 5
        assert store.load_result(job_id) == {"job_id": job_id}
    counters = manager.counters
    assert counters["jobs_done"] == 12
    assert counters["passes"] == 60
    assert counters["windows_skipped_clean"] == 60


def test_job_spans_are_absorbed_as_one_flow_tree(tmp_path):
    store = JobStore(tmp_path / "root")
    manager = JobManager(store, workers=1, poll_interval=0.02)
    tracer = obs_trace.enable()
    try:
        manager.start()
        record = store.submit("flow", QUICK_SPEC)
        final = wait_terminal(store, record.job_id)
    finally:
        manager.shutdown(timeout=60)
        obs_trace.disable()
    assert final.state is JobState.DONE, final.error
    spans = tracer.spans
    assert {s.trace_id for s in spans} == {tracer.trace_id}
    shape = tree_shape(spans)
    assert len(shape) == 1 and shape[0][0] == "flow", shape
    # Absorbed in the order the job recorded them: as a flow run here.
    reference = Tracer()
    with tracer_scope(reference):
        run_flow(flow_config_from_spec(QUICK_SPEC))
    assert [s.name for s in spans] == [s.name for s in reference.spans]
    # They are the job's own spans: its telemetry is their view.
    derived = RunTelemetry.from_spans(spans).summary()
    journaled = store.load_telemetry(record.job_id)
    assert derived["windows"] == journaled["windows"]
    assert derived["trace"]["trace_id"] == tracer.trace_id


def test_concurrent_jobs_match_run_flow_byte_for_byte(tmp_path):
    specs = [
        {**QUICK_SPEC, "arch": CellArchitecture.CLOSED_M1.value, "seed": 1},
        {**QUICK_SPEC, "arch": CellArchitecture.OPEN_M1.value, "seed": 2},
    ]
    store = JobStore(tmp_path / "root")
    manager = JobManager(store, workers=2, poll_interval=0.02)
    manager.start()
    try:
        ids = [manager.submit("flow", spec).job_id for spec in specs]
        finals = [wait_terminal(store, job_id) for job_id in ids]
    finally:
        manager.shutdown(timeout=60)
    first, second = finals
    assert first.started_at < second.finished_at
    assert second.started_at < first.finished_at  # they overlapped
    for spec, final in zip(specs, finals):
        assert final.state is JobState.DONE, final.error
        reference = run_flow(flow_config_from_spec(spec))
        post_def = store.artifact_path(final.job_id, "post.def")
        assert post_def.read_text() == write_def(reference.design)
        table2 = store.load_result(final.job_id)["table2"]
        assert _quality(table2) == _quality(table2_row(reference))


def _quality(row: dict) -> dict:
    """A Table-2 row without its timings."""
    return {k: v for k, v in row.items() if not k.startswith("runtime")}
