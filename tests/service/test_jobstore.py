"""Jobstore: lifecycle, atomicity, events, crash recovery."""

import json

import pytest

from repro.core import VM1Checkpoint
from repro.service import JobState, JobStore


SPEC = {"profile": "aes", "scale": 0.01}


@pytest.fixture()
def store(tmp_path):
    return JobStore(tmp_path / "root")


def test_submit_creates_queued_record(store):
    record = store.submit("flow", SPEC)
    assert record.state is JobState.QUEUED
    assert record.spec == SPEC
    assert record.attempts == 0
    on_disk = store.get(record.job_id)
    assert on_disk.to_dict() == record.to_dict()
    events = store.read_events(record.job_id)
    assert events[0]["type"] == "state"
    assert events[0]["state"] == "queued"
    assert "ts" in events[0]


def test_job_ids_sort_by_submission_order(store):
    ids = [store.submit("flow", SPEC).job_id for _ in range(3)]
    assert ids == sorted(ids)
    assert [r.job_id for r in store.list_jobs()] == ids


def test_job_ids_monotonic_within_one_millisecond(store):
    # Back-to-back submits routinely land in the same wall-clock
    # millisecond; the id's timestamp prefix must still be strictly
    # increasing or FIFO falls to the random uuid suffix.
    ids = [store.submit("flow", SPEC).job_id for _ in range(20)]
    stamps = [int(job_id.split("-", 1)[0]) for job_id in ids]
    assert stamps == sorted(set(stamps))
    assert ids == sorted(ids)


def test_claim_next_is_fifo_and_increments_attempts(store):
    first = store.submit("flow", SPEC)
    store.submit("flow", SPEC)
    claimed = store.claim_next()
    assert claimed.job_id == first.job_id
    assert claimed.state is JobState.RUNNING
    assert claimed.attempts == 1
    assert claimed.started_at > 0


def test_claim_next_empty_returns_none(store):
    assert store.claim_next() is None


def test_terminal_transitions(store):
    record = store.submit("flow", SPEC)
    store.claim_next()
    done = store.mark_done(record.job_id)
    assert done.state is JobState.DONE
    assert done.finished_at > 0
    states = [
        e["state"]
        for e in store.read_events(record.job_id)
        if e["type"] == "state"
    ]
    assert states == ["queued", "running", "done"]


def test_mark_failed_records_error(store):
    record = store.submit("flow", SPEC)
    store.claim_next()
    failed = store.mark_failed(record.job_id, error="boom")
    assert failed.state is JobState.FAILED
    assert failed.error == "boom"


def test_cancel_queued_job_finalizes_at_claim_time(store):
    record = store.submit("flow", SPEC)
    store.request_cancel(record.job_id)
    assert store.claim_next() is None  # not claimable
    assert store.get(record.job_id).state is JobState.CANCELLED


def test_cancel_terminal_job_is_noop(store):
    record = store.submit("flow", SPEC)
    store.claim_next()
    store.mark_done(record.job_id)
    after = store.request_cancel(record.job_id)
    assert after.state is JobState.DONE
    assert not after.cancel_requested


def test_recover_requeues_running_jobs_keeping_checkpoint(store):
    record = store.submit("flow", SPEC)
    store.claim_next()
    checkpoint = VM1Checkpoint(
        u_index=0,
        iteration=1,
        phase="move",
        tx=0,
        ty=0,
        pre_objective=10.0,
        objective=9.0,
        initial_objective=10.0,
        iterations=1,
        placement={"i0": (0, 0, "N")},
    )
    store.write_checkpoint(record.job_id, checkpoint)

    # Simulate the crash: a brand-new store over the same root.
    reborn = JobStore(store.root)
    assert reborn.recover() == [record.job_id]
    requeued = reborn.get(record.job_id)
    assert requeued.state is JobState.QUEUED
    assert requeued.attempts == 1  # history preserved
    assert reborn.load_checkpoint(record.job_id) == checkpoint
    # Second claim resumes (attempt 2).
    assert reborn.claim_next().attempts == 2


def test_recover_ignores_terminal_and_queued(store):
    store.submit("flow", SPEC)
    waiting = store.submit("flow", SPEC)
    claimed = store.claim_next()
    store.mark_done(claimed.job_id)
    assert store.recover() == []
    assert store.get(claimed.job_id).state is JobState.DONE
    assert store.get(waiting.job_id).state is JobState.QUEUED


def test_atomic_write_leaves_no_temp_files(store):
    record = store.submit("flow", SPEC)
    store.write_result(record.job_id, {"x": 1})
    leftovers = [
        p
        for p in store.job_dir(record.job_id).iterdir()
        if p.name.endswith(".tmp")
    ]
    assert leftovers == []
    assert store.load_result(record.job_id) == {"x": 1}


def test_read_events_skips_torn_last_line(store):
    record = store.submit("flow", SPEC)
    store.append_event(record.job_id, {"type": "pass", "label": "a"})
    events_path = store.job_dir(record.job_id) / "events.ndjson"
    with open(events_path, "a") as handle:
        handle.write('{"type": "pa')  # SIGKILL mid-append
    events = store.read_events(record.job_id)
    assert [e["type"] for e in events] == ["state", "pass"]


def test_checkpoint_roundtrip_through_store(store):
    record = store.submit("flow", SPEC)
    assert store.load_checkpoint(record.job_id) is None
    checkpoint = VM1Checkpoint(
        u_index=1,
        iteration=0,
        phase="flip",
        tx=625,
        ty=540,
        pre_objective=5.5,
        objective=5.25,
        initial_objective=6.0,
        iterations=3,
        placement={"a": (10, 20, "FS")},
    )
    store.write_checkpoint(record.job_id, checkpoint)
    assert store.load_checkpoint(record.job_id) == checkpoint


def test_artifact_name_validation(store):
    record = store.submit("flow", SPEC)
    with pytest.raises(ValueError):
        store.artifact_path(record.job_id, "../escape")
    with pytest.raises(ValueError):
        store.artifact_path(record.job_id, ".hidden")
    store.write_artifact(record.job_id, "post.def", "DESIGN x ;")
    assert (
        store.artifact_path(record.job_id, "post.def").read_text()
        == "DESIGN x ;"
    )


def test_counts_by_state(store):
    store.submit("flow", SPEC)
    record = store.submit("flow", SPEC)
    store.claim_next()
    counts = store.counts_by_state()
    assert counts["queued"] == 1
    assert counts["running"] == 1
    assert counts["done"] == 0
    assert record.job_id  # silence unused warning


def test_record_json_is_schema_stamped(store):
    record = store.submit("flow", SPEC)
    doc = json.loads(
        (store.job_dir(record.job_id) / "job.json").read_text()
    )
    assert doc["schema"] == "repro.service.job/v1"
