"""Crash-safety acceptance tests against a real ``repro serve``.

* SIGKILL of the server mid-DistOpt: a restart on the same journal
  root recovers the job and resumes from the last checkpointed pass,
  finishing with a placement **byte-identical** to an uninterrupted
  run.
* SIGTERM of the server, or of its whole process group, while a
  multiprocess-executor job runs: the service drains (the job process
  ignores the signal and stops at its next pass boundary, in-flight
  window solves finish, workers are joined — nothing orphaned), the
  job is re-queued with its checkpoint, and the process exits nonzero.
* SIGKILL of the server alone: the orphaned job process exits at its
  next message and writes nothing to the journal.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.service import ServiceClient

# Subprocess SIGKILL/SIGTERM round trips take ~15s; nightly tier.
pytestmark = pytest.mark.slow

SPEC = {
    "profile": "aes",
    "scale": 0.02,
    "window_um": 1.0,
    "time_limit": 2.0,
    "seed": 1,
}

_SRC = str(Path(__file__).resolve().parents[2] / "src")


def _start_server(root: Path) -> tuple[subprocess.Popen, ServiceClient]:
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--root",
            str(root),
            "--port",
            "0",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        start_new_session=True,  # own process group — see _assert_group_gone
    )
    banner = proc.stdout.readline()
    assert "listening on" in banner, banner
    url = banner.split("listening on ")[1].split()[0]
    return proc, ServiceClient(url)


def _stop_server(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
    if proc.stdout:
        proc.stdout.close()


def _assert_group_gone(pgid: int, timeout: float = 20.0) -> None:
    """The whole process group must exit — no orphaned pool workers."""
    deadline = time.time() + timeout
    while time.time() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.1)
    os.killpg(pgid, signal.SIGKILL)  # clean up before failing
    pytest.fail("worker processes were orphaned after shutdown")


def _wait_for_checkpoint(root: Path, job_id: str, timeout=60.0) -> Path:
    path = root / "jobs" / job_id / "checkpoint.json"
    deadline = time.time() + timeout
    while time.time() < deadline:
        if path.exists():
            return path
        time.sleep(0.02)
    pytest.fail("no checkpoint appeared — job too fast or stuck")


def test_sigkill_resume_is_byte_identical(tmp_path):
    # Reference: the same spec run to completion uninterrupted.
    ref_root = tmp_path / "ref"
    proc, client = _start_server(ref_root)
    try:
        job_id = client.submit(dict(SPEC))
        assert client.wait(job_id, timeout=300)["state"] == "done"
        reference_def = client.artifact(job_id, "post.def")
    finally:
        _stop_server(proc)

    # Victim: SIGKILL the whole server group mid-DistOpt.
    root = tmp_path / "victim"
    proc, client = _start_server(root)
    try:
        job_id = client.submit(dict(SPEC))
        _wait_for_checkpoint(root, job_id)
    finally:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
        proc.stdout.close()

    # The journal still says "running" — nobody got to clean up.
    record = json.loads(
        (root / "jobs" / job_id / "job.json").read_text()
    )
    assert record["state"] == "running"

    # Restart on the same root: recovery re-queues, the job resumes
    # from the checkpoint and must finish byte-identical.
    proc, client = _start_server(root)
    try:
        final = client.wait(job_id, timeout=300)
        assert final["state"] == "done", final.get("error")
        assert final["attempts"] == 2
        events = list(client.events(job_id))
        states = [
            e.get("state") for e in events if e["type"] == "state"
        ]
        assert "requeued" in states
        assert any(e["type"] == "resume" for e in events)
        assert client.result(job_id)["resumed"] is True
        resumed_def = client.artifact(job_id, "post.def")
    finally:
        _stop_server(proc)

    assert resumed_def == reference_def


def test_sigkill_trace_survives_and_resume_rejoins_it(tmp_path):
    """ISSUE 9: a traced job's NDJSON trace survives SIGKILL (torn
    final line tolerated) and the resumed attempt appends to the same
    trace — one trace_id, one rooted tree, one header line."""
    from repro.obs.export import read_trace
    from repro.obs.trace import tree_shape

    root = tmp_path / "traced"
    proc, client = _start_server(root)
    try:
        job_id = client.submit({**SPEC, "trace": True})
        _wait_for_checkpoint(root, job_id)
    finally:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
        proc.stdout.close()

    trace_path = root / "jobs" / job_id / "trace.ndjson"
    assert trace_path.exists(), "no spans flushed before the kill"
    # Readable right now, torn tail and all.
    killed_spans = read_trace(trace_path)
    trace_ids = {s.trace_id for s in killed_spans}
    assert len(trace_ids) == 1

    proc, client = _start_server(root)
    try:
        final = client.wait(job_id, timeout=300)
        assert final["state"] == "done", final.get("error")
        assert final["attempts"] == 2
    finally:
        _stop_server(proc)

    spans = read_trace(trace_path)
    assert len(spans) > len(killed_spans)
    assert {s.trace_id for s in spans} == trace_ids
    # Exactly one header even though two attempts appended.
    headers = [
        line
        for line in trace_path.read_text().splitlines()
        if '"type": "header"' in line or '"type":"header"' in line
    ]
    assert len(headers) == 1
    # One coherent trace: the killed attempt's *unfinished* ancestors
    # (its flow/opt/vm1_opt spans) never wrote their lines, so its
    # finished stage/pass spans surface as roots; the resumed attempt
    # parents under the killed attempt's run-span id (the context rode
    # the checkpoint) and contributes exactly one complete flow tree.
    shape = tree_shape(spans)
    flow_roots = [s for s in shape if s[0] == "flow"]
    assert len(flow_roots) == 1, shape


def _drain_after_sigterm(root: Path, kill) -> None:
    """SIGTERM through ``kill(server_pid)`` while a multiprocess job
    runs; the service must drain, re-queue the job with its checkpoint
    and exit 143, and a restart must finish the job."""
    proc, client = _start_server(root)
    pgid = proc.pid
    job_id = None
    try:
        job_id = client.submit(
            {**SPEC, "executor": "process", "jobs": 2}
        )
        _wait_for_checkpoint(root, job_id)
        kill(proc.pid)
        rc = proc.wait(timeout=120)
    finally:
        if proc.poll() is None:  # pragma: no cover — hung server
            _stop_server(proc)

    assert rc == 128 + signal.SIGTERM  # nonzero, conventional code
    _assert_group_gone(pgid)  # pool workers joined, not orphaned

    record = json.loads(
        (root / "jobs" / job_id / "job.json").read_text()
    )
    assert record["state"] == "queued"  # re-queued for resume
    assert (root / "jobs" / job_id / "checkpoint.json").exists()
    events = [
        json.loads(line)
        for line in (root / "jobs" / job_id / "events.ndjson")
        .read_text()
        .splitlines()
    ]
    states = [
        e.get("state") for e in events if e["type"] == "state"
    ]
    assert states[-1] == "requeued"

    # A restarted service finishes the drained job from its checkpoint.
    proc, client = _start_server(root)
    try:
        final = client.wait(job_id, timeout=300)
        assert final["state"] == "done", final.get("error")
        assert final["attempts"] == 2
    finally:
        _stop_server(proc)


def test_sigterm_drains_multiprocess_job_and_exits_nonzero(tmp_path):
    # Only the server process gets the signal.
    _drain_after_sigterm(
        tmp_path / "drain", lambda pid: os.kill(pid, signal.SIGTERM)
    )


def test_group_sigterm_drains_multiprocess_job_and_exits_nonzero(
    tmp_path,
):
    # The job process and its pool workers get the signal too, as
    # from a terminal or a supervisor stopping the group.
    _drain_after_sigterm(
        tmp_path / "group", lambda pid: os.killpg(pid, signal.SIGTERM)
    )


def test_sigkill_of_server_alone_ends_orphaned_job_process(tmp_path):
    from repro.obs.export import read_trace

    root = tmp_path / "orphan"
    job_dir = None
    proc, client = _start_server(root)
    pgid = proc.pid
    try:
        job_id = client.submit({**SPEC, "trace": True})
        job_dir = root / "jobs" / job_id
        _wait_for_checkpoint(root, job_id)
        os.kill(proc.pid, signal.SIGKILL)  # only the server process
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:  # pragma: no cover
            _stop_server(proc)
        proc.stdout.close()
    journal = ("job.json", "events.ndjson", "checkpoint.json")
    before = {name: (job_dir / name).read_bytes() for name in journal}
    _assert_group_gone(pgid)
    after = {name: (job_dir / name).read_bytes() for name in journal}
    assert after == before  # the orphan wrote nothing to the journal
    assert json.loads(after["job.json"])["state"] == "running"
    # It unwound its flow at its next message rather than finishing it:
    # the root span closed with the error that stopped it.
    flows = [s for s in read_trace(job_dir / "trace.ndjson")
             if s.name == "flow"]
    assert [s.status for s in flows] == ["error:_ServiceGone"]
