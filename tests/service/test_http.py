"""HTTP API + client: endpoints, streaming, liveness under load."""

import http.client
import json
import socket
import threading
import time

import pytest

from repro.runtime import TELEMETRY_SCHEMA
from repro.service import (
    JobManager,
    JobState,
    JobStore,
    ServiceClient,
    ServiceError,
    ServiceServer,
    build_server,
)
from repro.service.http import ServiceHandler

QUICK_SPEC = {
    "profile": "aes",
    "scale": 0.008,
    "window_um": 1.0,
    "time_limit": 2.0,
}


@pytest.fixture()
def service(tmp_path):
    server = build_server(tmp_path / "root", port=0)
    thread = threading.Thread(
        target=server.serve_forever, daemon=True
    )
    thread.start()
    yield server, ServiceClient(server.url)
    server.manager.shutdown(timeout=60)
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


def test_healthz(service):
    _, client = service
    health = client.healthz()
    assert health["ok"] is True
    assert health["uptime_seconds"] >= 0
    assert health["active_jobs"] == []


def test_metrics_exposition_format(service):
    _, client = service
    text = client.metrics()
    assert "repro_service_uptime_seconds" in text
    assert 'repro_jobs{state="queued"} 0' in text
    assert 'repro_jobs_lifecycle_total{event="jobs_done"} 0' in text


def test_unknown_routes_404(service):
    _, client = service
    with pytest.raises(ServiceError) as err:
        client.status("no-such-job")
    assert err.value.status == 404
    with pytest.raises(ServiceError) as err:
        client._request("GET", "/nope")
    assert err.value.status == 404


def test_submit_validates_spec(service):
    _, client = service
    with pytest.raises(ServiceError) as err:
        client.submit({"jobs": 0})
    assert err.value.status == 400
    assert "jobs" in str(err.value)
    with pytest.raises(ServiceError) as err:
        client.submit({}, kind="route-only")
    assert err.value.status == 400


@pytest.mark.parametrize(
    "body, length, reason",
    [
        (b"[]", None, "JSON body must be an object, not list"),
        (b'"flow"', None, "JSON body must be an object, not str"),
        (b"1", None, "JSON body must be an object, not int"),
        (b"{", None, "bad JSON body"),
        (b"", "abc", "bad Content-Length 'abc'"),
        (b"", "-1", "bad Content-Length '-1'"),
    ],
    ids=["list", "str", "int", "truncated", "length-abc", "length-neg"],
)
def test_malformed_submit_is_a_one_line_400(service, body, length, reason):
    """A submit whose body or Content-Length is malformed gets a 400
    naming why — not a 500, and not a handler blocked reading to EOF."""
    server, _ = service
    host, port = server.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=5)
    try:
        conn.putrequest("POST", "/api/jobs")
        conn.putheader("Content-Type", "application/json")
        conn.putheader(
            "Content-Length", str(len(body)) if length is None else length
        )
        conn.endheaders(body or None)
        response = conn.getresponse()
        error = json.loads(response.read())["error"]
    finally:
        conn.close()
    assert response.status == 400
    assert error.startswith(reason)
    assert "\n" not in error
    assert server.store.list_jobs() == []


def test_short_body_is_a_408_after_the_socket_timeout(service, monkeypatch):
    """A submit whose body stops short of its Content-Length gets a
    one-line 408 once the handler's socket timeout passes, instead of
    holding the handler thread until the client closes."""
    server, _ = service
    monkeypatch.setattr(ServiceHandler, "timeout", 0.5)
    with socket.create_connection(server.server_address[:2]) as sock:
        sock.settimeout(3.0)
        sock.sendall(
            b"POST /api/jobs HTTP/1.0\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: 10\r\n\r\n{}"
        )
        reply = b""
        while chunk := sock.recv(4096):
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.split(b"\r\n")[0].split()[1] == b"408", reply
    error = json.loads(body)["error"]
    assert error.startswith("body shorter than Content-Length 10")
    assert "\n" not in error
    assert server.store.list_jobs() == []


def test_result_409_while_pending(service):
    server, client = service
    # No manager worker will grab this before we check: submit an
    # invalid-free spec and immediately ask for the result.
    job_id = client.submit(dict(QUICK_SPEC))
    try:
        client.result(job_id)
    except ServiceError as err:
        assert err.status in (404, 409)
    else:  # pragma: no cover — job finished implausibly fast
        pass
    client.wait(job_id, timeout=120)


def test_job_end_to_end_over_http(service):
    server, client = service
    job_id = client.submit(dict(QUICK_SPEC))
    record = client.status(job_id)
    assert record["state"] in ("queued", "running")

    # /healthz and /metrics answer while the job is executing.
    saw_active = False
    deadline = time.time() + 120
    while time.time() < deadline:
        health = client.healthz()
        assert health["ok"] is True
        assert "repro_jobs" in client.metrics()
        if health["active_jobs"]:
            saw_active = True
        state = client.status(job_id)["state"]
        if state in ("done", "failed", "cancelled"):
            break
        time.sleep(0.05)
    final = client.wait(job_id, timeout=5)
    assert final["state"] == "done", final.get("error")
    assert saw_active, "service never reported the job as active"

    result = client.result(job_id)
    assert result["table2"]["design"] == "aes"
    telemetry = client.telemetry(job_id)
    assert telemetry["schema"] == TELEMETRY_SCHEMA
    assert client.artifact(job_id, "post.def").startswith(
        "VERSION"
    ) or "DESIGN" in client.artifact(job_id, "post.def")

    listed = client.jobs()
    assert [r["job_id"] for r in listed] == [job_id]

    events = list(client.events(job_id))
    types = [e["type"] for e in events]
    assert types[0] == "state"
    assert "pass" in types
    assert types[-1] == "state"
    assert events[-1]["state"] == "done"


def test_sharded_job_answers_telemetry(service):
    _, client = service
    job_id = client.submit(dict(QUICK_SPEC, shards=2, jobs=2))
    final = client.wait(job_id, timeout=180)
    assert final["state"] == "done", final.get("error")
    assert client.result(job_id)["shard"]["num_shards"] == 2
    telemetry = client.telemetry(job_id)
    assert telemetry["schema"] == TELEMETRY_SCHEMA
    assert telemetry["windows"]["total"] > 0
    assert telemetry["trace"] is None  # recorded in memory, untraced


def test_events_follow_streams_until_terminal(service):
    _, client = service
    job_id = client.submit(dict(QUICK_SPEC))
    seen = []
    for event in client.events(job_id, follow=True):
        seen.append(event)
    # follow=True only returns once the job is terminal.
    assert seen[-1]["type"] == "state"
    assert seen[-1]["state"] == "done"
    assert client.status(job_id)["state"] == "done"


def test_cancel_queued_job_over_http(tmp_path):
    # workers=0 is not allowed; instead saturate the single worker
    # with one job and cancel the queued second one.
    server = build_server(tmp_path / "busy", port=0)
    thread = threading.Thread(
        target=server.serve_forever, daemon=True
    )
    thread.start()
    client = ServiceClient(server.url)
    try:
        first = client.submit({**QUICK_SPEC, "scale": 0.02})
        second = client.submit(dict(QUICK_SPEC))
        record = client.cancel(second)
        assert record["cancel_requested"] is True
        final = client.wait(second, timeout=120)
        assert final["state"] == "cancelled"
        assert client.wait(first, timeout=120)["state"] == "done"
    finally:
        server.manager.shutdown(timeout=60)
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


def test_submit_wakes_an_idle_worker(tmp_path):
    # A 30 s poll tick: only the wake on submit gets the job claimed
    # within a second.
    store = JobStore(tmp_path / "root")
    manager = JobManager(store, workers=1, poll_interval=30)
    manager.start()
    server = ServiceServer(("127.0.0.1", 0), store, manager)
    thread = threading.Thread(
        target=server.serve_forever, daemon=True
    )
    thread.start()
    try:
        time.sleep(0.2)  # the worker found the queue empty and sleeps
        job_id = ServiceClient(server.url).submit(dict(QUICK_SPEC))
        deadline = time.time() + 1.0
        while time.time() < deadline:
            if store.get(job_id).state is not JobState.QUEUED:
                break
            time.sleep(0.01)
        assert store.get(job_id).state is JobState.RUNNING
    finally:
        manager.shutdown(timeout=60)
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
