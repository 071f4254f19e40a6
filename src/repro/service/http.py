"""JSON-over-HTTP API for the job service (stdlib ``http.server``).

Endpoints::

    GET  /healthz                     liveness + uptime
    GET  /metrics                     Prometheus-style text metrics
    POST /api/jobs                    submit {"kind": "flow", "spec": {...}}
    GET  /api/jobs                    list job records
    GET  /api/jobs/<id>               one job record
    POST /api/jobs/<id>/cancel        cooperative cancellation
    GET  /api/jobs/<id>/events        progress NDJSON (?follow=1 tails
                                      until the job reaches a terminal
                                      state)
    GET  /api/jobs/<id>/result        Table-2 row + summary (409 until done)
    GET  /api/jobs/<id>/telemetry     repro.runtime.telemetry/v5 document
    GET  /api/jobs/<id>/artifacts/<name>   e.g. post.def

The server is a ``ThreadingHTTPServer`` with daemon handler threads:
requests (including long ``follow`` streams) never block job
execution or shutdown.  Responses are HTTP/1.0 close-delimited, which
keeps NDJSON streaming trivial.

:func:`serve` is the blocking entry point used by ``repro serve``.  It
recovers the journal, starts the manager, installs SIGTERM/SIGINT
handlers, and returns a process exit code: ``0`` on a clean stop,
``128+signum`` after a signal-initiated graceful drain (in-flight
window solves finish, the final checkpoint is already journaled, and
every worker is joined — nothing is orphaned).
"""

from __future__ import annotations

import json
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlparse

from repro.service.jobstore import JobStore
from repro.service.manager import JobManager, flow_config_from_spec

from repro.log import subsystem_logger

logger = subsystem_logger("repro.service")

#: Safety cap on ?follow=1 event streams (seconds).
_FOLLOW_MAX_SECONDS = 3600.0
_FOLLOW_POLL_SECONDS = 0.05


class ServiceServer(ThreadingHTTPServer):
    """HTTP server bound to one (store, manager) pair."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        address: tuple[str, int],
        store: JobStore,
        manager: JobManager,
    ) -> None:
        super().__init__(address, ServiceHandler)
        self.store = store
        self.manager = manager
        self.started_at = time.time()

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


class ServiceHandler(BaseHTTPRequestHandler):
    server: ServiceServer

    # -------------------------------------------------------- plumbing
    def log_message(self, fmt: str, *args) -> None:  # noqa: A003
        logger.debug("http %s", fmt % args)

    def _send_json(self, status: int, doc: dict) -> None:
        body = json.dumps(doc, indent=1).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_text(
        self, status: int, text: str, content_type: str
    ) -> None:
        body = text.encode()
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length", 0) or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        return json.loads(raw)

    # -------------------------------------------------------- routing
    def do_GET(self) -> None:  # noqa: N802 — http.server API
        try:
            self._route_get()
        except BrokenPipeError:  # client went away mid-stream
            pass
        except Exception as exc:  # noqa: BLE001 — never kill the server
            logger.warning("GET %s failed: %r", self.path, exc)
            try:
                self._error(500, repr(exc))
            except Exception:  # noqa: BLE001
                pass

    def do_POST(self) -> None:  # noqa: N802 — http.server API
        try:
            self._route_post()
        except Exception as exc:  # noqa: BLE001 — never kill the server
            logger.warning("POST %s failed: %r", self.path, exc)
            try:
                self._error(500, repr(exc))
            except Exception:  # noqa: BLE001
                pass

    def _route_get(self) -> None:
        parsed = urlparse(self.path)
        parts = [p for p in parsed.path.split("/") if p]
        store = self.server.store
        if parsed.path == "/healthz":
            self._send_json(
                200,
                {
                    "ok": True,
                    "uptime_seconds": (
                        time.time() - self.server.started_at
                    ),
                    "active_jobs": self.server.manager.active_jobs(),
                    "draining": self.server.manager.draining,
                },
            )
            return
        if parsed.path == "/metrics":
            self._send_text(
                200, render_metrics(self.server), "text/plain"
            )
            return
        if parts[:2] == ["api", "jobs"]:
            if len(parts) == 2:
                self._send_json(
                    200,
                    {
                        "jobs": [
                            r.to_dict() for r in store.list_jobs()
                        ]
                    },
                )
                return
            job_id = parts[2]
            try:
                record = store.get(job_id)
            except KeyError:
                self._error(404, f"unknown job {job_id!r}")
                return
            if len(parts) == 3:
                self._send_json(200, record.to_dict())
                return
            if parts[3] == "events":
                query = parse_qs(parsed.query)
                follow = query.get("follow", ["0"])[0] not in (
                    "0",
                    "",
                    "false",
                )
                self._stream_events(job_id, follow)
                return
            if parts[3] == "result":
                result = store.load_result(job_id)
                if result is None:
                    self._error(
                        409 if not record.state.terminal else 404,
                        f"job {job_id!r} has no result "
                        f"(state={record.state.value})",
                    )
                    return
                self._send_json(200, result)
                return
            if parts[3] == "telemetry":
                telemetry = store.load_telemetry(job_id)
                if telemetry is None:
                    self._error(404, f"job {job_id!r} has no telemetry")
                    return
                self._send_json(200, telemetry)
                return
            if parts[3] == "artifacts" and len(parts) == 5:
                try:
                    path = store.artifact_path(job_id, parts[4])
                except ValueError as exc:
                    self._error(400, str(exc))
                    return
                if not path.exists():
                    self._error(404, f"no artifact {parts[4]!r}")
                    return
                self._send_text(
                    200, path.read_text(), "text/plain"
                )
                return
        self._error(404, f"no route for GET {parsed.path}")

    def _route_post(self) -> None:
        parsed = urlparse(self.path)
        parts = [p for p in parsed.path.split("/") if p]
        store = self.server.store
        if parts[:2] == ["api", "jobs"] and len(parts) == 2:
            if self.server.manager.draining:
                self._error(503, "service is draining")
                return
            try:
                body = self._read_body()
            except json.JSONDecodeError as exc:
                self._error(400, f"bad JSON body: {exc}")
                return
            kind = body.get("kind", "flow")
            spec = body.get("spec", {})
            if kind != "flow":
                self._error(400, f"unknown job kind {kind!r}")
                return
            try:
                flow_config_from_spec(spec)  # validate at submit time
            except ValueError as exc:
                self._error(400, str(exc))
                return
            record = store.submit(kind, spec)
            self._send_json(201, record.to_dict())
            return
        if (
            parts[:2] == ["api", "jobs"]
            and len(parts) == 4
            and parts[3] == "cancel"
        ):
            job_id = parts[2]
            try:
                record = self.server.manager.request_cancel(job_id)
            except KeyError:
                self._error(404, f"unknown job {job_id!r}")
                return
            self._send_json(200, record.to_dict())
            return
        self._error(404, f"no route for POST {parsed.path}")

    # ------------------------------------------------------- streaming
    def _stream_events(self, job_id: str, follow: bool) -> None:
        store = self.server.store
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.end_headers()
        deadline = time.time() + _FOLLOW_MAX_SECONDS
        sent = 0
        while True:
            events = store.read_events(job_id)
            for event in events[sent:]:
                self.wfile.write(
                    (json.dumps(event) + "\n").encode()
                )
            if len(events) > sent:
                self.wfile.flush()
                sent = len(events)
            if not follow:
                return
            record = store.get(job_id)
            if record.state.terminal or time.time() > deadline:
                # flush anything appended between read and state check
                for event in store.read_events(job_id)[sent:]:
                    self.wfile.write(
                        (json.dumps(event) + "\n").encode()
                    )
                return
            time.sleep(_FOLLOW_POLL_SECONDS)


def render_metrics(server: ServiceServer) -> str:
    """Prometheus text exposition of the service gauges/counters.

    Rendered from the manager's :class:`repro.obs.MetricsRegistry` —
    the gauges pull live values (uptime, jobs by state, ...) at scrape
    time, so there is nothing to assemble here.
    """
    return server.manager.registry.render_prometheus()


def build_server(
    root: str | Path,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    workers: int = 1,
) -> ServiceServer:
    """Recover the journal, start the manager, bind the server.

    ``port=0`` binds an ephemeral port (see ``server.url``).  The
    caller owns the lifecycle: ``serve_forever()`` then
    ``manager.shutdown()`` + ``server_close()``.
    """
    store = JobStore(root)
    requeued = store.recover()
    if requeued:
        logger.info(
            "recovered %d interrupted job(s): %s",
            len(requeued),
            ", ".join(requeued),
        )
    manager = JobManager(store, workers=workers)
    manager.start()
    return ServiceServer((host, port), store, manager)


def serve(
    root: str | Path,
    *,
    host: str = "127.0.0.1",
    port: int = 8765,
    workers: int = 1,
    install_signals: bool = True,
) -> int:
    """Run the service until stopped; returns the process exit code."""
    server = build_server(
        root, host=host, port=port, workers=workers
    )
    caught: list[int] = []

    def _graceful(signum, frame) -> None:  # noqa: ARG001
        caught.append(signum)
        logger.info(
            "signal %d — draining (in-flight passes finish, "
            "running jobs re-queue from their checkpoints)",
            signum,
        )
        server.manager.request_shutdown()
        # serve_forever() must be unblocked from another thread.
        threading.Thread(
            target=server.shutdown, daemon=True
        ).start()

    if install_signals:
        signal.signal(signal.SIGTERM, _graceful)
        signal.signal(signal.SIGINT, _graceful)

    print(
        f"repro-service listening on {server.url} "
        f"(root={Path(root).resolve()}, workers={workers})",
        flush=True,
    )
    try:
        server.serve_forever()
    finally:
        server.manager.shutdown()
        server.server_close()
    if caught:
        return 128 + caught[-1]
    return 0
