"""Job manager: claims queued jobs and runs each in its own process.

A :class:`JobManager` owns a small pool of worker *threads* (the
concurrency cap).  A worker claims the oldest queued job from the
:class:`~repro.service.jobstore.JobStore`, forks one child process for
it (``multiprocessing.get_context("fork")``) and joins that process
before it claims the next job.  The child runs
:func:`repro.flow.run_flow`, so concurrent jobs no longer share one
interpreter lock: model build, solve, apply, placement and routing
of two jobs run on two cores.  Window-level parallelism stays inside
the job — each flow gets its own :mod:`repro.runtime` executor as
configured by the job spec (``executor`` / ``jobs``), so the service's
total worker budget is ``manager workers x per-job solver jobs``.

One journal writer
------------------
The job process never writes the journal.  It sends the worker
thread, over a pipe, each pass checkpoint, each progress event, and
at the end the result document, the telemetry summary and the
``post.def`` text (or how the flow stopped).  The worker thread writes
all of it through the store, so ``job.json``, ``events.ndjson`` and
``checkpoint.json`` keep one writer and the store's fault-injection
sites see every write.  The job process also leaves alone the copies
of the store, the service tracer and any fault controller that the
fork gave it.  Job processes are direct children of the service,
reaped by the worker thread that started them, so the service's
CPU-time and peak-RSS accounting of its children counts them.

Cooperative control points
--------------------------
The flow calls back after every DistOpt pass (``run_flow(progress=...)``),
*after* that pass's checkpoint was sent.  The job process then waits
for the worker thread, which:

* appends a progress event lifted from the pass's telemetry pass
  entry (``repro.runtime.telemetry/v5``);
* answers *cancel* if the job's cancel flag is set — the job process
  raises :class:`JobCancelled` (job -> ``cancelled``);
* answers *shutdown* if the service is draining after SIGTERM/SIGINT —
  the job process raises :class:`ServiceShutdown` (job -> back to
  ``queued`` with its checkpoint, so the next service start resumes
  it);
* answers *go* otherwise.

Either raise unwinds through ``run_flow``'s executor context, which
*drains* the window-solve pool — in-flight solves finish and every
worker process/thread is joined before the job process exits, so a
graceful shutdown never orphans workers.  The job process ignores
SIGINT and SIGTERM: a signal to the whole process group reaches the
service, which stops the job at its next pass boundary.  A job
process whose service died exits at its next message without a
journal write, and one that dies without its final message is a
failed job.

Tracing
-------
A spec with ``"trace": true`` makes the job process write
``<job_dir>/trace.ndjson`` as its spans finish.  Otherwise, when a
tracer is active on the worker thread (``repro.obs.trace.enable``),
the job process records under that tracer's context and sends its
spans back with its final message; the worker thread absorbs them, in
order, as one ``flow`` tree.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from repro.core.checkpoint import VM1Checkpoint
from repro.flow import FlowConfig, run_flow, table2_row
from repro.lefdef import write_def
from repro.obs import trace as obs_trace
from repro.obs.export import TraceWriter
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, tracer_scope
from repro.service.jobstore import JobRecord, JobState, JobStore

from repro.log import subsystem_logger

logger = subsystem_logger("repro.service")

#: Result document schema.
RESULT_SCHEMA = "repro.service.result/v1"

#: Lifecycle events counted on ``repro_jobs_lifecycle_total{event=}``.
#: All pre-registered at zero so every series is visible from the
#: first ``/metrics`` scrape.
_LIFECYCLE_EVENTS = (
    "jobs_started",
    "jobs_done",
    "jobs_failed",
    "jobs_cancelled",
    "jobs_interrupted",
    "passes",
    "shards_completed",
    "seam_passes",
    "windows_skipped_clean",
    "checkpoint_write_failures",
)


class JobCancelled(Exception):
    """Raised inside a job process when its cancel flag is set."""


class ServiceShutdown(Exception):
    """Raised inside a job process when the service is draining."""


class JobProcessError(Exception):
    """A job process ended without a result: its flow raised, or the
    process died before reporting.  ``str()`` is the job's ``error``."""

    def __init__(self, error: str, details: str = "") -> None:
        super().__init__(error)
        #: the flow's traceback, when the job process sent one.
        self.details = details


def flow_config_from_spec(spec: dict) -> FlowConfig:
    """Validate a flow job spec and build the :class:`FlowConfig`.

    A spec is a JSON object of :data:`repro.flow.FLOW_OPTIONS` fields
    plus the service-level ``"trace": true|false`` (write a span trace
    to ``<job_dir>/trace.ndjson``), which is checked and dropped here;
    the rest goes to :meth:`FlowConfig.from_spec`.  Raises
    ``ValueError`` with a submission-quality message on any unknown
    key, bad type, or out-of-range value — the HTTP layer maps it to a
    400.
    """
    if isinstance(spec, dict) and "trace" in spec:
        spec = dict(spec)
        trace = spec.pop("trace")
        if not isinstance(trace, bool):
            raise ValueError(f"trace must be true or false, got {trace!r}")
    return FlowConfig.from_spec(spec)


# ------------------------------------------------------- job process
#: Seconds between liveness checks while one end of a job's pipe waits
#: for the other.  A worker thread notices a job process that died, and
#: a job process notices that its service died, within this long even
#: when a sibling job process holds a copy of the pipe.
_LIVENESS_POLL_S = 0.5


@dataclass(frozen=True)
class _JobRun:
    """One attempt of a job, as decided by the worker thread before it
    forks the job process."""

    job_id: str
    config: FlowConfig
    resume: VM1Checkpoint | None
    shard_dir: Path
    shard_resume: bool
    #: ``<job_dir>/trace.ndjson`` for a spec with ``"trace": true``.
    trace_path: Path | None
    #: context of the service tracer that absorbs the job's spans.
    trace_ctx: tuple[str, str | None] | None
    service_pid: int


class _ServiceGone(BaseException):
    """The service died: unwind the flow (its executor drains) and exit
    without reporting.  Not an ``Exception``, so no handler in the flow
    takes it for a failure to recover from."""


class _ServiceLink:
    """The job process's end of its pipe to the worker thread."""

    def __init__(self, conn, service_pid: int) -> None:
        self.conn = conn
        self.service_pid = service_pid

    def _check(self) -> None:
        # An orphan is re-parented, so this also notices a dead service
        # whose end of the pipe a sibling job process still holds.
        if os.getppid() != self.service_pid:
            raise _ServiceGone

    def send(self, message) -> None:
        self._check()
        try:
            self.conn.send(message)
        except OSError:
            raise _ServiceGone from None

    def ask(self, message) -> str:
        self.send(message)
        while not self.conn.poll(_LIVENESS_POLL_S):
            self._check()
        try:
            return self.conn.recv()
        except (EOFError, OSError):
            raise _ServiceGone from None


def _job_process(run: _JobRun, conn, service_end) -> None:
    """Body of a job process: run the flow, report over ``conn``."""
    service_end.close()
    # A signal to the whole process group reaches the service, which
    # stops this job at its next pass boundary.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    link = _ServiceLink(conn, run.service_pid)
    tracer = writer = None
    if run.trace_path is not None:
        # A resumed attempt re-joins the interrupted attempt's trace —
        # the checkpoint carries its (trace_id, root span id), so one
        # coherent tree spans both.
        seed = run.resume.trace if run.resume is not None else None
        writer = TraceWriter(run.trace_path)
        tracer = Tracer(
            trace_id=seed[0] if seed else None,
            root_parent_id=seed[1] if seed else None,
            sink=writer,
        )
    elif run.trace_ctx is not None:
        tracer = Tracer(
            trace_id=run.trace_ctx[0], root_parent_id=run.trace_ctx[1]
        )

    def progress(stage: str, info: dict) -> None:
        answer = link.ask(("progress", stage, info))
        if answer == "cancel":
            raise JobCancelled(run.job_id)
        if answer == "shutdown":
            raise ServiceShutdown(run.job_id)

    def checkpoint_sink(cp: VM1Checkpoint) -> None:
        link.send(("checkpoint", cp))

    try:
        # tracer_scope(None) masks a service tracer the fork copied.
        with tracer_scope(tracer):
            result = run_flow(
                run.config,
                progress=progress,
                checkpoint_sink=checkpoint_sink,
                resume=run.resume,
                shard_checkpoint_dir=run.shard_dir,
                shard_resume=run.shard_resume,
            )
        end = ("done", _deliverables(run, result))
    except _ServiceGone:
        return
    except JobCancelled:
        end = ("cancelled", None)
    except ServiceShutdown:
        end = ("interrupted", None)
    except Exception as exc:  # noqa: BLE001 — the job's error
        end = ("failed", (repr(exc), traceback.format_exc()))
    finally:
        if writer is not None:
            writer.close()
    spans = tracer.export() if run.trace_ctx is not None else []
    try:
        link.send(("end", *end, spans))
    except _ServiceGone:
        pass


def _deliverables(run: _JobRun, result) -> tuple[dict, dict | None, str]:
    """Result document, telemetry summary and ``post.def`` text of a
    finished flow."""
    result_doc = {
        "schema": RESULT_SCHEMA,
        "job_id": run.job_id,
        "table2": table2_row(result),
        "num_instances": result.num_instances,
        "place_seconds": result.place_seconds,
        "total_seconds": result.total_seconds,
        "resumed": run.resume is not None or (
            run.shard_resume and result.shard is not None
        ),
    }
    if result.shard is not None:
        result_doc["shard"] = result.shard.summary()
    telemetry = (
        result.telemetry.summary() if result.telemetry is not None
        else None
    )
    return result_doc, telemetry, write_def(result.design)


class JobManager:
    """Claims queued jobs on worker threads and runs each in a job
    process forked by the thread that claimed it."""

    def __init__(
        self,
        store: JobStore,
        *,
        workers: int = 1,
        poll_interval: float = 0.1,
    ) -> None:
        self.store = store
        self.workers = max(1, int(workers))
        self.poll_interval = poll_interval
        self.started_at = time.time()
        self._stop = threading.Event()
        self._wake = threading.Event()
        self._threads: list[threading.Thread] = []
        self._active_lock = threading.Lock()
        self._active: dict[str, threading.Event] = {}
        # The service metrics registry (see repro.obs.metrics), which
        # /metrics renders.  Service-level gauges pull their values at
        # scrape time.
        self.registry = MetricsRegistry()
        self._lifecycle = self.registry.counter(
            "repro_jobs_lifecycle_total",
            "Manager lifecycle counters.",
            ("event",),
        )
        for event in _LIFECYCLE_EVENTS:
            self._lifecycle.inc(0, event=event)
        self.registry.gauge(
            "repro_service_uptime_seconds",
            "Seconds since start.",
            callback=lambda: time.time() - self.started_at,
        )
        self.registry.gauge(
            "repro_service_workers",
            "Configured job workers.",
            callback=lambda: self.workers,
        )
        self.registry.gauge(
            "repro_jobs_active",
            "Jobs currently executing.",
            callback=lambda: len(self.active_jobs()),
        )
        self.registry.gauge(
            "repro_service_draining",
            "1 while gracefully draining.",
            callback=lambda: int(self.draining),
        )
        self.registry.gauge(
            "repro_jobs",
            "Jobs in the journal by lifecycle state.",
            ("state",),
            callback=self._jobs_by_state_series,
        )

    def _jobs_by_state_series(self) -> dict[tuple[str, ...], int]:
        counts = self.store.counts_by_state()
        return {
            (state.value,): counts.get(state.value, 0)
            for state in JobState
        }

    @property
    def counters(self) -> dict[str, int]:
        """Snapshot of the lifecycle counters as a plain dict."""
        values = self._lifecycle.to_value()
        return {
            event: int(values.get(event, 0))
            for event in _LIFECYCLE_EVENTS
        }

    # ------------------------------------------------------ lifecycle
    def start(self) -> None:
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"repro-job-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def request_shutdown(self) -> None:
        """Begin a graceful drain: stop claiming new jobs and make
        running jobs stop at their next pass boundary (re-queued with
        their checkpoint)."""
        self._stop.set()
        self._wake.set()

    def shutdown(self, timeout: float | None = None) -> None:
        """Drain and join every worker thread."""
        self.request_shutdown()
        for thread in self._threads:
            thread.join(timeout=timeout)

    @property
    def draining(self) -> bool:
        return self._stop.is_set()

    # --------------------------------------------------------- submit
    def submit(self, kind: str, spec: dict) -> JobRecord:
        """Journal a new queued job and wake an idle worker to claim
        it (without the wake it waits for the next poll tick)."""
        record = self.store.submit(kind, spec)
        self._wake.set()
        return record

    # --------------------------------------------------------- cancel
    def request_cancel(self, job_id: str) -> JobRecord:
        """Cancel a job: queued jobs finalize at claim time, running
        jobs stop cooperatively at the next pass boundary."""
        record = self.store.request_cancel(job_id)
        with self._active_lock:
            flag = self._active.get(job_id)
        if flag is not None:
            flag.set()
        self._wake.set()
        return record

    def active_jobs(self) -> list[str]:
        with self._active_lock:
            return sorted(self._active)

    # ------------------------------------------------------- internals
    def _worker_loop(self) -> None:
        while not self._stop.is_set():
            record = self.store.claim_next()
            if record is None:
                self._wake.wait(timeout=self.poll_interval)
                self._wake.clear()
                continue
            self._run_job(record)

    def _run_job(self, record: JobRecord) -> None:
        job_id = record.job_id
        cancel = threading.Event()
        if record.cancel_requested:
            cancel.set()
        with self._active_lock:
            self._active[job_id] = cancel
        self._lifecycle.inc(event="jobs_started")
        logger.info(
            "job %s start (attempt %d)", job_id, record.attempts
        )
        try:
            if record.kind != "flow":
                raise ValueError(f"unknown job kind {record.kind!r}")
            self._run_flow_job(record, cancel)
        except JobCancelled:
            self._lifecycle.inc(event="jobs_cancelled")
            self.store.mark_cancelled(job_id)
            logger.info("job %s cancelled", job_id)
        except ServiceShutdown:
            self._lifecycle.inc(event="jobs_interrupted")
            self.store.requeue(job_id, reason="shutdown")
            logger.info(
                "job %s interrupted by shutdown — re-queued", job_id
            )
        except JobProcessError as exc:
            self._fail(job_id, str(exc), exc.details)
        except Exception as exc:  # noqa: BLE001 — job isolation
            self._fail(job_id, repr(exc), traceback.format_exc())
        else:
            self._lifecycle.inc(event="jobs_done")
            self.store.mark_done(job_id)
            logger.info("job %s done", job_id)
        finally:
            with self._active_lock:
                self._active.pop(job_id, None)

    def _fail(self, job_id: str, error: str, details: str) -> None:
        self._lifecycle.inc(event="jobs_failed")
        self.store.mark_failed(job_id, error=error)
        logger.warning("job %s failed: %s\n%s", job_id, error, details)

    def _run_flow_job(
        self, record: JobRecord, cancel: threading.Event
    ) -> None:
        job_id = record.job_id
        config = flow_config_from_spec(record.spec)
        resume = self.store.load_checkpoint(job_id)
        if resume is not None:
            self.store.append_event(
                job_id,
                {
                    "type": "resume",
                    "u_index": resume.u_index,
                    "iteration": resume.iteration,
                    "phase": resume.phase,
                },
            )
        job_dir = self.store.job_dir(job_id)
        # Sharded jobs keep their crash-safe state per shard inside the
        # job directory; a plan fingerprint from an interrupted attempt
        # means "resume" (finished shards fast-forward).
        shard_dir = job_dir / "shards"
        # A per-job trace (spec {"trace": true}) is written by the job
        # process; otherwise the spans come back to the tracer active
        # here, if any.
        traced = bool(record.spec.get("trace"))
        tracer = None if traced else obs_trace.active()
        run = _JobRun(
            job_id=job_id,
            config=config,
            resume=resume,
            shard_dir=shard_dir,
            shard_resume=(shard_dir / "plan.json").exists(),
            trace_path=job_dir / "trace.ndjson" if traced else None,
            trace_ctx=(
                obs_trace.current_context() if tracer is not None
                else None
            ),
            service_pid=os.getpid(),
        )
        status, data, spans = self._run_job_process(run, cancel)
        if tracer is not None:
            tracer.absorb(spans)
        if status == "cancelled":
            raise JobCancelled(job_id)
        if status == "interrupted":
            raise ServiceShutdown(job_id)
        if status == "failed":
            raise JobProcessError(*data)
        result_doc, telemetry, def_text = data
        self.store.write_result(job_id, result_doc)
        if telemetry is not None:
            self.store.write_telemetry(job_id, telemetry)
        self.store.write_artifact(job_id, "post.def", def_text)

    def _run_job_process(
        self, run: _JobRun, cancel: threading.Event
    ) -> tuple:
        """Fork the job process of ``run``, answer it until its final
        message and reap it; returns ``(status, data, spans)``."""
        context = multiprocessing.get_context("fork")
        service_end, job_end = context.Pipe()
        process = context.Process(
            target=_job_process,
            args=(run, job_end, service_end),
            name=f"repro-job-{run.job_id}",
        )
        process.start()
        job_end.close()
        end = None
        try:
            end = self._answer(run.job_id, process, service_end, cancel)
        finally:
            if end is None and process.is_alive():
                # A journal write failed on this side: stop the job
                # process instead of leaving it waiting for an answer.
                process.kill()
            service_end.close()
            # Reaped before the job is marked finished, so whoever sees
            # the final state also sees the process's CPU time in this
            # process's children rusage.
            process.join()
        return end[1:]

    def _answer(
        self, job_id: str, process, conn, cancel: threading.Event
    ) -> tuple:
        """Journal what the job process sends, answer its progress
        events, and return its final message."""
        while True:
            if not conn.poll(_LIVENESS_POLL_S):
                if process.is_alive() or conn.poll(0):
                    continue
                raise self._died(process)
            try:
                message = conn.recv()
            except (EOFError, OSError):
                raise self._died(process) from None
            if message[0] == "checkpoint":
                self._write_checkpoint(job_id, message[1])
            elif message[0] == "progress":
                self._record_progress(job_id, message[1], message[2])
                # Answered *after* the event (and after the pass
                # checkpoint already hit the store), so an abort is
                # always resumable.
                conn.send(
                    "cancel" if cancel.is_set()
                    else "shutdown" if self._stop.is_set()
                    else "go"
                )
            else:
                return message

    @staticmethod
    def _died(process) -> JobProcessError:
        process.join()
        return JobProcessError(
            f"job process died before reporting "
            f"(exitcode {process.exitcode})"
        )

    def _record_progress(self, job_id: str, stage: str, info: dict) -> None:
        if stage == "pass":
            self._lifecycle.inc(event="passes")
        elif stage == "shard":
            self._lifecycle.inc(event="shards_completed")
        elif stage == "seam":
            self._lifecycle.inc(event="seam_passes")
        if stage in ("pass", "seam"):
            self._lifecycle.inc(
                int(info.get("windows_skipped_clean", 0) or 0),
                event="windows_skipped_clean",
            )
        self.store.append_event(job_id, {"type": stage, **info})

    def _write_checkpoint(self, job_id: str, cp: VM1Checkpoint) -> None:
        # A checkpoint is an optimization, not ground truth: a failed
        # write (full disk, fsync error) must not kill a healthy job.
        # Count it, journal it, keep running — the worst case is
        # resuming from the previous checkpoint.
        try:
            self.store.write_checkpoint(job_id, cp)
        except OSError as exc:
            self._lifecycle.inc(event="checkpoint_write_failures")
            self.store.append_event(
                job_id,
                {"type": "checkpoint_write_failed", "error": str(exc)},
            )
            logger.warning(
                "job %s: checkpoint write failed (%s) — "
                "continuing without it",
                job_id, exc,
            )
