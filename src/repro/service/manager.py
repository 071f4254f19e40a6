"""Job manager: claims queued jobs and runs them through the flow.

A :class:`JobManager` owns a small pool of worker *threads* (the
concurrency cap); each worker claims the oldest queued job from the
:class:`~repro.service.jobstore.JobStore` and executes it with
:func:`repro.flow.run_flow`.  Window-level parallelism stays inside
the job — each flow gets its own :mod:`repro.runtime` executor as
configured by the job spec (``executor`` / ``jobs``), so the service's
total worker budget is ``manager workers x per-job solver jobs``.

Cooperative control points
--------------------------
The flow calls back into the manager after every DistOpt pass (via
``run_flow(progress=...)``), *after* that pass's checkpoint hit the
jobstore.  At that point the manager:

* appends a progress event lifted from the pass's telemetry pass
  entry (``repro.runtime.telemetry/v5``);
* raises :class:`JobCancelled` if the job's cancel flag is set
  (job -> ``cancelled``);
* raises :class:`ServiceShutdown` if the service is draining after
  SIGTERM/SIGINT (job -> back to ``queued`` with its checkpoint, so
  the next service start resumes it).

Either raise unwinds through ``run_flow``'s executor context, which
*drains* the window-solve pool — in-flight solves finish and every
worker process/thread is joined before the job thread returns, so a
graceful shutdown never orphans workers.
"""

from __future__ import annotations

import threading
import time
import traceback
from contextlib import nullcontext

from repro.flow import FlowConfig, run_flow, table2_row
from repro.lefdef import write_def
from repro.obs.export import TraceWriter
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, tracer_scope
from repro.runtime import EXECUTOR_KINDS
from repro.service.jobstore import JobRecord, JobState, JobStore
from repro.tech import CellArchitecture

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
    """Raised inside a job thread when its cancel flag is set."""


class ServiceShutdown(Exception):
    """Raised inside a job thread when the service is draining."""


def _shards(value) -> "int | str":
    """Spec coercion for ``shards``: a positive-ish int or ``auto``
    (range-checked with the other fields below)."""
    if value == "auto":
        return "auto"
    if isinstance(value, bool):
        raise ValueError
    return int(value)


# Surfaces in the 400-level "expected <name>" validation message.
_shards.__name__ = "int or 'auto'"


#: spec key -> (coercion, default) for flow jobs.  ``None`` default =
#: use the FlowConfig default.
_FLOW_SPEC_FIELDS = {
    "profile": str,
    "arch": str,
    "scale": float,
    "utilization": float,
    "seed": int,
    "window_um": float,
    "lx": int,
    "ly": int,
    "time_limit": float,
    "executor": str,
    "jobs": int,
    "presolve": bool,
    "dirty_tracking": bool,
    "timing_driven": bool,
    "shards": _shards,
    "halo_rows": int,
    # Service-level switch, not a FlowConfig field: write a span trace
    # to <job_dir>/trace.ndjson (see repro.obs).
    "trace": bool,
}

_PROFILES = ("m0", "aes", "jpeg", "vga")


def flow_config_from_spec(spec: dict) -> FlowConfig:
    """Validate a job spec and build the :class:`FlowConfig`.

    Raises ``ValueError`` with a submission-quality message on any
    unknown key, bad type, or out-of-range value — the HTTP layer maps
    it to a 400, the CLI to an argparse-style error.
    """
    if not isinstance(spec, dict):
        raise ValueError("spec must be a JSON object")
    unknown = sorted(set(spec) - set(_FLOW_SPEC_FIELDS))
    if unknown:
        raise ValueError(
            f"unknown spec field(s): {', '.join(unknown)}; "
            f"allowed: {', '.join(sorted(_FLOW_SPEC_FIELDS))}"
        )
    clean: dict = {}
    for key, value in spec.items():
        coerce = _FLOW_SPEC_FIELDS[key]
        try:
            if coerce is bool and not isinstance(value, bool):
                raise ValueError
            clean[key] = coerce(value)
        except (TypeError, ValueError):
            raise ValueError(
                f"spec field {key!r}: expected {coerce.__name__}, "
                f"got {value!r}"
            ) from None
    if clean.get("profile", "aes") not in _PROFILES:
        raise ValueError(
            f"spec field 'profile': expected one of {_PROFILES}, "
            f"got {clean['profile']!r}"
        )
    if "arch" in clean:
        try:
            clean["arch"] = CellArchitecture(clean["arch"])
        except ValueError:
            raise ValueError(
                f"spec field 'arch': expected one of "
                f"{[a.value for a in CellArchitecture]}, "
                f"got {clean['arch']!r}"
            ) from None
    if clean.get("scale", 0.05) <= 0:
        raise ValueError("spec field 'scale' must be > 0")
    if not 0 < clean.get("utilization", 0.75) <= 1:
        raise ValueError("spec field 'utilization' must be in (0, 1]")
    if clean.get("jobs", 1) < 1:
        raise ValueError("spec field 'jobs' must be >= 1")
    if clean.get("time_limit", 1.0) <= 0:
        raise ValueError("spec field 'time_limit' must be > 0")
    if clean.get("window_um", 1.25) <= 0:
        raise ValueError("spec field 'window_um' must be > 0")
    for key in ("lx", "ly"):
        if clean.get(key, 0) < 0:
            raise ValueError(f"spec field {key!r} must be >= 0")
    if clean.get("executor", "auto") not in EXECUTOR_KINDS:
        raise ValueError(
            f"spec field 'executor': expected one of "
            f"{EXECUTOR_KINDS}, got {clean['executor']!r}"
        )
    shards = clean.get("shards", 1)
    if shards != "auto" and shards < 1:
        raise ValueError(
            "spec field 'shards' must be >= 1 or 'auto'"
        )
    if clean.get("halo_rows", 2) < 0:
        raise ValueError("spec field 'halo_rows' must be >= 0")
    clean.pop("trace", None)  # consumed by the manager, not the flow
    return FlowConfig(**clean)


class JobManager:
    """Claims queued jobs and executes them on worker threads."""

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
        # The service metrics registry (see repro.obs.metrics): the
        # single source both /metrics exposition and metrics() report
        # from.  Service-level gauges pull their values at scrape time.
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

    # -------------------------------------------------------- metrics
    def metrics(self) -> dict:
        return {
            "uptime_seconds": time.time() - self.started_at,
            "workers": self.workers,
            "active": len(self.active_jobs()),
            "draining": self.draining,
            "counters": dict(self.counters),
            "jobs_by_state": self.store.counts_by_state(),
        }

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
        except Exception as exc:  # noqa: BLE001 — job isolation
            self._lifecycle.inc(event="jobs_failed")
            self.store.mark_failed(job_id, error=repr(exc))
            logger.warning(
                "job %s failed: %s\n%s",
                job_id,
                exc,
                traceback.format_exc(),
            )
        else:
            self._lifecycle.inc(event="jobs_done")
            self.store.mark_done(job_id)
            logger.info("job %s done", job_id)
        finally:
            with self._active_lock:
                self._active.pop(job_id, None)

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

        def progress(stage: str, info: dict) -> None:
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
            self.store.append_event(
                job_id, {"type": stage, **info}
            )
            # Control points come *after* the event (and after the
            # pass checkpoint already hit the store), so an abort here
            # is always resumable.
            if cancel.is_set():
                raise JobCancelled(job_id)
            if self._stop.is_set():
                raise ServiceShutdown(job_id)

        # Per-job span trace (spec {"trace": true}): appended to
        # <job_dir>/trace.ndjson.  A resumed attempt re-joins the
        # interrupted attempt's trace — the checkpoint carries its
        # (trace_id, root span id), so one coherent tree spans both.
        tracer = writer = None
        if record.spec.get("trace"):
            writer = TraceWriter(
                self.store.job_dir(job_id) / "trace.ndjson"
            )
            seed = resume.trace if resume is not None else None
            tracer = Tracer(
                trace_id=seed[0] if seed else None,
                root_parent_id=seed[1] if seed else None,
                sink=writer,
            )

        # Sharded jobs keep their crash-safe state per shard inside the
        # job directory; a plan fingerprint from an interrupted attempt
        # means "resume" (finished shards fast-forward).
        shard_dir = self.store.job_dir(job_id) / "shards"
        shard_resume = (shard_dir / "plan.json").exists()

        def checkpoint_sink(cp) -> None:
            # A checkpoint is an optimization, not ground truth: a
            # failed write (full disk, fsync error) must not kill a
            # healthy job.  Count it, journal it, keep running — the
            # worst case is resuming from the previous checkpoint.
            try:
                self.store.write_checkpoint(job_id, cp)
            except OSError as exc:
                self._lifecycle.inc(event="checkpoint_write_failures")
                self.store.append_event(
                    job_id,
                    {
                        "type": "checkpoint_write_failed",
                        "error": str(exc),
                    },
                )
                logger.warning(
                    "job %s: checkpoint write failed (%s) — "
                    "continuing without it",
                    job_id, exc,
                )

        try:
            with tracer_scope(tracer) if tracer is not None else (
                nullcontext()
            ):
                result = run_flow(
                    config,
                    progress=progress,
                    checkpoint_sink=checkpoint_sink,
                    resume=resume,
                    shard_checkpoint_dir=shard_dir,
                    shard_resume=shard_resume,
                )
        finally:
            if writer is not None:
                writer.close()

        row = table2_row(result)
        result_doc = {
            "schema": RESULT_SCHEMA,
            "job_id": job_id,
            "table2": row,
            "num_instances": result.num_instances,
            "place_seconds": result.place_seconds,
            "total_seconds": result.total_seconds,
            "resumed": resume is not None or (
                shard_resume and result.shard is not None
            ),
        }
        if result.shard is not None:
            result_doc["shard"] = result.shard.summary()
        self.store.write_result(job_id, result_doc)
        if result.telemetry is not None:
            self.store.write_telemetry(
                job_id, result.telemetry.summary()
            )
        self.store.write_artifact(
            job_id, "post.def", write_def(result.design)
        )
