"""On-disk job journal: atomic writes, crash-safe recovery.

Layout (one directory per job under ``<root>/jobs/``)::

    <root>/jobs/<job_id>/
        job.json         # the JobRecord — always atomically replaced
        events.ndjson    # append-only progress events (one JSON/line)
        checkpoint.json  # latest VM1Checkpoint — atomically replaced
        result.json      # Table-2 row + summary, written on DONE
        telemetry.json   # repro.runtime.telemetry/v5 document
        post.def         # final optimized placement (DEF)

Write discipline:

* ``job.json`` / ``checkpoint.json`` / ``result.json`` are written via
  *write-temp, fsync, rename*
  (:func:`repro.core.checkpoint.atomic_write_text`) — a reader (or a
  restarted server) never sees a torn document, even across SIGKILL.
* ``events.ndjson`` is append-only with one flushed line per event; a
  SIGKILL can at worst truncate the final line, which readers skip.

Lifecycle::

    queued -> running -> done | failed | cancelled
       ^         |
       +---------+   (crash / graceful shutdown: recover() re-queues)

The store is single-writer by design: exactly one service process owns
a root at a time (the manager's threads coordinate through
``_lock``).  Crash recovery therefore never races another writer —
any job found ``running`` at startup is a leftover of a dead process
and goes back to ``queued``, keeping its checkpoint so the next
attempt resumes instead of starting over.
"""

from __future__ import annotations

import enum
import json
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.checkpoint import VM1Checkpoint, atomic_write_text
from repro.log import subsystem_logger

logger = subsystem_logger("repro.service")

#: Schema identifier written into every job record.
JOB_SCHEMA = "repro.service.job/v1"


class JobState(str, enum.Enum):
    """Lifecycle states of a job."""

    QUEUED = "queued"
    RUNNING = "running"
    CANCELLED = "cancelled"
    FAILED = "failed"
    DONE = "done"

    @property
    def terminal(self) -> bool:
        return self in (
            JobState.CANCELLED,
            JobState.FAILED,
            JobState.DONE,
        )


@dataclass
class JobRecord:
    """One job as journaled in ``job.json``."""

    job_id: str
    kind: str
    spec: dict
    state: JobState = JobState.QUEUED
    created_at: float = 0.0
    started_at: float = 0.0
    finished_at: float = 0.0
    attempts: int = 0
    cancel_requested: bool = False
    error: str = ""
    schema: str = JOB_SCHEMA

    def to_dict(self) -> dict:
        return {
            "schema": self.schema,
            "job_id": self.job_id,
            "kind": self.kind,
            "spec": self.spec,
            "state": self.state.value,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "attempts": self.attempts,
            "cancel_requested": self.cancel_requested,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "JobRecord":
        return cls(
            job_id=str(doc["job_id"]),
            kind=str(doc["kind"]),
            spec=dict(doc.get("spec", {})),
            state=JobState(doc.get("state", "queued")),
            created_at=float(doc.get("created_at", 0.0)),
            started_at=float(doc.get("started_at", 0.0)),
            finished_at=float(doc.get("finished_at", 0.0)),
            attempts=int(doc.get("attempts", 0)),
            cancel_requested=bool(doc.get("cancel_requested", False)),
            error=str(doc.get("error", "")),
            schema=str(doc.get("schema", JOB_SCHEMA)),
        )


class JobStore:
    """Journal of jobs under one root directory (single-writer)."""

    def __init__(self, root: str | Path, *, chaos=None) -> None:
        self.root = Path(root)
        self.jobs_root = self.root / "jobs"
        self.jobs_root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        #: last issued id timestamp (ms) — bumped so ids stay strictly
        #: monotonic even when two submits land in the same millisecond
        #: (the uuid suffix would otherwise order them randomly and
        #: break claim_next's FIFO promise).
        self._last_id_ms = 0
        #: optional fault controller driving the ``jobstore.*`` /
        #: ``fs.fsync`` injection sites.  Deliberately NOT applied to
        #: ``job.json`` writes: the job record is the ledger recovery
        #: itself depends on — faulting it models a broken disk, not
        #: a crash, and is out of scope for the chaos tier.
        self.chaos = chaos

    # ------------------------------------------------------- layout
    def job_dir(self, job_id: str) -> Path:
        return self.jobs_root / job_id

    def _record_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "job.json"

    def _events_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "events.ndjson"

    def checkpoint_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "checkpoint.json"

    def result_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "result.json"

    def telemetry_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "telemetry.json"

    def artifact_path(self, job_id: str, name: str) -> Path:
        if "/" in name or "\\" in name or name.startswith("."):
            raise ValueError(f"illegal artifact name {name!r}")
        return self.job_dir(job_id) / name

    # ------------------------------------------------------ records
    def _write(self, record: JobRecord) -> JobRecord:
        atomic_write_text(
            self._record_path(record.job_id),
            json.dumps(record.to_dict(), indent=1),
        )
        return record

    def submit(self, kind: str, spec: dict) -> JobRecord:
        """Journal a new queued job; returns its record."""
        with self._lock:
            now_ms = max(
                int(time.time() * 1000), self._last_id_ms + 1
            )
            self._last_id_ms = now_ms
            job_id = f"{now_ms:013d}-{uuid.uuid4().hex[:8]}"
            record = JobRecord(
                job_id=job_id,
                kind=kind,
                spec=dict(spec),
                created_at=time.time(),
            )
            self.job_dir(job_id).mkdir(parents=True, exist_ok=True)
            self._write(record)
            self.append_event(
                job_id, {"type": "state", "state": "queued"}
            )
            return record

    def get(self, job_id: str) -> JobRecord:
        path = self._record_path(job_id)
        if not path.exists():
            raise KeyError(f"unknown job {job_id!r}")
        return JobRecord.from_dict(json.loads(path.read_text()))

    def list_jobs(self) -> list[JobRecord]:
        """All journaled jobs, oldest first (ids sort by submit time)."""
        records = []
        for path in sorted(self.jobs_root.iterdir()):
            if (path / "job.json").exists():
                records.append(self.get(path.name))
        return records

    def counts_by_state(self) -> dict[str, int]:
        counts = {state.value: 0 for state in JobState}
        for record in self.list_jobs():
            counts[record.state.value] += 1
        return counts

    # -------------------------------------------------- transitions
    def claim_next(self) -> JobRecord | None:
        """Atomically move the oldest queued job to ``running``.

        Jobs whose cancellation was requested while still queued are
        finalized as ``cancelled`` here instead of being claimed.
        """
        with self._lock:
            for record in self.list_jobs():
                if record.state is not JobState.QUEUED:
                    continue
                if record.cancel_requested:
                    self._finish(record, JobState.CANCELLED)
                    continue
                record.state = JobState.RUNNING
                record.started_at = time.time()
                record.attempts += 1
                self._write(record)
                self.append_event(
                    record.job_id,
                    {
                        "type": "state",
                        "state": "running",
                        "attempt": record.attempts,
                    },
                )
                return record
        return None

    def _finish(
        self, record: JobRecord, state: JobState, error: str = ""
    ) -> JobRecord:
        record.state = state
        record.error = error
        record.finished_at = time.time()
        self._write(record)
        event = {"type": "state", "state": state.value}
        if error:
            event["error"] = error
        self.append_event(record.job_id, event)
        return record

    def mark_done(self, job_id: str) -> JobRecord:
        with self._lock:
            return self._finish(self.get(job_id), JobState.DONE)

    def mark_failed(self, job_id: str, error: str) -> JobRecord:
        with self._lock:
            return self._finish(
                self.get(job_id), JobState.FAILED, error=error
            )

    def mark_cancelled(self, job_id: str) -> JobRecord:
        with self._lock:
            return self._finish(self.get(job_id), JobState.CANCELLED)

    def requeue(self, job_id: str, reason: str) -> JobRecord:
        """Put an interrupted running job back in the queue.

        The job keeps its checkpoint, so the next attempt resumes from
        the last completed DistOpt pass.
        """
        with self._lock:
            record = self.get(job_id)
            record.state = JobState.QUEUED
            self._write(record)
            self.append_event(
                job_id,
                {
                    "type": "state",
                    "state": "requeued",
                    "reason": reason,
                },
            )
            return record

    def request_cancel(self, job_id: str) -> JobRecord:
        """Flag a job for cooperative cancellation (idempotent)."""
        with self._lock:
            record = self.get(job_id)
            if record.state.terminal:
                return record
            record.cancel_requested = True
            self._write(record)
            self.append_event(job_id, {"type": "cancel_requested"})
            return record

    # ------------------------------------------------------ recovery
    def recover(self) -> list[str]:
        """Re-queue every job left ``running`` by a dead process.

        Returns the re-queued job ids.  Call once at service startup,
        before the manager starts claiming work.
        """
        requeued = []
        with self._lock:
            for record in self.list_jobs():
                if record.state is JobState.RUNNING:
                    self.requeue(record.job_id, reason="recovered")
                    requeued.append(record.job_id)
        return requeued

    # ----------------------------------------------------- artifacts
    def append_event(self, job_id: str, event: dict) -> dict:
        """Append one progress event (stamped with ``ts``)."""
        event = {"ts": time.time(), **event}
        line = json.dumps(event) + "\n"
        if (
            self.chaos is not None
            and self.chaos.check(
                "jobstore.event", str(event.get("type", ""))
            )
            is not None
        ):
            # Torn write: the process died mid-append, leaving half a
            # line.  Readers must skip it without losing earlier
            # events.
            line = line[: max(1, len(line) // 2)]
        with self._lock:
            with open(
                self._events_path(job_id), "a", encoding="utf-8"
            ) as handle:
                handle.write(line)
                handle.flush()
        return event

    def read_events(self, job_id: str) -> list[dict]:
        """All decodable events (a torn last line is skipped)."""
        path = self._events_path(job_id)
        if not path.exists():
            return []
        events = []
        for line in path.read_text().splitlines():
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError:
                continue
        return events

    def write_checkpoint(
        self, job_id: str, checkpoint: VM1Checkpoint
    ) -> Path:
        path = self.checkpoint_path(job_id)
        text = checkpoint.dumps()
        chaos = self.chaos
        if (
            chaos is not None
            and chaos.check("jobstore.checkpoint", job_id) is not None
        ):
            # Torn checkpoint: leave a truncated document, as if the
            # kernel never flushed the tail.  ``load_checkpoint`` must
            # treat it as absent.  The torn write draws nothing at the
            # ``fs.fsync`` site.
            text, chaos = text[: len(text) // 2], None
        atomic_write_text(path, text, chaos=chaos)
        return path

    def load_checkpoint(self, job_id: str) -> VM1Checkpoint | None:
        """The journaled checkpoint, or None when absent *or torn*.

        A checkpoint is an optimization, never ground truth: an
        undecodable document (torn write, stray corruption) degrades
        to a from-scratch run instead of wedging recovery.
        """
        path = self.checkpoint_path(job_id)
        if not path.exists():
            return None
        try:
            return VM1Checkpoint.loads(path.read_text())
        except (OSError, ValueError, KeyError, TypeError) as exc:
            logger.warning(
                "job %s: unreadable checkpoint (%s) — starting over",
                job_id, exc,
            )
            return None

    def write_result(self, job_id: str, result: dict) -> Path:
        path = self.result_path(job_id)
        atomic_write_text(
            path, json.dumps(result, indent=1), chaos=self.chaos
        )
        return path

    def load_result(self, job_id: str) -> dict | None:
        path = self.result_path(job_id)
        if not path.exists():
            return None
        return json.loads(path.read_text())

    def write_telemetry(self, job_id: str, summary: dict) -> Path:
        path = self.telemetry_path(job_id)
        atomic_write_text(
            path, json.dumps(summary, indent=1), chaos=self.chaos
        )
        return path

    def load_telemetry(self, job_id: str) -> dict | None:
        path = self.telemetry_path(job_id)
        if not path.exists():
            return None
        return json.loads(path.read_text())

    def write_artifact(
        self, job_id: str, name: str, text: str
    ) -> Path:
        path = self.artifact_path(job_id, name)
        atomic_write_text(path, text, chaos=self.chaos)
        return path
