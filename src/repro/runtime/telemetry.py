"""Run telemetry: structured logs + per-window timing records.

Everything the execution engine observes funnels into a
:class:`RunTelemetry`: one :class:`WindowRecord` per built window
(build / queue-wait / solve breakdown, attempts, outcome) and one
aggregate entry per DistOpt pass.  ``summary()`` produces the JSON
document described in DESIGN.md §"Runtime & parallel execution";
``save()`` persists it next to the benchmark results.

The ``repro.runtime`` logger emits a DEBUG line per window and an
INFO line per pass so a long run can be watched live with
``logging.basicConfig(level=logging.INFO)``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import TYPE_CHECKING

from repro.log import subsystem_logger
from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:  # repro.core imports this package
    from repro.core.distopt import DistOptResult

logger = subsystem_logger("repro.runtime")

#: JSON schema identifier written into every telemetry document.
#: v2 added the presolve share of each window's time split, the
#: ``cached`` window status, and the cross-pass window-cache section
#: (hits / misses / hit rate, per pass and run-wide).
#: v3 adds dirty-tracking visibility (the ``skipped_clean`` window
#: status and per-pass/summary ``windows_skipped_clean`` counts) and
#: moves ``build_seconds`` to the worker side: window models are now
#: built inside the executor workers, so each record's build time is
#: measured in the worker and ``modeled_parallel_seconds`` charges
#: the full per-window build+presolve+solve path.
#: v4 adds the observability spine (see DESIGN.md §12): a ``counters``
#: section rendered from the run's :class:`repro.obs.MetricsRegistry`
#: and a ``trace`` section linking the document to its span trace;
#: :func:`load_telemetry` still reads v3 documents, and
#: :meth:`RunTelemetry.from_spans` derives a telemetry document
#: directly from a recorded span tree.
#: v5 drops the window-cache fields with the cache itself (the
#: ``cache`` section, the per-pass hit/miss counts and the ``cached``
#: window status and count); the dirty tracker's ``skipped_clean``
#: counts are the one cross-pass skip.
TELEMETRY_SCHEMA = "repro.runtime.telemetry/v5"
#: Schemas :func:`load_telemetry` accepts (older ones normalized to
#: the v4+ shape: empty ``counters``, null ``trace``).
READABLE_SCHEMAS = (
    "repro.runtime.telemetry/v3",
    "repro.runtime.telemetry/v4",
    TELEMETRY_SCHEMA,
)


@dataclass
class WindowRecord:
    """Timing + outcome of one window through the engine."""

    pass_label: str
    family: int
    ix: int
    iy: int
    build_seconds: float = 0.0
    queue_seconds: float = 0.0
    presolve_seconds: float = 0.0
    solve_seconds: float = 0.0
    status: str = "skipped"  # applied | reverted | no_move |
    #                          no_solution | failed | timed_out |
    #                          skipped | skipped_clean
    attempts: int = 0
    moved_cells: int = 0
    num_pairs: int = 0
    error: str = ""
    #: the window's final attempt ran inline after the executor
    #: refused it (serial fallback).
    degraded: bool = False


def modeled_parallel_seconds(records: list[WindowRecord]) -> float:
    """Parallel-machine model: per (pass, family) the slowest window
    *path* — build + presolve + solve, all of which run inside one
    worker — bounds the batch; families and passes run back-to-back.

    Before telemetry v3 models were built serially in the dispatching
    process and build time was excluded here; with worker-side builds
    the whole path parallelizes, so the whole path is charged.
    """
    slowest: dict[tuple[str, int], float] = {}
    for rec in records:
        key = (rec.pass_label, rec.family)
        path = (
            rec.build_seconds
            + rec.presolve_seconds
            + rec.solve_seconds
        )
        slowest[key] = max(slowest.get(key, 0.0), path)
    return sum(slowest.values())


@dataclass
class RunTelemetry:
    """Accumulates records across all DistOpt passes of one run."""

    executor: str = "serial"
    jobs: int = 1
    records: list[WindowRecord] = field(default_factory=list)
    passes: list[dict] = field(default_factory=list)
    wall_seconds: float = 0.0
    #: trace id of the span trace covering this run, when traced.
    trace_id: str | None = None
    #: per-run metrics registry; every record also bumps it, and
    #: ``summary()`` renders it as the v4 ``counters`` section.
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)

    def _metric_windows(self):
        return self.registry.counter(
            "repro_run_windows_total",
            "Windows processed by the engine, by outcome status.",
            ("status",),
        )

    def record_window(self, record: WindowRecord) -> None:
        self.records.append(record)
        self._metric_windows().inc(status=record.status)
        self.registry.histogram(
            "repro_run_window_solve_seconds",
            "Per-window solve time distribution.",
        ).observe(record.solve_seconds)
        # Recovery counters are created lazily so clean runs keep the
        # exact v4 counter set they had before the chaos tier.
        if record.attempts > 1:
            self.registry.counter(
                "repro_run_retries_total",
                "Extra window-solve attempts after failures.",
            ).inc(record.attempts - 1)
        if record.degraded:
            self.registry.counter(
                "repro_run_degradations_total",
                "Windows that fell back to a degraded path.",
                ("kind",),
            ).inc(kind="serial_fallback")
        elif record.status in ("failed", "no_solution", "timed_out"):
            self.registry.counter(
                "repro_run_degradations_total",
                "Windows that fell back to a degraded path.",
                ("kind",),
            ).inc(kind=record.status)
        logger.debug(
            "window %s family=%d (%d,%d) status=%s build=%.3fs "
            "queue=%.3fs solve=%.3fs attempts=%d",
            record.pass_label, record.family, record.ix, record.iy,
            record.status, record.build_seconds, record.queue_seconds,
            record.solve_seconds, record.attempts,
        )

    def record_faults(self, counts: dict) -> None:
        """Fold injected-fault counts (per site) into the registry.

        Called by the engine when a chaos controller is attached;
        no-op for empty counts, so clean runs never materialize the
        counter.
        """
        if not counts:
            return
        counter = self.registry.counter(
            "repro_run_faults_injected_total",
            "Faults injected by the chaos harness, by site.",
            ("site",),
        )
        for site, count in counts.items():
            counter.inc(count, site=site)

    def record_pass(self, label: str, pass_result: DistOptResult) -> None:
        """Append one pass entry: the pass's wall time plus each total
        :class:`~repro.core.distopt.PassTotals` gives a ``pass_entry``
        key, under that key."""
        entry = {"label": label, "wall_seconds": pass_result.wall_seconds}
        for f in fields(pass_result):
            key = f.metadata.get("pass_entry")
            if key is not None:
                entry[key] = getattr(pass_result, f.name)
        self.passes.append(entry)
        self.registry.counter(
            "repro_run_passes_total",
            "DistOpt passes completed by this run.",
        ).inc()
        p = pass_result
        logger.info(
            "pass %s: %d windows (%d applied, %d failed, %d timed "
            "out, %d clean-skipped) wall=%.2fs "
            "solve=%.2fs parallel measured=%.2fs modeled=%.2fs "
            "[%s x%d]",
            label, p.windows_built, p.windows_applied, p.windows_failed,
            p.windows_timed_out, p.windows_skipped_clean, p.wall_seconds,
            p.solve_seconds, p.measured_parallel_seconds,
            p.modeled_parallel_seconds, self.executor, self.jobs,
        )

    # ------------------------------------------------------ aggregates
    def _count(self, status: str) -> int:
        return sum(1 for r in self.records if r.status == status)

    def summary(self) -> dict:
        """The telemetry JSON document (schema v5)."""
        build = sum(r.build_seconds for r in self.records)
        presolve = sum(r.presolve_seconds for r in self.records)
        solve = sum(r.solve_seconds for r in self.records)
        queue = sum(r.queue_seconds for r in self.records)
        measured = sum(
            p["measured_parallel_seconds"] for p in self.passes
        )
        modeled = modeled_parallel_seconds(self.records)
        return {
            "schema": TELEMETRY_SCHEMA,
            "executor": self.executor,
            "jobs": self.jobs,
            "windows": {
                "total": len(self.records),
                "applied": self._count("applied"),
                "reverted": self._count("reverted"),
                "no_move": self._count("no_move"),
                "no_solution": self._count("no_solution"),
                "failed": self._count("failed"),
                "timed_out": self._count("timed_out"),
                "skipped_clean": self._count("skipped_clean"),
            },
            "seconds": {
                "wall": self.wall_seconds,
                "build": build,
                "presolve": presolve,
                "solve": solve,
                "queue_wait": queue,
                "measured_parallel": measured,
                "modeled_parallel": modeled,
            },
            "speedup": {
                # serial solve work over what the engine achieved /
                # what a perfect parallel machine would achieve.
                "measured": solve / measured if measured > 0 else None,
                "modeled": solve / modeled if modeled > 0 else None,
            },
            "counters": self.registry.to_dict(),
            "trace": (
                {"trace_id": self.trace_id}
                if self.trace_id is not None
                else None
            ),
            "passes": self.passes,
            "windows_detail": [asdict(r) for r in self.records],
        }

    def save(self, path: str | Path) -> Path:
        """Persist ``summary()`` as indented JSON; returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.summary(), indent=1))
        logger.info("telemetry -> %s", path)
        return path

    @classmethod
    def from_spans(cls, spans) -> "RunTelemetry":
        """Derive a telemetry object from a recorded span tree.

        The spine of the v4 design: spans are the primary record, and
        a telemetry document can be (re)built from any trace — e.g.
        ``repro trace report`` summarizing a run after the fact.  Each
        ``window`` span (with its ``build``/``presolve``/``solve``
        children and the ``outcome`` attr stamped by the apply side)
        becomes a :class:`WindowRecord`; ``distopt`` spans become pass
        entries.  Accepts :class:`repro.obs.Span` objects or span
        dicts.
        """
        # Not at module level: repro.core imports this package.
        from repro.core.distopt import TOTAL_FIELDS, DistOptResult
        from repro.obs.trace import Span

        objs = [
            s if isinstance(s, Span) else Span.from_dict(s)
            for s in spans
        ]
        telemetry = cls()
        by_parent: dict[str | None, list] = {}
        for s in objs:
            by_parent.setdefault(s.parent_id, []).append(s)
        for s in objs:
            if s.trace_id and telemetry.trace_id is None:
                telemetry.trace_id = s.trace_id
            if s.name == "vm1_opt":
                telemetry.wall_seconds = max(
                    telemetry.wall_seconds, s.wall_seconds
                )
                if "executor" in s.attrs:
                    telemetry.executor = str(s.attrs["executor"])
                    telemetry.jobs = int(s.attrs.get("jobs", 1))
        for s in objs:
            if s.name == "window":
                children = {
                    c.name: c for c in by_parent.get(s.span_id, [])
                }
                build = children.get("build")
                pre = children.get("presolve")
                solve = children.get("solve")
                telemetry.record_window(
                    WindowRecord(
                        pass_label=str(s.attrs.get("pass_label", "")),
                        family=int(s.attrs.get("family", 0)),
                        ix=int(s.attrs.get("ix", 0)),
                        iy=int(s.attrs.get("iy", 0)),
                        build_seconds=(
                            build.wall_seconds if build else 0.0
                        ),
                        presolve_seconds=(
                            pre.wall_seconds if pre else 0.0
                        ),
                        solve_seconds=(
                            solve.wall_seconds if solve else 0.0
                        ),
                        status=str(s.attrs.get("outcome", "skipped")),
                        attempts=1,
                        num_pairs=int(
                            solve.attrs.get("num_pairs", 0)
                            if solve
                            else 0
                        ),
                    )
                )
            elif s.name == "distopt":
                totals = {
                    name: value
                    for name, value in s.attrs.items()
                    if name in TOTAL_FIELDS
                }
                telemetry.record_pass(
                    str(s.attrs.get("pass_label", "")),
                    DistOptResult(
                        objective=float(s.attrs.get("objective", 0.0)),
                        wall_seconds=s.wall_seconds,
                        **totals,
                    ),
                )
        return telemetry


def load_telemetry(path: str | Path) -> dict:
    """Read a telemetry JSON document, accepting schema v3, v4 or v5.

    v3 documents are normalized to the v4+ shape: the sections v4
    added (``counters``, ``trace``) are filled with their empty
    defaults.  v3/v4 documents keep their window-cache fields, and the
    ``schema`` field is left at the document's own version so callers
    can tell what was actually on disk.
    """
    doc = json.loads(Path(path).read_text())
    schema = doc.get("schema")
    if schema not in READABLE_SCHEMAS:
        raise ValueError(
            f"unsupported telemetry schema {schema!r} "
            f"(expected one of {READABLE_SCHEMAS})"
        )
    doc.setdefault("counters", {})
    doc.setdefault("trace", None)
    return doc
