"""Run telemetry: the v5 document as a view of a run's span tree.

Spans are the one run record.  Every built window leaves a ``window``
span (``build``/``solve`` children, and the apply verdict
stamped on it by the submitting side), every window-memo skip a
zero-length ``skipped_clean`` span, every DistOpt pass a ``distopt``
span with the pass totals, and the run root — ``vm1_opt``, or a
flow's ``opt`` stage — the run totals.  :meth:`RunTelemetry.from_spans`
reads those back into one :class:`WindowRecord` per window and one
entry per pass; ``summary()`` renders the JSON document described in
DESIGN.md §6.  The same view serves a live run (``run_flow`` and
``vm1_opt(telemetry=...)`` record into an in-memory tracer when none
is active) and a trace file (``repro trace summary``).
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

#: JSON schema identifier written into every telemetry document (the
#: only one read or written; DESIGN.md §6).
TELEMETRY_SCHEMA = "repro.runtime.telemetry/v5"

#: Window statuses counted in the document's ``windows`` section.
WINDOW_STATUSES = (
    "applied", "reverted", "no_move", "no_solution", "failed",
    "timed_out", "skipped_clean",
)
#: Failed statuses counted as degradations (beside the serial
#: fallback, which ``degraded`` marks).
_DEGRADED_STATUSES = ("failed", "no_solution", "timed_out")
#: Span names whose totals are the run's, outermost first: a flow's
#: ``opt`` stage, else every ``vm1_opt`` run, else every pass.
_RUN_ROOTS = ("opt", "vm1_opt", "distopt")
#: :class:`WindowRecord` fields a window root span carries as attrs:
#: the worker mints the coordinates, the submitting side stamps the
#: rest (``_absorb_spans`` in :mod:`repro.core.distopt`).
_STAMPED = (
    "family", "ix", "iy", "queue_seconds", "attempts", "moved_cells",
    "error", "degraded",
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


#: A window solve that ran this close to its time limit was cut by it
#: (perfbench's rule).
TIME_LIMIT_SHARE = 0.98


def time_limit_errors(records, time_limit: float) -> list[str]:
    """The windows among ``records`` whose solve timed out or ran to
    at least :data:`TIME_LIMIT_SHARE` of ``time_limit``: a run that
    compares placements byte for byte must contain none, or the
    incumbent it compares depends on the machine's load."""
    errors = []
    for rec in records:
        where = f"window {rec.pass_label} ({rec.ix},{rec.iy})"
        if rec.status == "timed_out":
            errors.append(f"{where} timed out")
        elif rec.solve_seconds >= TIME_LIMIT_SHARE * time_limit:
            errors.append(
                f"{where} solved in {rec.solve_seconds:.3f} s, at its "
                f"{time_limit:g} s limit"
            )
    return errors


def _has_totals(span) -> bool:
    return "windows_built" in span.attrs


def _wall(span) -> float:
    return span.wall_seconds if span is not None else 0.0


def _tally(labels) -> dict:
    return dict(sorted(Counter(labels).items()))


def pass_entry(span) -> dict:
    """The ``passes`` entry of one ``distopt`` span: its label and
    wall time, then each total whose
    :class:`~repro.core.distopt.PassTotals` field declares a
    ``pass_entry`` key, under that key."""
    # Not at module level: repro.core imports this package.
    from repro.core.distopt import PassTotals

    entry = {
        "label": span.attrs.get("pass_label", ""),
        "wall_seconds": span.wall_seconds,
    }
    for f in fields(PassTotals):
        if "pass_entry" in f.metadata:
            entry[f.metadata["pass_entry"]] = span.attrs[f.name]
    return entry


@dataclass
class RunTelemetry:
    """One run's telemetry, built from its spans by :meth:`from_spans`
    (an empty one renders the document of a run that did nothing)."""

    executor: str = "serial"
    jobs: int = 1
    records: list[WindowRecord] = field(default_factory=list)
    passes: list[dict] = field(default_factory=list)
    #: the run roots' :class:`~repro.core.distopt.PassTotals`, by field
    #: name; the document's ``seconds`` are read from them.
    totals: dict = field(default_factory=dict)
    #: injected-fault counts by site.
    faults: dict = field(default_factory=dict)
    wall_seconds: float = 0.0
    #: trace id of the span trace covering this run, when traced.
    trace_id: str | None = None

    @classmethod
    def from_spans(cls, spans) -> "RunTelemetry":
        """The telemetry of the run recorded in ``spans``
        (:class:`repro.obs.Span` objects or span dicts)."""
        telemetry = cls()
        telemetry.load_spans(spans)
        return telemetry

    def load_spans(self, spans) -> None:
        """Replace this object's contents with the view of ``spans``.

        * ``window`` spans stamped with an apply ``outcome`` and the
          ``skipped_clean`` spans become records, in span order (failed
          attempts that were retried carry no outcome, and ``empty``
          windows had nothing to optimize).  The pass label is the
          parent ``distopt`` span's; build/solve time and the pair
          count come from the window's children (and presolve time
          from a ``presolve`` child, which only traces recorded before
          the build wrote its model reduced carry).
        * finished ``distopt`` spans become pass entries, and
          ``faults`` attrs (on passes and runs) add up by site.
        * the run roots (``_RUN_ROOTS``) give the totals, the wall
          time, the executor and the job count.
        """
        # Not at module level: repro.core imports this package.
        from repro.core.distopt import TOTAL_FIELDS
        from repro.obs.trace import Span, span_children

        objs = [
            s if isinstance(s, Span) else Span.from_dict(s)
            for s in spans
        ]
        by_id = {s.span_id: s for s in objs}
        children = span_children(objs)
        self.records, self.passes, self.faults = [], [], {}
        for s in objs:
            outcome = s.attrs.get("outcome", "empty")
            is_window = s.name in ("window", "skipped_clean")
            if is_window and outcome != "empty":
                parent = by_id.get(s.parent_id)
                kids = {c.name: c for c in children.get(s.span_id, ())}
                solve = kids.get("solve")
                self.records.append(
                    WindowRecord(
                        pass_label=(
                            parent.attrs.get("pass_label", "")
                            if parent
                            else ""
                        ),
                        build_seconds=_wall(kids.get("build")),
                        presolve_seconds=_wall(kids.get("presolve")),
                        solve_seconds=_wall(solve),
                        status=outcome,
                        num_pairs=(
                            solve.attrs.get("num_pairs", 0)
                            if solve
                            else 0
                        ),
                        **{
                            k: s.attrs[k]
                            for k in _STAMPED
                            if k in s.attrs
                        },
                    )
                )
            elif s.name == "distopt" and _has_totals(s):
                self.passes.append(pass_entry(s))
            for site, count in s.attrs.get("faults", {}).items():
                self.faults[site] = self.faults.get(site, 0) + count

        for name in _RUN_ROOTS:
            roots = [s for s in objs if s.name == name and _has_totals(s)]
            if roots:
                break
        self.totals = {}
        for root in roots:
            for name in TOTAL_FIELDS:
                self.totals[name] = (
                    self.totals.get(name, 0) + root.attrs[name]
                )
        self.wall_seconds = sum(root.wall_seconds for root in roots)
        if roots:
            self.executor = roots[0].attrs.get("executor", "serial")
            self.jobs = roots[0].attrs.get("jobs", 1)
        self.trace_id = objs[0].trace_id if objs else None

    def _counters(self) -> dict:
        """The ``counters`` section, rendered from the records, the
        pass count and the fault counts.  A series appears only once
        it has a value: clean runs carry no retry, degradation or
        fault series."""
        records = self.records
        counters: dict = {}
        if records:
            counters["repro_run_windows_total"] = _tally(
                r.status for r in records
            )
            counters["repro_run_window_solve_seconds"] = {
                "count": len(records),
                "sum": sum((r.solve_seconds for r in records), 0.0),
            }
        retries = sum(r.attempts - 1 for r in records if r.attempts > 1)
        if retries:
            counters["repro_run_retries_total"] = retries
        degradations = _tally(
            "serial_fallback" if r.degraded else r.status
            for r in records
            if r.degraded or r.status in _DEGRADED_STATUSES
        )
        if degradations:
            counters["repro_run_degradations_total"] = degradations
        if self.faults:
            counters["repro_run_faults_injected_total"] = dict(
                sorted(self.faults.items())
            )
        if self.passes:
            counters["repro_run_passes_total"] = len(self.passes)
        return dict(sorted(counters.items()))

    def summary(self) -> dict:
        """The telemetry JSON document (schema v5)."""
        totals = self.totals
        solve = totals.get("solve_seconds", 0.0)
        measured = totals.get("measured_parallel_seconds", 0.0)
        modeled = totals.get("modeled_parallel_seconds", 0.0)
        statuses = Counter(r.status for r in self.records)
        return {
            "schema": TELEMETRY_SCHEMA,
            "executor": self.executor,
            "jobs": self.jobs,
            "windows": {
                "total": len(self.records),
                **{s: statuses[s] for s in WINDOW_STATUSES},
            },
            "seconds": {
                "wall": self.wall_seconds,
                "build": totals.get("build_seconds", 0.0),
                "presolve": totals.get("presolve_seconds", 0.0),
                "solve": solve,
                "queue_wait": sum(r.queue_seconds for r in self.records),
                "measured_parallel": measured,
                "modeled_parallel": modeled,
            },
            "speedup": {
                # serial solve work over what the engine achieved /
                # what a perfect parallel machine would achieve.
                "measured": solve / measured if measured > 0 else None,
                "modeled": solve / modeled if modeled > 0 else None,
            },
            "counters": self._counters(),
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
        return path
