"""Shard execution engine: full-chip VM1Opt as independent shard runs.

:func:`run_sharded` only shards: it takes two or more row bands, and
``run_flow`` sends a one-shard run straight to ``vm1_opt`` instead.
Each shard worker runs the unsharded optimizer's own ``vm1_opt``, and
the seam pass after the merge is one more DistOpt restricted to the
windows that straddle a seam (:mod:`repro.shard.stitch`).

One :class:`ShardTask` is the unit of distribution — a pickled shard
sub-design plus optimizer parameters — executed through the existing
:mod:`repro.runtime` executors (the executors call ``task.run()``, so
shard tasks ride the same Serial/Thread/Multiprocess machinery window
tasks do, one level up).  Worker budgeting is two-tier: ``jobs``
workers are first spent process-parallel *across* shards, and any
remainder window-parallel *within* each shard (threads inside pool
workers — HiGHS releases the GIL during the native solve).

Crash safety reuses :class:`repro.core.checkpoint.VM1Checkpoint`
verbatim: every shard's ``vm1_opt`` streams per-pass checkpoints into
a :class:`ShardCheckpointStore` directory; finished shards leave an
atomic ``done`` record with their final core placement.  A SIGKILL
mid-chip therefore resumes at shard granularity — completed shards
fast-forward from their done records, the interrupted shard resumes
from its last pass checkpoint (byte-identical by the PR-4 resume
contract), and untouched shards start fresh.  The seam pass is cheap
and deterministic, so it is simply re-run on resume.
"""

from __future__ import annotations

import json
import pickle
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

from repro.chaos.inject import active_chaos
from repro.chaos.inject import barrier as chaos_barrier
from repro.core.checkpoint import VM1Checkpoint, atomic_write_text
from repro.core.distopt import PassTotals
from repro.core.objective import calculate_objective
from repro.core.params import OptParams
from repro.core.vm1opt import VM1OptResult, vm1_opt
from repro.log import subsystem_logger
from repro.netlist.design import Design
from repro.obs.trace import active as active_tracer
from repro.obs.trace import collecting, current_context, span
from repro.runtime import make_executor
from repro.shard.partition import (
    NetClassification,
    ShardPlan,
    classify_nets,
    extract_shard_design,
    plan_shards,
    verify_plan,
)
from repro.shard.stitch import (
    StitchResult,
    merge_shard_placements,
    run_seam_pass,
    verify_stitched,
)

#: Schema of the per-shard ``done`` record.
DONE_SCHEMA = "repro.shard.done/v1"
#: Schema of the plan fingerprint file.
PLAN_SCHEMA = "repro.shard.plan/v1"


class ShardPlanError(ValueError):
    """The partition failed its independence proof."""


class StitchVerificationError(RuntimeError):
    """The stitched placement failed oracle/production verification."""


logger = subsystem_logger("repro.shard")


def _write_checkpoint(path: Path, text: str) -> bool:
    """Write one shard checkpoint file atomically; on ``OSError`` log
    a warning and return False instead of failing the run.  A
    checkpoint is an optimization, not ground truth: every file here
    only shortens a later resume."""
    try:
        atomic_write_text(path, text)
    except OSError as exc:
        logger.warning("shard checkpoint %s not written: %s", path, exc)
        return False
    return True


#: Totals every ``done/v1`` record has carried; the ones added later
#: read 0 when absent, so an older record still resumes.
_DONE_V1_TOTALS = frozenset(
    {
        "moved_cells", "solve_seconds", "modeled_parallel_seconds",
        "windows_failed", "windows_timed_out",
    }
)


@dataclass
class ShardOutcome(PassTotals):
    """What one shard run hands back across the process boundary."""

    index: int
    #: owned (core) instance name -> (x, y, DEF orientation string).
    placements: dict[str, tuple[int, int, str]]
    initial_objective: float
    final_objective: float
    iterations: int = 0
    wall_seconds: float = 0.0
    resumed: bool = False
    #: span dicts collected inside the shard worker when the task
    #: carried a trace context; they ride the ``done`` record so a
    #: resumed run keeps the finished shard's trace without re-running
    #: it, and the submitting side absorbs them in shard order.
    spans: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "schema": DONE_SCHEMA,
            "index": self.index,
            "placements": {
                name: list(state)
                for name, state in self.placements.items()
            },
            "initial_objective": self.initial_objective,
            "final_objective": self.final_objective,
            "iterations": self.iterations,
            "wall_seconds": self.wall_seconds,
            **self.totals(),
            "resumed": self.resumed,
            "spans": list(self.spans),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ShardOutcome":
        if doc.get("schema") != DONE_SCHEMA:
            raise ValueError(
                f"unsupported shard done schema {doc.get('schema')!r}"
            )
        outcome = cls(
            index=int(doc["index"]),
            placements={
                name: (int(x), int(y), str(orient))
                for name, (x, y, orient) in doc["placements"].items()
            },
            initial_objective=float(doc["initial_objective"]),
            final_objective=float(doc["final_objective"]),
            iterations=int(doc["iterations"]),
            wall_seconds=float(doc["wall_seconds"]),
            resumed=bool(doc.get("resumed", False)),
            spans=list(doc.get("spans", [])),
        )
        for f in fields(PassTotals):
            value = (
                doc[f.name]
                if f.name in _DONE_V1_TOTALS
                else doc.get(f.name, 0)
            )
            # Cast to the field's type, that of its zero default.
            setattr(outcome, f.name, type(f.default)(value))
        return outcome


@dataclass
class ShardTask:
    """Picklable shard work unit; ``run()`` executes in any executor.

    The shard's ``vm1_opt`` runs with its defaults: window memo on.
    """

    index: int
    design_blob: bytes = field(repr=False)
    owned: tuple[str, ...]
    params: OptParams
    inner_executor: str = "serial"
    inner_jobs: int = 1
    checkpoint_path: str | None = None
    resume_doc: dict | None = None
    #: ``(trace_id, parent_span_id)`` from the submitting side; the
    #: worker collects its whole ``vm1_opt`` span subtree under it.
    trace: tuple[str, str | None] | None = None
    #: span names the submitting tracer profiles (empty when
    #: untraced); the worker's tracer profiles the same names.
    profile_spans: tuple[str, ...] = ()
    #: serialized :class:`~repro.chaos.plan.FaultPlan` document; the
    #: worker rebuilds a local controller from it (controllers do not
    #: cross process boundaries), so shard-level faults — mid-shard
    #: death at ``shard:<n>:start``/``shard:<n>:done`` barriers, plus
    #: every window-level site inside the shard's vm1_opt — fire
    #: deterministically under any executor.
    chaos: dict | None = None

    def run(self) -> ShardOutcome:
        if self.chaos is None:
            return self._execute()
        from repro.chaos.inject import ChaosController, chaos_scope
        from repro.chaos.plan import FaultPlan

        controller = ChaosController(
            plan=FaultPlan.from_dict(self.chaos)
        )
        with chaos_scope(controller):
            return self._execute()

    def _execute(self) -> ShardOutcome:
        design: Design = pickle.loads(self.design_blob)
        resume = (
            VM1Checkpoint.from_dict(self.resume_doc)
            if self.resume_doc is not None
            else None
        )
        sink = None
        if self.checkpoint_path is not None:
            path = self.checkpoint_path

            def sink(cp: VM1Checkpoint) -> None:
                _write_checkpoint(Path(path), cp.dumps())

        chaos_barrier(f"shard:{self.index}:start")
        started = time.perf_counter()
        with collecting(
            self.trace, self.profile_spans
        ) as trace_collector:
            with span("shard", index=self.index):
                with make_executor(
                    self.inner_executor, self.inner_jobs
                ) as ex:
                    result = vm1_opt(
                        design,
                        self.params,
                        executor=ex,
                        checkpoint_sink=sink,
                        resume=resume,
                    )
        wall = time.perf_counter() - started
        # After the work, before the outcome crosses back: a death
        # here loses the shard's result but not its checkpoints.
        chaos_barrier(f"shard:{self.index}:done")
        outcome = ShardOutcome(
            index=self.index,
            placements={
                name: (
                    design.instances[name].x,
                    design.instances[name].y,
                    design.instances[name].orientation.value,
                )
                for name in self.owned
            },
            initial_objective=result.initial_objective,
            final_objective=result.final_objective,
            iterations=result.iterations,
            wall_seconds=wall,
            resumed=resume is not None,
            spans=trace_collector.export(),
        )
        outcome.add(result)
        return outcome


class ShardCheckpointStore:
    """On-disk shard-granular resume state for one sharded run.

    Layout under ``root``::

        plan.json                  run fingerprint (refuses mismatched
                                   resumes)
        shard_000.ckpt.json        last per-pass VM1Checkpoint of the
                                   shard still running (atomic)
        shard_000.done.json        final ShardOutcome of a finished
                                   shard (atomic; supersedes the ckpt)
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def _plan_path(self) -> Path:
        return self.root / "plan.json"

    def ckpt_path(self, index: int) -> Path:
        return self.root / f"shard_{index:03d}.ckpt.json"

    def done_path(self, index: int) -> Path:
        return self.root / f"shard_{index:03d}.done.json"

    def fingerprint(
        self, design: Design, num_shards: int, halo_rows: int
    ) -> dict:
        return {
            "schema": PLAN_SCHEMA,
            "design": design.name,
            "instances": len(design.instances),
            "shards": num_shards,
            "halo_rows": halo_rows,
        }

    def begin(
        self,
        design: Design,
        num_shards: int,
        halo_rows: int,
        *,
        resume: bool,
    ) -> bool:
        """Prepare the store; returns True when resuming prior state.

        A fresh run (or a fingerprint mismatch with ``resume=False``)
        clears stale shard files; ``resume=True`` against a mismatched
        fingerprint raises instead of silently mixing two runs.
        """
        want = self.fingerprint(design, num_shards, halo_rows)
        have: dict | None = None
        if self._plan_path().exists():
            try:
                have = json.loads(self._plan_path().read_text())
            except (OSError, json.JSONDecodeError):
                have = None
        if resume and have == want:
            return True
        if resume and have is not None and have != want:
            raise ValueError(
                f"shard checkpoint dir {self.root} belongs to a "
                f"different run: {have} != {want}"
            )
        self.root.mkdir(parents=True, exist_ok=True)
        for stale in self.root.glob("shard_*.json"):
            stale.unlink()
        # If this write fails, a later resume refuses a foreign plan
        # left here or, finding none, starts fresh.
        _write_checkpoint(self._plan_path(), json.dumps(want, indent=1))
        return False

    def load_done(self, index: int) -> ShardOutcome | None:
        path = self.done_path(index)
        if not path.exists():
            return None
        return ShardOutcome.from_dict(json.loads(path.read_text()))

    def write_done(self, outcome: ShardOutcome) -> None:
        if _write_checkpoint(
            self.done_path(outcome.index),
            json.dumps(outcome.to_dict()),
        ):
            # The pass-level checkpoint is superseded by the done
            # record; without one, a resume starts from the former.
            self.ckpt_path(outcome.index).unlink(missing_ok=True)

    def load_resume_doc(self, index: int) -> dict | None:
        path = self.ckpt_path(index)
        if not path.exists():
            return None
        try:
            return json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None  # torn write of a non-atomic ancestor — restart


@dataclass
class ShardRunResult:
    """Everything one sharded VM1Opt run produced."""

    num_shards: int
    halo_rows: int
    initial_objective: float
    final_objective: float
    plan: ShardPlan | None = None
    nets: NetClassification | None = None
    outcomes: list[ShardOutcome] = field(default_factory=list)
    stitch: StitchResult | None = None
    wall_seconds: float = 0.0
    shard_wall_seconds: float = 0.0
    shard_executor: str = "serial"
    shard_workers: int = 1
    inner_executor: str = "serial"
    inner_jobs: int = 1
    resumed_shards: int = 0
    #: span dicts of the shards fast-forwarded from ``done`` records,
    #: in shard order.  The attempt that ran them already traced them,
    #: so they are not absorbed again, but they are part of this run's
    #: telemetry.
    replayed_spans: list = field(default_factory=list)

    @property
    def improvement(self) -> float:
        if self.initial_objective == 0:
            return 0.0
        return (
            self.initial_objective - self.final_objective
        ) / abs(self.initial_objective)

    def to_vm1_result(self) -> VM1OptResult:
        """Aggregate view compatible with the unsharded flow result."""
        result = VM1OptResult(
            initial_objective=self.initial_objective,
            final_objective=self.final_objective,
            iterations=max(
                (o.iterations for o in self.outcomes), default=0
            ),
            wall_seconds=self.wall_seconds,
        )
        for outcome in self.outcomes:
            result.add(outcome)
        # An unbounded machine runs shards concurrently: the modeled
        # parallel time is the slowest shard's and the measured one
        # the shard phase's wall clock; the seam pass adds to both.
        result.modeled_parallel_seconds = max(
            (o.modeled_parallel_seconds for o in self.outcomes),
            default=0.0,
        )
        result.measured_parallel_seconds = self.shard_wall_seconds
        if self.stitch is not None and self.stitch.seam_pass is not None:
            result.passes.append(self.stitch.seam_pass)
            result.add(self.stitch.seam_pass)
        return result

    def summary(self) -> dict:
        """JSON-friendly digest for events/telemetry."""
        return {
            "num_shards": self.num_shards,
            "halo_rows": self.halo_rows,
            "initial_objective": self.initial_objective,
            "final_objective": self.final_objective,
            "improvement": self.improvement,
            "wall_seconds": self.wall_seconds,
            "shard_wall_seconds": self.shard_wall_seconds,
            "shard_executor": self.shard_executor,
            "shard_workers": self.shard_workers,
            "inner_executor": self.inner_executor,
            "inner_jobs": self.inner_jobs,
            "resumed_shards": self.resumed_shards,
            "boundary_nets": (
                self.nets.num_boundary if self.nets else 0
            ),
            "internal_nets": (
                self.nets.num_internal if self.nets else 0
            ),
            "seam_windows_applied": (
                self.stitch.seam_pass.windows_applied
                if self.stitch and self.stitch.seam_pass
                else 0
            ),
            "legal": self.stitch.legal if self.stitch else True,
        }


def plan_workers(
    num_shards: int, jobs: int, executor: str
) -> tuple[str, int, str, int]:
    """Split the ``jobs`` budget into shard- and window-level workers.

    Returns ``(shard_kind, shard_workers, inner_kind, inner_jobs)``.
    Workers go process-parallel across shards first (coarse grain,
    best isolation); leftover budget becomes window-parallel threads
    inside each shard worker.  Forcing ``executor='serial'`` keeps
    shard execution sequential and gives the whole budget to each
    shard's window solves instead.
    """
    jobs = max(1, int(jobs))
    if executor == "serial" or jobs == 1:
        inner = "process" if jobs > 1 else "serial"
        return "serial", 1, inner, jobs
    shard_workers = min(num_shards, jobs)
    inner_jobs = max(1, jobs // shard_workers)
    kind = "process" if executor == "auto" else executor
    # Nested process pools inside pool workers are fragile; leftover
    # budget runs as threads (HiGHS releases the GIL while solving).
    inner_kind = "thread" if inner_jobs > 1 else "serial"
    return kind, shard_workers, inner_kind, inner_jobs


def run_sharded(
    design: Design,
    params: OptParams,
    *,
    shards: int,
    halo_rows: int = 2,
    jobs: int = 1,
    executor: str = "auto",
    checkpoint_dir: str | Path | None = None,
    resume: bool = False,
    progress=None,
) -> ShardRunResult:
    """Optimize ``design`` in place via region shards + stitching.

    The shard runs are followed by the seam pass and an oracle check
    of the stitched placement, which raises
    :class:`StitchVerificationError` on any violation.  The shards
    keep a window memo (``vm1_opt``'s default); there is no switch
    here.

    Args:
        design: legal placed design; optimized in place.
        params: optimizer parameters (shared by shards + seam pass).
        shards: shard count, at least 2 (resolve ``"auto"`` first via
            :func:`repro.shard.partition.resolve_shard_count`; an
            unsharded run is a plain :func:`~repro.core.vm1opt.
            vm1_opt`).
        halo_rows: frozen ghost rows around each core band.
        jobs: total worker budget (see :func:`plan_workers`).
        executor: shard-level executor kind, one of
            :data:`repro.runtime.EXECUTOR_KINDS` (``FlowConfig`` checks
            it; an unknown kind fails in ``make_executor``).
        checkpoint_dir: when given, shard-granular crash-safe state is
            kept here (see :class:`ShardCheckpointStore`).
        resume: continue from ``checkpoint_dir`` state if compatible.
        progress: optional callable ``(stage, info)`` with stages
            ``shard_plan`` / ``shard`` / ``seam`` / ``stitch``.
    """
    started = time.perf_counter()
    if shards < 2:
        raise ValueError(f"shards must be >= 2, got {shards}")

    # Shipped into every shard worker; the workers' "shard" spans (and
    # their whole vm1_opt subtrees) parent under the span active here
    # (the flow's "opt" stage when called from run_flow), and are
    # profiled by the names this tracer profiles.
    trace_ctx = current_context()
    tracer = active_tracer() if trace_ctx is not None else None
    profile_spans = (
        tuple(sorted(tracer.profile_spans)) if tracer is not None else ()
    )
    with span("shard_plan", shards=shards, halo_rows=halo_rows):
        plan = plan_shards(design, shards, halo_rows)
        errors = verify_plan(design, plan)
        if errors:
            raise ShardPlanError(
                f"shard plan failed independence proof: {errors}"
            )
        nets = classify_nets(design, plan)
    initial = calculate_objective(design, params)

    chaos = active_chaos()
    store: ShardCheckpointStore | None = None
    resuming = False
    if checkpoint_dir is not None:
        store = ShardCheckpointStore(checkpoint_dir)
        if (
            chaos is not None
            and chaos.check("shard.plan", design.name) is not None
        ):
            # Stale fingerprint: the checkpoint dir was left by some
            # other run.  ``begin(resume=True)`` must refuse it
            # instead of silently mixing two runs' shard state.
            atomic_write_text(
                store._plan_path(),
                json.dumps(
                    {
                        "schema": PLAN_SCHEMA,
                        "design": f"{design.name}::stale",
                        "instances": -1,
                        "shards": -1,
                        "halo_rows": -1,
                    },
                    indent=1,
                ),
            )
        resuming = store.begin(
            design, len(plan), halo_rows, resume=resume
        )

    shard_kind, shard_workers, inner_kind, inner_jobs = plan_workers(
        len(plan), jobs, executor
    )
    if progress is not None:
        progress(
            "shard_plan",
            {
                "shards": len(plan),
                "halo_rows": halo_rows,
                "internal_nets": nets.num_internal,
                "boundary_nets": nets.num_boundary,
                "shard_executor": shard_kind,
                "shard_workers": shard_workers,
                "inner_executor": inner_kind,
                "inner_jobs": inner_jobs,
                "resume": resuming,
            },
        )

    outcomes: dict[int, ShardOutcome] = {}
    replayed: list = []
    tasks: list[ShardTask] = []
    for shard in plan.shards:
        if store is not None and resuming:
            done = store.load_done(shard.index)
            if done is not None:
                outcomes[shard.index] = done
                replayed.extend(done.spans)
                continue
        sub = extract_shard_design(design, shard)
        owned = tuple(
            sorted(
                inst.name
                for inst in design.instances_in(shard.core)
            )
        )
        tasks.append(
            ShardTask(
                index=shard.index,
                design_blob=pickle.dumps(
                    sub, protocol=pickle.HIGHEST_PROTOCOL
                ),
                owned=owned,
                params=params,
                inner_executor=inner_kind,
                inner_jobs=inner_jobs,
                checkpoint_path=(
                    str(store.ckpt_path(shard.index))
                    if store is not None
                    else None
                ),
                resume_doc=(
                    store.load_resume_doc(shard.index)
                    if store is not None and resuming
                    else None
                ),
                trace=trace_ctx,
                profile_spans=profile_spans,
                chaos=(
                    chaos.plan.to_dict()
                    if chaos is not None
                    else None
                ),
            )
        )

    shard_started = time.perf_counter()
    resumed_shards = len(outcomes) + sum(
        1 for t in tasks if t.resume_doc is not None
    )
    if tasks:
        with make_executor(
            "serial" if shard_workers <= 1 else shard_kind,
            shard_workers,
        ) as shard_executor:
            futures = [
                (task, shard_executor.submit(task)) for task in tasks
            ]
            for task, future in futures:
                outcome = future.result()
                outcomes[task.index] = outcome
                if tracer is not None and outcome.spans:
                    # Submission (= shard) order: deterministic trace
                    # files under any executor.  Done-record outcomes
                    # are NOT re-absorbed on resume (see
                    # ``ShardRunResult.replayed_spans``).
                    tracer.absorb(outcome.spans)
                if store is not None:
                    store.write_done(outcome)
                if progress is not None:
                    progress(
                        "shard",
                        {
                            "index": outcome.index,
                            "cells": len(outcome.placements),
                            "initial_objective":
                                outcome.initial_objective,
                            "final_objective":
                                outcome.final_objective,
                            "iterations": outcome.iterations,
                            "moved_cells": outcome.moved_cells,
                            "wall_seconds": outcome.wall_seconds,
                            "resumed": outcome.resumed,
                        },
                    )
    shard_wall = time.perf_counter() - shard_started

    ordered = [outcomes[s.index] for s in plan.shards]
    merged: dict[str, tuple[int, int, str]] = {}
    for outcome in ordered:
        merged.update(outcome.placements)
    stitch = StitchResult(
        cells_merged=merge_shard_placements(design, merged)
    )
    with span("seam"), make_executor(
        "process" if jobs > 1 else "serial", jobs
    ) as seam_executor:
        stitch.seam_pass = run_seam_pass(
            design,
            params,
            plan,
            executor=seam_executor,
        )
    stitch.seam_windows = stitch.seam_pass.windows_built
    if progress is not None:
        progress(
            "seam",
            {
                "windows": stitch.seam_pass.windows_built,
                "applied": stitch.seam_pass.windows_applied,
                "moved_cells": stitch.seam_pass.moved_cells,
                "windows_skipped_clean": (
                    stitch.seam_pass.windows_skipped_clean
                ),
            },
        )
    with span("stitch_verify"):
        stitch.verify_errors = verify_stitched(design)

    result = ShardRunResult(
        num_shards=len(plan),
        halo_rows=halo_rows,
        initial_objective=initial,
        # The seam pass ends with a full objective sweep, and the
        # verification after it only reads the placement.
        final_objective=stitch.seam_pass.objective,
        plan=plan,
        nets=nets,
        outcomes=ordered,
        stitch=stitch,
        shard_wall_seconds=shard_wall,
        shard_executor=shard_kind if tasks else "serial",
        shard_workers=shard_workers,
        inner_executor=inner_kind,
        inner_jobs=inner_jobs,
        resumed_shards=resumed_shards,
        replayed_spans=replayed,
    )
    result.wall_seconds = time.perf_counter() - started
    if progress is not None:
        progress("stitch", result.summary())
    if not stitch.legal:
        raise StitchVerificationError(
            f"stitched placement failed verification: "
            f"{stitch.verify_errors[:5]}"
        )
    return result

