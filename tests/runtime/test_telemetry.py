"""Telemetry tests: the v5 document as a view of a run's spans."""

import json

import pytest

from repro.obs.trace import Tracer, tracer_scope
from repro.runtime import (
    TELEMETRY_SCHEMA,
    RunTelemetry,
    SerialExecutor,
)
from tests.obs._spans import make_span_dict


def _small_design():
    from repro.core import OptParams
    from repro.library import build_library
    from repro.netlist import generate_design
    from repro.placement import place_design
    from repro.tech import CellArchitecture, make_tech

    tech = make_tech(CellArchitecture.CLOSED_M1)
    lib = build_library(tech)
    design = generate_design("m0", tech, lib, scale=0.01, seed=2)
    place_design(design, seed=1)
    return design, OptParams.for_arch(tech.arch, time_limit=2.0)


def test_distopt_modeled_parallel_matches_record_paths():
    """End-to-end: DistOpt's modeled-parallel figure is, per family,
    the slowest window build+presolve+solve path of the span-built
    records, summed over families, and is bounded by the serial
    build+presolve+solve total."""
    from repro.core.distopt import dist_opt

    from tests.runtime._fakes import FixedSolveTimeBackend

    design, params = _small_design()
    tracer = Tracer()
    with tracer_scope(tracer):
        result = dist_opt(
            design, params, tx=0, ty=0, bw=1250, bh=1080, lx=2, ly=1,
            allow_flip=False, solver=FixedSolveTimeBackend(0.0),
        )
    records = RunTelemetry.from_spans(tracer.spans).records
    assert result.windows_built > 0
    assert result.build_seconds > 0.0
    assert result.modeled_parallel_seconds > 0.0
    serial_total = (
        result.build_seconds
        + result.presolve_seconds
        + result.solve_seconds
    )
    assert result.modeled_parallel_seconds <= serial_total + 1e-9
    slowest: dict[int, float] = {}
    for rec in records:
        path = (
            rec.build_seconds + rec.presolve_seconds + rec.solve_seconds
        )
        slowest[rec.family] = max(slowest.get(rec.family, 0.0), path)
    assert len(slowest) > 1  # the rule is per family, not per pass
    assert result.modeled_parallel_seconds == pytest.approx(
        sum(slowest.values())
    )


def _pass_spans() -> list[dict]:
    """One ``distopt`` pass with three windows (two in family 0, one
    failed in family 1), as DistOpt and its workers record them."""
    common = dict(trace_id="t0", started_at=0.0)
    totals = dict(
        build_seconds=0.75, presolve_seconds=0.0, solve_seconds=3.5,
        measured_parallel_seconds=2.5, modeled_parallel_seconds=2.5,
        windows_built=3, windows_applied=1, windows_failed=1,
        windows_timed_out=0, windows_skipped_clean=0,
        windows_reverted=1, moved_cells=4, pairs_considered=9,
    )
    spans = []
    for i, (family, build, solve, outcome) in enumerate(
        [
            (0, 0.5, 1.0, "applied"),
            (0, 0.25, 2.0, "reverted"),
            (1, 0.0, 0.5, "failed"),
        ]
    ):
        spans.append(
            make_span_dict(
                "window", parent_id="p0", span_id=f"w{i}",
                wall_seconds=build + solve, **common,
                attrs={
                    "task_id": i, "ix": i, "iy": 0, "family": family,
                    "outcome": outcome, "attempts": 1 + (i == 2),
                    "queue_seconds": 0.1,
                    "moved_cells": 4 if outcome == "applied" else 0,
                    "error": "boom" if outcome == "failed" else "",
                    "degraded": False,
                },
            )
        )
        spans.append(
            make_span_dict(
                "build", parent_id=f"w{i}", wall_seconds=build, **common
            )
        )
        spans.append(
            make_span_dict(
                "solve", parent_id=f"w{i}", wall_seconds=solve,
                attrs={"num_pairs": 3}, **common,
            )
        )
    spans.append(
        make_span_dict(
            "distopt", parent_id="r0", span_id="p0", wall_seconds=4.0,
            attrs={
                "pass_label": "move[u0.i0]", "windows": 3,
                "executor": "process", "jobs": 2, "objective": 1.0,
                "faults": {"runtime.worker": 1}, **totals,
            },
            **common,
        )
    )
    return spans


def test_summary_schema_and_save(tmp_path):
    telemetry = RunTelemetry.from_spans(_pass_spans())

    summary = telemetry.summary()
    assert summary["schema"] == TELEMETRY_SCHEMA
    assert summary["executor"] == "process"
    assert summary["jobs"] == 2
    assert summary["trace"] == {"trace_id": "t0"}
    assert summary["windows"] == {
        "total": 3, "applied": 1, "reverted": 1, "no_move": 0,
        "no_solution": 0, "failed": 1, "timed_out": 0,
        "skipped_clean": 0,
    }
    assert "cache" not in summary
    # Seconds are the run totals, not sums over the records.
    seconds = summary["seconds"]
    assert seconds["wall"] == pytest.approx(4.0)
    assert seconds["build"] == pytest.approx(0.75)
    assert seconds["solve"] == pytest.approx(3.5)
    assert seconds["queue_wait"] == pytest.approx(0.3)
    assert seconds["modeled_parallel"] == pytest.approx(2.5)
    assert seconds["measured_parallel"] == pytest.approx(2.5)
    assert summary["speedup"]["measured"] == pytest.approx(3.5 / 2.5)
    # The pass entry keeps its v5 keys; totals it never carried
    # (reverted windows, moved cells, pairs) stay out of it.
    assert summary["passes"] == [
        {
            "label": "move[u0.i0]", "wall_seconds": 4.0,
            "build_seconds": 0.75, "presolve_seconds": 0.0,
            "solve_seconds": 3.5, "measured_parallel_seconds": 2.5,
            "modeled_parallel_seconds": 2.5, "windows": 3,
            "applied": 1, "failed": 1, "timed_out": 0,
            "windows_skipped_clean": 0,
        }
    ]
    detail = summary["windows_detail"]
    assert [w["pass_label"] for w in detail] == ["move[u0.i0]"] * 3
    assert [w["family"] for w in detail] == [0, 0, 1]
    assert [w["build_seconds"] for w in detail] == [0.5, 0.25, 0.0]
    assert [w["num_pairs"] for w in detail] == [3, 3, 3]
    assert detail[0]["moved_cells"] == 4
    assert detail[2]["error"] == "boom"
    # Counters are rendered from the records, passes and faults.
    counters = summary["counters"]
    assert counters["repro_run_windows_total"] == {
        "applied": 1, "failed": 1, "reverted": 1,
    }
    assert counters["repro_run_window_solve_seconds"]["count"] == 3
    assert counters["repro_run_retries_total"] == 1
    assert counters["repro_run_degradations_total"] == {"failed": 1}
    assert counters["repro_run_faults_injected_total"] == {
        "runtime.worker": 1
    }
    assert counters["repro_run_passes_total"] == 1
    assert list(counters) == sorted(counters)

    path = telemetry.save(tmp_path / "nested" / "telemetry.json")
    assert path.exists()
    assert json.loads(path.read_text())["schema"] == TELEMETRY_SCHEMA


def test_retried_attempts_and_empty_windows_are_not_records():
    spans = _pass_spans()
    # A failed attempt's window span (no outcome: the attempt was
    # retried) and an ``empty`` window (nothing to optimize).
    spans.insert(0, make_span_dict(
        "window", trace_id="t0", parent_id="p0", started_at=0.0,
        wall_seconds=0.1, attrs={"family": 0, "ix": 0, "iy": 0},
    ))
    spans.insert(0, make_span_dict(
        "window", trace_id="t0", parent_id="p0", started_at=0.0,
        wall_seconds=0.1,
        attrs={"family": 0, "ix": 5, "iy": 0, "outcome": "empty"},
    ))
    assert len(RunTelemetry.from_spans(spans).records) == 3


def test_v5_json_roundtrip_from_real_run(tmp_path):
    """Write → read → validate the fields the service's progress
    stream depends on (schema id, presolve seconds, clean-skip
    counts), and that v5 carries no window-cache section."""
    from repro.core.distopt import dist_opt

    design, params = _small_design()
    memo: dict = {}
    tracer = Tracer()
    with tracer_scope(tracer):
        for pass_label in ("flip[u0.i0]", "flip[u0.i1]", "flip[u0.i2]"):
            # Same grid each time: flip passes settle within two
            # passes, and a later pass skips the windows whose slices
            # are unchanged since a solve of them moved nothing.
            dist_opt(
                design, params, tx=0, ty=0, bw=1250, bh=1080, lx=0,
                ly=0, allow_flip=True, pass_label=pass_label,
                memo=memo,
            )
    telemetry = RunTelemetry.from_spans(tracer.spans)
    # In-memory recording is not a trace.
    telemetry.trace_id = None

    path = telemetry.save(tmp_path / "telemetry.json")
    doc = json.loads(path.read_text())

    assert doc["schema"] == "repro.runtime.telemetry/v5"
    assert doc["schema"] == TELEMETRY_SCHEMA
    # v4 observability sections: counters rendered from the records;
    # trace null because the spans were not a trace.
    assert doc["trace"] is None
    counters = doc["counters"]
    windows_by_status = counters["repro_run_windows_total"]
    assert sum(windows_by_status.values()) == len(
        doc["windows_detail"]
    )
    assert counters["repro_run_passes_total"] == len(doc["passes"])
    assert [p["label"] for p in doc["passes"]] == [
        "flip[u0.i0]", "flip[u0.i1]", "flip[u0.i2]",
    ]
    # Clean-skip visibility: present per pass and in the summary.
    assert all("windows_skipped_clean" in p for p in doc["passes"])
    assert doc["passes"][0]["windows_skipped_clean"] == 0
    assert doc["windows"]["skipped_clean"] > 0
    assert doc["windows"]["skipped_clean"] == sum(
        p["windows_skipped_clean"] for p in doc["passes"]
    )
    # Presolve split: present run-wide, per pass, and per window.
    assert doc["seconds"]["presolve"] >= 0.0
    assert all("presolve_seconds" in p for p in doc["passes"])
    assert all(
        "presolve_seconds" in w for w in doc["windows_detail"]
    )
    # v5: the window cache is gone from every level of the document.
    assert "cache" not in doc
    assert "cached" not in doc["windows"]
    assert not any(
        key.startswith("cache") for p in doc["passes"] for key in p
    )
    # Round-trip: reading loses nothing the summary carries.
    assert doc == json.loads(json.dumps(telemetry.summary()))


def test_speedup_none_when_nothing_ran():
    summary = RunTelemetry().summary()
    assert summary["speedup"] == {"measured": None, "modeled": None}
    assert summary["windows"]["total"] == 0


def test_distopt_records_match_result_counters():
    from repro.core.distopt import dist_opt

    design, params = _small_design()
    tracer = Tracer()
    with tracer_scope(tracer):
        result = dist_opt(
            design, params, tx=0, ty=0, bw=1250, bh=1080, lx=2, ly=1,
            allow_flip=False, executor=SerialExecutor(),
        )
    telemetry = RunTelemetry.from_spans(tracer.spans)
    assert len(telemetry.records) == result.windows_built
    by_status: dict[str, int] = {}
    for record in telemetry.records:
        by_status[record.status] = by_status.get(record.status, 0) + 1
    assert by_status.get("applied", 0) == result.windows_applied
    assert by_status.get("reverted", 0) == result.windows_reverted
    assert by_status.get("timed_out", 0) == result.windows_timed_out
    assert sum(r.moved_cells for r in telemetry.records) == (
        result.moved_cells
    )
    assert len(telemetry.passes) == 1
    assert telemetry.passes[0]["windows"] == result.windows_built
    # The lone pass is the run root: seconds are its totals.
    seconds = telemetry.summary()["seconds"]
    assert seconds["solve"] == result.solve_seconds
    assert seconds["modeled_parallel"] == result.modeled_parallel_seconds


def test_vm1opt_telemetry_fills_from_its_own_subtree():
    """``vm1_opt(telemetry=...)`` records in memory when no tracer is
    active, and inside an active trace reads only its own subtree."""
    from repro.core import OptParams, ParamSet
    from repro.core.vm1opt import vm1_opt

    design, _ = _small_design()
    params = OptParams.for_arch(
        design.tech.arch,
        sequence=(ParamSet.square(1.25, 2, 1),),
        time_limit=2.0,
    )
    untraced = RunTelemetry()
    result = vm1_opt(design, params, telemetry=untraced)
    doc = untraced.summary()
    assert doc["trace"] is None
    assert len(doc["passes"]) == len(result.passes)
    assert doc["windows"]["total"] == (
        result.windows_built + result.windows_skipped_clean
    )
    assert doc["seconds"]["solve"] == result.solve_seconds

    design, _ = _small_design()
    traced = RunTelemetry()
    tracer = Tracer()
    with tracer_scope(tracer):
        vm1_opt(design, params, telemetry=traced)
        vm1_opt(_small_design()[0], params)  # a second, later run
    assert traced.trace_id == tracer.trace_id

    def outcomes(records):
        return [(r.pass_label, r.ix, r.iy, r.status) for r in records]

    assert outcomes(traced.records) == outcomes(untraced.records)
