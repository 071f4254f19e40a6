"""Telemetry tests: records, modeled-parallel model, JSON schema."""

import json

import pytest

from repro.core.distopt import DistOptResult
from repro.runtime import (
    TELEMETRY_SCHEMA,
    RunTelemetry,
    SerialExecutor,
    WindowRecord,
    modeled_parallel_seconds,
)
from repro.runtime.telemetry import load_telemetry


def rec(pass_label="p", family=0, solve=1.0, build=0.0, **kw):
    return WindowRecord(
        pass_label=pass_label, family=family, ix=0, iy=0,
        build_seconds=build, solve_seconds=solve, **kw,
    )


def test_modeled_parallel_is_sum_of_family_maxima():
    records = [
        rec(family=0, solve=1.0),
        rec(family=0, solve=3.0),
        rec(family=1, solve=2.0),
        rec(family=1, solve=0.5),
    ]
    assert modeled_parallel_seconds(records) == pytest.approx(5.0)


def test_modeled_parallel_charges_worker_build_time():
    """v3: window models are built inside the workers, so the
    per-window path charged to the parallel model is
    build + presolve + solve, not solve alone."""
    records = [
        rec(family=0, solve=1.0, build=100.0),
        rec(family=1, solve=2.0, build=50.0),
    ]
    assert modeled_parallel_seconds(records) == pytest.approx(153.0)
    # Within a family the slowest *path* wins, not the slowest solve.
    records = [
        rec(family=0, solve=5.0, build=0.0),
        rec(family=0, solve=1.0, build=9.0),
    ]
    assert modeled_parallel_seconds(records) == pytest.approx(10.0)


def test_modeled_parallel_separates_passes():
    records = [
        rec(pass_label="move", family=0, solve=1.0),
        rec(pass_label="flip", family=0, solve=2.0),
    ]
    # Same family index, different passes: passes run back-to-back.
    assert modeled_parallel_seconds(records) == pytest.approx(3.0)


def test_distopt_modeled_parallel_matches_record_paths():
    """End-to-end: DistOpt's modeled-parallel figure equals the
    telemetry-record computation and is bounded by the serial
    build+presolve+solve total (per family only the slowest path is
    charged)."""
    from repro.core import OptParams
    from repro.core.distopt import dist_opt
    from repro.library import build_library
    from repro.netlist import generate_design
    from repro.placement import place_design
    from repro.tech import CellArchitecture, make_tech

    from tests.runtime._fakes import FixedSolveTimeBackend

    tech = make_tech(CellArchitecture.CLOSED_M1)
    lib = build_library(tech)
    design = generate_design("m0", tech, lib, scale=0.01, seed=2)
    place_design(design, seed=1)
    params = OptParams.for_arch(tech.arch, time_limit=2.0)
    telemetry = RunTelemetry()
    result = dist_opt(
        design, params, tx=0, ty=0, bw=1250, bh=1080, lx=2, ly=1,
        allow_flip=False, solver=FixedSolveTimeBackend(0.0),
        telemetry=telemetry,
    )
    assert result.windows_built > 0
    assert result.build_seconds > 0.0
    assert result.modeled_parallel_seconds > 0.0
    serial_total = (
        result.build_seconds
        + result.presolve_seconds
        + result.solve_seconds
    )
    assert result.modeled_parallel_seconds <= serial_total + 1e-9
    assert result.modeled_parallel_seconds == pytest.approx(
        modeled_parallel_seconds(telemetry.records)
    )


def test_summary_schema_and_save(tmp_path):
    telemetry = RunTelemetry(executor="process", jobs=2)
    telemetry.record_window(
        rec(family=0, solve=1.0, build=0.5, status="applied")
    )
    telemetry.record_window(
        rec(family=0, solve=2.0, build=0.25, status="reverted")
    )
    telemetry.record_window(rec(family=1, solve=0.5, status="failed"))
    telemetry.record_pass(
        "move[u0.i0]",
        DistOptResult(
            objective=0.0, wall_seconds=4.0, build_seconds=0.75,
            solve_seconds=3.5, measured_parallel_seconds=2.5,
            modeled_parallel_seconds=2.5, windows_built=3,
            windows_applied=1, windows_reverted=1, windows_failed=1,
        ),
    )
    telemetry.wall_seconds = 4.0

    summary = telemetry.summary()
    assert summary["schema"] == TELEMETRY_SCHEMA
    assert summary["executor"] == "process"
    assert summary["jobs"] == 2
    assert summary["windows"] == {
        "total": 3, "applied": 1, "reverted": 1, "no_move": 0,
        "no_solution": 0, "failed": 1, "timed_out": 0,
        "skipped_clean": 0,
    }
    assert "cache" not in summary
    seconds = summary["seconds"]
    assert seconds["build"] == pytest.approx(0.75)
    assert seconds["solve"] == pytest.approx(3.5)
    # v3 path model: family 0's slowest build+solve path (0.25 + 2.0)
    # plus family 1's (0.5).
    assert seconds["modeled_parallel"] == pytest.approx(2.75)
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
    assert len(summary["windows_detail"]) == 3

    path = telemetry.save(tmp_path / "nested" / "telemetry.json")
    assert path.exists()
    assert json.loads(path.read_text())["schema"] == TELEMETRY_SCHEMA


def test_v5_json_roundtrip_from_real_run(tmp_path):
    """Write → load → validate the fields the service's progress
    stream depends on (schema id, presolve seconds, clean-skip
    counts), and that v5 carries no window-cache section."""
    from repro.core import OptParams
    from repro.core.dirty import DirtyTracker
    from repro.core.distopt import dist_opt
    from repro.library import build_library
    from repro.netlist import generate_design
    from repro.placement import place_design
    from repro.tech import CellArchitecture, make_tech

    tech = make_tech(CellArchitecture.CLOSED_M1)
    lib = build_library(tech)
    design = generate_design("m0", tech, lib, scale=0.01, seed=2)
    place_design(design, seed=1)
    params = OptParams.for_arch(tech.arch, time_limit=2.0)
    telemetry = RunTelemetry(executor="serial", jobs=1)
    dirty = DirtyTracker()
    for pass_label in ("flip[u0.i0]", "flip[u0.i1]", "flip[u0.i2]"):
        # Same grid each time: flip passes settle within two passes,
        # and a later pass skips the windows verified as fixpoints
        # that no apply has touched since.
        dist_opt(
            design, params, tx=0, ty=0, bw=1250, bh=1080, lx=0, ly=0,
            allow_flip=True, telemetry=telemetry,
            pass_label=pass_label, presolve=True, dirty=dirty,
        )
    telemetry.wall_seconds = 1.0

    path = telemetry.save(tmp_path / "telemetry.json")
    doc = load_telemetry(path)

    assert doc["schema"] == "repro.runtime.telemetry/v5"
    assert doc["schema"] == TELEMETRY_SCHEMA
    # v4 observability sections: counters rendered from the per-run
    # registry; trace null because no tracer was active.
    assert doc["trace"] is None
    counters = doc["counters"]
    windows_by_status = counters["repro_run_windows_total"]
    assert sum(windows_by_status.values()) == len(
        doc["windows_detail"]
    )
    assert counters["repro_run_passes_total"] == len(doc["passes"])
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
    # Round-trip: loading loses nothing the summary carries.
    assert doc == json.loads(json.dumps(telemetry.summary()))
    # A v4 document (with its cache section) still loads as written.
    v4 = dict(doc, schema="repro.runtime.telemetry/v4", cache={})
    (tmp_path / "v4.json").write_text(json.dumps(v4))
    assert load_telemetry(tmp_path / "v4.json") == v4


def test_speedup_none_when_nothing_ran():
    summary = RunTelemetry().summary()
    assert summary["speedup"] == {"measured": None, "modeled": None}
    assert summary["windows"]["total"] == 0


def test_distopt_records_match_result_counters():
    from repro.core import OptParams
    from repro.core.distopt import dist_opt
    from repro.library import build_library
    from repro.netlist import generate_design
    from repro.placement import place_design
    from repro.tech import CellArchitecture, make_tech

    tech = make_tech(CellArchitecture.CLOSED_M1)
    lib = build_library(tech)
    design = generate_design("m0", tech, lib, scale=0.01, seed=2)
    place_design(design, seed=1)
    params = OptParams.for_arch(tech.arch, time_limit=2.0)
    telemetry = RunTelemetry()
    result = dist_opt(
        design, params, tx=0, ty=0, bw=1250, bh=1080, lx=2, ly=1,
        allow_flip=False, executor=SerialExecutor(),
        telemetry=telemetry,
    )
    assert len(telemetry.records) == result.windows_built
    by_status: dict[str, int] = {}
    for record in telemetry.records:
        by_status[record.status] = by_status.get(record.status, 0) + 1
    assert by_status.get("applied", 0) == result.windows_applied
    assert by_status.get("reverted", 0) == result.windows_reverted
    assert by_status.get("timed_out", 0) == result.windows_timed_out
    assert len(telemetry.passes) == 1
    assert telemetry.passes[0]["windows"] == result.windows_built
