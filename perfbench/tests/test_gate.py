"""The correctness gate fires on a broken placement."""

from dataclasses import asdict

import pytest

from repro.check.oracle import oracle_objective
from repro.library import build_library
from repro.netlist import generate_design
from repro.placement import place_design
from repro.runtime import WindowRecord
from repro.tech import make_tech

from perfbench import gate
from perfbench.workloads import CLOSED, TIME_LIMIT, flow_config, WORKLOADS


@pytest.fixture
def placed():
    tech = make_tech(CLOSED)
    design = generate_design(
        "aes", tech, build_library(tech), scale=0.003, seed=5
    )
    place_design(design, seed=5)
    params = flow_config(WORKLOADS["aes_closedm1_serial"], 5).resolved_params(tech)
    return design, params


def test_gate_passes_a_legal_placement(placed):
    design, params = placed
    assert gate.check_design(design, params, oracle_objective(design, params)) == []


def test_gate_fires_on_an_overlapping_placement(placed):
    design, params = placed
    names = sorted(design.instances)
    a, b = design.instances[names[0]], design.instances[names[1]]
    b.x, b.y, b.orientation = a.x, a.y, a.orientation
    errors = gate.check_design(design, params, oracle_objective(design, params))
    assert any("illegal placement" in e for e in errors)


def test_gate_fires_on_a_misreported_objective(placed):
    design, params = placed
    wrong = oracle_objective(design, params) * (1 + 1e-4) + 1.0
    assert any(
        "objective mismatch" in e
        for e in gate.check_design(design, params, wrong)
    )


def test_time_limited_and_failed_windows_are_errors():
    ok = WindowRecord("p", 0, 0, 0, solve_seconds=0.5, status="applied")
    cut = WindowRecord("p", 0, 1, 0, solve_seconds=TIME_LIMIT, status="no_move")
    failed = WindowRecord("p", 0, 2, 0, status="failed")
    assert gate.check_windows([ok], TIME_LIMIT) == []
    assert len(gate.check_windows([ok, cut, failed], TIME_LIMIT)) == 2


def test_job_telemetry_with_a_timed_out_window_is_an_error():
    ok = WindowRecord("p", 0, 0, 0, solve_seconds=0.5, status="applied")
    cut = WindowRecord("p", 0, 1, 0, status="timed_out")
    doc = {"windows_detail": [asdict(ok)]}
    assert gate.check_telemetry(doc, TIME_LIMIT) == []
    doc["windows_detail"].append(asdict(cut))
    assert any("timed_out" in e for e in gate.check_telemetry(doc, TIME_LIMIT))
    assert gate.check_telemetry(None, TIME_LIMIT) == ["no telemetry"]


def test_digest_book_flags_a_second_placement(placed):
    design, _ = placed
    book = gate.DigestBook()
    first = gate.placement_digest(design)
    assert book.record("d", first) == []
    assert book.record("d", first) == []
    inst = design.instances[sorted(design.instances)[0]]
    inst.x += design.tech.site_width
    assert book.record("d", gate.placement_digest(design)) != []
