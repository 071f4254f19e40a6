"""Exit codes of the overhead gate (benchmarks/check_overhead.py).

The gate runs as CI runs it — ``python check_overhead.py <kind>`` in
a subprocess — from a temporary copy whose ``results/`` holds the
report under test.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

GATE = (
    Path(__file__).resolve().parents[2]
    / "benchmarks"
    / "check_overhead.py"
)

#: kind -> (census field, budget).
KINDS = {
    "obs": ("span_calls", 0.02),
    "chaos": ("hook_consultations", 0.01),
}


def run_gate(tmp_path, *argv, report=None, kind=None):
    gate = tmp_path / "check_overhead.py"
    shutil.copy(GATE, gate)
    (tmp_path / "results").mkdir(exist_ok=True)
    if report is not None:
        path = tmp_path / "results" / f"BENCH_{kind}_overhead.json"
        path.write_text(
            report if isinstance(report, str) else json.dumps(report)
        )
    return subprocess.run(
        [sys.executable, str(gate), *argv],
        capture_output=True,
        text=True,
        timeout=60,
    )


def report_doc(kind, *, overhead, census=1000):
    field, _ = KINDS[kind]
    return {
        "overhead_fraction": overhead,
        field: census,
        "per_call_ns": 40.0,
        "workload_wall_seconds": 2.0,
    }


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize(
    "case, code",
    [
        ("within", 0),
        ("at_budget", 1),
        ("zero_census", 1),
        ("missing", 2),
        ("not_json", 2),
        ("not_object", 2),
        ("census_absent", 2),
    ],
)
def test_gate_exit_codes(tmp_path, kind, case, code):
    field, budget = KINDS[kind]
    report = {
        "within": report_doc(kind, overhead=budget / 2),
        "at_budget": report_doc(kind, overhead=budget),
        "zero_census": report_doc(kind, overhead=0.0, census=0),
        "missing": None,
        "not_json": "{torn",
        "not_object": "[]",
        "census_absent": {
            k: v
            for k, v in report_doc(kind, overhead=0.0).items()
            if k != field
        },
    }[case]
    done = run_gate(tmp_path, kind, report=report, kind=kind)
    assert done.returncode == code, done.stdout
    if case == "within":
        assert f"{kind} overhead ok" in done.stdout
    if case == "zero_census":
        assert "bound is vacuous" in done.stdout


@pytest.mark.parametrize("argv", [(), ("perf",), ("obs", "chaos")])
def test_gate_rejects_unknown_kind(tmp_path, argv):
    assert run_gate(tmp_path, *argv).returncode == 2
