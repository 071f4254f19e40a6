"""Exit codes of the CI gate (benchmarks/check_gate.py), every kind.

The gate runs as CI runs it — ``python check_gate.py <kind>`` in a
subprocess — from a temporary copy whose ``results/`` holds the
report (and, for ``window_solve``, the baseline) under test.
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
    / "check_gate.py"
)

#: overhead kind -> (census field, budget).
KINDS = {
    "obs": ("span_calls", 0.02),
    "chaos": ("hook_consultations", 0.01),
}

#: kind -> report file name under results/.
REPORTS = {
    "obs": "BENCH_obs_overhead.json",
    "chaos": "BENCH_chaos_overhead.json",
    "window_solve": "BENCH_window_solve.json",
    "incremental": "BENCH_incremental.json",
}

#: kind -> what the gate prints when the report is within bounds.
OK_LINES = {
    "obs": "obs overhead ok",
    "chaos": "chaos overhead ok",
    "window_solve": "perf smoke ok",
    "incremental": "incremental smoke ok",
}

BASELINE = "window_solve_baseline.json"


def run_gate(tmp_path, *argv, files=None):
    """Run the gate copy over ``files`` (name -> JSON-able document or
    raw text) written to its ``results/``."""
    gate = tmp_path / "check_gate.py"
    shutil.copy(GATE, gate)
    (tmp_path / "results").mkdir(exist_ok=True)
    for name, doc in (files or {}).items():
        (tmp_path / "results" / name).write_text(
            doc if isinstance(doc, str) else json.dumps(doc)
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


def overhead_reports(kind):
    field, budget = KINDS[kind]
    return {
        "within": (report_doc(kind, overhead=budget / 2), 0),
        "at_budget": (report_doc(kind, overhead=budget), 1),
        "zero_census": (report_doc(kind, overhead=0.0, census=0), 1),
        "census_absent": (
            {
                k: v
                for k, v in report_doc(kind, overhead=0.0).items()
                if k != field
            },
            2,
        ),
    }


def window_solve_doc(combined):
    return {"combined_seconds": combined, "speedup_vs_baseline": 2.0}


def incremental_doc(**overrides):
    doc = {
        "speedup": 1.5,
        "placements_identical": True,
        "objective_delta": 0.0,
        "memo_on": {"windows_skipped_clean": 12},
    }
    doc.update(overrides)
    return doc


#: kind -> case -> (report, expected exit code).  Every kind also
#: gets the missing / not_json / not_object cases below.
CASES = {
    "obs": overhead_reports("obs"),
    "chaos": overhead_reports("chaos"),
    # The committed-style baseline is 10 ms: the limit is 30 ms.
    "window_solve": {
        "within": (window_solve_doc(0.02), 0),
        "at_limit": (window_solve_doc(0.03), 0),
        "over_limit": (window_solve_doc(0.031), 1),
        "combined_absent": ({"speedup_vs_baseline": 2.0}, 2),
    },
    "incremental": {
        "within": (incremental_doc(), 0),
        "slow": (incremental_doc(speedup=1.1), 1),
        "placements_differ": (
            incremental_doc(placements_identical=False), 1
        ),
        "drift": (incremental_doc(objective_delta=1e-6), 1),
        "no_skips": (
            incremental_doc(memo_on={"windows_skipped_clean": 0}), 1
        ),
        "skips_absent": (incremental_doc(memo_on={}), 2),
    },
}
for _cases in CASES.values():
    _cases.update(
        missing=(None, 2), not_json=("{torn", 2), not_object=("[]", 2)
    )


@pytest.mark.parametrize(
    "kind, case, code",
    [
        pytest.param(kind, case, code, id=f"{case}-{code}-{kind}")
        for kind, cases in sorted(CASES.items())
        for case, (_, code) in cases.items()
    ],
)
def test_gate_exit_codes(tmp_path, kind, case, code):
    report, _ = CASES[kind][case]
    files = {BASELINE: {"combined_seconds": 0.01}}
    if report is not None:
        files[REPORTS[kind]] = report
    done = run_gate(tmp_path, kind, files=files)
    assert done.returncode == code, done.stdout
    if case == "within":
        assert OK_LINES[kind] in done.stdout
    if case == "zero_census":
        assert "bound is vacuous" in done.stdout
    if case == "missing":
        assert "missing report" in done.stdout


@pytest.mark.parametrize(
    "baseline",
    [None, "{torn", {"combined_seconds": 0}],
    ids=["missing", "not_json", "zero"],
)
def test_window_solve_gate_needs_a_positive_baseline(tmp_path, baseline):
    files = {REPORTS["window_solve"]: window_solve_doc(0.001)}
    if baseline is not None:
        files[BASELINE] = baseline
    done = run_gate(tmp_path, "window_solve", files=files)
    assert done.returncode == 2, done.stdout
    assert "baseline" in done.stdout


@pytest.mark.parametrize(
    "argv", [(), ("perf",), ("obs", "chaos"), ("window-solve",)]
)
def test_gate_rejects_unknown_kind(tmp_path, argv):
    done = run_gate(tmp_path, *argv)
    assert done.returncode == 2
    assert "usage: check_gate.py" in done.stdout
