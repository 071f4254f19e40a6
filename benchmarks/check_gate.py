"""CI gates over the committed benchmark reports.

``python benchmarks/check_gate.py <kind>`` reads the kind's report
under ``benchmarks/results/`` (written by running the benchmark named
below) and checks it against the kind's bounds:

* ``obs`` / ``chaos`` — the disabled-path overhead budgets of tracing
  and chaos (``BENCH_<kind>_overhead.json``, from
  ``test_<kind>_overhead.py``).  Each report holds a measured upper
  bound on what the instrumentation can take from an uninstrumented
  run: a census of its calls times the disabled-path per-call cost,
  over the workload wall time.  The gate fails when the bound reaches
  the budget (span calls of the tracer under 2%, consultations of the
  fault-injection hooks under 1%), or when the census is zero (the
  instrumentation was effectively absent and the bound is vacuous).
* ``window_solve`` — the window-solve hot path
  (``BENCH_window_solve.json``, from ``test_microbench.py``).  Fails
  when the combined build + solve time on the fixture window
  regressed more than ``MAX_REGRESSION``x past the committed
  pre-hot-path baseline in ``window_solve_baseline.json``.  The bound
  is deliberately loose: CI runners are noisy and the baseline was
  measured on different hardware, so it only catches real
  order-of-magnitude regressions (an accidental O(n^2) build, a
  reduction lost so HiGHS gets the full model, dense matrices
  creeping back in).
* ``incremental`` — the incremental DistOpt engine
  (``BENCH_incremental.json``, from ``test_incremental.py``).  Fails
  when the incremental run broke equivalence — placements not
  byte-identical, the delta-accounted objective drifting past
  tolerance, the window memo not engaging at all — or when the
  converged-tail speedup fell under ``MIN_SPEEDUP``.  The floor is
  looser than the benchmark's own assertion, so the gate only catches
  the feature being effectively off.

Exit codes: 0 ok, 1 out of bounds, 2 unknown kind or a missing or
malformed report or baseline.  The gate imports nothing from the
package so it runs without an install.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

RESULTS = Path(__file__).parent / "results"


def load(path: Path, role: str, producer: str) -> dict | None:
    """Read a report or baseline; None (with a message) when it is
    missing, unreadable or not a JSON object."""
    if not path.exists():
        print(f"missing {role} {path}; run {producer} first")
        return None
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"malformed {role} {path}: {exc}")
        return None
    if not isinstance(doc, dict):
        print(
            f"malformed {role} {path}: expected a JSON object, "
            f"got {type(doc).__name__}"
        )
        return None
    return doc


def numeric(fields: tuple[tuple[str, object], ...]) -> bool:
    """Whether every ``(name, value)`` is a number; names the first
    one that is not."""
    for field, value in fields:
        if not isinstance(value, (int, float)):
            print(f"malformed report: {field} missing or non-numeric")
            return False
    return True


# ------------------------------------------------------ obs / chaos
@dataclass(frozen=True)
class Budget:
    """What one overhead report counts, its budget and its wording."""

    #: report field holding the census count.
    census: str
    #: Mirrors ``MAX_OVERHEAD`` of ``test_<kind>_overhead.py`` (not
    #: imported: the gate must run without the package importable).
    max_overhead: float
    #: the disabled instrumentation, the census unit, and the
    #: workload the bound is taken over.
    subject: str
    unit: str
    workload: str
    #: what a zero census means.
    vacuous: str


BUDGETS = {
    "obs": Budget(
        census="span_calls",
        max_overhead=0.02,
        subject="disabled-tracing",
        unit="spans",
        workload="untraced",
        vacuous="traced census saw zero spans",
    ),
    "chaos": Budget(
        census="hook_consultations",
        max_overhead=0.01,
        subject="disabled-chaos",
        unit="hooks",
        workload="unfaulted",
        vacuous="armed census saw zero consultations",
    ),
}


def check_overhead(kind: str) -> int:
    budget = BUDGETS[kind]
    doc = load(
        RESULTS / f"BENCH_{kind}_overhead.json",
        "report",
        f"benchmarks/test_{kind}_overhead.py",
    )
    if doc is None:
        return 2
    overhead = doc.get("overhead_fraction")
    census = doc.get(budget.census)
    per_call_ns = doc.get("per_call_ns")
    wall = doc.get("workload_wall_seconds")
    if not numeric(
        (
            ("overhead_fraction", overhead),
            (budget.census, census),
            ("per_call_ns", per_call_ns),
            ("workload_wall_seconds", wall),
        )
    ):
        return 2

    limit = budget.max_overhead
    print(
        f"{budget.subject} overhead bound: {overhead:.4%} "
        f"(budget {limit:.0%}) — {census} {budget.unit} x "
        f"{per_call_ns:.0f}ns over {wall:.2f}s {budget.workload}"
    )
    failed = False
    if census <= 0:
        print(f"FAIL: {budget.vacuous} — bound is vacuous")
        failed = True
    if overhead >= limit:
        print(f"FAIL: overhead bound {overhead:.4%} >= {limit:.0%} budget")
        failed = True
    if failed:
        return 1
    print(f"{kind} overhead ok")
    return 0


# ----------------------------------------------------- window_solve
#: Fail when combined time exceeds baseline * MAX_REGRESSION.
MAX_REGRESSION = 3.0


def check_window_solve() -> int:
    producer = "benchmarks/test_microbench.py"
    report = load(RESULTS / "BENCH_window_solve.json", "report", producer)
    if report is None:
        return 2
    combined = report.get("combined_seconds")
    if not isinstance(combined, (int, float)):
        print("report has no combined_seconds (hot-path benches skipped?)")
        return 2
    path = RESULTS / "window_solve_baseline.json"
    baseline = load(path, "baseline", producer)
    if baseline is None:
        return 2
    base = baseline.get("combined_seconds")
    if not isinstance(base, (int, float)) or base <= 0:
        print(f"malformed baseline {path}: combined_seconds must be "
              f"a positive number, got {base!r}")
        return 2
    limit = base * MAX_REGRESSION
    speedup = report.get("speedup_vs_baseline")
    print(
        f"combined build+solve: {combined * 1e3:.2f} ms "
        f"(baseline {base * 1e3:.2f} ms, "
        f"limit {limit * 1e3:.2f} ms, "
        f"min-speedup {speedup:.2f}x)"
        if speedup is not None
        else f"combined: {combined * 1e3:.2f} ms (limit {limit * 1e3:.2f} ms)"
    )
    if combined > limit:
        print(
            f"FAIL: window solve regressed >{MAX_REGRESSION:.0f}x "
            f"vs committed baseline"
        )
        return 1
    print("perf smoke ok")
    return 0


# ------------------------------------------------------ incremental
#: Equivalence bound on |incremental − recomputed| final objective;
#: mirrors repro.core.distopt.DRIFT_TOLERANCE (not imported: the gate
#: must run without the package installed).
DRIFT_TOLERANCE = 1e-6

#: CI floor on converged-tail speedup (benchmark itself asserts 1.5x).
MIN_SPEEDUP = 1.2


def check_incremental() -> int:
    doc = load(
        RESULTS / "BENCH_incremental.json",
        "report",
        "benchmarks/test_incremental.py",
    )
    if doc is None:
        return 2
    speedup = doc.get("speedup")
    identical = doc.get("placements_identical")
    drift = doc.get("objective_delta")
    skipped = (doc.get("memo_on") or {}).get("windows_skipped_clean")
    if not numeric(
        (
            ("speedup", speedup),
            ("objective_delta", drift),
            ("memo_on.windows_skipped_clean", skipped),
        )
    ):
        return 2

    print(
        f"incremental vs full recompute: {speedup:.2f}x "
        f"(floor {MIN_SPEEDUP}x), skipped_clean={skipped}, "
        f"objective drift {drift:.2e}, "
        f"placements identical: {identical}"
    )
    failed = False
    if identical is not True:
        print("FAIL: memo-on placement differs from memo-off")
        failed = True
    if drift >= DRIFT_TOLERANCE:
        print(
            f"FAIL: objective drift {drift} >= {DRIFT_TOLERANCE}"
        )
        failed = True
    if skipped <= 0:
        print("FAIL: the window memo never skipped a window")
        failed = True
    if speedup < MIN_SPEEDUP:
        print(
            f"FAIL: converged-tail speedup {speedup:.2f}x under "
            f"{MIN_SPEEDUP}x floor"
        )
        failed = True
    if failed:
        return 1
    print("incremental smoke ok")
    return 0


CHECKS = {
    "obs": lambda: check_overhead("obs"),
    "chaos": lambda: check_overhead("chaos"),
    "window_solve": check_window_solve,
    "incremental": check_incremental,
}


def main(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0] not in CHECKS:
        print(f"usage: check_gate.py {{{'|'.join(CHECKS)}}}")
        return 2
    return CHECKS[argv[0]]()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
