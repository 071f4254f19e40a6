"""CI gate for the disabled-path overhead budgets of tracing and chaos.

``python benchmarks/check_overhead.py <kind>`` reads
``benchmarks/results/BENCH_<kind>_overhead.json`` (written by running
``benchmarks/test_<kind>_overhead.py``).  Each report holds a measured
upper bound on what the instrumentation can take from an
uninstrumented run: a census of its calls times the disabled-path
per-call cost, over the workload wall time.  The gate fails when the
bound reaches the kind's budget, or when the census is zero (the
instrumentation was effectively absent and the bound is vacuous):

* ``obs`` — span calls of the tracer, under 2%;
* ``chaos`` — consultations of the fault-injection hooks, under 1%.

Exit codes: 0 ok, 1 over budget, 2 unknown kind or missing/malformed
report.  The gate imports nothing from the package so it runs without
an install.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

RESULTS = Path(__file__).parent / "results"


@dataclass(frozen=True)
class Budget:
    """What one report kind counts, its budget and its wording."""

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


def check(kind: str) -> int:
    budget = BUDGETS[kind]
    report = RESULTS / f"BENCH_{kind}_overhead.json"
    if not report.exists():
        print(
            f"missing report {report}; run "
            f"benchmarks/test_{kind}_overhead.py first"
        )
        return 2
    try:
        doc = json.loads(report.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"malformed report {report}: {exc}")
        return 2
    if not isinstance(doc, dict):
        print(
            f"malformed report {report}: expected a JSON object, "
            f"got {type(doc).__name__}"
        )
        return 2

    overhead = doc.get("overhead_fraction")
    census = doc.get(budget.census)
    per_call_ns = doc.get("per_call_ns")
    wall = doc.get("workload_wall_seconds")
    for field, value in (
        ("overhead_fraction", overhead),
        (budget.census, census),
        ("per_call_ns", per_call_ns),
        ("workload_wall_seconds", wall),
    ):
        if not isinstance(value, (int, float)):
            print(f"malformed report: {field} missing or non-numeric")
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


def main(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0] not in BUDGETS:
        print(f"usage: check_overhead.py {{{'|'.join(BUDGETS)}}}")
        return 2
    return check(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
