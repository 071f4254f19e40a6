"""repro.check — independent verification oracle and differential
test harness.

Every other subsystem asserts correctness against the flow's *own*
code paths (``repro.core.objective``, ``Design.check_legal``).  This
package provides the independent side of those assertions:

* :mod:`repro.check.oracle` — a from-scratch placement legality
  checker and a dM1 alignment/overlap counter recomputed straight
  from raw pin shapes (no reuse of the objective code paths).
* :mod:`repro.check.brute` — an exhaustive window solver that
  enumerates every feasible candidate assignment of a small window,
  certifying MILP window solutions optimal.
* :mod:`repro.check.generators` — seeded random design/window
  generators producing adversarial cases, plus metamorphic transforms
  with known objective invariants.
* :mod:`repro.check.differential` — the harness: per-case
  MILP-vs-brute-force certification, the executor/resume
  differential axes, fuzzing with failure shrinking, and reproducer
  corpus I/O (:mod:`repro.check.serialize`).

The ``repro check`` CLI subcommand and ``tests/check/`` drive these.
"""

from repro.check.brute import BruteResult, brute_force_window
from repro.check.differential import (
    CaseReport,
    FuzzSummary,
    check_chaos_axis,
    check_executor_axis,
    check_memo_onoff_axis,
    check_resume_axis,
    fuzz,
    replay_reproducer,
    run_case,
    shrink_case,
)
from repro.check.generators import (
    CASE_KINDS,
    CheckCase,
    generate_case,
    mirror_x,
    relabel_nets,
    translate_x,
)
from repro.check.oracle import (
    check_displacement,
    check_fixed_unmoved,
    check_legal,
    oracle_alignment_stats,
    oracle_objective,
    oracle_pin_interval,
    oracle_pin_point,
)
from repro.check.serialize import (
    case_from_doc,
    case_to_doc,
    clone_design,
    load_reproducer,
    save_reproducer,
)

__all__ = [
    "BruteResult",
    "brute_force_window",
    "CaseReport",
    "FuzzSummary",
    "check_chaos_axis",
    "check_executor_axis",
    "check_memo_onoff_axis",
    "check_resume_axis",
    "fuzz",
    "replay_reproducer",
    "run_case",
    "shrink_case",
    "CASE_KINDS",
    "CheckCase",
    "generate_case",
    "mirror_x",
    "relabel_nets",
    "translate_x",
    "check_displacement",
    "check_fixed_unmoved",
    "check_legal",
    "oracle_alignment_stats",
    "oracle_objective",
    "oracle_pin_interval",
    "oracle_pin_point",
    "case_from_doc",
    "case_to_doc",
    "clone_design",
    "load_reproducer",
    "save_reproducer",
]

from repro.log import subsystem_logger

logger = subsystem_logger("repro.check")
