"""Disabled-chaos overhead budget for the fault-injection hooks.

The chaos tier's contract is that production runs pay (almost)
nothing: with no controller installed every hook — ``barrier()``,
the scheduler's arm probe, the worker's directive tests — is one
attribute load plus an ``is None`` test.  The budget is **under 1%**
of an unfaulted run's wall time.

Same measurement strategy as ``test_obs_overhead.py`` (an A/B
wall-clock diff cannot resolve 1% on a shared runner):

1. per-call cost of the heaviest disabled hook (``barrier()``: a
   function call, a thread-local ``getattr`` and an ``is None``
   test), from a tight loop against an empty-loop baseline;
2. an exact census of hook consultations for a real DistOpt pass,
   counted by running the same workload once with a never-firing
   controller installed (every consultation lands in
   ``ChaosController.observed``).

``overhead <= consultations * per_call / workload_wall`` then bounds
what the hooks can take from an unfaulted run.  The result lands in
``benchmarks/results/BENCH_chaos_overhead.json`` for the CI gate
(``check_gate.py chaos``).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.chaos import (
    ChaosController,
    FaultPlan,
    FaultRule,
    active_chaos,
    barrier,
    chaos_scope,
)
from repro.core import OptParams
from repro.core.distopt import dist_opt
from repro.library import build_library
from repro.netlist import generate_design
from repro.placement import place_design
from repro.tech import CellArchitecture, make_tech

RESULTS_PATH = (
    Path(__file__).parent / "results" / "BENCH_chaos_overhead.json"
)

#: Hard budget from ISSUE 10: disabled chaos hooks may take <1% of an
#: unfaulted run's wall time.
MAX_OVERHEAD = 0.01

#: Tight-loop iterations for the per-call measurement.
CALIBRATION_LOOPS = 200_000


def _per_call_seconds() -> float:
    """Cost of one disabled ``barrier()`` against an empty loop."""
    with chaos_scope(None):  # mask any ambient controller
        best_hook = float("inf")
        best_empty = float("inf")
        for _ in range(5):  # best-of-N defeats scheduler noise
            t0 = time.perf_counter()
            for _ in range(CALIBRATION_LOOPS):
                barrier("bench")
            best_hook = min(best_hook, time.perf_counter() - t0)
            t0 = time.perf_counter()
            for _ in range(CALIBRATION_LOOPS):
                pass
            best_empty = min(best_empty, time.perf_counter() - t0)
    return max(0.0, best_hook - best_empty) / CALIBRATION_LOOPS


def _workload(controller: ChaosController | None) -> float:
    tech = make_tech(CellArchitecture.CLOSED_M1)
    lib = build_library(tech)
    design = generate_design("m0", tech, lib, scale=0.01, seed=2)
    place_design(design, seed=1)
    params = OptParams.for_arch(design.tech.arch, time_limit=2.0)
    started = time.perf_counter()
    with chaos_scope(controller):
        dist_opt(
            design,
            params,
            tx=0,
            ty=0,
            bw=1250,
            bh=1080,
            lx=2,
            ly=1,
            allow_flip=False,
            pass_label="move[bench]",
        )
    return time.perf_counter() - started


def test_disabled_chaos_overhead_under_budget():
    with chaos_scope(None):
        assert active_chaos() is None

    per_call = _per_call_seconds()

    # Exact consultation census: one run with a never-firing
    # controller installed — every hook consultation is recorded.
    controller = ChaosController(
        plan=FaultPlan(
            seed=0,
            faults=(
                FaultRule(site="barrier", action="raise", nth=10**9),
            ),
        )
    )
    _workload(controller)
    consultations = len(controller.observed)
    assert consultations > 0, (
        "workload consulted no chaos hooks when armed"
    )
    assert controller.total_fires() == 0

    # Unfaulted wall time — the denominator the budget is against.
    workload_wall = min(_workload(None), _workload(None))

    overhead = consultations * per_call / workload_wall
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    report = {
        "schema": "repro.bench.chaos_overhead/v1",
        "per_call_ns": per_call * 1e9,
        "calibration_loops": CALIBRATION_LOOPS,
        "hook_consultations": consultations,
        "workload_wall_seconds": workload_wall,
        "overhead_fraction": overhead,
        "budget_fraction": MAX_OVERHEAD,
        "workload": {
            "design": "m0",
            "scale": 0.01,
            "seed": 2,
            "pass": "move 2x1 @ 1250x1080",
            "time_limit": 2.0,
        },
    }
    RESULTS_PATH.write_text(json.dumps(report, indent=1) + "\n")

    assert overhead < MAX_OVERHEAD, (
        f"disabled-chaos overhead bound {overhead:.4%} exceeds the "
        f"{MAX_OVERHEAD:.0%} budget ({consultations} hooks x "
        f"{per_call * 1e9:.0f}ns over {workload_wall:.2f}s)"
    )
