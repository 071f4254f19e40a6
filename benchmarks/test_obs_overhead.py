"""Disabled-tracing overhead budget for the obs instrumentation.

ISSUE 9 sets a hard budget: with no tracer installed, the ``span()``
calls threaded through vm1_opt / dist_opt / run_flow must cost the
hot path **under 2%** of wall time.  A naive A/B wall-clock diff of
two real runs cannot resolve 2% on a shared CI runner, so the
benchmark bounds the overhead from two noise-robust measurements:

1. the per-call cost of the *disabled* fast path — ``span()`` with no
   active tracer returns the ``NULL_SPAN`` singleton, so a tight loop
   against an empty-loop baseline measures it to a few nanoseconds;
2. the number of span entries a real DistOpt pass executes — counted
   exactly by running the same workload once under an in-memory
   tracer (the disabled path executes *at most* that many: worker
   child spans are only synthesised when a trace context ships).

``overhead <= span_calls * per_call_cost / workload_wall`` is then an
upper bound on what the instrumentation can take from an untraced
run.  The result lands in
``benchmarks/results/BENCH_obs_overhead.json`` for the CI gate
(``check_overhead.py obs``).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.core import OptParams
from repro.core.distopt import dist_opt
from repro.library import build_library
from repro.netlist import generate_design
from repro.obs.trace import (
    NULL_SPAN,
    Tracer,
    span,
    tracer_scope,
)
from repro.placement import place_design
from repro.tech import CellArchitecture, make_tech

RESULTS_PATH = (
    Path(__file__).parent / "results" / "BENCH_obs_overhead.json"
)

#: Hard budget from ISSUE 9: instrumentation may take <2% of an
#: untraced run's wall time.
MAX_OVERHEAD = 0.02

#: Tight-loop iterations for the per-call measurement; large enough
#: that the perf_counter read at each end is amortised to nothing.
CALIBRATION_LOOPS = 200_000


def _per_call_seconds() -> float:
    """Cost of one disabled ``with span(...)`` against an empty loop."""
    with tracer_scope(None):  # mask any ambient tracer
        best_span = float("inf")
        best_empty = float("inf")
        for _ in range(5):  # best-of-N defeats scheduler noise
            t0 = time.perf_counter()
            for _ in range(CALIBRATION_LOOPS):
                with span("bench"):
                    pass
            best_span = min(best_span, time.perf_counter() - t0)
            t0 = time.perf_counter()
            for _ in range(CALIBRATION_LOOPS):
                pass
            best_empty = min(best_empty, time.perf_counter() - t0)
    return max(0.0, best_span - best_empty) / CALIBRATION_LOOPS


def _workload(tracer: Tracer | None) -> float:
    tech = make_tech(CellArchitecture.CLOSED_M1)
    lib = build_library(tech)
    design = generate_design("m0", tech, lib, scale=0.01, seed=2)
    place_design(design, seed=1)
    params = OptParams.for_arch(design.tech.arch, time_limit=2.0)
    started = time.perf_counter()
    with tracer_scope(tracer):
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


def test_disabled_tracing_overhead_under_budget():
    with tracer_scope(None):
        assert span("probe") is NULL_SPAN

    per_call = _per_call_seconds()

    # Exact span census for this workload: one traced run.
    tracer = Tracer()
    _workload(tracer)
    span_calls = len(tracer.spans)
    assert span_calls > 0, "workload emitted no spans when traced"

    # Untraced wall time — the denominator the budget is against.
    workload_wall = min(_workload(None), _workload(None))

    overhead = span_calls * per_call / workload_wall
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    report = {
        "schema": "repro.bench.obs_overhead/v1",
        "per_call_ns": per_call * 1e9,
        "calibration_loops": CALIBRATION_LOOPS,
        "span_calls": span_calls,
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
        f"disabled-tracing overhead bound {overhead:.4%} exceeds the "
        f"{MAX_OVERHEAD:.0%} budget ({span_calls} spans x "
        f"{per_call * 1e9:.0f}ns over {workload_wall:.2f}s)"
    )
