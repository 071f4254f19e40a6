"""Macrobenchmark: the window memo at 10k cells, off vs on.

Runs the full VM1Opt loop on the 10k-cell Rent-connectivity reference
design twice — ``window_memo=False`` (plain Algorithm 2: every window
sliced, built and solved every pass) and ``window_memo=True`` — each
with the drift audit armed (any pass whose delta-accounted objective
strays more than ``DRIFT_TOLERANCE`` from a full recompute raises
*inside* the run), and writes
``benchmarks/results/BENCH_incremental.json`` with wall-clocks,
per-pass window accounting, the memo's peak size and the speedup.

The loop is driven into its **converged tail** (fixed window grid,
small θ), the regime the memo targets: late passes revisit settled
windows, and re-solving one costs a model build and a MILP solve
while a memo hit costs a slice and a tuple comparison.  A default-θ
run stops after ~1 iteration whose move and flip passes key disjoint
subproblems — there the memo engages barely at all (and the JSON
records that honestly if parameters drift).

The memo is the only cross-pass skip, so the speedup compares it with
the plain re-solve of every window.  The win is algorithmic (skipped
builds and solves), not parallelism, so the benchmark measures on any
core count; ``jobs`` follows ``min(4, cores)``.

The per-window time limit is far above any solve here, so no solve
stops at the clock and both arms' placements are a function of the
models alone, not of the machine's load.  Each arm records how many
solves came within :data:`LIMITED_SHARE` of the limit; the benchmark
asserts there are none.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from unittest import mock

from repro.core import OptParams, ParamSet, vm1opt
from repro.core.distopt import DRIFT_TOLERANCE
from repro.library import build_library
from repro.netlist import Design
from repro.placement import place_design
from repro.runtime import RunTelemetry, available_cores, make_executor
from repro.shard import generate_scaled_design
from repro.tech import CellArchitecture, make_tech

RESULTS_PATH = (
    Path(__file__).parent / "results" / "BENCH_incremental.json"
)

NUM_INSTANCES = 10_000
SEED = 1
#: Small θ + enable_shift=False drives the loop into the converged
#: tail where identical passes repeat until the improvement dies out.
THETA = 1e-5
#: Per-window solve limit, far above the longest solve, so no solve
#: result depends on how fast the machine is at the moment.
TIME_LIMIT = 10.0
#: A solve taking at least this share of the limit counts as limited.
LIMITED_SHARE = 0.98
#: Wall-clock floor asserted here; the CI gate
#: (``check_gate.py incremental``) uses a looser floor for runner noise.
MIN_SPEEDUP = 1.5


def _params() -> OptParams:
    return OptParams.for_arch(
        CellArchitecture.CLOSED_M1,
        sequence=(ParamSet.square(1.0, 3, 1),),
        time_limit=TIME_LIMIT,
        theta=THETA,
    )


def _reference_design() -> Design:
    tech = make_tech(CellArchitecture.CLOSED_M1)
    lib = build_library(tech)
    design = generate_scaled_design(
        NUM_INSTANCES, tech, lib, seed=SEED
    )
    place_design(design, seed=SEED)
    return design


def memo_bytes(memo: dict) -> int:
    """Bytes held by the memo's own containers: the dict, each key and
    value tuple, each state tuple and its per-instance tuples.  The
    names, coordinates and orientations in them are the design's, and
    the keys' window rects (a few dozen bytes each) are not counted."""
    total = sys.getsizeof(memo)
    for key, value in memo.items():
        state = value[0]
        total += sys.getsizeof(key) + sys.getsizeof(value)
        total += sys.getsizeof(state) + sum(map(sys.getsizeof, state))
    return total


def _run_variant(*, memo: bool, jobs: int) -> tuple[dict, dict]:
    design = _reference_design()
    telemetry = RunTelemetry()
    peak = {"entries": 0, "bytes": 0}
    dist_opt = vm1opt.dist_opt

    def measured_pass(*args, **kwargs):
        result = dist_opt(*args, **kwargs)
        if kwargs["memo"] is not None:
            peak["entries"] = max(peak["entries"], len(kwargs["memo"]))
            peak["bytes"] = max(peak["bytes"], memo_bytes(kwargs["memo"]))
        return result

    started = time.perf_counter()
    with mock.patch.object(vm1opt, "dist_opt", measured_pass):
        result = vm1opt.vm1_opt(
            design,
            _params(),
            executor=make_executor("auto", jobs),
            telemetry=telemetry,
            enable_shift=False,
            window_memo=memo,
            objective_audit=True,
        )
    wall = time.perf_counter() - started
    report = {
        "window_memo": memo,
        "wall_seconds": wall,
        "iterations": result.iterations,
        "final_objective": result.final_objective,
        "windows_built": sum(p.windows_built for p in result.passes),
        "windows_skipped_clean": result.windows_skipped_clean,
        "memo_peak_entries": peak["entries"],
        "memo_peak_bytes": peak["bytes"],
        "limited_solves": sum(
            1
            for r in telemetry.records
            if r.status == "timed_out"
            or r.solve_seconds >= LIMITED_SHARE * TIME_LIMIT
        ),
        "max_solve_seconds": max(
            (r.solve_seconds for r in telemetry.records), default=0.0
        ),
        "passes": [
            {
                "built": p.windows_built,
                "applied": p.windows_applied,
                "skipped_clean": p.windows_skipped_clean,
                "wall_seconds": p.wall_seconds,
                "build_seconds": p.build_seconds,
                "solve_seconds": p.solve_seconds,
            }
            for p in result.passes
        ],
    }
    return report, design.placement_snapshot()


def test_incremental_speedup():
    cores = available_cores()
    jobs = min(4, cores)
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)

    off, snapshot_off = _run_variant(memo=False, jobs=jobs)
    on, snapshot_on = _run_variant(memo=True, jobs=jobs)

    identical = snapshot_on == snapshot_off
    objective_delta = abs(
        on["final_objective"] - off["final_objective"]
    )
    speedup = off["wall_seconds"] / on["wall_seconds"]
    report = {
        "schema": "repro.bench.incremental/v2",
        "cores": cores,
        "jobs": jobs,
        "design": {
            "family": "synth",
            "instances": NUM_INSTANCES,
            "seed": SEED,
        },
        "params": {
            "sequence": "square(1.0, 3, 1)",
            "theta": THETA,
            "time_limit": TIME_LIMIT,
            "enable_shift": False,
        },
        "memo_off": off,
        "memo_on": on,
        "speedup": speedup,
        "placements_identical": identical,
        "objective_delta": objective_delta,
    }
    RESULTS_PATH.write_text(json.dumps(report, indent=1) + "\n")

    assert off["limited_solves"] == on["limited_solves"] == 0, (
        f"solves reached {LIMITED_SHARE:.0%} of the {TIME_LIMIT:g}s "
        f"limit (off: {off['limited_solves']}, on: "
        f"{on['limited_solves']}); placements would depend on load"
    )
    assert identical, "the window memo must not change the placement"
    assert objective_delta < DRIFT_TOLERANCE, (
        f"memo-on objective drifted {objective_delta} from the "
        f"memo-off run"
    )
    assert on["windows_skipped_clean"] > 0, (
        "converged-tail run skipped no window — the benchmark is not "
        "measuring the memo"
    )
    assert off["windows_skipped_clean"] == 0
    assert speedup >= MIN_SPEEDUP, (
        f"expected >= {MIN_SPEEDUP}x from the window memo in the "
        f"converged tail, measured {speedup:.2f}x"
    )
