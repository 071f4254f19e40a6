"""Macrobenchmark: sharded full-chip optimization vs single-shard.

Generates the 10k-cell Rent-connectivity reference design
(``repro.shard.synth``), optimizes it unsharded (``vm1_opt`` through
``make_executor`` with ``jobs=1``, as ``run_flow`` runs ``shards=1``)
and region-sharded (``shards=4``, process-parallel), and writes
``benchmarks/results/BENCH_shard_scale.json`` with wall-clock,
speedup, per-variant objective, stitched-vs-single objective delta,
and peak RSS.  The placement must verify legal in both variants; the
CI ``shard-smoke`` job uploads the report.

On a machine with fewer than 2 usable cores the speedup measurement is
meaningless; the JSON is still written with an explicit
``"skipped": "1-core"`` marker and the pytest run is skipped.
"""

from __future__ import annotations

import json
import resource
import time
from pathlib import Path

import pytest

from repro.check.oracle import check_legal
from repro.core import OptParams, ParamSet, vm1_opt
from repro.library import build_library
from repro.netlist import Design
from repro.placement import place_design
from repro.runtime import available_cores, make_executor
from repro.shard import generate_scaled_design, run_sharded
from repro.tech import CellArchitecture, make_tech

RESULTS_PATH = (
    Path(__file__).parent / "results" / "BENCH_shard_scale.json"
)

NUM_INSTANCES = 10_000
SEED = 1
SHARDS = 4
HALO_ROWS = 2
#: Stitched objective must stay within this fraction of single-shard.
MAX_OBJECTIVE_DELTA = 0.01


def _params() -> OptParams:
    return OptParams.for_arch(
        CellArchitecture.CLOSED_M1,
        sequence=(ParamSet.square(1.0, 3, 1),),
        time_limit=1.0,
    )


def _reference_design() -> Design:
    tech = make_tech(CellArchitecture.CLOSED_M1)
    lib = build_library(tech)
    design = generate_scaled_design(
        NUM_INSTANCES, tech, lib, seed=SEED
    )
    place_design(design, seed=SEED)
    return design


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # Linux reports KiB


def _variant(
    result, *, shards: int, jobs: int, wall: float, legal: bool,
    shard_executor: str, inner_executor: str,
) -> dict:
    return {
        "shards": shards,
        "jobs": jobs,
        "wall_seconds": wall,
        "initial_objective": result.initial_objective,
        "final_objective": result.final_objective,
        "improvement": result.improvement,
        "peak_rss_mb": _peak_rss_mb(),
        "shard_executor": shard_executor,
        "inner_executor": inner_executor,
        "legal": legal,
    }


def _run_single() -> dict:
    design = _reference_design()
    started = time.perf_counter()
    with make_executor("auto", 1) as executor:
        result = vm1_opt(design, _params(), executor=executor)
    wall = time.perf_counter() - started
    legal = not check_legal(design)
    assert legal, "unsharded placement must verify legal"
    return _variant(
        result, shards=1, jobs=1, wall=wall, legal=legal,
        shard_executor="none", inner_executor=executor.name,
    )


def _run_sharded(shards: int, jobs: int) -> dict:
    design = _reference_design()
    started = time.perf_counter()
    result = run_sharded(
        design,
        _params(),
        shards=shards,
        halo_rows=HALO_ROWS,
        jobs=jobs,
    )
    wall = time.perf_counter() - started
    return _variant(
        result, shards=result.num_shards, jobs=jobs, wall=wall,
        legal=result.stitch.legal,
        shard_executor=result.shard_executor,
        inner_executor=result.inner_executor,
    )


def test_shard_scaling():
    cores = available_cores()
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    if cores < 2:
        RESULTS_PATH.write_text(json.dumps(
            {
                "schema": "repro.bench.shard_scale/v1",
                "skipped": "1-core",
                "cores": cores,
                "note": (
                    "shard scaling needs >= 2 usable cores; run on "
                    "a multi-core machine to populate"
                ),
            },
            indent=1,
        ) + "\n")
        pytest.skip("shard scaling benchmark needs >= 2 cores")

    single = _run_single()
    sharded = _run_sharded(shards=SHARDS, jobs=min(SHARDS, cores))
    speedup = single["wall_seconds"] / sharded["wall_seconds"]
    delta = abs(
        sharded["final_objective"] - single["final_objective"]
    ) / abs(single["final_objective"])
    report = {
        "schema": "repro.bench.shard_scale/v1",
        "cores": cores,
        "design": {
            "family": "synth",
            "instances": NUM_INSTANCES,
            "seed": SEED,
            "halo_rows": HALO_ROWS,
        },
        "single": single,
        "sharded": sharded,
        "speedup": speedup,
        "objective_delta": delta,
    }
    RESULTS_PATH.write_text(json.dumps(report, indent=1) + "\n")

    assert delta <= MAX_OBJECTIVE_DELTA, (
        f"stitched objective drifted {delta:.2%} from single-shard "
        f"(limit {MAX_OBJECTIVE_DELTA:.0%})"
    )
    if cores >= SHARDS:
        assert speedup >= 2.0, (
            f"expected >= 2x speedup at {SHARDS} shards on {cores} "
            f"cores, measured {speedup:.2f}x"
        )
