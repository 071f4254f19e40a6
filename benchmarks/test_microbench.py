"""Microbenchmarks of the heavy inner kernels.

These are genuine multi-round pytest benchmarks (unlike the one-shot
experiment regenerations): window MILP construction (written already
reduced, as solver arrays), the window MILP solve, and full-design
routing — the costs that dominate the flow and that Figure 5's runtime
axis is made of.

After the module runs, the per-stage medians are written to
``benchmarks/results/BENCH_window_solve.json`` together with the
committed pre-hot-path baseline
(``benchmarks/results/window_solve_baseline.json``) and the resulting
combined build+solve speedup.  CI uploads the file as an
artifact and the perf smoke job fails on a >3x regression.
"""

import json
from pathlib import Path

import pytest

from repro.core import OptParams, Window, build_window_model
from repro.core.window import partition
from repro.library import build_library
from repro.milp import HighsBackend
from repro.netlist import generate_design
from repro.placement import place_design
from repro.routing import DetailedRouter
from repro.tech import CellArchitecture, make_tech

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = Path(__file__).parent / "results"
BASELINE_PATH = RESULTS_DIR / "window_solve_baseline.json"
REPORT_PATH = RESULTS_DIR / "BENCH_window_solve.json"

#: Stage name -> {"median": s, "min": s}, filled by each bench below.
_stage_stats: dict[str, dict[str, float]] = {}


def _record(name: str, benchmark) -> None:
    stats = benchmark.stats.stats
    _stage_stats[name] = {
        "median": stats.median,
        "min": stats.min,
    }


@pytest.fixture(scope="module", autouse=True)
def window_solve_report():
    """Write the bench report once the benches have run.

    Reports are working artifacts, not source: they land in
    ``benchmarks/results/`` (gitignored apart from the committed
    baseline) instead of the repository root.
    """
    yield
    if not _stage_stats:
        return
    report: dict = {
        "schema": "repro.bench.window_solve/v1",
        "fixture": {
            "design": "aes",
            "arch": "CLOSED_M1",
            "scale": 0.03,
            "netlist_seed": 3,
            "placement_seed": 1,
            "window": "fullest window of partition(0, 0, 1250, 1080)",
            "lx": 3,
            "ly": 1,
            "allow_flip": False,
        },
        "stages": dict(sorted(_stage_stats.items())),
    }
    hot_path = ("model_build", "solve")
    if all(stage in _stage_stats for stage in hot_path):
        combined = sum(
            _stage_stats[stage]["median"] for stage in hot_path
        )
        combined_min = sum(
            _stage_stats[stage]["min"] for stage in hot_path
        )
        report["combined_seconds"] = combined
        report["combined_seconds_min"] = combined_min
        if BASELINE_PATH.exists():
            baseline = json.loads(BASELINE_PATH.read_text())
            base_med = baseline["combined_seconds"]
            base_min = (
                baseline["build_seconds_min"]
                + baseline["solve_seconds_min"]
            )
            report["baseline"] = {
                "combined_seconds": base_med,
                "combined_seconds_min": base_min,
                "build_seconds": baseline["build_seconds"],
                "solve_seconds": baseline["solve_seconds"],
            }
            # Headline ratio uses the per-round minimum — the
            # noise-robust statistic pytest-benchmark itself ranks
            # by; the median-based ratio rides along for context.
            report["speedup_vs_baseline"] = base_min / combined_min
            report["speedup_vs_baseline_median"] = (
                base_med / combined
            )
    REPORT_PATH.parent.mkdir(parents=True, exist_ok=True)
    REPORT_PATH.write_text(json.dumps(report, indent=1) + "\n")


@pytest.fixture(scope="module")
def placed_design():
    tech = make_tech(CellArchitecture.CLOSED_M1)
    lib = build_library(tech)
    design = generate_design("aes", tech, lib, scale=0.03, seed=3)
    place_design(design, seed=1)
    return design


@pytest.fixture(scope="module")
def one_window(placed_design):
    windows = partition(placed_design, 0, 0, 1250, 1080)
    # Pick the fullest window for a representative MILP.
    return max(
        windows,
        key=lambda w: len(placed_design.instances_in(w.rect)),
    )


@pytest.fixture(scope="module")
def one_problem(placed_design, one_window):
    params = OptParams.for_arch(placed_design.tech.arch)
    return build_window_model(
        placed_design, one_window, params, lx=3, ly=1, allow_flip=False
    )


@pytest.mark.benchmark(group="micro")
def test_bench_window_model_build(benchmark, placed_design, one_window):
    params = OptParams.for_arch(placed_design.tech.arch)
    problem = benchmark(
        build_window_model,
        placed_design,
        one_window,
        params,
        lx=3,
        ly=1,
        allow_flip=False,
    )
    assert problem is not None
    # Past the native-presolve threshold: the solve below runs with
    # HiGHS' own presolve off.
    assert problem.arrays.integrality.sum() >= 192
    _record("model_build", benchmark)


# Enough rounds for the per-round minimum to shake off scheduler
# noise — the headline speedup statistic is built from it.
@pytest.mark.benchmark(group="micro", min_rounds=40)
def test_bench_window_milp_solve(benchmark, one_problem):
    solver = HighsBackend(time_limit=10.0, mip_rel_gap=0.01)
    solution = benchmark(solver.solve_arrays, one_problem.arrays)
    assert solution.status.has_solution
    _record("solve", benchmark)


@pytest.mark.benchmark(group="micro")
def test_bench_full_route(benchmark, placed_design):
    metrics = benchmark(lambda: DetailedRouter(placed_design).route())
    assert metrics.routed_wirelength > 0
    _record("route", benchmark)
