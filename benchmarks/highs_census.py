"""Census of HiGHS option sets over the window models of reference flows.

    PYTHONPATH=src python benchmarks/highs_census.py [--out PATH]

The script runs the reference designs of the perfbench workloads as
plain serial, unsharded flows, one group per architecture and window
shape (:data:`FLOWS`; nothing is imported from ``perfbench/``).  It
records every HiGHS call their backend makes, the arrays and options
``HighsBackend._invoke`` receives, as ``tests/milp/test_backends.py``
does.  Then it re-solves each recorded
model under every candidate of :data:`OPTION_SETS` and under a
reference: gap 0, HiGHS' presolve off and all four root heuristics off.

Every answer must be sound:

* HiGHS calls it optimal;
* it meets the model's bounds, integrality and rows;
* its objective is not below the reference optimum, and at most the
  set's relative gap above it.  An answer at gap 0 must equal the
  reference.

The backend's own options must be one of the candidates, so the census
always judges what the flow sends.  The script exits 1 on any unsound
answer and 0 otherwise.  It reports the total and the slowest HiGHS
call of each set per group, but does not gate them.

While the flows run, the script also times the window path: per group
the flows' ``opt`` seconds, the seconds HiGHS spent in ``run()``
(through a timing subclass of the binding's ``_Highs``) and, from
those, the milliseconds per call spent outside ``run()``: the model
build, the load and read-back, the decode, the guarded apply and the
bookkeeping around them.  Also reported, not gated.  The report names
the HiGHS and SciPy versions and goes to
``benchmarks/results/highs_census.json``.  Progress goes to stderr,
with whatever HiGHS writes to fd 1 during the solves; stdout holds the
one verdict line.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import sys
import time
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import scipy

from repro.flow import FlowConfig, run_flow
from repro.milp import highs_backend
from repro.milp.highs_backend import HighsBackend, stdout_to_stderr
from repro.milp.solution import SolveStatus
from repro.tech import CellArchitecture

OUT = Path(__file__).parent / "results" / "highs_census.json"

FJ = "mip_heuristic_run_feasibility_jump"
RINS = "mip_heuristic_run_rins"
RENS = "mip_heuristic_run_rens"
ROOT_RC = "mip_heuristic_run_root_reduced_cost"
HEURISTICS = (FJ, RINS, RENS, ROOT_RC)

#: Candidate option sets: name -> (root heuristics switched off, gap).
#: A gap of None keeps the recorded call's; every set keeps its time
#: limit and presolve choice.  ``heuristics_on`` is HiGHS' default;
#: ``fj_rens_off`` is what the backend sends at a gap above 0, the
#: flow's, and ``fj_off_gap0`` what it sends at gap 0, the certifier's.
OPTION_SETS = {
    "heuristics_on": ((), None),
    "fj_off": ((FJ,), None),
    "fj_rins_rrc_off": ((FJ, RINS, ROOT_RC), None),
    "fj_rens_off": ((FJ, RENS), None),
    "fj_off_gap0": ((FJ,), 0.0),
}
REFERENCE = "reference"

#: (label, architecture, scale, lx, generator seeds): the reference
#: designs of perfbench's ``aes_closedm1_serial`` and
#: ``aes_openm1_shard2``, then those of ``service_mix``, whose jobs
#: alternate the architecture.
FLOWS = (
    ("closedm1", CellArchitecture.CLOSED_M1, 0.01, 3, (1, 2, 3, 4)),
    ("openm1", CellArchitecture.OPEN_M1, 0.02, 3, (1, 2, 3)),
    ("closedm1_service", CellArchitecture.CLOSED_M1, 0.01, 2, (2, 4)),
    ("openm1_service", CellArchitecture.OPEN_M1, 0.01, 2, (1, 3)),
)

#: Feasibility and objective tolerance, relative to max(1, |value|).
TOL = 1e-6


def flow_config(
    arch: CellArchitecture, scale: float, lx: int, seed: int
) -> FlowConfig:
    """perfbench's flow settings, one job and one shard."""
    return FlowConfig(
        profile="aes",
        arch=arch,
        scale=scale,
        seed=seed,
        utilization=0.75,
        window_um=1.0,
        lx=lx,
        ly=1,
        time_limit=10.0,
        executor="serial",
        jobs=1,
        shards=1,
    )


def capture(config: FlowConfig) -> tuple[list[tuple], float, float]:
    """``(arrays, options)`` of every HiGHS call ``run_flow`` makes,
    the flow's ``opt`` seconds and the seconds HiGHS spent in
    ``run()``."""
    calls = []
    invoke = HighsBackend._invoke
    run_seconds = [0.0]

    def record(arrays, options):
        calls.append((arrays, dict(options)))
        return invoke(arrays, options)

    with mock.patch.object(
        HighsBackend, "_invoke", staticmethod(record)
    ), timed_highs(run_seconds):
        result = run_flow(config)
    return calls, result.opt.wall_seconds, run_seconds[0]


def timed_highs(seconds: list[float]):
    """Patch the binding's ``_Highs`` with a subclass whose ``run()``
    adds its wall seconds to ``seconds[0]``; a no-op on the public
    ``milp`` path, which has no ``run()`` of its own to time."""
    if highs_backend._highs is None:
        return contextlib.nullcontext()
    base = highs_backend._highs._Highs

    class TimedHighs(base):
        def run(self):
            started = time.perf_counter()
            try:
                return super().run()
            finally:
                seconds[0] += time.perf_counter() - started

    return mock.patch.object(highs_backend._highs, "_Highs", TimedHighs)


def window_path(calls: int, opt_s: float, run_s: float) -> dict:
    """The timing report of one group's flows."""
    return {
        "calls": calls,
        "opt_s": round(opt_s, 4),
        "run_s": round(run_s, 4),
        "outside_run_ms_per_call": round(1e3 * (opt_s - run_s) / calls, 4),
    }


def options_for(recorded: dict, name: str) -> dict:
    """The options of set ``name`` for one recorded call."""
    options = {k: v for k, v in recorded.items() if k not in HEURISTICS}
    if name == REFERENCE:
        off, gap = HEURISTICS, 0.0
        options["presolve"] = False
    else:
        off, gap = OPTION_SETS[name]
    if gap is not None:
        options["mip_rel_gap"] = gap
    options.update({key: False for key in off})
    return options


def unknown_options(calls) -> list[str]:
    """Option names the running HiGHS does not know (direct binding
    only; the public ``milp`` path passes them on unchecked)."""
    if highs_backend._highs is None:
        return []
    sent = {
        (key, value)
        for _, recorded in calls
        for name in (*OPTION_SETS, REFERENCE)
        for key, value in options_for(recorded, name).items()
    }
    highs = highs_backend._highs._Highs()
    highs.setOptionValue("log_to_console", False)
    unknown = set()
    for key, value in sent:
        if key == "presolve":
            value = "on" if value else "off"
        if highs.setOptionValue(key, value) != (
            highs_backend._highs.HighsStatus.kOk
        ):
            unknown.add(key)
    return sorted(unknown)


def highs_version() -> str | None:
    if highs_backend._highs is None:
        return None
    return highs_backend._highs._Highs().version()


def solve(arrays, options: dict) -> tuple[SolveStatus, object, float]:
    """One HiGHS call through the backend's path, timed."""
    started = time.perf_counter()
    status, _, x, _ = HighsBackend._invoke(arrays, options)
    return status, x, time.perf_counter() - started


def infeasibility(arrays, x: np.ndarray) -> str | None:
    """Why ``x`` violates the model, or None when it does not."""

    def over(value, limit):
        return value - limit > TOL * np.maximum(1.0, np.abs(limit))

    if np.any(over(arrays.lb, x)) or np.any(over(x, arrays.ub)):
        return "bound violated"
    integer = arrays.integrality == 1
    if np.any(np.abs(x[integer] - np.rint(x[integer])) > TOL):
        return "integrality violated"
    if arrays.m:
        activity = arrays.a @ x
        if np.any(over(arrays.lo, activity)) or np.any(
            over(activity, arrays.hi)
        ):
            return "row violated"
    return None


def objective(arrays, x: np.ndarray) -> float:
    """``c x`` with integer columns snapped, as the backend reads it."""
    snapped = np.where(arrays.integrality == 1, np.rint(x), x)
    return float(arrays.c @ snapped)


def judge(arrays, status, x, gap: float, best: float | None) -> tuple:
    """``(objective, fault)`` of one answer; ``best`` is the reference
    optimum (None while judging the reference itself)."""
    if status is not SolveStatus.OPTIMAL or x is None:
        return None, f"status {status.value}"
    x = np.asarray(x, dtype=np.float64)
    fault = infeasibility(arrays, x)
    value = objective(arrays, x)
    if fault is None and best is not None:
        tol = TOL * max(1.0, abs(best))
        if value < best - tol:
            fault = f"objective {value!r} below the reference {best!r}"
        elif value > best + gap * abs(value) + tol:
            fault = (
                f"objective {value!r} outside gap {gap} of the "
                f"reference {best!r}"
            )
    return value, fault


def census_of(calls) -> tuple[dict, list[dict]]:
    """Re-solve ``calls`` (``(seed, index, arrays, options)``) under
    every set; returns the per-set summary and the unsound answers."""
    names = (REFERENCE, *OPTION_SETS)
    seconds = {name: [] for name in names}
    at_reference = dict.fromkeys(OPTION_SETS, 0)
    faults = []
    for number, (seed, index, arrays, recorded) in enumerate(calls):
        # Rotate the order so no set always runs first on a model.
        shift = number % len(names)
        answers = {}
        for name in names[shift:] + names[:shift]:
            options = options_for(recorded, name)
            status, x, elapsed = solve(arrays, options)
            seconds[name].append(elapsed)
            answers[name] = (status, x, options["mip_rel_gap"])
        best, fault = judge(arrays, *answers[REFERENCE], None)
        if fault is not None:
            faults.append(
                {"seed": seed, "call": index, "set": REFERENCE,
                 "fault": fault}
            )
            continue
        for name in OPTION_SETS:
            value, fault = judge(arrays, *answers[name], best)
            if fault is not None:
                faults.append(
                    {"seed": seed, "call": index, "set": name,
                     "fault": fault}
                )
            elif abs(value - best) <= TOL * max(1.0, abs(best)):
                at_reference[name] += 1
    base = sum(seconds["heuristics_on"])
    summary = {}
    for name in names:
        summary[name] = {
            "total_s": round(sum(seconds[name]), 4),
            "max_s": round(max(seconds[name]), 4),
            "vs_heuristics_on": round(sum(seconds[name]) / base, 3),
        }
        if name in at_reference:
            summary[name]["at_reference"] = at_reference[name]
    return summary, faults


def backend_set(calls) -> str | None:
    """The candidate whose options the flows sent on every call."""
    for name in OPTION_SETS:
        if all(options == options_for(options, name) for _, options in calls):
            return name
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=OUT)
    args = parser.parse_args(argv)
    # SciPy's public milp warns that it passes HiGHS' heuristic
    # options on verbatim; the census sends them on purpose.
    warnings.filterwarnings(
        "ignore", "Unrecognized options", RuntimeWarning
    )
    started = time.perf_counter()
    report = {
        "schema": "repro.bench.highs_census/v3",
        "highs_version": highs_version(),
        "scipy_version": scipy.__version__,
        "numpy_version": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "option_sets": {
            **{name: {"off": list(off), "gap": gap}
               for name, (off, gap) in OPTION_SETS.items()},
            REFERENCE: {"off": [*HEURISTICS, "presolve"], "gap": 0.0},
        },
        "flows": {},
    }
    faults = []
    recorded = []
    # HiGHS writes stray lines to fd 1; stdout keeps the verdict alone.
    with stdout_to_stderr():
        for label, arch, scale, lx, seeds in FLOWS:
            calls = []
            opt_s = run_s = 0.0
            for seed in seeds:
                captured, flow_opt_s, flow_run_s = capture(
                    flow_config(arch, scale, lx, seed)
                )
                opt_s += flow_opt_s
                run_s += flow_run_s
                calls += [
                    (seed, index, arrays, options)
                    for index, (arrays, options) in enumerate(captured)
                ]
            timing = window_path(len(calls), opt_s, run_s)
            recorded += [(arrays, options) for _, _, arrays, options in calls]
            summary, flow_faults = census_of(calls)
            faults += [{"group": label, **fault} for fault in flow_faults]
            report["flows"][label] = {
                "arch": arch.value,
                "scale": scale,
                "lx": lx,
                "seeds": list(seeds),
                "models": len(calls),
                "window_path": timing,
                "sets": summary,
            }
            print(f"{label}: {len(calls)} models", file=sys.stderr)
            print(f"  window path      {timing}", file=sys.stderr)
            for name, row in summary.items():
                print(f"  {name:16s} {row}", file=sys.stderr)
    chosen = backend_set(recorded)
    unknown = unknown_options(recorded)
    report["backend_set"] = chosen
    report["unknown_options"] = unknown
    report["unsound"] = faults
    report["sound"] = not faults and chosen is not None and not unknown
    report["wall_s"] = round(time.perf_counter() - started, 1)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    if chosen is None:
        print("the backend's options are none of the census sets",
              file=sys.stderr)
    if unknown:
        print(f"HiGHS does not know: {', '.join(unknown)}", file=sys.stderr)
    for fault in faults:
        print(f"unsound: {fault}", file=sys.stderr)
    print(f"census {'sound' if report['sound'] else 'UNSOUND'} -> {args.out}")
    return 0 if report["sound"] else 1


if __name__ == "__main__":
    sys.exit(main())
