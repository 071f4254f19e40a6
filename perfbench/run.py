"""The repository benchmark: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload aes_closedm1_serial --seed 1 \\
        --seconds 22 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that prints the per-layer
ledger.  Both check every output (see perfbench/gate.py).  A table of
every metric with its unit and sample count goes to stdout, and the
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every check
passed.  Workloads are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space for service journals and set-up probes (ignored by git).
OUT = ROOT / ".perfbench"
#: Cold set-ups timed before and after the measured loop, so a slow
#: spell at one end of the run cannot set their median.
SETUP_PROBES = (2, 2)

#: (name, unit) of the end-to-end metrics, measured with tracing off.
END_TO_END = (
    ("setup_s", "s"),
    ("flow_s", "s"),
    ("opt_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("dm1_gain_per_kcell", "count"),
    ("hpwl_reduction_pct", "%"),
    ("rwl_reduction_pct", "%"),
    ("via12_reduction_pct", "%"),
    ("objective_improvement", "ratio"),
    ("ok_ops_ratio", "ratio"),
    ("job_latency_p50_s", "s"),
    ("jobs_per_min", "1/min"),
)

#: (name, unit) of the per-layer metrics, from the traced run.
PER_LAYER = (
    ("flow.flow_s", "s"),
    ("flow.opt_s", "s"),
    ("netlist.generate_s", "s"),
    ("placement.place_s", "s"),
    ("routing.route_init_s", "s"),
    ("routing.route_final_s", "s"),
    ("timing.analyze_s", "s"),
    ("core.vm1_opt_s", "s"),
    ("core.passes", "count"),
    ("core.windows", "count"),
    ("core.windows_built", "count"),
    ("core.windows_applied", "count"),
    ("core.no_move_ratio", "ratio"),
    ("core.distopt_self_s", "s"),
    ("core.window_slice_s", "s"),
    ("core.apply_s", "s"),
    ("core.objective_s", "s"),
    ("core.dirty.skipped", "count"),
    ("core.dirty.skip_ratio", "ratio"),
    ("core.windowcache.hits", "count"),
    ("core.windowcache.probe_s", "s"),
    ("formulation.build_s", "s"),
    ("formulation.pairs", "count"),
    ("milp.solves", "count"),
    ("milp.presolve_s", "s"),
    ("milp.solve_s", "s"),
    ("milp.solve_p50_ms", "ms"),
    ("milp.solve_p99_ms", "ms"),
    ("milp.solve_max_s", "s"),
    ("milp.time_limited", "count"),
    ("runtime.dispatch_s", "s"),
    ("runtime.queue_wait_s", "s"),
    ("runtime.overhead_s", "s"),
    ("runtime.retries", "count"),
    ("shard.plan_s", "s"),
    ("shard.extract_s", "s"),
    ("shard.payload_bytes", "bytes"),
    ("shard.worker_s_max", "s"),
    ("shard.imbalance", "ratio"),
    ("shard.seam_s", "s"),
    ("shard.seam_applied", "count"),
    ("shard.parallel_efficiency", "ratio"),
    ("shard.speedup_vs_serial", "ratio"),
    ("service.submit_ms", "ms"),
    ("service.claim_wait_s", "s"),
    ("service.checkpoints", "count"),
    ("service.checkpoints_min", "count"),
    ("service.checkpoint_bytes", "bytes"),
    ("service.checkpoint_s", "s"),
    ("service.events", "count"),
    ("service.overhead_s", "s"),
    ("obs.trace_overhead_pct", "%"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# -------------------------------------------------------------- setup
def measure_setup(
    workload: str, scratch: Path, probes: range, meter
) -> list[float]:
    """Normalized cold set-up time of one fresh interpreter per probe
    index (each scaled by the reference kernel timed around it)."""
    times = []
    for index in probes:
        probe_dir = scratch / f"setup{index}"
        proc = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).with_name("setup_probe.py")),
                workload,
                str(probe_dir),
            ],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        setup_s = json.loads(proc.stdout.splitlines()[-1])["setup_s"]
        times.append(setup_s * meter.scale())
    return times


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child."""
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024.0


# ------------------------------------------------------------ metrics
def quality_metrics(samples, reference) -> dict[str, float]:
    """Quality pooled over the suite's reference designs (first run of
    each; later runs of a design are byte-identical, which the gate
    checks).  A design's quality repeats exactly, so over the fixed
    reference designs these metrics read the same for every seed, and
    any change in them is the program's."""
    firsts = {}
    for sample in samples:
        if sample.key[1] in reference:
            firsts.setdefault(sample.key, sample)
    q = list(firsts.values())

    def reduction(attr: str) -> float:
        init = sum(getattr(s, attr)[0] for s in q)
        final = sum(getattr(s, attr)[1] for s in q)
        return 100.0 * (init - final) / init

    cells = sum(s.cells for s in q)
    return {
        "dm1_gain_per_kcell": 1000.0
        * sum(s.dm1[1] - s.dm1[0] for s in q)
        / cells,
        "hpwl_reduction_pct": reduction("hpwl"),
        "rwl_reduction_pct": reduction("rwl"),
        "via12_reduction_pct": reduction("via12"),
        "objective_improvement": sum(
            s.objective[0] - s.objective[1] for s in q
        )
        / sum(abs(s.objective[0]) for s in q),
        # Shown in the table only: zero at these sizes, so they cannot
        # be bounded end-to-end metrics.
        "drv_final": sum(s.drv[1] for s in q) / len(q),
        "dm1_gain_pct": 100.0
        * sum(s.dm1[1] - s.dm1[0] for s in q)
        / max(1.0, sum(s.dm1[0] for s in q)),
    }


def end_to_end(w, samples, *, setup, jobs_per_min, failed) -> dict:
    """Timings over the reference designs (see ``reference_samples``);
    the drawn design's time is printed in the table."""
    from perfbench.workloads import design_times, reference_seeds

    timed = reference_samples(w, samples)
    reference = set(reference_seeds(w))
    drawn = [s for s in samples if s.key[1] not in reference]

    def timing(attr: str, subset=timed, normalized=True) -> float:
        """Each design's median normalized time, then the geometric
        mean over the designs (every design weighs the same)."""
        return statistics.geometric_mean(
            design_times(subset, attr, normalized=normalized)
        )

    return {
        "setup_s": statistics.median(setup),
        "flow_s": timing("flow_s"),
        "opt_s": timing("opt_s"),
        "cpu_s": timing("cpu_s"),
        "peak_rss_mb": peak_rss_mb(),
        **quality_metrics(samples, set(reference_seeds(w))),
        "ok_ops_ratio": 1.0 - failed / max(1, len(samples)),
        "failed_ops_ratio": failed / max(1, len(samples)),
        # Over designs, so which designs ran twice cannot move it.
        "job_latency_p50_s": statistics.median(
            design_times(timed, "latency_s")
        ),
        "jobs_per_min": jobs_per_min,
        # Table only: the timing without normalization, and the drawn
        # design's own normalized time.
        "flow_s_measured": timing("flow_s", normalized=False),
        "drawn_flow_s": timing("flow_s", drawn) if drawn else 0.0,
    }


def reference_samples(w, samples) -> list:
    """The samples of the workload's reference designs.  The design
    drawn from the seed is run and checked like the others, but its
    time varies threefold between generator seeds; with it in a suite
    of five, two seeds' timings differed by up to 30% on the same box.
    Over the fixed reference designs two seeds time the same work."""
    from perfbench.workloads import reference_seeds

    reference = set(reference_seeds(w))
    return [s for s in samples if s.key[1] in reference]


# --------------------------------------------------------------- runs
def measured_run(w, seeds, seconds: float, scratch: Path) -> dict:
    """The untraced run: end-to-end metrics and the gate."""
    from perfbench import gate
    from perfbench.speed import Speedometer
    from perfbench.workloads import (
        reference_seeds,
        run_flow_suite,
        run_service_mix,
    )

    meter = Speedometer()
    before, after = SETUP_PROBES
    setup = measure_setup(w.name, scratch, range(before), meter)
    errors: list[str] = []
    if w.kind == "service":
        mix = run_service_mix(w, seeds, seconds, scratch / "service", meter)
        samples = mix["samples"]
        errors += mix["errors"]
        # Jobs done over the normalized wall time of their pairs, for
        # the pairs of reference designs only.
        reference = set(reference_seeds(w))
        pairs = [b for b in mix["batches"] if set(b[2]) <= reference]
        done = sum(len(b[2]) for b in pairs)
        busy = sum(wall * scale for wall, scale, _ in pairs)
    else:
        samples = run_flow_suite(w, seeds, seconds, meter)
        # One client calling run_flow back to back.
        timed = reference_samples(w, samples)
        done = len(timed)
        busy = sum(s.latency_s * s.scale for s in timed)
    jobs_per_min = 60.0 * done / busy
    setup += measure_setup(
        w.name, scratch, range(before, before + after), meter
    )
    book = gate.DigestBook()
    failed = 0
    for sample in samples:
        sample.errors += book.record(sample.key, sample.digest)
        failed += bool(sample.errors)
        errors += sample.errors
    failed += bool(errors) and not failed
    metrics = end_to_end(
        w, samples, setup=setup, jobs_per_min=jobs_per_min, failed=failed
    )
    return {
        "samples": samples,
        "setup": setup,
        "kernel": meter.readings,
        "metrics": metrics,
        "errors": errors,
        "attempted": max(1, len(samples)),
        "failed": failed,
    }


def traced_run(w, seeds, seconds: float, scratch: Path) -> dict:
    """The traced run: per-layer ledger, overhead, and the gate
    (traced placements must match untraced ones)."""
    from perfbench import gate
    from perfbench.ledger import layer_metrics
    from perfbench.speed import Speedometer
    from perfbench.workloads import (
        TIME_LIMIT,
        run_flow_traced,
        run_service_mix,
    )

    service: dict[str, float] = {}
    if w.kind == "service":
        meter = Speedometer()
        plain = run_service_mix(
            w, seeds, seconds / 2, scratch / "service-untraced", meter
        )
        mix = run_service_mix(
            w, seeds, seconds / 2, scratch / "service-traced", meter,
            trace_jobs=True,
        )
        untraced, traced_samples = plain["samples"], mix["samples"]
        spans, missing = mix["spans"], mix["missing"]
        extra_errors = plain["errors"] + mix["errors"]
        service = service_metrics(mix)
        baseline = None
    else:
        res = run_flow_traced(w, seeds, seconds)
        untraced, traced_samples = res["untraced"], res["traced"]
        spans, missing = res["spans"], res["missing"]
        baseline = res["baseline"]
        extra_errors = []

    book = gate.DigestBook()
    samples = untraced + traced_samples
    failed = 0
    for sample in samples:
        sample.errors += book.record(sample.key, sample.digest)
    if baseline is not None:
        samples.append(baseline)
    errors = list(extra_errors)
    for sample in samples:
        failed += bool(sample.errors)
        errors += sample.errors

    metrics = layer_metrics(spans, time_limit=TIME_LIMIT)
    flows = [s for s in spans if s.name == "flow"]
    metrics["flow.flow_s"] = statistics.fmean(s.wall_seconds for s in flows)
    metrics["flow.opt_s"] = statistics.fmean(
        s.wall_seconds for s in spans if s.name == "opt"
    ) if any(s.name == "opt" for s in spans) else 0.0
    metrics["runtime.dispatch_s"] += statistics.fmean(
        s.shard_dispatch_s for s in traced_samples
    )
    speedup = 0.0
    if baseline is not None:
        sharded = [s for s in untraced if s.key[1] == baseline.key[1]]
        speedup = baseline.opt_s / sharded[0].opt_s
    metrics["shard.speedup_vs_serial"] = speedup
    metrics["shard.parallel_efficiency"] = speedup / w.jobs if speedup else 0.0
    for name, _unit in PER_LAYER:
        if name.startswith("service."):
            metrics[name] = service.get(name, 0.0)
    metrics["obs.trace_overhead_pct"] = trace_overhead_pct(
        untraced, traced_samples
    )
    if metrics["milp.time_limited"]:
        errors.append(f"{metrics['milp.time_limited']:g} time-limited solves")
        failed += 1
    if failed == 0 and errors:
        failed = 1
    return {
        "samples": samples,
        "metrics": metrics,
        "errors": errors,
        "missing": missing,
        "attempted": max(1, len(samples)),
        "failed": failed,
    }


def trace_overhead_pct(untraced, traced_samples) -> float:
    """Traced versus untraced flow time over the designs run both ways."""
    plain: dict[tuple, list[float]] = {}
    for s in untraced:
        plain.setdefault(s.key, []).append(s.flow_s)
    pairs = [
        (statistics.fmean(plain[s.key]), s.flow_s)
        for s in traced_samples
        if s.key in plain
    ]
    base = sum(p for p, _ in pairs)
    return 100.0 * (sum(t for _, t in pairs) - base) / base if base else 0.0


def service_metrics(mix: dict) -> dict[str, float]:
    """Service-layer numbers of a mix: client submit time, claim wait,
    journal writes per job, and latency beyond the flow itself."""
    records = mix["records"]
    log = mix["log"]
    samples = mix["samples"]
    ids = [r.job_id for r in records]
    checkpoints = [log.checkpoints.get(i, (0, 0.0, 0)) for i in ids]
    writes = sum(c[0] for c in checkpoints)
    return {
        "service.submit_ms": 1e3 * statistics.median(r.submit_s for r in records),
        "service.claim_wait_s": statistics.fmean(r.claim_wait_s for r in records),
        "service.checkpoints": statistics.fmean(c[0] for c in checkpoints),
        "service.checkpoints_min": min(c[0] for c in checkpoints),
        "service.checkpoint_bytes": (
            sum(c[2] for c in checkpoints) / writes if writes else 0.0
        ),
        "service.checkpoint_s": statistics.fmean(c[1] for c in checkpoints),
        "service.events": statistics.fmean(log.events.get(i, 0) for i in ids),
        "service.overhead_s": statistics.fmean(
            s.latency_s - s.flow_s for s in samples
        ),
    }


# -------------------------------------------------------------- output
def table(w, args, report, declared) -> list[str]:
    """Human-readable lines: every metric with its unit and count."""
    from perfbench.ledger import summarize

    samples = report["samples"]
    designs = len({s.key for s in samples})
    lines = [
        f"# {w.name} seed={args.seed} trace={args.trace} "
        f"samples={len(samples)} designs={designs} "
        f"attempted={report['attempted']} failed={report['failed']}"
    ]
    metrics = report["metrics"]
    for name, unit in declared:
        lines.append(
            f"{name:28s} {metrics[name]:14.6g} {unit:6s} n={len(samples)}"
        )
    if not args.trace:
        lines.append("# table only (not bounded)")
        for name in (
            "failed_ops_ratio",
            "drv_final",
            "dm1_gain_pct",
            "flow_s_measured",
            "drawn_flow_s",
        ):
            lines.append(f"{name:28s} {metrics[name]:14.6g}")
        lines.append(
            "# distributions: median, tail percentile, n "
            "(setup normalized; flows and jobs as measured)"
        )
        dists = {
            "setup_s": report["setup"],
            "kernel_s": report["kernel"],
            "latency_s": [s.latency_s for s in samples],
            "flow_s": [s.flow_s for s in samples],
            "opt_s": [s.opt_s for s in samples],
        }
        for name, values in dists.items():
            doc = summarize(values)
            tail = (
                f"p{doc['tail_pct']:g}={doc['tail']:.4f}"
                if "tail" in doc
                else "tail=n/a(<20)"
            )
            lines.append(
                f"{name:28s} median={doc['median']:.4f} {tail} n={doc['n']}"
            )
    for error in report["errors"][:20]:
        lines.append(f"FAIL {error}")
    for target in report.get("missing", ()):
        lines.append(f"WARN probe target missing: {target}")
    return lines


def run(args) -> tuple[list[str], dict, bool]:
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"no program sources under {ROOT / 'src'}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import (
        WORKLOADS,
        fresh_dir,
        suite_seeds,
        warm_up,
    )

    if args.workload not in WORKLOADS:
        raise SystemExit(
            f"unknown workload {args.workload!r}; "
            f"choose from {', '.join(WORKLOADS)}"
        )
    w = WORKLOADS[args.workload]
    seeds = suite_seeds(w, args.seed)
    scratch = fresh_dir(OUT / f"{w.name}-{args.seed}-{os.getpid()}")
    try:
        warm_up(w)
        if args.trace:
            report = traced_run(w, seeds, args.seconds, scratch)
            declared = PER_LAYER
        else:
            report = measured_run(w, seeds, args.seconds, scratch)
            declared = END_TO_END
    finally:
        import shutil

        shutil.rmtree(scratch, ignore_errors=True)
    doc = {
        "correct": report["failed"] == 0 and not report["errors"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": float(report["metrics"][name]), "unit": unit}
            for name, unit in declared
        },
    }
    return table(w, args, report, declared), doc, doc["correct"]


def reap_children(timeout: float = 30.0) -> None:
    """Join every child process still around (pool workers exit after
    their executor drains; this waits for the stragglers)."""
    deadline = time.monotonic() + timeout
    for child in multiprocessing.active_children():
        child.join(max(0.0, deadline - time.monotonic()))


def main(argv=None) -> int:
    args = parse_args(argv)
    # Solver libraries print to the process's stdout; keep it for the
    # report by pointing fd 1 at stderr while the workload runs.
    sys.stdout.flush()
    saved = os.dup(1)
    os.dup2(2, 1)
    try:
        lines, doc, correct = run(args)
        reap_children()
    finally:
        sys.stdout.flush()
        os.dup2(saved, 1)
        os.close(saved)
    print("\n".join(lines))
    print(json.dumps(doc), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
