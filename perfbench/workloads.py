"""The four workloads and the samples they produce.

Each workload turns ``--seed`` into a *suite* of designs: one drawn
from the workload name and the seed, then fixed reference designs.
Timing varies far more between designs than between runs of one
design, so a run covers the whole suite, and a timing is the geometric
mean over the reference designs of each design's median normalized
time (see perfbench/speed.py and ``reference_samples`` in
perfbench/run.py).  See perfbench/README.md for why each workload
exists and which layer it stresses.
"""

from __future__ import annotations

import contextlib
import random
import resource
import shutil
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.params import OptParams, ParamSet
from repro.core.vm1opt import vm1_opt
from repro.flow import FlowConfig, run_flow
from repro.library import build_library
from repro.lefdef.defio import apply_def_placement
from repro.netlist import generate_design
from repro.obs import trace as obs_trace
from repro.placement import place_design
from repro.routing import DetailedRouter, RouterConfig
from repro.runtime import RunTelemetry
from repro.service.client import ServiceClient
from repro.service.http import build_server
from repro.service.jobstore import JobStore
from repro.service.manager import flow_config_from_spec
from repro.tech import CellArchitecture, make_tech
import repro.timing as timing

from perfbench import gate
from perfbench.probes import instrumented
from perfbench.speed import Speedometer

#: Per-window solve limit.  The gate fails any solve that reaches it,
#: so it only has to sit well above the slowest healthy solve (under
#: 2 s at these sizes); 10 s keeps wall-clock time out of placements.
TIME_LIMIT = 10.0
WINDOW_UM = 1.0
UTILIZATION = 0.75
CLOSED = CellArchitecture.CLOSED_M1
OPEN = CellArchitecture.OPEN_M1


@dataclass(frozen=True)
class Workload:
    """One workload; why each exists is in perfbench/README.md."""

    name: str
    kind: str  # "flow", "tail" or "service"
    arch: CellArchitecture
    scale: float
    #: perturbation range in sites (lx) of the one parameter set.
    lx: int
    #: designs in the suite every run covers (service: job specs).
    designs: int
    shards: int = 1
    jobs: int = 1


# Sizes keep each design near 2 to 3 s on a 2-core box, so a run
# covers a suite of four or five designs once or more.  The service's
# four reference specs make two pairs of jobs.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("aes_closedm1_serial", "flow", CLOSED, 0.01, 3, 5),
        Workload(
            "aes_openm1_shard2", "flow", OPEN, 0.02, 3, 4, shards=2, jobs=2
        ),
        Workload("aes_closedm1_tail", "tail", CLOSED, 0.01, 3, 5),
        Workload("service_mix", "service", CLOSED, 0.01, 2, 5, jobs=2),
    )
}


#: Designs per suite drawn from ``--seed``; the rest are the
#: workload's reference designs, the same on every run.
FRESH_DESIGNS = 1


def reference_seeds(w: Workload) -> list[int]:
    """Generator seeds 1, 2, ... of the workload's reference designs."""
    return list(range(1, w.designs - FRESH_DESIGNS + 1))


def suite_seeds(w: Workload, seed: int) -> list[int]:
    """Generator seeds of the suite: fresh ones drawn from the workload
    name and ``--seed`` first (so the service mix always reaches them),
    then the reference designs."""
    rng = random.Random(f"{w.name}/{seed}")
    fresh = [rng.randrange(1000, 2**31) for _ in range(FRESH_DESIGNS)]
    return fresh + reference_seeds(w)


def cpu_now() -> float:
    """CPU seconds of this process plus its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


# ----------------------------------------------------------- samples
@dataclass
class Sample:
    """One flow (or service job): its timings, quality and verdict."""

    key: tuple
    latency_s: float
    flow_s: float
    opt_s: float
    cpu_s: float
    cells: int
    dm1: tuple[float, float]
    hpwl: tuple[float, float]
    rwl: tuple[float, float]
    via12: tuple[float, float]
    drv: tuple[float, float]
    objective: tuple[float, float]
    digest: str = ""
    errors: list[str] = field(default_factory=list)
    #: sharded runs: wall time the parent spent dispatching shards.
    shard_dispatch_s: float = 0.0
    #: normalized time = measured time * scale (perfbench/speed.py).
    scale: float = 1.0


def _route_quality(init, final) -> dict:
    return {
        "dm1": (init.num_dm1, final.num_dm1),
        "hpwl": (init.hpwl, final.hpwl),
        "rwl": (init.routed_wirelength, final.routed_wirelength),
        "via12": (init.num_via12, final.num_via12),
        "drv": (init.num_drvs, final.num_drvs),
    }


def flow_config(w: Workload, seed: int, *, shards=None, jobs=None) -> FlowConfig:
    jobs = w.jobs if jobs is None else jobs
    return FlowConfig(
        profile="aes",
        arch=w.arch,
        scale=w.scale,
        seed=seed,
        utilization=UTILIZATION,
        window_um=WINDOW_UM,
        lx=w.lx,
        ly=1,
        time_limit=TIME_LIMIT,
        executor="serial" if jobs == 1 else "auto",
        jobs=jobs,
        shards=w.shards if shards is None else shards,
    )


def run_flow_sample(w: Workload, seed: int, **overrides) -> Sample:
    """One ``run_flow`` call, timed, then checked."""
    config = flow_config(w, seed, **overrides)
    c0 = cpu_now()
    t0 = time.perf_counter()
    result = run_flow(config)
    latency = time.perf_counter() - t0
    cpu = cpu_now() - c0
    params = config.resolved_params(result.design.tech)
    errors = gate.check_design(
        result.design, params, result.opt.final_objective
    )
    shard_dispatch = 0.0
    if result.telemetry is not None:
        errors += gate.check_windows(result.telemetry.records, TIME_LIMIT)
    if result.shard is not None:
        # The sharded path leaves telemetry empty; count what the
        # shard outcomes and the seam pass do report.
        shard_dispatch = result.shard.shard_wall_seconds
        seam = result.shard.stitch.seam_pass
        bad = sum(
            o.windows_failed + o.windows_timed_out
            for o in result.shard.outcomes
        ) + (seam.windows_failed + seam.windows_timed_out if seam else 0)
        if bad:
            errors.append(f"{bad} failed or timed-out shard windows")
    return Sample(
        key=(config.arch.value, seed),
        latency_s=latency,
        flow_s=result.total_seconds,
        opt_s=result.opt.wall_seconds,
        cpu_s=cpu,
        cells=result.num_instances,
        objective=(result.opt.initial_objective, result.opt.final_objective),
        digest=gate.placement_digest(result.design),
        errors=errors,
        shard_dispatch_s=shard_dispatch,
        **_route_quality(result.init_route, result.final_route),
    )


def tail_params(w: Workload) -> OptParams:
    """One 1.0 um / ly 1 parameter set, listed twice: the second copy
    keeps converging past the optimizer's per-set iteration cap with
    the dirty tracker's state intact."""
    u = ParamSet.square(WINDOW_UM, w.lx, 1)
    return OptParams.for_arch(
        CLOSED, sequence=(u, u), time_limit=TIME_LIMIT, theta=1e-5
    )


def run_tail_sample(w: Workload, seed: int) -> Sample:
    """The flow's stages assembled from the public functions, with a
    fixed window grid (``enable_shift=False``) run to convergence."""
    span = obs_trace.span
    router = RouterConfig()
    params = tail_params(w)
    c0 = cpu_now()
    t0 = time.perf_counter()
    with span("flow", workload=w.name, seed=seed):
        with span("generate"):
            tech = make_tech(w.arch)
            library = build_library(tech)
            design = generate_design(
                "aes",
                tech,
                library,
                scale=w.scale,
                utilization=UTILIZATION,
                seed=seed,
            )
        with span("place"):
            place_design(design, seed=seed)
        with span("route_init"):
            init = DetailedRouter(design, router).route()
            init_timing = timing.analyze_timing(design, init.net_lengths)
            timing.estimate_power(design, init.net_lengths)
        telemetry = RunTelemetry()
        with span("opt"):
            t_opt = time.perf_counter()
            opt = vm1_opt(
                design, params, telemetry=telemetry, enable_shift=False
            )
            opt_s = time.perf_counter() - t_opt
        with span("route_final"):
            final = DetailedRouter(design, router).route()
            timing.analyze_timing(
                design,
                final.net_lengths,
                clock_period_ps=init_timing.clock_period_ps,
            )
            timing.estimate_power(design, final.net_lengths)
    latency = time.perf_counter() - t0
    cpu = cpu_now() - c0
    errors = gate.check_design(design, params, opt.final_objective)
    errors += gate.check_windows(telemetry.records, TIME_LIMIT)
    return Sample(
        key=(w.arch.value, seed),
        latency_s=latency,
        flow_s=latency,
        opt_s=opt_s,
        cpu_s=cpu,
        cells=len(design.instances),
        objective=(opt.initial_objective, opt.final_objective),
        digest=gate.placement_digest(design),
        errors=errors,
        **_route_quality(init, final),
    )


def warm_up(w: Workload) -> None:
    """One tiny unoptimized flow per architecture the workload runs, so
    the first measured flow pays no first-call costs in generation,
    placement, routing and timing (they are part of the set-up the
    probes time instead)."""
    archs = (CLOSED, OPEN) if w.kind == "service" else (w.arch,)
    for arch in archs:
        run_flow(
            FlowConfig(
                profile="aes",
                arch=arch,
                scale=0.005,
                optimize=False,
            )
        )


def run_sample(w: Workload, seed: int, **overrides) -> Sample:
    if w.kind == "tail":
        sample = run_tail_sample(w, seed)
    else:
        sample = run_flow_sample(w, seed, **overrides)
    print(
        f"sample {sample.key} latency={sample.latency_s:.3f}s "
        f"opt={sample.opt_s:.3f}s errors={len(sample.errors)}",
        file=sys.stderr,
        flush=True,
    )
    return sample


class traced:
    """Activate an in-memory tracer and the parent-side probes for one
    block; the spans are kept in ``self.spans`` afterwards."""

    def __init__(self) -> None:
        self.spans: list = []
        self.missing: list[str] = []
        self._probes = None

    def __enter__(self) -> "traced":
        self._probes = instrumented()
        self.missing = self._probes.__enter__()
        obs_trace.enable()
        return self

    def __exit__(self, *exc_info) -> None:
        tracer = obs_trace.disable()
        self._probes.__exit__(*exc_info)
        if tracer is not None:
            self.spans.extend(tracer.spans)


# ------------------------------------------------------- flow loops
def keep_going(done: int, elapsed: float, seconds: float, minimum: int) -> bool:
    """Whether to start piece ``done + 1`` of a run (a flow, or a pair
    of service jobs): always until ``minimum`` pieces (one pass over
    the suite) are done, then while it still fits in ``seconds`` at the
    mean piece time so far.  The reference designs are cycled, so one
    may run once more than another; :func:`design_times` takes each
    design's median, which a count of one or two runs does not bias."""
    return done < minimum or elapsed * (done + 1) / done <= seconds


def suite_order(seeds: list[int], index: int) -> int:
    """The design of a run's ``index``-th flow: the drawn designs once
    (they are checked, not timed), then the reference designs in turn."""
    if index < FRESH_DESIGNS:
        return seeds[index]
    reference = seeds[FRESH_DESIGNS:]
    return reference[(index - FRESH_DESIGNS) % len(reference)]


def run_flow_suite(
    w: Workload, seeds: list[int], seconds: float, meter: Speedometer
) -> list[Sample]:
    """The suite's designs in :func:`suite_order` (see
    :func:`keep_going`), each flow scaled by the reference kernel timed
    around it."""
    started = time.perf_counter()
    samples: list[Sample] = []
    while keep_going(
        len(samples), time.perf_counter() - started, seconds, len(seeds)
    ):
        sample = run_sample(w, suite_order(seeds, len(samples)))
        sample.scale = meter.scale()
        print(
            f"  normalized flow={sample.flow_s * sample.scale:.3f}s "
            f"kernel={meter.last:.4f}s",
            file=sys.stderr,
            flush=True,
        )
        samples.append(sample)
    return samples


def run_flow_traced(w: Workload, seeds: list[int], seconds: float) -> dict:
    """Untraced then traced run of the first design, and of the next
    ones while another pair fits in ``seconds``; the sharded workload
    also runs its first design once unsharded and serial."""
    started = time.perf_counter()
    untraced, traced_samples, spans, missing = [], [], [], []
    reserve = 0.0
    for seed in seeds:
        if untraced:
            pair = untraced[-1].latency_s + traced_samples[-1].latency_s
            if time.perf_counter() - started + pair + reserve > seconds:
                break
        untraced.append(run_sample(w, seed))
        with traced() as tr:
            traced_samples.append(run_sample(w, seed))
        spans.extend(tr.spans)
        missing = tr.missing
        if w.shards > 1:
            # The serial baseline has not run yet: keep room for it.
            reserve = w.jobs * untraced[0].latency_s
    baseline = None
    if w.shards > 1:
        baseline = run_flow_sample(w, seeds[0], shards=1, jobs=1)
    return {
        "untraced": untraced,
        "traced": traced_samples,
        "baseline": baseline,
        "spans": spans,
        "missing": missing,
    }


# ---------------------------------------------------------- service
@dataclass
class JobLog:
    """Per-job journal writes seen through the store (checkpoint
    count, seconds and bytes; events appended)."""

    checkpoints: dict = field(default_factory=dict)
    events: dict = field(default_factory=dict)
    lock: threading.Lock = field(default_factory=threading.Lock)

    def __enter__(self) -> "JobLog":
        write_checkpoint = JobStore.write_checkpoint
        append_event = JobStore.append_event
        log = self

        def timed_checkpoint(store, job_id, checkpoint):
            t0 = time.perf_counter()
            path = write_checkpoint(store, job_id, checkpoint)
            seconds = time.perf_counter() - t0
            size = path.stat().st_size
            with log.lock:
                n, s, b = log.checkpoints.get(job_id, (0, 0.0, 0))
                log.checkpoints[job_id] = (n + 1, s + seconds, b + size)
            return path

        def counted_event(store, job_id, event):
            with log.lock:
                log.events[job_id] = log.events.get(job_id, 0) + 1
            return append_event(store, job_id, event)

        self._originals = (write_checkpoint, append_event)
        JobStore.write_checkpoint = timed_checkpoint
        JobStore.append_event = counted_event
        return self

    def __exit__(self, *exc_info) -> None:
        JobStore.write_checkpoint, JobStore.append_event = self._originals


def service_specs(w: Workload, seeds: list[int]) -> list[dict]:
    """One job spec per design of the suite.  The architecture
    alternates, so jobs taken one after the other mostly differ."""
    specs = []
    for j, seed in enumerate(seeds):
        specs.append(
            {
                "profile": "aes",
                "arch": (OPEN if j % 2 else CLOSED).value,
                "scale": w.scale,
                "seed": seed,
                "window_um": WINDOW_UM,
                "lx": w.lx,
                "ly": 1,
                "time_limit": TIME_LIMIT,
                "executor": "serial",
                "jobs": 1,
            }
        )
    return specs


@dataclass
class JobRecord:
    spec: dict
    job_id: str
    submit_s: float
    latency_s: float
    state: str = ""
    claim_wait_s: float = 0.0
    result: dict | None = None
    scale: float = 1.0


def _run_job(api: ServiceClient, index: int, spec: dict) -> JobRecord:
    """One client's job: submit, wait until it ends, fetch the result."""
    t0 = time.perf_counter()
    job_id = api.submit(spec)
    submit_s = time.perf_counter() - t0
    status = api.wait(job_id, timeout=120.0, poll=0.05)
    last = time.perf_counter() - t0
    rec = JobRecord(spec, job_id, submit_s, last, status["state"])
    print(
        f"job {(spec['arch'], spec['seed'])} client={index} "
        f"latency={last:.3f}s state={rec.state}",
        file=sys.stderr,
        flush=True,
    )
    if status.get("started_at") and status.get("created_at"):
        rec.claim_wait_s = status["started_at"] - status["created_at"]
    if rec.state == "done":
        rec.result = api.result(job_id)
    return rec


def run_service_mix(
    w: Workload,
    seeds: list[int],
    seconds: float,
    root: Path,
    meter: Speedometer,
    *,
    trace_jobs: bool = False,
) -> dict:
    """Closed loop in lockstep: each of ``w.jobs`` client threads
    submits one job and waits for it; once every client's job is done
    the reference kernel is timed (perfbench/speed.py) and the next
    batch starts.  The drawn designs' jobs come first, one batch alone
    (checked, not timed); then batches take the reference specs in
    turn, at least one pass over them (see :func:`keep_going`), so
    every timed job runs beside another reference job.  Returns the job
    records, samples, batch times and journal log."""
    specs = service_specs(w, seeds)
    server = build_server(root, workers=w.jobs)
    serve = threading.Thread(target=server.serve_forever, daemon=True)
    serve.start()
    apis = [ServiceClient(server.url, timeout=60.0) for _ in range(w.jobs)]
    records: list[JobRecord] = []
    errors: list[str] = []
    # (wall seconds, scale, generator seeds of the pair's designs)
    batches: list[tuple[float, float, tuple]] = []

    def client(index: int, spec: dict, out: list) -> None:
        try:
            out[index] = _run_job(apis[index], index, spec)
        except Exception as exc:  # noqa: BLE001 — reported by the gate
            errors.append(f"client {index}: {exc!r}")

    # Journal writes and spans are recorded only in the traced run, so
    # the untraced mix runs the program as it is.
    log = JobLog()
    scope = traced()
    started = time.perf_counter()
    c0 = cpu_now()
    with contextlib.ExitStack() as stack:
        if trace_jobs:
            stack.enter_context(log)
            stack.enter_context(scope)
        try:
            drawn, reference = specs[:FRESH_DESIGNS], specs[FRESH_DESIGNS:]
            per_pass = 1 + -(-len(reference) // w.jobs)
            while keep_going(
                len(batches), time.perf_counter() - started, seconds, per_pass
            ):
                first = (len(batches) - 1) * w.jobs
                batch = drawn if not batches else [
                    reference[(first + i) % len(reference)]
                    for i in range(w.jobs)
                ]
                out: list[JobRecord | None] = [None] * w.jobs
                threads = [
                    threading.Thread(target=client, args=(i, spec, out))
                    for i, spec in enumerate(batch)
                ]
                t0 = time.perf_counter()
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                wall = time.perf_counter() - t0
                scale = meter.scale()
                batches.append((wall, scale, tuple(s["seed"] for s in batch)))
                for rec in out:
                    if rec is not None:
                        rec.scale = scale
                        records.append(rec)
            cpu = cpu_now() - c0
        finally:
            server.shutdown()
            server.manager.shutdown()
            server.server_close()
            serve.join()
    samples = [
        _job_sample(rec, server.store, cpu / max(1, len(records)))
        for rec in records
    ]
    return {
        "records": records,
        "samples": samples,
        "batches": batches,
        "errors": errors,
        "log": log,
        "spans": scope.spans,
        "missing": scope.missing,
    }


def _job_sample(rec: JobRecord, store: JobStore, cpu_s: float) -> Sample:
    """A finished job as a sample: timings and quality from its result
    doc, objectives from its last checkpoint, window solves from its
    journaled telemetry, and the gate run on the journaled DEF placed
    back onto the regenerated design."""
    errors = []
    row = (rec.result or {}).get("table2", {})
    if rec.state != "done" or not row:
        errors.append(f"job {rec.job_id}: state {rec.state}, no result doc")
    errors += [
        f"job {rec.job_id}: {e}"
        for e in gate.check_telemetry(
            store.load_telemetry(rec.job_id), TIME_LIMIT
        )
    ]
    checkpoint = store.load_checkpoint(rec.job_id)
    objective = (0.0, 0.0)
    digest = ""
    if checkpoint is None:
        errors.append(f"job {rec.job_id}: no checkpoint")
    else:
        objective = (checkpoint.initial_objective, checkpoint.objective)
    if not errors:
        config = flow_config_from_spec(rec.spec)
        tech = make_tech(config.arch)
        design = generate_design(
            config.profile,
            tech,
            build_library(tech),
            scale=config.scale,
            utilization=config.utilization,
            seed=config.seed,
        )
        place_design(design, seed=config.seed)
        def_text = store.artifact_path(rec.job_id, "post.def").read_text()
        apply_def_placement(design, def_text)
        errors += gate.check_design(
            design, config.resolved_params(tech), checkpoint.objective
        )
        digest = gate.placement_digest(design)

    def pair(name: str, unit: str = "") -> tuple[float, float]:
        return (
            float(row.get(f"{name} init{unit}", 0.0)),
            float(row.get(f"{name} final{unit}", 0.0)),
        )

    return Sample(
        key=(rec.spec["arch"], rec.spec["seed"]),
        latency_s=rec.latency_s,
        flow_s=float((rec.result or {}).get("total_seconds", 0.0)),
        opt_s=float(row.get("runtime (s)", 0.0)),
        cpu_s=cpu_s,
        cells=int(row.get("#inst", 0)),
        dm1=pair("#dM1"),
        hpwl=pair("HPWL", " (um)"),
        rwl=pair("RWL", " (um)"),
        via12=pair("#via12"),
        drv=pair("#DRV"),
        objective=objective,
        digest=digest,
        errors=errors,
        scale=rec.scale,
    )


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def design_times(
    samples: list[Sample], attr: str, *, normalized: bool = True
) -> list[float]:
    """Each design's median normalized (or measured) ``attr`` over its
    runs (a design's runs do the same work: the gate checks that they
    end in the same placement)."""
    groups: dict[tuple, list[float]] = {}
    for sample in samples:
        scale = sample.scale if normalized else 1.0
        groups.setdefault(sample.key, []).append(getattr(sample, attr) * scale)
    return [statistics.median(v) for v in groups.values()]
