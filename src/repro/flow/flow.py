"""Flow orchestration and Table 2 row extraction."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple

from repro.core.params import OptParams, ParamSet
from repro.core.vm1opt import VM1OptResult, vm1_opt
from repro.obs.trace import recording, span
from repro.runtime import EXECUTOR_KINDS, RunTelemetry, make_executor
from repro.runtime.telemetry import pass_entry
from repro.library import Library, build_library
from repro.netlist import DESIGN_PROFILES, Design, generate_design
from repro.placement import place_design
from repro.routing import DetailedRouter, RouteMetrics, RouterConfig
from repro.shard.partition import resolve_shard_count
from repro.shard.runner import ShardRunResult, run_sharded
from repro.tech import CellArchitecture, Technology, make_tech
from repro.timing import (
    PowerReport,
    TimingReport,
    analyze_timing,
    estimate_power,
)


class FlowOption(NamedTuple):
    """How one user-settable :class:`FlowConfig` field is read from a
    job spec or a command line, and the values it may take."""

    #: JSON value or command-line text -> field value; raises
    #: ``TypeError``/``ValueError`` for a value of the wrong type.
    coerce: Callable[[Any], Any]
    #: the valid values, in words.
    rule: str
    valid: Callable[[Any], bool] = lambda value: True
    #: the names a field that takes one of a few names accepts.
    choices: tuple[str, ...] = ()

    def parse(self, value):
        """``value`` coerced and range-checked; ``ValueError`` saying
        ``must be <rule>, got <value>`` otherwise."""
        try:
            parsed = self.coerce(value)
            if self.valid(parsed):
                return parsed
        except (TypeError, ValueError):
            pass
        raise ValueError(f"must be {self.rule}, got {value!r}")


def _strict(kind: type) -> Callable[[Any], Any]:
    """``kind(value)``, but a bool only for a bool field (``True`` is an
    int to Python, not a count to a user)."""

    def coerce(value):
        if isinstance(value, bool) != (kind is bool):
            raise TypeError(value)
        return kind(value)

    return coerce


_int, _float = _strict(int), _strict(float)


def _one_of(choices: tuple[str, ...]) -> FlowOption:
    return FlowOption(
        _strict(str), f"one of {choices}", choices.__contains__, choices
    )


def _shards(value) -> int | str:
    return value if value == "auto" else _int(value)


_POSITIVE = FlowOption(_float, "a number > 0", lambda v: v > 0)
_COUNT = FlowOption(_int, "an integer >= 0", lambda v: v >= 0)
_ARCHS = tuple(arch.value for arch in CellArchitecture)

#: The user-settable :class:`FlowConfig` fields.  ``FlowConfig`` checks
#: them on construction, :meth:`FlowConfig.from_spec` accepts exactly
#: these keys, and the CLI's option types come from here.
FLOW_OPTIONS: dict[str, FlowOption] = {
    "profile": _one_of(tuple(DESIGN_PROFILES)),
    "arch": FlowOption(CellArchitecture, f"one of {_ARCHS}", choices=_ARCHS),
    "scale": _POSITIVE,
    "utilization": FlowOption(
        _float, "a number in (0, 1]", lambda v: 0 < v <= 1
    ),
    # NumPy's RandomState takes seeds in [0, 2**32).
    "seed": FlowOption(
        _int, "an integer in [0, 2**32)", lambda v: 0 <= v < 2**32
    ),
    "window_um": _POSITIVE,
    "lx": _COUNT,
    "ly": _COUNT,
    "time_limit": _POSITIVE,
    "executor": _one_of(EXECUTOR_KINDS),
    "jobs": FlowOption(_int, "a positive integer", lambda v: v >= 1),
    "timing_driven": FlowOption(_strict(bool), "true or false"),
    "shards": FlowOption(
        _shards, "a positive integer or 'auto'",
        lambda v: v == "auto" or v >= 1,
    ),
    "halo_rows": _COUNT,
}


@dataclass
class FlowConfig:
    """Configuration for one end-to-end run.

    Construction coerces and checks every field of
    :data:`FLOW_OPTIONS` and raises ``ValueError`` naming the first
    field out of range.

    Attributes:
        profile: benchmark profile name (``m0``/``aes``/``jpeg``/
            ``vga``, the keys of :data:`repro.netlist.DESIGN_PROFILES`).
        arch: cell architecture (selects library + MILP formulation);
            its value string is accepted too.
        scale: instance-count scale; 1.0 = paper-size (see DESIGN.md
            on default scaling for Python/HiGHS tractability).
        utilization: placement utilization target, in (0, 1].
        seed: RNG seed for generation and placement.
        params: optimizer parameters; None = paper defaults for the
            architecture with ``window_um`` square windows.
        window_um: window size used when ``params`` is None.
        lx/ly: perturbation range used when ``params`` is None.
        time_limit: per-window MILP time limit in seconds, used when
            ``params`` is None.
        router: router configuration shared by init/final routing.
        optimize: run VM1Opt (False = route-only baseline run).
        timing_driven: derive per-net β weights from the initial STA
            (criticality-weighted HPWL — the paper's §6 future work
            (ii)); ignored when ``params`` is supplied explicitly.
        executor: window-solve executor kind (``serial`` / ``thread``
            / ``process`` / ``auto``; see :mod:`repro.runtime`).
        jobs: worker count for pool executors; 1 = serial.
        shards: region-shard count for full-chip scale-out — a
            positive int or ``"auto"`` (sized from the design and
            ``jobs``; see :func:`repro.shard.resolve_shard_count`).
            ``1`` (the default) runs the classic unsharded optimizer
            and is byte-identical to releases without the shard layer.
        halo_rows: frozen ghost rows around each shard's core band
            (ignored when the resolved shard count is 1).

    Every window model is built already reduced (DESIGN.md §7), and the
    window memo always runs; the switch that turns it off is
    ``vm1_opt``'s (see DESIGN.md §11).
    """

    profile: str = "aes"
    arch: CellArchitecture = CellArchitecture.CLOSED_M1
    scale: float = 0.05
    utilization: float = 0.75
    seed: int = 1
    params: OptParams | None = None
    window_um: float = 1.25
    lx: int = 4
    ly: int = 1
    time_limit: float = 5.0
    router: RouterConfig = field(default_factory=RouterConfig)
    optimize: bool = True
    timing_driven: bool = False
    executor: str = "auto"
    jobs: int = 1
    shards: int | str = 1
    halo_rows: int = 2

    def __post_init__(self) -> None:
        for name, option in FLOW_OPTIONS.items():
            try:
                setattr(self, name, option.parse(getattr(self, name)))
            except ValueError as exc:
                raise ValueError(f"{name} {exc}") from None

    @classmethod
    def from_spec(cls, spec: dict) -> "FlowConfig":
        """Build a config from a JSON object whose keys are
        :data:`FLOW_OPTIONS` fields; absent fields keep their defaults.

        Raises ``ValueError`` for a spec that is not an object, an
        unknown key, or a value of the wrong type or out of range.
        """
        if not isinstance(spec, dict):
            raise ValueError("spec must be a JSON object")
        unknown = sorted(set(spec) - set(FLOW_OPTIONS))
        if unknown:
            raise ValueError(
                f"unknown spec field(s): {', '.join(unknown)}; "
                f"allowed: {', '.join(sorted(FLOW_OPTIONS))}"
            )
        return cls(**spec)

    def resolved_params(self, tech: Technology) -> OptParams:
        if self.params is not None:
            return self.params
        return OptParams.for_arch(
            self.arch,
            sequence=(
                ParamSet.square(self.window_um, self.lx, self.ly),
            ),
            time_limit=self.time_limit,
        )


@dataclass
class FlowResult:
    """Everything one flow run produced."""

    config: FlowConfig
    design: Design
    library: Library
    init_route: RouteMetrics
    init_timing: TimingReport
    init_power: PowerReport
    opt: VM1OptResult | None = None
    #: populated only when the run actually sharded (resolved >= 2);
    #: ``opt`` then holds ``shard.to_vm1_result()``.
    shard: "ShardRunResult | None" = None
    final_route: RouteMetrics | None = None
    final_timing: TimingReport | None = None
    final_power: PowerReport | None = None
    #: the ``opt`` stage's telemetry, sharded or not (None only when
    #: the flow did not optimize).
    telemetry: RunTelemetry | None = None
    place_seconds: float = 0.0
    total_seconds: float = 0.0

    @property
    def num_instances(self) -> int:
        return len(self.design.instances)


def run_flow(
    config: FlowConfig,
    *,
    progress=None,
    checkpoint_sink=None,
    resume=None,
    shard_checkpoint_dir=None,
    shard_resume=False,
) -> FlowResult:
    """Run the complete flow described by ``config``.

    Args:
        config: flow configuration.
        progress: optional callable ``(stage, info)`` invoked at stage
            boundaries (``generate`` / ``place`` / ``route_init`` /
            ``route_final``) and after every DistOpt pass (stage
            ``pass``, with the pass's ``repro.runtime.telemetry/v5``
            pass entry as ``info``).  A ``progress`` callback may raise to
            abort the run cooperatively (the service uses this for
            cancellation and graceful shutdown); the raise happens
            *after* the pass checkpoint was handed to
            ``checkpoint_sink``, so the abort point is always
            resumable.
        checkpoint_sink: optional callable receiving a
            :class:`~repro.core.checkpoint.VM1Checkpoint` after every
            completed DistOpt pass.
        resume: optional checkpoint to continue from.  Generation,
            placement, and the initial route re-run (they are
            deterministic in ``config.seed``); the optimizer then
            restores the checkpointed placement and skips every
            already-completed pass, finishing with a placement
            byte-identical to an uninterrupted run.
        shard_checkpoint_dir: directory for shard-granular crash-safe
            state when the run shards (resolved ``config.shards`` >=
            2); see :class:`repro.shard.ShardCheckpointStore`.
            ``checkpoint_sink``/``resume`` govern the unsharded path,
            this pair governs the sharded one.
        shard_resume: continue a sharded run from
            ``shard_checkpoint_dir`` (finished shards fast-forward,
            the interrupted shard resumes from its pass checkpoint).

    A sharded run reports extra ``progress`` stages (``shard_plan`` /
    ``shard`` / ``seam`` / ``stitch``) instead of per-pass entries,
    and fills ``FlowResult.shard``.

    The flow records spans into an in-memory tracer when no tracer is
    active, and ``FlowResult.telemetry`` is the view of its ``opt``
    subtree (see :class:`repro.obs.trace.recording`).
    """
    started = time.perf_counter()
    with recording() as recorder, span(
        "flow",
        profile=str(config.profile),
        arch=config.arch.value,
        scale=config.scale,
        seed=config.seed,
        executor=config.executor,
        jobs=config.jobs,
        resumed=resume is not None or shard_resume,
    ) as flow_span:
        with span("generate") as stage:
            tech = make_tech(config.arch)
            library = build_library(tech)
            design = generate_design(
                config.profile,
                tech,
                library,
                scale=config.scale,
                utilization=config.utilization,
                seed=config.seed,
            )
            stage.set(
                instances=len(design.instances),
                nets=len(design.nets),
            )
        if progress is not None:
            progress(
                "generate",
                {
                    "design": design.name,
                    "instances": len(design.instances),
                    "nets": len(design.nets),
                },
            )
        t_place = time.perf_counter()
        with span("place"):
            place_design(design, seed=config.seed)
        place_seconds = time.perf_counter() - t_place
        if progress is not None:
            progress("place", {"seconds": place_seconds})

        with span("route_init") as stage:
            router = DetailedRouter(design, config.router)
            init_route = router.route()
            init_timing = analyze_timing(
                design, init_route.net_lengths
            )
            init_power = estimate_power(
                design, init_route.net_lengths
            )
            stage.set(
                num_drvs=init_route.num_drvs,
                num_dm1=init_route.num_dm1,
            )
        if progress is not None:
            progress(
                "route_init",
                {
                    "num_drvs": init_route.num_drvs,
                    "hpwl": init_route.hpwl,
                    "num_dm1": init_route.num_dm1,
                },
            )

        result = FlowResult(
            config=config,
            design=design,
            library=library,
            init_route=init_route,
            init_timing=init_timing,
            init_power=init_power,
            place_seconds=place_seconds,
        )
        if config.optimize:
            params = config.resolved_params(tech)
            if config.timing_driven and config.params is None:
                from dataclasses import replace

                from repro.timing.criticality import criticality_weights

                params = replace(
                    params,
                    net_beta=criticality_weights(design, init_timing),
                )
            num_shards = resolve_shard_count(
                design, config.shards, config.jobs, config.halo_rows
            )
            with span("opt", shards=num_shards) as opt_span:
                if num_shards >= 2:
                    result.shard = run_sharded(
                        design,
                        params,
                        shards=num_shards,
                        halo_rows=config.halo_rows,
                        jobs=config.jobs,
                        executor=config.executor,
                        checkpoint_dir=shard_checkpoint_dir,
                        resume=shard_resume,
                        progress=progress,
                    )
                    result.opt = result.shard.to_vm1_result()
                    opt_span.set(
                        executor=result.shard.shard_executor,
                        jobs=result.shard.shard_workers,
                    )
                else:
                    result.opt = _run_unsharded(
                        config,
                        design,
                        params,
                        opt_span,
                        recorder,
                        progress=progress,
                        checkpoint_sink=checkpoint_sink,
                        resume=resume,
                    )
                opt_span.set(**result.opt.totals())
            spans = recorder.spans_under(opt_span)
            if result.shard is not None:
                spans += result.shard.replayed_spans
            result.telemetry = RunTelemetry.from_spans(spans)
            result.telemetry.trace_id = recorder.trace_id
            with span("route_final") as stage:
                final_router = DetailedRouter(design, config.router)
                result.final_route = final_router.route()
                result.final_timing = analyze_timing(
                    design,
                    result.final_route.net_lengths,
                    clock_period_ps=init_timing.clock_period_ps,
                )
                result.final_power = estimate_power(
                    design, result.final_route.net_lengths
                )
                stage.set(
                    num_drvs=result.final_route.num_drvs,
                    num_dm1=result.final_route.num_dm1,
                )
            if progress is not None:
                progress(
                    "route_final",
                    {
                        "num_drvs": result.final_route.num_drvs,
                        "hpwl": result.final_route.hpwl,
                        "num_dm1": result.final_route.num_dm1,
                    },
                )
        flow_span.set(instances=len(design.instances))
    result.total_seconds = time.perf_counter() - started
    return result


def _run_unsharded(
    config: FlowConfig,
    design: Design,
    params: OptParams,
    opt_span,
    recorder: recording,
    *,
    progress,
    checkpoint_sink,
    resume,
) -> VM1OptResult:
    """The classic single-region optimizer path (shards resolved to 1).

    Kept as its own function so the sharded branch cannot perturb it:
    this path is what every byte-identity expectation in the test
    suite pins.
    """
    with make_executor(config.executor, config.jobs) as executor:
        opt_span.set(executor=executor.name, jobs=executor.jobs)
        vm1_progress = None
        if progress is not None:

            def vm1_progress(kind, _pass_result):
                # The event is the telemetry pass entry of the
                # ``distopt`` span that just finished.
                last = next(
                    s
                    for s in reversed(recorder.tracer.spans)
                    if s.name == "distopt"
                )
                progress("pass", {**pass_entry(last), "kind": kind})

        return vm1_opt(
            design,
            params,
            executor=executor,
            progress=vm1_progress,
            checkpoint_sink=checkpoint_sink,
            resume=resume,
        )


def _pct(init: float, final: float) -> float:
    return 100.0 * (final - init) / init if init else 0.0


def table2_row(result: FlowResult) -> dict[str, float | str]:
    """One Table 2 row (init/final/Δ% per metric) from a flow run."""
    init = result.init_route
    final = result.final_route
    if final is None:
        raise ValueError("flow ran without optimization")
    um = result.design.tech.dbu_per_micron
    return {
        "design": result.config.profile,
        "arch": result.config.arch.value,
        "#inst": result.num_instances,
        "util": result.config.utilization,
        "#dM1 init": init.num_dm1,
        "#dM1 final": final.num_dm1,
        "#dM1 %": _pct(max(init.num_dm1, 1), final.num_dm1),
        "M1WL init (um)": init.m1_wirelength / um,
        "M1WL final (um)": final.m1_wirelength / um,
        "M1WL %": _pct(init.m1_wirelength, final.m1_wirelength),
        "#via12 init": init.num_via12,
        "#via12 final": final.num_via12,
        "#via12 %": _pct(init.num_via12, final.num_via12),
        "HPWL init (um)": init.hpwl / um,
        "HPWL final (um)": final.hpwl / um,
        "HPWL %": _pct(init.hpwl, final.hpwl),
        "RWL init (um)": init.routed_wirelength / um,
        "RWL final (um)": final.routed_wirelength / um,
        "RWL %": _pct(init.routed_wirelength, final.routed_wirelength),
        "WNS init (ns)": result.init_timing.wns_ns,
        "WNS final (ns)": (
            result.final_timing.wns_ns if result.final_timing else 0.0
        ),
        "power init (mW)": result.init_power.total_mw,
        "power final (mW)": (
            result.final_power.total_mw if result.final_power else 0.0
        ),
        "power %": _pct(
            result.init_power.total_mw,
            result.final_power.total_mw if result.final_power else 0.0,
        ),
        "#DRV init": init.num_drvs,
        "#DRV final": final.num_drvs,
        "runtime (s)": result.opt.wall_seconds if result.opt else 0.0,
        "runtime parallel-model (s)": (
            result.opt.modeled_parallel_seconds if result.opt else 0.0
        ),
        "runtime parallel-measured (s)": (
            result.opt.measured_parallel_seconds if result.opt else 0.0
        ),
    }
