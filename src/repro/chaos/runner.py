"""Chaos differential runner: faulted vs clean, plus fuzz + shrink.

The heart of the chaos tier: :func:`run_chaos_case` executes one
:class:`~repro.chaos.plan.FaultPlan` against a real VM1Opt workload
twice — once clean, once with the controller installed — and checks
the **invariant ladder** the previous PRs promised in prose:

1. *Something fired.*  A plan whose triggers never fire proves
   nothing; the case fails loudly instead of vacuously passing.
2. *Byte-identical convergence.*  Every fault in the corpus is
   recoverable (retry, serial fallback, or checkpoint resume), so the
   faulted run's final placement must equal the clean run's exactly,
   and must be legal by the independent oracle.
3. *Faults are visible.*  Injected fault counts surface in the
   telemetry ``repro_run_faults_injected_total`` counter; retried
   window faults bump ``repro_run_retries_total``; fault actions that
   produce a failed solve attempt leave ``error:``-status spans in
   the trace.  Only rules that fired owe this evidence
   (:meth:`~repro.chaos.inject.ChaosController.fired_rules`): a
   declared rule may never fire.

:func:`run_fuzz` generates seeded random plans from the recoverable
templates, runs each case, and delta-debug-shrinks any failing plan
to a minimal reproducer (saved as JSON for CI artifact upload).

Heavy imports (netlist, core, runtime) are local to this module;
callers import it lazily so ``repro.chaos`` itself stays light.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

from repro.chaos.inject import ChaosController, ChaosFault, chaos_scope
from repro.chaos.plan import FaultPlan, FaultRule

#: (site, action) pairs whose recovery path is a same-run retry of the
#: faulted window; these must bump ``repro_run_retries_total``.
RETRIED_ACTIONS = frozenset(
    (
        ("runtime.worker", "raise"),
        ("runtime.worker", "crash"),
        ("runtime.result", "lost"),
        ("runtime.result", "poison"),
        ("milp.solve", "error"),
        ("milp.solve", "infeasible"),
    )
)

#: (site, action) pairs whose failed attempt produces a synthesized
#: worker span with ``error:`` status (crash/poison abort before span
#: synthesis or lose the spans in transit, so they are excluded).
ERROR_SPAN_ACTIONS = frozenset(
    (
        ("runtime.worker", "raise"),
        ("runtime.result", "lost"),
        ("milp.solve", "error"),
        ("milp.solve", "infeasible"),
    )
)

#: In-process resume attempts allowed per case before declaring the
#: plan unrecoverable (a barrier rule without ``max_fires`` could
#: otherwise re-kill every resume forever).
MAX_RESUME_ATTEMPTS = 3


@dataclass
class ChaosCaseResult:
    """Outcome of one plan through the differential runner."""

    plan: FaultPlan
    converged: bool
    errors: list[str] = field(default_factory=list)
    #: cumulative fires per site over the whole faulted run.
    fires: dict[str, int] = field(default_factory=dict)
    #: telemetry ``counters`` section of the faulted run.
    counters: dict = field(default_factory=dict)
    resume_attempts: int = 0
    error_spans: int = 0

    def summary(self) -> dict:
        return {
            "converged": self.converged,
            "errors": list(self.errors),
            "fires": dict(self.fires),
            "resume_attempts": self.resume_attempts,
            "error_spans": self.error_spans,
        }


def _case_design(profile: str, scale: float, seed: int):
    from repro.library import build_library
    from repro.netlist import generate_design
    from repro.placement import place_design
    from repro.tech import CellArchitecture, make_tech

    tech = make_tech(CellArchitecture.CLOSED_M1)
    library = build_library(tech)
    design = generate_design(
        profile, tech, library, scale=scale, seed=seed
    )
    place_design(design, seed=seed + 1)
    return design


def run_chaos_case(
    plan: FaultPlan,
    *,
    profile: str = "m0",
    scale: float = 0.01,
    seed: int = 2,
    time_limit: float = 1.0,
) -> ChaosCaseResult:
    """Run one fault plan faulted-vs-clean; assert the invariant
    ladder.  ``plan.run`` hints override the workload knobs."""
    from repro.core import OptParams
    from repro.core.vm1opt import vm1_opt
    from repro.obs.trace import Tracer, tracer_scope
    from repro.runtime import RunTelemetry, make_executor

    hints = plan.run
    profile = str(hints.get("profile", profile))
    scale = float(hints.get("scale", scale))
    time_limit = float(hints.get("time_limit", time_limit))
    executor_kind = str(hints.get("executor", "serial"))
    jobs = int(hints.get("jobs", 1))

    clean_design = _case_design(profile, scale, seed)
    params = OptParams.for_arch(
        clean_design.tech.arch, time_limit=time_limit
    )
    clean = vm1_opt(clean_design, params)
    clean_snapshot = clean_design.placement_snapshot()

    controller = ChaosController(plan=plan)
    telemetry = RunTelemetry(executor=executor_kind, jobs=jobs)
    tracer = Tracer()
    result = ChaosCaseResult(plan=plan, converged=False)
    faulted_design = _case_design(profile, scale, seed)
    checkpoints: list = []
    faulted = None
    with make_executor(executor_kind, jobs) as executor:
        with tracer_scope(tracer), chaos_scope(controller):
            resume = None
            for _attempt in range(MAX_RESUME_ATTEMPTS + 1):
                try:
                    faulted = vm1_opt(
                        faulted_design,
                        params,
                        executor=executor,
                        telemetry=telemetry,
                        checkpoint_sink=checkpoints.append,
                        resume=resume,
                    )
                    break
                except ChaosFault as fault:
                    # A barrier (or shard) fault escaped the run —
                    # the crash-resume rung.  Resume exactly as the
                    # service would: fresh design, last checkpoint.
                    result.resume_attempts += 1
                    if result.resume_attempts > MAX_RESUME_ATTEMPTS:
                        result.errors.append(
                            f"still faulting after "
                            f"{MAX_RESUME_ATTEMPTS} resumes: {fault}"
                        )
                        break
                    faulted_design = _case_design(
                        profile, scale, seed
                    )
                    resume = checkpoints[-1] if checkpoints else None
    # Drain fires the per-pass drains never saw (barrier faults fire
    # between passes; the last pass's drain precedes them).
    telemetry.record_faults(controller.drain_counts())

    result.fires = controller.fires_by_site()
    result.counters = telemetry.registry.to_dict()
    result.error_spans = sum(
        1
        for span in tracer.spans
        if str(span.status).startswith("error:")
    )
    _check_ladder(
        result,
        controller=controller,
        faulted=faulted,
        faulted_design=faulted_design,
        clean=clean,
        clean_snapshot=clean_snapshot,
    )
    result.converged = not result.errors
    return result


def _check_ladder(
    result: ChaosCaseResult,
    *,
    controller: ChaosController,
    faulted,
    faulted_design,
    clean,
    clean_snapshot,
) -> None:
    # Rung 1: the plan actually did something.
    if controller.total_fires() == 0:
        result.errors.append(
            "no fault fired — the plan is vacuous for this workload"
        )
        return
    if faulted is None:
        # errors already recorded by the resume loop
        return
    # Rung 2: byte-identical convergence + independent legality.
    faulted_snapshot = faulted_design.placement_snapshot()
    if faulted_snapshot != clean_snapshot:
        diff = [
            name
            for name in clean_snapshot
            if faulted_snapshot.get(name) != clean_snapshot[name]
        ]
        result.errors.append(
            f"faulted placement differs from clean on "
            f"{len(diff)} cells: {diff[:5]}"
        )
    if faulted.final_objective != clean.final_objective:
        result.errors.append(
            f"faulted objective {faulted.final_objective!r} != "
            f"clean {clean.final_objective!r}"
        )
    legality = faulted_design.check_legal()
    if legality:
        result.errors.append(
            f"faulted placement is illegal: {legality[:3]}"
        )
    # Rung 3: the faults are visible in telemetry and traces.
    # ``repro_run_faults_injected_total`` has one label (site), so
    # ``to_dict`` renders it as ``{site: count}``; the retries counter
    # is unlabeled and renders as a scalar.
    injected = result.counters.get(
        "repro_run_faults_injected_total", {}
    )
    counted = sum(injected.values()) if injected else 0
    if counted != controller.total_fires():
        result.errors.append(
            f"telemetry counted {counted} injected faults, "
            f"controller fired {controller.total_fires()}"
        )
    # Only rules that actually fired owe evidence: a declared rule can
    # miss the call census or be pre-empted by another rule at the
    # same hook.
    actions = {
        (rule.site, rule.action) for rule in controller.fired_rules()
    }
    if actions & RETRIED_ACTIONS:
        retries = result.counters.get("repro_run_retries_total", 0)
        if not retries:
            result.errors.append(
                "retryable fault fired but telemetry records no "
                "retries"
            )
    if actions & ERROR_SPAN_ACTIONS and result.error_spans == 0:
        result.errors.append(
            "fault fired but no error:-status span reached the trace"
        )


# -- fuzzing ----------------------------------------------------------

#: Recoverable fault templates the fuzzer draws from.  Every entry
#: must converge byte-identically through retry or resume; hang /
#: timeout / kill actions are excluded (hangs and solver timeouts
#: degrade to dropped windows — correct but not byte-identical —
#: and kills need a subprocess harness; all covered by dedicated
#: tests, not the convergence fuzz).
FUZZ_TEMPLATES: tuple[dict, ...] = (
    {"site": "runtime.worker", "action": "raise"},
    {"site": "runtime.worker", "action": "crash"},
    {"site": "runtime.result", "action": "lost"},
    {"site": "milp.solve", "action": "error"},
    {"site": "milp.solve", "action": "infeasible"},
    {"site": "barrier", "action": "raise", "match": "checkpoint:"},
)


def generate_plan(seed: int) -> FaultPlan:
    """One seeded random plan from the recoverable templates."""
    rng = random.Random(seed)
    rules = []
    for template in rng.sample(
        FUZZ_TEMPLATES, k=rng.choice((1, 1, 2))
    ):
        rule = dict(template)
        if rng.random() < 0.7:
            rule["nth"] = rng.randint(1, 4)
        else:
            rule["probability"] = round(rng.uniform(0.2, 0.5), 3)
            rule["max_fires"] = rng.randint(1, 2)
        rules.append(FaultRule.from_dict(rule))
    return FaultPlan(seed=seed, faults=tuple(rules))


def shrink_plan(plan: FaultPlan, still_fails) -> FaultPlan:
    """Delta-debug a failing plan down to a minimal reproducer.

    ``still_fails(candidate)`` re-runs the case; a candidate that
    still fails replaces the current plan.  One-rule-at-a-time
    removal is enough at corpus scale (plans have <= 3 rules).
    """
    current = plan
    progress = True
    while progress and len(current.faults) > 1:
        progress = False
        for index in range(len(current.faults)):
            candidate = FaultPlan(
                seed=current.seed,
                faults=tuple(
                    rule
                    for j, rule in enumerate(current.faults)
                    if j != index
                ),
                run=dict(current.run),
            )
            if still_fails(candidate):
                current = candidate
                progress = True
                break
    return current


def run_fuzz(
    count: int,
    *,
    seed: int = 0,
    out_dir: str | Path | None = None,
    profile: str = "m0",
    scale: float = 0.01,
    case_seed: int = 2,
    time_limit: float = 1.0,
) -> dict:
    """Run ``count`` seeded random plans; shrink and save failures.

    Returns a summary dict (``ran`` / ``failed`` / ``artifacts``).
    Vacuous plans (no trigger fired for this workload) count as ran
    but are not failures — the fuzzer explores trigger space, and an
    nth beyond the call census is a miss, not a bug.
    """

    def case(plan: FaultPlan) -> ChaosCaseResult:
        return run_chaos_case(
            plan,
            profile=profile,
            scale=scale,
            seed=case_seed,
            time_limit=time_limit,
        )

    ran = 0
    failures: list[tuple[FaultPlan, ChaosCaseResult]] = []
    for index in range(count):
        plan = generate_plan(seed * 100_003 + index)
        outcome = case(plan)
        ran += 1
        vacuous = (
            not outcome.converged
            and len(outcome.errors) == 1
            and "vacuous" in outcome.errors[0]
        )
        if not outcome.converged and not vacuous:
            failures.append((plan, outcome))
    artifacts: list[str] = []
    for plan, outcome in failures:
        shrunk = shrink_plan(
            plan, lambda candidate: not case(candidate).converged
        )
        if out_dir is not None:
            out = Path(out_dir)
            out.mkdir(parents=True, exist_ok=True)
            path = out / f"failing_plan_seed{plan.seed}.json"
            path.write_text(shrunk.dumps())
            artifacts.append(str(path))
    return {
        "ran": ran,
        "failed": len(failures),
        "errors": [
            outcome.errors for _plan, outcome in failures
        ],
        "artifacts": artifacts,
    }
