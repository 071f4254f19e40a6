"""The differential runner: MILP vs oracle vs brute force, plus the
executor / resume / memo equivalence axes.

``run_case`` is the core: solve one window MILP to proven optimality,
then interrogate the applied placement with the independent oracles —
legality, fixed-cell respect, displacement bounds, d-variable honesty
(every claimed alignment must hold in real geometry), claimed-vs-
recomputed objective, and finally certification against the exhaustive
brute-force optimum.  A window passes only when the MILP's placement
achieves *exactly* the enumerated optimum: worse means the solver or
formulation lost an optimum, better means the model and the oracle
disagree about the objective — both are bugs.

The model solved is the one production solves: the window build
writes its reductions into the arrays itself, so the brute-force
certificate covers the reduced model.

``fuzz`` sweeps seeded generated cases through ``run_case``, shrinks
any failure to a minimal design, and writes a reproducer JSON into the
regression corpus.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.check.brute import brute_force_window
from repro.check.generators import CheckCase, generate_case
from repro.check.oracle import (
    check_displacement,
    check_fixed_unmoved,
    check_legal,
    oracle_objective,
    oracle_pin_interval,
    oracle_pin_point,
)
from repro.check.serialize import (
    case_from_doc,
    case_to_doc,
    clone_design,
    load_reproducer,
    save_reproducer,
)
from repro.core.checkpoint import VM1Checkpoint
from repro.core.distopt import dist_opt
from repro.core.formulation import apply_solution, build_window_model
from repro.core.params import OptParams, ParamSet
from repro.core.vm1opt import vm1_opt
from repro.library import build_library
from repro.milp import HighsBackend
from repro.milp.solution import SolveStatus
from repro.netlist import generate_design
from repro.placement import place_design
from repro.runtime import RunTelemetry, make_executor
from repro.runtime.telemetry import time_limit_errors
from repro.tech import AlignmentMode, CellArchitecture, make_tech

#: Primary objectives are multiples of 0.5 (ε) and the λ tie-break
#: budget is 0.45 < 0.5, so exact-optimum certification can use a
#: purely numerical tolerance.
_TOL = 1e-6

#: The VM1Opt workload of the memo and resume axes (and of
#: :func:`repro.chaos.runner.run_chaos_case`): perfbench's window
#: geometry, whose windows solve far inside the limit, so every pass
#: acts and no incumbent depends on the machine's load.
AXIS_SEQUENCE = (ParamSet.square(1.0, 3, 1),)
AXIS_TIME_LIMIT = 10.0


def _certify_solver() -> HighsBackend:
    """Exact solver for certification: zero gap, generous clock."""
    return HighsBackend(time_limit=60.0, mip_rel_gap=0.0)


@dataclass
class CaseReport:
    """Everything ``run_case`` learned about one case."""

    case: CheckCase
    status: str  # "certified" | "skipped" | "failed"
    errors: list[str] = field(default_factory=list)
    reason: str = ""
    milp_objective: float | None = None
    brute_objective: float | None = None
    num_assignments: int = 0

    @property
    def ok(self) -> bool:
        return self.status != "failed"

    def describe(self) -> str:
        head = f"{self.case.describe()}: {self.status}"
        if self.reason:
            head += f" ({self.reason})"
        for err in self.errors:
            head += f"\n  - {err}"
        return head


@dataclass
class FuzzSummary:
    """Aggregate result of one ``fuzz`` sweep."""

    total: int = 0
    certified: int = 0
    skipped: int = 0
    failed: int = 0
    assignments_enumerated: int = 0
    failures: list[CaseReport] = field(default_factory=list)
    reproducers: list[Path] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def to_dict(self) -> dict:
        return {
            "schema": "repro.check.fuzz/v1",
            "total": self.total,
            "certified": self.certified,
            "skipped": self.skipped,
            "failed": self.failed,
            "assignments_enumerated": self.assignments_enumerated,
            "failures": [r.describe() for r in self.failures],
            "reproducers": [str(p) for p in self.reproducers],
        }


def run_case(
    case: CheckCase,
    *,
    solver=None,
    max_assignments: int = 50_000,
    problem_transform=None,
) -> CaseReport:
    """Solve one case's window MILP and verify it every way we can.

    ``problem_transform`` is a hook for mutation testing: it receives
    the built :class:`WindowProblem` and may corrupt it in place; the
    oracles must then catch the corruption.
    """
    solver = solver if solver is not None else _certify_solver()
    design = clone_design(case.design)

    pre = check_legal(design)
    if pre:
        return CaseReport(
            case, "failed",
            errors=[f"generated case illegal: {e}" for e in pre],
        )
    before = design.placement_snapshot()

    problem = build_window_model(
        design, case.window, case.params,
        lx=case.lx, ly=case.ly, allow_flip=case.allow_flip,
    )
    if problem is None:
        return CaseReport(case, "skipped", reason="no window model")
    if problem_transform is not None:
        problem_transform(problem)

    solution = solver.solve_arrays(problem.arrays)
    if solution.status is not SolveStatus.OPTIMAL:
        return CaseReport(
            case, "skipped",
            reason=f"solver returned {solution.status.value}",
        )
    apply_solution(design, problem, solution)

    errors = list(check_legal(design))
    errors += check_fixed_unmoved(design, before)
    errors += check_displacement(
        design, before, problem.movable, case.window.rect,
        lx=case.lx, ly=case.ly, allow_flip=case.allow_flip,
    )
    errors += _check_d_honesty(design, case.params, problem, solution)

    nets = [design.nets[n] for n in problem.nets]
    achieved = oracle_objective(design, case.params, nets)

    # Claimed model objective must equal the recomputed objective up
    # to the λ tie-break perturbation (always additive, < 0.45).
    drift = solution.objective - achieved
    if not -_TOL <= drift <= 0.45 + _TOL:
        errors.append(
            f"claimed objective {solution.objective:.4f} vs oracle "
            f"recomputation {achieved:.4f} (drift {drift:+.4f} "
            f"outside the tie-break envelope)"
        )

    brute = brute_force_window(
        clone_design(case.design), case.window, case.params,
        lx=case.lx, ly=case.ly, allow_flip=case.allow_flip,
        max_assignments=max_assignments,
    )
    if brute is not None:
        if achieved > brute.objective + _TOL:
            errors.append(
                f"MILP placement objective {achieved:.4f} is WORSE "
                f"than the brute-force optimum {brute.objective:.4f} "
                f"over {brute.num_assignments} assignments"
            )
        elif achieved < brute.objective - _TOL:
            errors.append(
                f"MILP placement objective {achieved:.4f} BEATS the "
                f"brute-force optimum {brute.objective:.4f} — model "
                f"and oracle disagree about the objective"
            )

    if errors:
        return CaseReport(
            case, "failed", errors=errors,
            milp_objective=achieved,
            brute_objective=None if brute is None else brute.objective,
            num_assignments=0 if brute is None else brute.num_assignments,
        )
    if brute is None:
        return CaseReport(
            case, "skipped",
            reason=f"search space over {max_assignments} assignments",
            milp_objective=achieved,
        )
    return CaseReport(
        case, "certified",
        milp_objective=achieved,
        brute_objective=brute.objective,
        num_assignments=brute.num_assignments,
    )


def _check_d_honesty(design, params, problem, solution) -> list[str]:
    """Every d_pq the solver set must be a real alignment."""
    errors: list[str] = []
    mode = design.tech.arch.alignment_mode
    span = params.gamma * design.tech.row_height
    for ref_p, ref_q, d in problem.pairs:
        if solution.values.get(d, 0.0) <= 0.5:  # Solution.is_one
            continue
        name = (
            f"d[{ref_p.instance}.{ref_p.pin}|{ref_q.instance}.{ref_q.pin}]"
        )
        pin_p = ref_p.pin
        pin_q = ref_q.pin
        p = design.instances[ref_p.instance]
        q = design.instances[ref_q.instance]
        px, py = oracle_pin_point(p, pin_p)
        qx, qy = oracle_pin_point(q, pin_q)
        if abs(py - qy) > span:
            errors.append(
                f"{name}=1 but pins are {abs(py - qy)} apart "
                f"vertically (span {span})"
            )
            continue
        if mode is AlignmentMode.ALIGN:
            if px != qx:
                errors.append(
                    f"{name}=1 but pin x {px} != {qx}"
                )
        elif mode is AlignmentMode.OVERLAP:
            plo, phi = oracle_pin_interval(p, pin_p)
            qlo, qhi = oracle_pin_interval(q, pin_q)
            overlap = min(phi, qhi) - max(plo, qlo)
            if overlap < params.delta:
                errors.append(
                    f"{name}=1 but interval overlap {overlap} < "
                    f"delta {params.delta}"
                )
    return errors


# -------------------------------------------------------------- fuzzing
def fuzz(
    count: int,
    *,
    start_seed: int = 0,
    arch: CellArchitecture | None = None,
    kind: str | None = None,
    corpus_dir: str | Path | None = None,
    solver=None,
    max_assignments: int = 50_000,
    progress=None,
) -> FuzzSummary:
    """Run ``count`` seeded cases through the differential checks.

    Failures are shrunk to minimal designs and written into
    ``corpus_dir`` (when given) as replayable reproducer JSON.
    """
    summary = FuzzSummary()
    for seed in range(start_seed, start_seed + count):
        case = generate_case(seed, arch=arch, kind=kind)
        report = run_case(
            case, solver=solver, max_assignments=max_assignments
        )
        summary.total += 1
        summary.assignments_enumerated += report.num_assignments
        if report.status == "certified":
            summary.certified += 1
        elif report.status == "skipped":
            summary.skipped += 1
        else:
            summary.failed += 1
            shrunk = shrink_case(
                case,
                lambda c: _case_errors(
                    c, solver=solver, max_assignments=max_assignments
                ),
            )
            final = run_case(
                shrunk, solver=solver, max_assignments=max_assignments
            )
            report = final if not final.ok else report
            summary.failures.append(report)
            if corpus_dir is not None:
                summary.reproducers.append(
                    save_reproducer(
                        report.case, corpus_dir,
                        failure="; ".join(report.errors)[:500],
                    )
                )
        if progress is not None:
            progress(seed, report)
    return summary


def _case_errors(case, *, solver, max_assignments) -> list[str]:
    report = run_case(
        case, solver=solver, max_assignments=max_assignments
    )
    return report.errors if report.status == "failed" else []


def shrink_case(case: CheckCase, failing) -> CheckCase:
    """Greedy structural shrink: drop nets/instances while the failure
    reproduces.  ``failing(case) -> list[str]`` returns the failure
    evidence (empty = the candidate no longer fails)."""
    import copy

    doc = case_to_doc(case)

    def still_fails(candidate_doc) -> bool:
        try:
            return bool(failing(case_from_doc(candidate_doc)))
        except Exception:
            return False

    shrunk = True
    while shrunk:
        shrunk = False
        for i in range(len(doc["nets"])):
            trial = copy.deepcopy(doc)
            del trial["nets"][i]
            if still_fails(trial):
                doc = trial
                shrunk = True
                break
        if shrunk:
            continue
        for i in range(len(doc["instances"])):
            name = doc["instances"][i]["name"]
            trial = copy.deepcopy(doc)
            del trial["instances"][i]
            for net in trial["nets"]:
                net["pins"] = [
                    p for p in net["pins"] if p[0] != name
                ]
            if still_fails(trial):
                doc = trial
                shrunk = True
                break
    return case_from_doc(doc)


def replay_reproducer(
    path: str | Path, *, solver=None, max_assignments: int = 50_000
) -> CaseReport:
    """Re-run one committed reproducer through the full checks."""
    return run_case(
        load_reproducer(path),
        solver=solver,
        max_assignments=max_assignments,
    )


# ----------------------------------------------------------- axes
def _axis_design(arch: CellArchitecture, *, scale: float, seed: int):
    tech = make_tech(arch)
    library = build_library(tech)
    design = generate_design("aes", tech, library, scale=scale, seed=seed)
    place_design(design, seed=seed + 1)
    return design


def check_executor_axis(
    seed: int = 2,
    *,
    arch: CellArchitecture = CellArchitecture.CLOSED_M1,
    kinds: tuple[str, ...] = ("serial", "process"),
    jobs: int = 2,
    scale: float = 0.008,
) -> list[str]:
    """Same DistOpt pass across executors must match bit for bit."""
    snapshots = {}
    objectives = {}
    for kind in kinds:
        design = _axis_design(arch, scale=scale, seed=seed)
        params = OptParams.for_arch(arch, time_limit=30.0)
        with make_executor(kind, jobs) as executor:
            result = dist_opt(
                design, params, tx=0, ty=0, bw=1250, bh=1080,
                lx=3, ly=1, allow_flip=False, executor=executor,
            )
        snapshots[kind] = design.placement_snapshot()
        objectives[kind] = result.objective
    errors: list[str] = []
    reference = kinds[0]
    for kind in kinds[1:]:
        if snapshots[kind] != snapshots[reference]:
            diff = [
                name
                for name in snapshots[reference]
                if snapshots[kind][name] != snapshots[reference][name]
            ]
            errors.append(
                f"executor {kind} placement differs from "
                f"{reference} on {len(diff)} cells: {diff[:5]}"
            )
        if objectives[kind] != objectives[reference]:
            errors.append(
                f"executor {kind} objective {objectives[kind]} != "
                f"{reference} objective {objectives[reference]}"
            )
    return errors


def check_memo_onoff_axis(seed: int = 2, *, scale: float = 0.01) -> list[str]:
    """The window memo on vs off must be byte-identical.

    Runs the full VM1Opt loop twice per configuration on identical
    fresh designs, memo on and off, with the drift audit armed (any
    delta-accounting drift raises inside the run).  Placements must
    match bit for bit, the objectives to the float tolerance, and the
    iteration counts exactly.  The configurations are the shifting-grid
    ClosedM1 loop over :data:`AXIS_SEQUENCE`, where windows seldom
    repeat, and one fixed-grid run to a small θ per architecture, where
    they do: each of those memo-on runs must skip at least one window,
    or the axis would not exercise the skip.  No window of any run may
    time out or run to its limit (:func:`time_limit_errors`).
    """
    configs = [
        (
            "closedm1 shifting grid",
            CellArchitecture.CLOSED_M1,
            OptParams.for_arch(
                CellArchitecture.CLOSED_M1,
                sequence=AXIS_SEQUENCE,
                time_limit=AXIS_TIME_LIMIT,
            ),
            True,
        )
    ]
    for arch in CellArchitecture:
        params = OptParams.for_arch(
            arch,
            sequence=(ParamSet.square(1.0, 3, 1),),
            time_limit=5.0,
            theta=1e-5,
        )
        configs.append((f"{arch.value} fixed grid", arch, params, False))
    errors: list[str] = []
    for label, arch, params, shift in configs:
        runs = {}
        for memo in (True, False):
            design = _axis_design(arch, scale=scale, seed=seed)
            telemetry = RunTelemetry()
            result = vm1_opt(
                design,
                params,
                enable_shift=shift,
                window_memo=memo,
                objective_audit=True,
                telemetry=telemetry,
            )
            runs[memo] = (result, design.placement_snapshot())
            errors.extend(
                f"{label}, memo {'on' if memo else 'off'}: {error}"
                for error in time_limit_errors(
                    telemetry.records, params.time_limit
                )
            )
        (on, on_snapshot), (off, off_snapshot) = runs[True], runs[False]
        if on_snapshot != off_snapshot:
            diff = [
                name
                for name in off_snapshot
                if on_snapshot[name] != off_snapshot[name]
            ]
            errors.append(
                f"{label}: the memo changed the placement of "
                f"{len(diff)} cells: {diff[:5]}"
            )
        if abs(on.final_objective - off.final_objective) > _TOL:
            errors.append(
                f"{label}: memo-on objective {on.final_objective} != "
                f"memo-off objective {off.final_objective}"
            )
        if on.iterations != off.iterations:
            errors.append(
                f"{label}: memo-on iteration count {on.iterations} != "
                f"memo-off {off.iterations}"
            )
        if not shift and on.windows_skipped_clean == 0:
            errors.append(f"{label}: the memo skipped no window")
    return errors


def check_chaos_axis(seed: int = 2) -> list[str]:
    """Representative fault plans must converge byte-identically.

    One plan per recovery mechanism — worker retry, solver-fault
    retry, and checkpoint resume after a barrier crash — each run
    through the full :func:`repro.chaos.runner.run_chaos_case`
    invariant ladder (convergence, legality, telemetry visibility).
    The committed corpus in ``tests/chaos/corpus/`` covers the rest;
    this axis is the CLI-reachable smoke slice.
    """
    from repro.chaos.plan import FaultPlan, FaultRule
    from repro.chaos.runner import run_chaos_case

    cases = (
        (
            "worker-raise",
            FaultRule(site="runtime.worker", action="raise", nth=2),
        ),
        (
            "milp-error",
            FaultRule(site="milp.solve", action="error", nth=1),
        ),
        (
            "barrier-resume",
            FaultRule(
                site="barrier",
                action="raise",
                nth=1,
                match="checkpoint:",
            ),
        ),
    )
    errors: list[str] = []
    for name, rule in cases:
        plan = FaultPlan(seed=seed, faults=(rule,))
        outcome = run_chaos_case(plan, seed=seed)
        errors.extend(
            f"chaos[{name}]: {error}" for error in outcome.errors
        )
    return errors


def check_resume_axis(
    seed: int = 2,
    *,
    arch: CellArchitecture = CellArchitecture.CLOSED_M1,
    scale: float = 0.01,
) -> list[str]:
    """Checkpoint-resume must reproduce the straight run exactly, on
    the :data:`AXIS_SEQUENCE` workload; no window of either run may
    time out or run to its limit (:func:`time_limit_errors`)."""
    params = OptParams.for_arch(
        arch, sequence=AXIS_SEQUENCE, time_limit=AXIS_TIME_LIMIT
    )
    checkpoints: list[VM1Checkpoint] = []
    design = _axis_design(arch, scale=scale, seed=seed)
    straight_telemetry = RunTelemetry()
    straight = vm1_opt(
        design,
        params,
        checkpoint_sink=checkpoints.append,
        telemetry=straight_telemetry,
    )
    final = design.placement_snapshot()
    if not checkpoints:
        return ["straight run produced no checkpoints"]
    # Resume across a serialization boundary, like a real crash.
    cp = VM1Checkpoint.loads(checkpoints[len(checkpoints) // 2].dumps())
    resumed_design = _axis_design(arch, scale=scale, seed=seed)
    resumed_telemetry = RunTelemetry()
    resumed = vm1_opt(
        resumed_design, params, resume=cp, telemetry=resumed_telemetry
    )
    errors: list[str] = []
    for label, telemetry in (
        ("straight", straight_telemetry),
        ("resumed", resumed_telemetry),
    ):
        errors.extend(
            f"{label} run: {error}"
            for error in time_limit_errors(
                telemetry.records, params.time_limit
            )
        )
    if resumed_design.placement_snapshot() != final:
        errors.append(
            "resumed placement differs from the straight run"
        )
    if resumed.iterations != straight.iterations:
        errors.append(
            f"resumed iteration count {resumed.iterations} != "
            f"straight {straight.iterations}"
        )
    if abs(resumed.final_objective - straight.final_objective) > _TOL:
        errors.append(
            f"resumed objective {resumed.final_objective} != "
            f"straight {straight.final_objective}"
        )
    return errors
