"""Every committed corpus plan must climb the full invariant ladder:
fault fires, byte-identical convergence, telemetry + trace visibility."""

from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.chaos import ChaosController, FaultPlan, FaultRule
from repro.chaos.runner import (
    ChaosCaseResult,
    _check_ladder,
    run_chaos_case,
)

CORPUS = Path(__file__).parent / "corpus"
PLANS = sorted(CORPUS.glob("*.json"))


def test_corpus_is_not_empty():
    assert len(PLANS) >= 8, (
        "the committed chaos corpus must cover the fault families"
    )


@pytest.mark.parametrize("path", PLANS, ids=lambda p: p.stem)
def test_corpus_plan_converges_byte_identically(path):
    plan = FaultPlan.load(path)
    result = run_chaos_case(plan)
    assert result.converged, result.errors
    assert result.fires, "corpus plans must actually fire"


def test_vacuous_plan_fails_loudly():
    from repro.chaos import FaultRule

    plan = FaultPlan(
        seed=2,
        faults=(
            FaultRule(
                site="barrier", action="raise", nth=10**6
            ),
        ),
    )
    result = run_chaos_case(plan)
    assert not result.converged
    assert any("vacuous" in error for error in result.errors)


def _rung3_errors(plan, fire, *, retries, error_spans):
    """Run the ladder on a converged stand-in run where ``fire``
    (site, name) calls fired, with or without retries in telemetry."""
    controller = ChaosController(plan=plan)
    for site, name in fire:
        controller.check(site, name)
    counters = {
        "repro_run_faults_injected_total": controller.fires_by_site()
    }
    if retries:
        counters["repro_run_retries_total"] = retries
    result = ChaosCaseResult(
        plan=plan,
        converged=False,
        counters=counters,
        error_spans=error_spans,
    )
    run = SimpleNamespace(final_objective=1.0)
    design = SimpleNamespace(
        placement_snapshot=lambda: {}, check_legal=lambda: []
    )
    _check_ladder(
        result,
        controller=controller,
        faulted=run,
        faulted_design=design,
        clean=run,
        clean_snapshot={},
    )
    return result.errors


def test_fired_retryable_rule_without_retries_fails_rung3():
    plan = FaultPlan(
        seed=1,
        faults=(FaultRule(site="runtime.worker", action="raise", nth=1),),
    )
    fire = [("runtime.worker", "0")]
    assert _rung3_errors(plan, fire, retries=1, error_spans=1) == []
    errors = _rung3_errors(plan, fire, retries=0, error_spans=1)
    assert any("no retries" in error for error in errors), errors


def test_rung3_asks_evidence_only_of_rules_that_fired():
    # Plan seed 100009's shape: the crash rule fires first at every
    # call it matches, so the nth=2 raise rule is pre-empted and never
    # fires; crashes leave no error: span, and none is owed.
    plan = FaultPlan(
        seed=1,
        faults=(
            FaultRule(site="runtime.worker", action="crash", every=1),
            FaultRule(site="runtime.worker", action="raise", nth=2),
        ),
    )
    fire = [("runtime.worker", "0"), ("runtime.worker", "1")]
    assert _rung3_errors(plan, fire, retries=2, error_spans=0) == []
