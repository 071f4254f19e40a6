"""ChaosController triggers, determinism, installation, arming."""

import pytest

from repro.chaos import (
    ChaosController,
    ChaosFault,
    FaultPlan,
    FaultRule,
    active_chaos,
    barrier,
    chaos_scope,
    install,
    uninstall,
)


def controller(*rules, seed=0):
    return ChaosController(plan=FaultPlan(seed=seed, faults=rules))


def barrier_rule(**kw):
    kw.setdefault("site", "barrier")
    kw.setdefault("action", "raise")
    return FaultRule(**kw)


def test_nth_fires_exactly_once():
    chaos = controller(barrier_rule(nth=3))
    fired = [
        chaos.check("barrier", "b") is not None for _ in range(6)
    ]
    assert fired == [False, False, True, False, False, False]
    assert chaos.total_fires() == 1


def test_every_fires_periodically():
    chaos = controller(barrier_rule(every=2))
    fired = [
        chaos.check("barrier", "b") is not None for _ in range(6)
    ]
    assert fired == [False, True, False, True, False, True]


def test_probability_is_deterministic_per_seed():
    def run(seed):
        chaos = controller(
            barrier_rule(probability=0.5), seed=seed
        )
        return [
            chaos.check("barrier", "b") is not None
            for _ in range(32)
        ]

    assert run(1) == run(1)
    assert run(1) != run(2)  # astronomically unlikely to collide
    assert any(run(1))


def test_max_fires_caps_probability_rule():
    chaos = controller(
        barrier_rule(probability=1.0, max_fires=2)
    )
    fires = sum(
        chaos.check("barrier", "b") is not None for _ in range(10)
    )
    assert fires == 2


def test_match_filters_by_name_substring():
    chaos = controller(barrier_rule(every=1, match="checkpoint:"))
    assert chaos.check("barrier", "vm1:start") is None
    assert chaos.check("barrier", "checkpoint:move[u0.i1]")
    # non-matching calls do not advance the rule's call counter
    chaos2 = controller(barrier_rule(nth=1, match="flip"))
    assert chaos2.check("barrier", "checkpoint:move[u0.i1]") is None
    assert chaos2.check("barrier", "checkpoint:flip[u0.i1]")


def test_site_mismatch_never_fires():
    chaos = controller(barrier_rule(every=1))
    assert chaos.check("milp.solve", "t0") is None
    assert chaos.total_fires() == 0


def test_retry_attempts_skipped_unless_opted_in():
    chaos = controller(
        FaultRule(site="milp.solve", action="error", every=1)
    )
    assert chaos.check("milp.solve", "t0", attempt=2) is None
    assert chaos.check("milp.solve", "t0", attempt=1) is not None

    opted = controller(
        FaultRule(
            site="milp.solve", action="error", every=1,
            on_retry=True,
        )
    )
    assert opted.check("milp.solve", "t0", attempt=2) is not None


def test_span_filter_requires_open_span():
    from repro.obs.trace import Tracer, span, tracer_scope

    chaos = controller(barrier_rule(every=1, span="solve"))
    assert chaos.check("barrier", "b") is None
    with tracer_scope(Tracer()):
        with span("solve"):
            assert chaos.check("barrier", "b") is not None
        assert chaos.check("barrier", "b") is None


def test_first_matching_rule_wins():
    first = barrier_rule(every=1, match="a")
    second = barrier_rule(every=1)
    chaos = controller(first, second)
    assert chaos.check("barrier", "a-barrier") is first
    assert chaos.check("barrier", "other") is second


def test_fired_rules_lists_only_rules_that_fired():
    # The every=1 rule pre-empts the nth=1 rule at the same call, so
    # the nth rule is declared but never fires.
    preempting = barrier_rule(every=1)
    preempted = barrier_rule(nth=1)
    unreached = barrier_rule(nth=99)
    chaos = controller(preempting, preempted, unreached)
    assert chaos.fired_rules() == ()
    chaos.check("barrier", "b")
    chaos.check("barrier", "b")
    assert chaos.fired_rules() == (preempting,)


def test_drain_counts_returns_deltas():
    chaos = controller(barrier_rule(every=1))
    chaos.check("barrier", "b")
    assert chaos.drain_counts() == {"barrier": 1}
    assert chaos.drain_counts() == {}
    chaos.check("barrier", "b")
    chaos.check("barrier", "b")
    assert chaos.drain_counts() == {"barrier": 2}
    assert chaos.fires_by_site() == {"barrier": 3}


def test_observed_records_every_consultation():
    chaos = controller(barrier_rule(nth=99))
    chaos.check("barrier", "one")
    chaos.check("milp.solve", "t3")
    assert ("barrier", "one") in chaos.observed
    assert ("milp.solve", "t3") in chaos.observed


def test_arm_task_attaches_directive():
    from repro.runtime import SolverSpec, WindowTask

    from tests.runtime._fakes import tiny_model

    task = WindowTask(
        task_id=0, ix=0, iy=0, family=0,
        model=tiny_model(), solver=SolverSpec(backend="highs"),
    )
    chaos = controller(
        FaultRule(
            site="runtime.worker", action="hang", nth=1, seconds=9.0
        )
    )
    armed = chaos.arm_task(task)
    assert armed is not task
    assert armed.chaos == ("runtime.worker", "hang", 9.0)
    assert task.chaos is None  # original untouched (frozen)
    # second window: nth=1 already consumed
    assert chaos.arm_task(task) is task


def test_install_scope_and_fallback():
    assert active_chaos() is None
    chaos = controller(barrier_rule(nth=1))
    install(chaos)
    try:
        assert active_chaos() is chaos
        with chaos_scope(None):
            assert active_chaos() is None
        assert active_chaos() is chaos
    finally:
        uninstall()
    assert active_chaos() is None


def test_barrier_raises_on_fire():
    with chaos_scope(controller(barrier_rule(nth=1))):
        with pytest.raises(ChaosFault, match=r"barrier\[b\]"):
            barrier("b")
        barrier("b")  # nth consumed — no refire


def test_barrier_noop_without_controller():
    barrier("anything")  # must not raise
