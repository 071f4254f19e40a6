"""Cross-executor and cross-attempt span propagation.

The acceptance bar from the obs design: the span tree of a run has the
same *shape* no matter which executor ran the windows (worker-side
build/presolve/solve spans come back as dicts and are absorbed in
canonical task order), and a resumed run re-joins the interrupted
attempt's trace via the context riding the checkpoint.
"""

import pytest

from repro.core import OptParams
from repro.core.checkpoint import VM1Checkpoint
from repro.core.distopt import dist_opt
from repro.core.params import ParamSet
from repro.core.vm1opt import vm1_opt
from repro.library import build_library
from repro.netlist import generate_design
from repro.obs.trace import (
    Tracer,
    disable,
    enable,
    span_children,
    tracer_scope,
    tree_shape,
)
from repro.placement import place_design
from repro.runtime import make_executor
from repro.tech import CellArchitecture, make_tech


def _fresh_design(seed=2):
    tech = make_tech(CellArchitecture.CLOSED_M1)
    lib = build_library(tech)
    design = generate_design("m0", tech, lib, scale=0.01, seed=seed)
    place_design(design, seed=1)
    return design


def _run_pass(executor_kind: str) -> None:
    design = _fresh_design()
    params = OptParams.for_arch(design.tech.arch, time_limit=2.0)
    with make_executor(executor_kind, 2) as executor:
        dist_opt(
            design,
            params,
            tx=0,
            ty=0,
            bw=1250,
            bh=1080,
            lx=2,
            ly=1,
            allow_flip=False,
            executor=executor,
            pass_label="move[test]",
        )


def _traced_pass(executor_kind: str) -> Tracer:
    tracer = Tracer()
    with tracer_scope(tracer):
        _run_pass(executor_kind)
    return tracer


def test_serial_run_has_rooted_window_tree():
    tracer = _traced_pass("serial")
    shape = tree_shape(tracer.spans)
    assert len(shape) == 1
    assert shape[0][0] == "distopt"
    window_shapes = shape[0][1]
    assert window_shapes, "expected window spans under the pass"
    assert all(ws[0] == "window" for ws in window_shapes)
    # every built window carries worker-side child spans
    child_names = {
        name for ws in window_shapes for name, _ in ws[1]
    }
    assert child_names <= {"build", "presolve", "solve"}
    assert "solve" in child_names


def test_window_spans_carry_apply_verdict():
    tracer = _traced_pass("serial")
    outcomes = [
        s.attrs["outcome"]
        for s in tracer.spans
        if s.name == "window"
    ]
    assert outcomes, "expected absorbed window spans"
    known = {
        "applied", "reverted", "no_move", "no_solution",
        "failed", "timed_out", "empty",
    }
    assert set(outcomes) <= known


def test_window_children_are_recorded_live():
    """Workers record build/presolve/solve as they run: each child
    lies inside its window's interval, carries its own CPU time and is
    recorded before its window (the root an attempt exports last)."""
    spans = _traced_pass("serial").spans
    position = {s.span_id: i for i, s in enumerate(spans)}
    children = span_children(spans)
    windows = [s for s in spans if s.name == "window"]
    assert windows
    for window in windows:
        kids = children.get(window.span_id, [])
        assert kids
        end = window.started_at + window.wall_seconds
        for kid in kids:
            assert kid.started_at >= window.started_at - 1e-3
            assert kid.started_at + kid.wall_seconds <= end + 1e-3
            assert kid.cpu_seconds > 0.0
            assert position[kid.span_id] < position[window.span_id]


def test_untraced_thread_pass_leaves_the_global_tracer_alone():
    """A pass under ``tracer_scope(None)`` ships no trace context; its
    thread workers must not fall through to the process-global
    tracer."""
    tracer = enable()
    try:
        with tracer_scope(None):
            _run_pass("thread")
    finally:
        disable()
    assert tracer.spans == []


@pytest.mark.parametrize("kind", ["thread", "process"])
def test_tree_shape_identical_across_executors(kind):
    serial = tree_shape(_traced_pass("serial").spans)
    other = tree_shape(_traced_pass(kind).spans)
    assert other == serial


def test_trace_files_are_order_deterministic():
    """Absorption follows canonical task order, so two runs record
    window spans in the same sequence regardless of completion order."""
    a = [s.name for s in _traced_pass("thread").spans]
    b = [s.name for s in _traced_pass("thread").spans]
    assert a == b


def test_checkpoint_carries_context_and_resume_rejoins_trace():
    params = OptParams.for_arch(
        CellArchitecture.CLOSED_M1,
        sequence=(ParamSet.square(1.0, 2, 1),),
        time_limit=2.0,
    )

    checkpoints = []
    first = Tracer()
    with tracer_scope(first):
        vm1_opt(
            _fresh_design(),
            params,
            checkpoint_sink=lambda cp: checkpoints.append(cp),
        )
    assert checkpoints, "expected per-pass checkpoints"
    vm1_span = next(
        s for s in first.spans if s.name == "vm1_opt"
    )
    for cp in checkpoints:
        assert cp.trace == (first.trace_id, vm1_span.span_id)

    # Resume from the first checkpoint after a JSON round trip (what
    # the jobstore does), seeding the tracer from the stored context —
    # exactly the service's resume path.
    restored = VM1Checkpoint.loads(checkpoints[0].dumps())
    second = Tracer(
        trace_id=restored.trace[0],
        root_parent_id=restored.trace[1],
    )
    with tracer_scope(second):
        vm1_opt(_fresh_design(), params, resume=restored)

    combined = first.spans + second.spans
    assert {s.trace_id for s in combined} == {first.trace_id}
    shape = tree_shape(combined)
    assert len(shape) == 1, "both attempts must share one root"
    assert shape[0][0] == "vm1_opt"


@pytest.mark.parametrize(
    "kind, rule, schedule, status",
    [
        # A crashed worker: the scheduler sees an executor failure.
        ("serial", dict(action="crash", nth=1), {}, "failed"),
        # A hung worker: the per-task deadline fires first.  The
        # deadline runs from submission, so it must also cover the
        # honest windows queued behind each other on the one free
        # thread (about 0.3 s of solves here).
        (
            "thread",
            dict(action="hang", nth=1, seconds=3.0),
            dict(task_timeout=1.0),
            "timed_out",
        ),
    ],
    ids=["crash", "timeout"],
)
def test_trace_holds_windows_that_came_back_without_spans(
    kind, rule, schedule, status
):
    """Outcomes the scheduler builds itself (no worker spans) still
    leave a ``window`` span with the status the document records."""
    from repro.chaos import (
        ChaosController,
        FaultPlan,
        FaultRule,
        chaos_scope,
    )
    from repro.runtime import RunTelemetry, ScheduleConfig

    design = _fresh_design()
    params = OptParams.for_arch(design.tech.arch, time_limit=2.0)
    chaos = ChaosController(
        plan=FaultPlan(
            seed=0, faults=(FaultRule(site="runtime.worker", **rule),)
        )
    )
    tracer = Tracer()
    with tracer_scope(tracer), chaos_scope(chaos), make_executor(
        kind, 2
    ) as executor:
        result = dist_opt(
            design, params, tx=0, ty=0, bw=1250, bh=1080, lx=2, ly=1,
            allow_flip=False, executor=executor,
            schedule=ScheduleConfig(max_retries=0, **schedule),
        )
    lost = result.windows_failed + result.windows_timed_out
    assert lost == 1
    spans = [
        s for s in tracer.spans
        if s.name == "window" and s.attrs.get("outcome") == status
    ]
    assert len(spans) == 1
    assert spans[0].status.startswith("error:")
    records = RunTelemetry.from_spans(tracer.spans).records
    assert [r.status for r in records].count(status) == 1


def test_untraced_run_ships_no_spans():
    design = _fresh_design()
    params = OptParams.for_arch(design.tech.arch, time_limit=2.0)
    result = dist_opt(
        design,
        params,
        tx=0,
        ty=0,
        bw=1250,
        bh=1080,
        lx=2,
        ly=1,
        allow_flip=False,
        pass_label="move[untraced]",
    )
    assert result.objective == result.objective  # ran fine
