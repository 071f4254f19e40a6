"""Unit tests for the span tracer (repro.obs.trace)."""

import pytest

from repro.obs.trace import (
    NULL_SPAN,
    Span,
    Tracer,
    active,
    collecting,
    current_context,
    disable,
    enable,
    make_span_dict,
    new_id,
    span,
    tracer_scope,
    tree_shape,
)


@pytest.fixture(autouse=True)
def _no_global_tracer():
    """Tests that call enable() must not leak into each other."""
    yield
    disable()


def test_span_is_noop_when_disabled():
    assert active() is None
    handle = span("anything", key="value")
    assert handle is NULL_SPAN
    with handle as sp:
        assert sp.set(more=1) is sp  # chainable, still a no-op
    assert current_context() is None


def test_null_span_is_shared_singleton():
    assert span("a") is span("b")


def test_nesting_parents_and_ids():
    tracer = Tracer()
    with tracer_scope(tracer):
        with span("outer") as outer:
            with span("inner", depth=1) as inner:
                assert inner.parent_id == outer.span_id
            assert inner.trace_id == outer.trace_id == tracer.trace_id
        assert outer.parent_id is None
    names = [s.name for s in tracer.spans]
    assert names == ["inner", "outer"]  # children finish first
    assert all(s.wall_seconds >= 0 for s in tracer.spans)


def test_root_parent_id_seeds_orphan_spans():
    tracer = Tracer(trace_id="t" * 16, root_parent_id="p" * 16)
    with tracer_scope(tracer):
        with span("child") as sp:
            assert sp.parent_id == "p" * 16
            assert sp.trace_id == "t" * 16


def test_exception_marks_status_and_propagates():
    tracer = Tracer()
    with tracer_scope(tracer):
        with pytest.raises(RuntimeError):
            with span("boom"):
                raise RuntimeError("nope")
    assert tracer.spans[0].status == "error:RuntimeError"


def test_attrs_via_kwargs_and_set():
    tracer = Tracer()
    with tracer_scope(tracer):
        with span("work", a=1) as sp:
            sp.set(b=2)
    assert tracer.spans[0].attrs == {"a": 1, "b": 2}


def test_current_context_follows_stack():
    tracer = Tracer()
    with tracer_scope(tracer):
        assert current_context() == (tracer.trace_id, None)
        with span("outer") as outer:
            assert current_context() == (
                tracer.trace_id,
                outer.span_id,
            )
        assert current_context() == (tracer.trace_id, None)


def test_tracer_scope_none_masks_global():
    enable(sink=None)
    assert active() is not None
    with tracer_scope(None):
        assert active() is None
        assert span("hidden") is NULL_SPAN
    assert active() is not None


def test_tracer_scope_restores_previous_scope():
    a, b = Tracer(), Tracer()
    with tracer_scope(a):
        with span("a-span"):
            with tracer_scope(b):
                assert active() is b
                # fresh stack: b's spans are roots, not children of
                # a's open span
                with span("b-span") as sp:
                    assert sp.parent_id is None
            assert active() is a
    assert [s.name for s in a.spans] == ["a-span"]
    assert [s.name for s in b.spans] == ["b-span"]


def test_enable_installs_process_global():
    tracer = enable(sink=None)
    try:
        assert active() is tracer
        with span("global-span"):
            pass
        assert [s.name for s in tracer.spans] == ["global-span"]
    finally:
        assert disable() is tracer
    assert active() is None


def test_absorb_reparents_nothing_and_keeps_order():
    tracer = Tracer()
    docs = [
        make_span_dict(
            name=f"w{i}",
            trace_id=tracer.trace_id,
            parent_id=None,
            started_at=float(i),
            wall_seconds=0.5,
        )
        for i in range(3)
    ]
    tracer.absorb(docs)
    assert [s.name for s in tracer.spans] == ["w0", "w1", "w2"]


def test_make_span_dict_round_trips_through_span():
    doc = make_span_dict(
        name="solve",
        trace_id="t" * 16,
        parent_id="p" * 16,
        started_at=100.0,
        wall_seconds=1.5,
        cpu_seconds=1.2,
        attrs={"num_pairs": 7},
    )
    sp = Span.from_dict(doc)
    assert sp.name == "solve"
    assert sp.parent_id == "p" * 16
    assert sp.wall_seconds == 1.5
    assert sp.attrs == {"num_pairs": 7}
    assert len(sp.span_id) == 16


def test_collecting_seeds_from_context_and_exports():
    ctx = ("t" * 16, "r" * 16)
    with collecting(ctx) as collector:
        with span("worker-side") as sp:
            assert sp.trace_id == "t" * 16
            assert sp.parent_id == "r" * 16
    docs = collector.export()
    assert [d["name"] for d in docs] == ["worker-side"]


def test_collecting_none_is_inert():
    with collecting(None) as collector:
        assert span("ignored") is NULL_SPAN
    assert collector.export() == []


def test_tree_shape_is_structural_and_name_sorted():
    tid = new_id()
    root = make_span_dict(
        name="root", trace_id=tid, parent_id=None,
        started_at=0.0, wall_seconds=1.0,
    )
    kid_b = make_span_dict(
        name="b", trace_id=tid, parent_id=root["span_id"],
        started_at=0.1, wall_seconds=0.1,
    )
    kid_a = make_span_dict(
        name="a", trace_id=tid, parent_id=root["span_id"],
        started_at=0.2, wall_seconds=0.1,
    )
    # Shape ignores recording order and timing; only structure counts.
    assert tree_shape([root, kid_b, kid_a]) == tree_shape(
        [kid_a, root, kid_b]
    )
    assert tree_shape([root, kid_a, kid_b]) == [
        ["root", [["a", []], ["b", []]]]
    ]


def test_tree_shape_roots_are_spans_with_absent_parents():
    tid = new_id()
    orphan = make_span_dict(
        name="shipped", trace_id=tid, parent_id="gone" * 4,
        started_at=0.0, wall_seconds=0.1,
    )
    assert tree_shape([orphan]) == [["shipped", []]]
