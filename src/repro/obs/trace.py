"""Hierarchical spans: the tracing half of the observability spine.

A *span* is one timed, named unit of work — a flow stage, a DistOpt
pass, a window build/presolve/solve — with wall time, per-thread CPU
time, free-form attributes, and a parent link.  Spans of one run share
a ``trace_id``; the parent links form the tree rendered by
``repro trace report``.

Design constraints, in priority order:

1. **Disabled is free.**  When no tracer is active, :func:`span`
   returns a shared no-op object without allocating — the hot paths
   (one call per DistOpt pass, not per window) stay under the <2%
   overhead budget enforced by ``benchmarks/check_overhead.py obs``.
   Per-window spans cost nothing extra either way: workers synthesize
   them from timings they already measure (see
   :meth:`repro.runtime.task.WindowTask.run`).
2. **Cross-executor propagation.**  A trace context is a plain
   ``(trace_id, span_id)`` tuple (:func:`current_context`), small
   enough to pickle into every :class:`~repro.runtime.task.WindowTask`
   and shard worker payload.  Workers cannot write to the submitting
   process's sink, so their spans come *back* as plain dicts inside
   the task result and the parent absorbs them — the same mechanism
   under serial, thread, and process executors, which is why all
   three produce the same tree shape.
3. **Thread isolation.**  The active tracer and span stack are
   thread-local (with a process-global fallback set by
   :func:`enable`), so the job service can trace concurrent jobs into
   separate sinks via :func:`tracer_scope`.

Spans ride checkpoints: ``VM1Checkpoint`` stores the run's
:func:`current_context`, and a resumed run seeds its tracer from it
(:class:`Tracer` ``trace_id=``/``root_parent_id=``), so both attempts
append to one coherent trace.
"""

from __future__ import annotations

import threading
import time
import uuid
from dataclasses import dataclass, field

#: Schema identifier of the NDJSON trace documents (see export.py).
TRACE_SCHEMA = "repro.obs.trace/v1"


def new_id() -> str:
    """A fresh 16-hex-digit identifier (collision-safe across
    processes — workers mint their own span ids)."""
    return uuid.uuid4().hex[:16]


@dataclass
class Span:
    """One finished (or in-flight) unit of work."""

    name: str
    trace_id: str
    span_id: str
    parent_id: str | None = None
    #: wall-clock start (epoch seconds).
    started_at: float = 0.0
    wall_seconds: float = 0.0
    #: CPU time of the owning thread across the span.
    cpu_seconds: float = 0.0
    status: str = "ok"
    attrs: dict = field(default_factory=dict)
    # live-timing anchors; not serialized.
    _t0: float = field(default=0.0, repr=False)
    _c0: float = field(default=0.0, repr=False)

    def set(self, **attrs) -> "Span":
        """Attach attributes; chainable."""
        self.attrs.update(attrs)
        return self

    def to_dict(self) -> dict:
        doc = {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "started_at": self.started_at,
            "wall_seconds": self.wall_seconds,
            "cpu_seconds": self.cpu_seconds,
            "status": self.status,
        }
        if self.attrs:
            doc["attrs"] = self.attrs
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "Span":
        return cls(
            name=str(doc["name"]),
            trace_id=str(doc["trace_id"]),
            span_id=str(doc["span_id"]),
            parent_id=doc.get("parent_id"),
            started_at=float(doc.get("started_at", 0.0)),
            wall_seconds=float(doc.get("wall_seconds", 0.0)),
            cpu_seconds=float(doc.get("cpu_seconds", 0.0)),
            status=str(doc.get("status", "ok")),
            attrs=dict(doc.get("attrs", {})),
        )


def make_span_dict(
    name: str,
    *,
    trace_id: str,
    parent_id: str | None,
    started_at: float,
    wall_seconds: float,
    cpu_seconds: float = 0.0,
    attrs: dict | None = None,
    span_id: str | None = None,
) -> dict:
    """Synthesize a finished span record from timings measured out of
    band.  The window-solve hot path uses this: workers already time
    build/presolve/solve, so when a trace context rides the task
    they mint span dicts after the fact instead of paying for
    live span bookkeeping inside the solve loop."""
    span = Span(
        name=name,
        trace_id=trace_id,
        span_id=span_id or new_id(),
        parent_id=parent_id,
        started_at=started_at,
        wall_seconds=wall_seconds,
        cpu_seconds=cpu_seconds,
        attrs=dict(attrs or {}),
    )
    return span.to_dict()


class Tracer:
    """Collects finished spans, optionally streaming them to a sink.

    Args:
        trace_id: adopt an existing trace id (resume, worker-side
            collection); default mints a fresh one.
        root_parent_id: parent for spans started with an empty stack —
            how worker- and resume-side spans attach under the span
            that shipped their context.
        sink: object with ``write(dict)`` (e.g.
            :class:`repro.obs.export.TraceWriter`) receiving every
            finished span; spans are also kept in memory.
        profile_spans: span names that get a sampling profiler
            attached (see :mod:`repro.obs.profile`); the aggregated
            stacks land in the span's ``profile`` attribute.
        profile_interval: profiler sampling period in seconds.
    """

    def __init__(
        self,
        *,
        trace_id: str | None = None,
        root_parent_id: str | None = None,
        sink=None,
        profile_spans: tuple[str, ...] | frozenset = (),
        profile_interval: float = 0.005,
    ) -> None:
        self.trace_id = trace_id or new_id()
        self.root_parent_id = root_parent_id
        self.sink = sink
        self.profile_spans = frozenset(profile_spans)
        self.profile_interval = profile_interval
        self.spans: list[Span] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------- recording
    def finish(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)
            if self.sink is not None:
                self.sink.write(span.to_dict())

    def absorb(self, span_dicts) -> None:
        """Fold spans collected in a worker (plain dicts) into this
        tracer, in the order given — the caller iterates outcomes in
        canonical task order, so trace files are deterministic under
        any executor."""
        for doc in span_dicts:
            self.finish(Span.from_dict(doc))

    def export(self) -> list[dict]:
        """Finished spans as plain dicts (what crosses a process
        boundary back to the submitting side)."""
        with self._lock:
            return [span.to_dict() for span in self.spans]

    def close(self) -> None:
        sink, self.sink = self.sink, None
        if sink is not None and hasattr(sink, "close"):
            sink.close()


# --------------------------------------------------------------- state
_TLS = threading.local()
_GLOBAL: Tracer | None = None
#: Distinguishes "no thread-local tracer set" from an explicit
#: ``tracer_scope(None)`` masking the process-global tracer.
_UNSET = object()


def enable(
    path=None,
    *,
    sink=None,
    trace_id: str | None = None,
    root_parent_id: str | None = None,
    profile_spans: tuple[str, ...] = (),
    profile_interval: float = 0.005,
) -> Tracer:
    """Install a process-global tracer (the ``--trace`` entry point).

    ``path`` opens an append-mode NDJSON
    :class:`~repro.obs.export.TraceWriter` sink; pass ``sink=`` for
    anything else.  Returns the tracer; :func:`disable` uninstalls and
    closes it.
    """
    global _GLOBAL
    if path is not None and sink is None:
        from repro.obs.export import TraceWriter

        sink = TraceWriter(path)
    _GLOBAL = Tracer(
        trace_id=trace_id,
        root_parent_id=root_parent_id,
        sink=sink,
        profile_spans=profile_spans,
        profile_interval=profile_interval,
    )
    return _GLOBAL


def disable() -> Tracer | None:
    """Uninstall the process-global tracer; returns it (sink closed)."""
    global _GLOBAL
    tracer, _GLOBAL = _GLOBAL, None
    if tracer is not None:
        tracer.close()
    return tracer


def active() -> Tracer | None:
    """The tracer in effect on this thread (thread-local override
    first, then the process-global one)."""
    tracer = getattr(_TLS, "tracer", _UNSET)
    if tracer is _UNSET:
        return _GLOBAL
    return tracer


class tracer_scope:
    """Activate ``tracer`` for the current thread only.

    The job service runs concurrent jobs on worker threads; each wraps
    its flow in a ``tracer_scope`` so spans land in per-job sinks.
    ``tracer=None`` masks a process-global tracer for the scope.
    """

    def __init__(self, tracer: Tracer | None) -> None:
        self.tracer = tracer
        self._prev_tracer = None
        self._prev_stack = None
        self._had = False

    def __enter__(self) -> Tracer | None:
        self._had = hasattr(_TLS, "tracer")
        self._prev_tracer = getattr(_TLS, "tracer", None)
        self._prev_stack = getattr(_TLS, "stack", None)
        _TLS.tracer = self.tracer
        _TLS.stack = []
        return self.tracer

    def __exit__(self, *exc_info) -> None:
        if self._had:
            _TLS.tracer = self._prev_tracer
        else:
            del _TLS.tracer
        if self._prev_stack is not None:
            _TLS.stack = self._prev_stack
        elif hasattr(_TLS, "stack"):
            del _TLS.stack


def _stack() -> list:
    stack = getattr(_TLS, "stack", None)
    if stack is None:
        stack = []
        _TLS.stack = stack
    return stack


class _NullSpan:
    """Shared no-op stand-in returned by :func:`span` when tracing is
    off — one object, zero allocation per call site."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def set(self, **attrs) -> "_NullSpan":  # noqa: ARG002
        return self


NULL_SPAN = _NullSpan()


class _SpanHandle:
    """Context manager for one live span (returned by :func:`span`)."""

    __slots__ = ("_tracer", "_name", "_attrs", "_span", "_profiler")

    def __init__(self, tracer: Tracer, name: str, attrs: dict) -> None:
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self._span: Span | None = None
        self._profiler = None

    def __enter__(self) -> Span:
        tracer = self._tracer
        stack = _stack()
        parent = (
            stack[-1].span_id if stack else tracer.root_parent_id
        )
        span_obj = Span(
            name=self._name,
            trace_id=tracer.trace_id,
            span_id=new_id(),
            parent_id=parent,
            started_at=time.time(),
            attrs=self._attrs,
        )
        span_obj._t0 = time.perf_counter()
        span_obj._c0 = time.thread_time()
        stack.append(span_obj)
        self._span = span_obj
        if self._name in tracer.profile_spans:
            from repro.obs.profile import SamplingProfiler

            self._profiler = SamplingProfiler(
                interval=tracer.profile_interval
            )
            self._profiler.start()
        return span_obj

    def __exit__(self, exc_type, exc, tb) -> bool:
        span_obj = self._span
        span_obj.wall_seconds = time.perf_counter() - span_obj._t0
        span_obj.cpu_seconds = time.thread_time() - span_obj._c0
        if exc_type is not None:
            span_obj.status = f"error:{exc_type.__name__}"
        if self._profiler is not None:
            span_obj.attrs["profile"] = self._profiler.stop()
        stack = _stack()
        if stack and stack[-1] is span_obj:
            stack.pop()
        elif span_obj in stack:  # tolerate mis-nested exits
            stack.remove(span_obj)
        self._tracer.finish(span_obj)
        return False


def span(name: str, **attrs):
    """Open a span under the active tracer; no-op when tracing is off.

    Usage::

        with span("vm1_pass", pass_idx=3) as sp:
            ...
            sp.set(windows=built)
    """
    tracer = getattr(_TLS, "tracer", _UNSET)
    if tracer is _UNSET:
        tracer = _GLOBAL
    if tracer is None:
        return NULL_SPAN
    return _SpanHandle(tracer, name, attrs)


def current_context() -> tuple[str, str | None] | None:
    """The ``(trace_id, span_id)`` to ship into a worker payload so
    its spans parent under the current span; ``None`` when tracing is
    off (workers then skip span synthesis entirely)."""
    tracer = getattr(_TLS, "tracer", _UNSET)
    if tracer is _UNSET:
        tracer = _GLOBAL
    if tracer is None:
        return None
    stack = getattr(_TLS, "stack", None)
    if stack:
        return (tracer.trace_id, stack[-1].span_id)
    return (tracer.trace_id, tracer.root_parent_id)


def current_span_names() -> tuple[str, ...]:
    """Names of the spans open on this thread, outermost first.

    Cheap introspection for callers that predicate on *where* they
    are in the trace tree (e.g. chaos span-match triggers) without
    holding span objects; empty when tracing is off.
    """
    stack = getattr(_TLS, "stack", None)
    if not stack:
        return ()
    return tuple(s.name for s in stack)


class collecting:
    """Worker-side span collection seeded from a shipped context.

    Installs a fresh in-memory :class:`Tracer` as this thread's active
    tracer (``ctx[1]`` becomes the root parent) so library code inside
    the worker — e.g. a shard's whole ``vm1_opt`` — traces normally;
    ``export()`` then hands the spans back as dicts to return across
    the process boundary.  ``ctx=None`` (tracing off in the parent)
    yields a stub whose ``export()`` is empty and activates nothing.
    """

    def __init__(self, ctx: tuple[str, str | None] | None) -> None:
        self.ctx = ctx
        self._scope: tracer_scope | None = None
        self.tracer: Tracer | None = None

    def __enter__(self) -> "collecting":
        if self.ctx is not None:
            self.tracer = Tracer(
                trace_id=self.ctx[0], root_parent_id=self.ctx[1]
            )
            self._scope = tracer_scope(self.tracer)
            self._scope.__enter__()
        return self

    def __exit__(self, *exc_info) -> None:
        if self._scope is not None:
            self._scope.__exit__(*exc_info)

    def export(self) -> list[dict]:
        if self.tracer is None:
            return []
        return self.tracer.export()


def span_children(spans: list[Span]) -> dict[str | None, list[Span]]:
    """Parent-id -> children index over a span list (report helper)."""
    children: dict[str | None, list[Span]] = {}
    for span_obj in spans:
        children.setdefault(span_obj.parent_id, []).append(span_obj)
    return children


def tree_shape(spans) -> list:
    """Canonical (name-sorted) nested-list shape of a span forest.

    Two runs produce the same value exactly when their span trees have
    the same structure — the cross-executor propagation tests compare
    serial vs thread vs process runs with this.  Accepts spans or
    span dicts.  Roots are spans whose parent is absent from the set
    (the shipped-in root parent id, or ``None``).
    """
    objs = [
        s if isinstance(s, Span) else Span.from_dict(s) for s in spans
    ]
    ids = {s.span_id for s in objs}
    children: dict[str | None, list[Span]] = {}
    roots: list[Span] = []
    for s in objs:
        if s.parent_id in ids:
            children.setdefault(s.parent_id, []).append(s)
        else:
            roots.append(s)

    def shape(node: Span) -> list:
        subs = sorted(
            (shape(c) for c in children.get(node.span_id, [])),
            key=repr,
        )
        return [node.name, subs]

    return sorted((shape(r) for r in roots), key=repr)
