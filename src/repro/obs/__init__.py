"""repro.obs — the observability spine: tracing, metrics, profiling.

Four pieces, one surface:

* :mod:`repro.obs.trace` — hierarchical spans propagated across
  thread and process executors (``span()``, ``current_context``,
  ``Tracer``, ``collecting``);
* :mod:`repro.obs.metrics` — labeled counter/gauge/histogram registry
  rendering both Prometheus text and telemetry JSON;
* :mod:`repro.obs.export` — append-only NDJSON trace sink plus the
  self-contained HTML timeline report;
* :mod:`repro.obs.profile` — opt-in sampling profiler attachable to
  any span.

See DESIGN.md §12 for the architecture and the v3→v4 telemetry
migration.
"""

from repro.log import subsystem_logger

from repro.obs.export import (
    TraceWriter,
    read_trace,
    render_timeline_html,
    write_report,
)
from repro.obs.metrics import (
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.profile import SamplingProfiler, profile_block
from repro.obs.trace import (
    NULL_SPAN,
    TRACE_SCHEMA,
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

logger = subsystem_logger("repro.obs")

__all__ = [
    "TRACE_SCHEMA",
    "NULL_SPAN",
    "REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SamplingProfiler",
    "Span",
    "TraceWriter",
    "Tracer",
    "active",
    "collecting",
    "current_context",
    "disable",
    "enable",
    "make_span_dict",
    "new_id",
    "profile_block",
    "read_trace",
    "render_timeline_html",
    "span",
    "tracer_scope",
    "tree_shape",
    "write_report",
]
