"""repro.obs — the observability spine: tracing, metrics, profiling.

Four pieces, one surface:

* :mod:`repro.obs.trace` — hierarchical spans propagated across
  thread and process executors (``span()``, ``current_context``,
  ``Tracer``, ``collecting``);
* :mod:`repro.obs.metrics` — labeled counter and pull-gauge registry
  rendering Prometheus text;
* :mod:`repro.obs.export` — append-only NDJSON trace sink plus the
  self-contained HTML timeline report;
* :mod:`repro.obs.profile` — opt-in sampling profiler attachable to
  any span.

See DESIGN.md §12 for the architecture; the run telemetry document
is a view of the span tree (:mod:`repro.runtime.telemetry`).
"""

from repro.log import subsystem_logger

from repro.obs.export import (
    TraceWriter,
    read_trace,
    render_timeline_html,
    write_report,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
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
    new_id,
    span,
    tracer_scope,
    tree_shape,
)

logger = subsystem_logger("repro.obs")

__all__ = [
    "TRACE_SCHEMA",
    "NULL_SPAN",
    "Counter",
    "Gauge",
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
    "new_id",
    "profile_block",
    "read_trace",
    "render_timeline_html",
    "span",
    "tracer_scope",
    "tree_shape",
    "write_report",
]
