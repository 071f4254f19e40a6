"""Synthetic finished spans for tests that need a span tree without
running anything."""

from __future__ import annotations

from repro.obs.trace import Span, new_id


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
    """A finished span record with the given timings, as a worker's
    ``collecting(...).export()`` would return it."""
    return Span(
        name=name,
        trace_id=trace_id,
        span_id=span_id or new_id(),
        parent_id=parent_id,
        started_at=started_at,
        wall_seconds=wall_seconds,
        cpu_seconds=cpu_seconds,
        attrs=dict(attrs or {}),
    ).to_dict()
