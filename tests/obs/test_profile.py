"""Tests for the sampling profiler (repro.obs.profile)."""

import time

from repro.obs.export import render_timeline_html
from repro.obs.profile import DIGEST_ATTR, SamplingProfiler, profile_block
from repro.obs.trace import Tracer, span, tracer_scope


def _busy(deadline: float) -> int:
    total = 0
    while time.perf_counter() < deadline:
        total += sum(range(200))
    return total


def test_profiler_samples_current_thread():
    profiler = SamplingProfiler(interval=0.001)
    profiler.start()
    _busy(time.perf_counter() + 0.15)
    result = profiler.stop()
    assert result["samples"] > 0
    assert result["interval"] == 0.001
    assert result["stacks"], "expected at least one collapsed stack"
    top = result["stacks"][0]
    assert top["count"] >= 1
    # outermost-first collapsed frames, file:func joined with ';'
    assert ";" in top["stack"] or ":" in top["stack"]
    assert "_busy" in top["stack"]


def test_profiler_stop_is_idempotent_and_joins():
    profiler = SamplingProfiler(interval=0.001)
    profiler.start()
    time.sleep(0.02)
    first = profiler.stop()
    second = profiler.stop()
    assert second["samples"] == first["samples"]


def test_profile_block_helper():
    with profile_block(interval=0.001) as handle:
        _busy(time.perf_counter() + 0.08)
    result = handle.result
    assert result["samples"] > 0


def test_tracer_attaches_profile_to_named_spans():
    tracer = Tracer(profile_spans=("hot",), profile_interval=0.001)
    with tracer_scope(tracer):
        with span("cold"):
            pass
        with span("hot"):
            _busy(time.perf_counter() + 0.1)
    by_name = {s.name: s for s in tracer.spans}
    assert DIGEST_ATTR not in by_name["cold"].attrs
    prof = by_name["hot"].attrs[DIGEST_ATTR]
    assert prof["samples"] > 0


def test_profiling_the_flow_span_keeps_its_profile_name():
    """The ``flow`` span's ``profile`` attr is the design profile: a
    profiled flow records its digest under its own key, and the HTML
    report shows the profile name but not the digest."""
    from repro.flow import FlowConfig, run_flow

    tracer = Tracer(profile_spans=("flow",), profile_interval=0.001)
    with tracer_scope(tracer):
        run_flow(FlowConfig(profile="aes", scale=0.005, optimize=False))
    (flow,) = [s for s in tracer.spans if s.name == "flow"]
    assert flow.attrs["profile"] == "aes"
    assert flow.attrs[DIGEST_ATTR]["samples"] > 0
    report = render_timeline_html(tracer.spans)
    assert "&quot;profile&quot;: &quot;aes&quot;" in report
    assert DIGEST_ATTR not in report
