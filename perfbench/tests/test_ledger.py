"""Rules the per-layer ledger rests on."""

import json
from pathlib import Path

import pytest

from repro.obs.trace import Span

from perfbench import run
from perfbench.ledger import (
    check_metric_names,
    layer_metrics,
    self_seconds,
    tail_percentile,
)

ROOT = Path(__file__).resolve().parents[2]


def _span(name, start, wall, parent=None, span_id=None, **attrs):
    return Span(
        name=name,
        trace_id="t",
        span_id=span_id or f"{name}@{start}",
        parent_id=parent,
        started_at=float(start),
        wall_seconds=float(wall),
        attrs=attrs,
    )


def test_self_time_merges_overlapping_children():
    parent = _span("distopt", 0, 10)
    children = [
        _span("a", 1, 3),  # [1, 4]
        _span("b", 3, 3),  # [3, 6] overlaps a: union [1, 6]
        _span("c", 8, 1),  # [8, 9]
    ]
    assert self_seconds(parent, children) == pytest.approx(4.0)


def test_self_time_clips_children_to_the_parent():
    parent = _span("opt", 10, 5)
    children = [_span("shard", 8, 4), _span("seam", 14, 3)]  # [10,12] + [14,15]
    assert self_seconds(parent, children) == pytest.approx(2.0)
    assert self_seconds(parent, []) == pytest.approx(5.0)


@pytest.mark.parametrize(
    "count, expected",
    [(0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
     (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0),
     (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected


def test_declared_metric_names_meet_the_contract():
    e2e = [name for name, _ in run.END_TO_END]
    layers = [name for name, _ in run.PER_LAYER]
    assert check_metric_names(e2e, layers) == []
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["end_to_end"]] == e2e
    assert [m["name"] for m in doc["per_layer"]] == layers
    assert [m["unit"] for m in doc["end_to_end"]] == [u for _, u in run.END_TO_END]
    assert [m["unit"] for m in doc["per_layer"]] == [u for _, u in run.PER_LAYER]


def test_bad_names_and_caps_are_reported():
    errors = check_metric_names(["ok", "bad name", "ok"], [])
    assert any("bad metric name" in e for e in errors)
    assert any("duplicate" in e for e in errors)
    assert any("per-layer" in e for e in errors)
    too_many = [f"m{i}" for i in range(17)]
    assert any("end-to-end" in e for e in check_metric_names(too_many, ["x"]))
    assert check_metric_names(["x" * 65], ["y"]) != []


def test_ledger_counts_parent_dispatch_only():
    flow = _span("flow", 0, 10, span_id="flow")
    opt = _span("opt", 1, 8, parent="flow", span_id="opt")
    shard = _span("shard", 2, 5, parent="opt", span_id="shard")
    spans = [
        flow,
        opt,
        shard,
        _span("bench.dispatch", 3, 4, parent="shard", span_id="d1"),
        _span("seam", 7, 2, parent="opt", span_id="seam"),
        _span("bench.dispatch", 7.5, 1, parent="seam", span_id="d2",
              critical_s=0.25, queue_s=0.5, retries=1),
        _span("solve", 4, 10.0, parent="d1", span_id="s1"),
    ]
    metrics = layer_metrics(spans, time_limit=10.0)
    assert metrics["runtime.dispatch_s"] == pytest.approx(1.0)
    assert metrics["runtime.overhead_s"] == pytest.approx(0.75 + 4.0)
    assert metrics["runtime.retries"] == 1
    assert metrics["milp.time_limited"] == 1
    assert metrics["shard.worker_s_max"] == pytest.approx(5.0)
    assert metrics["shard.seam_s"] == pytest.approx(2.0)
