"""Unit tests for the metrics registry (repro.obs.metrics)."""

import pytest

from repro.obs.metrics import (
    MetricsRegistry,
    escape_help,
    escape_label_value,
    format_value,
)


def test_counter_unlabeled():
    reg = MetricsRegistry()
    c = reg.counter("hits_total", "Hits.")
    c.inc()
    c.inc(2)
    assert c.value() == 3
    assert c.to_value() == 3


def test_counter_rejects_decrease():
    c = MetricsRegistry().counter("n", "h")
    with pytest.raises(ValueError):
        c.inc(-1)


def test_counter_labeled_series():
    reg = MetricsRegistry()
    c = reg.counter("jobs_total", "Jobs.", ("state",))
    c.inc(state="done")
    c.inc(state="done")
    c.inc(state="failed")
    assert c.value(state="done") == 2
    assert c.to_value() == {"done": 2, "failed": 1}


def test_label_mismatch_raises():
    c = MetricsRegistry().counter("n", "h", ("a",))
    with pytest.raises(ValueError):
        c.inc()  # missing label
    with pytest.raises(ValueError):
        c.inc(a="x", b="y")  # extra label


def test_get_or_create_returns_same_metric():
    reg = MetricsRegistry()
    a = reg.counter("n", "h", ("x",))
    b = reg.counter("n", "other help ignored", ("x",))
    assert a is b


def test_conflicting_registration_raises():
    reg = MetricsRegistry()
    reg.counter("n", "h", ("x",))
    with pytest.raises(ValueError):
        reg.gauge("n", "h", ("x",))  # type conflict
    with pytest.raises(ValueError):
        reg.counter("n", "h", ("y",))  # label conflict


def test_gauge_callback_pulls_at_exposition():
    reg = MetricsRegistry()
    state = {"v": 1}
    reg.gauge("live", "h", callback=lambda: state["v"])
    assert "live 1" in reg.render_prometheus()
    state["v"] = 7
    assert "live 7" in reg.render_prometheus()


def test_labeled_gauge_callback():
    reg = MetricsRegistry()
    reg.gauge(
        "jobs",
        "h",
        ("state",),
        callback=lambda: {("queued",): 2, ("done",): 5},
    )
    text = reg.render_prometheus()
    assert 'jobs{state="done"} 5' in text
    assert 'jobs{state="queued"} 2' in text


def test_exposition_help_type_and_stable_order():
    reg = MetricsRegistry()
    reg.counter("b_total", "Second.").inc()
    reg.gauge("a_gauge", "First.", callback=lambda: 1)
    lines = reg.render_prometheus().splitlines()
    assert lines == [
        "# HELP a_gauge First.",
        "# TYPE a_gauge gauge",
        "a_gauge 1",
        "# HELP b_total Second.",
        "# TYPE b_total counter",
        "b_total 1",
    ]
    # Idempotent: a second render is byte-identical.
    assert (
        "\n".join(lines) + "\n" == reg.render_prometheus()
    )


def test_label_value_escaping_in_exposition():
    reg = MetricsRegistry()
    c = reg.counter("n", "h", ("path",))
    c.inc(path='a\\b"c\nd')
    line = reg.render_prometheus().splitlines()[-1]
    assert line == 'n{path="a\\\\b\\"c\\nd"} 1'


def test_escape_helpers():
    assert escape_label_value('x"y') == 'x\\"y'
    assert escape_label_value("a\nb") == "a\\nb"
    assert escape_help("a\nb\\c") == "a\\nb\\\\c"


def test_format_value():
    assert format_value(3) == "3"
    assert format_value(3.0) == "3"
    assert format_value(0.25) == "0.25"


def test_series_sorted_within_metric():
    reg = MetricsRegistry()
    c = reg.counter("n", "h", ("k",))
    c.inc(k="zebra")
    c.inc(k="apple")
    body = [
        ln
        for ln in reg.render_prometheus().splitlines()
        if not ln.startswith("#")
    ]
    assert body == ['n{k="apple"} 1', 'n{k="zebra"} 1']
