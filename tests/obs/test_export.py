"""Tests for trace persistence + HTML reporting (repro.obs.export)."""

import json

from repro.obs.export import (
    TraceWriter,
    read_trace,
    render_timeline_html,
    write_report,
)
from repro.obs.trace import TRACE_SCHEMA, new_id
from tests.obs._spans import make_span_dict


def _span_doc(name, trace_id, parent_id=None, **kw):
    defaults = dict(started_at=0.0, wall_seconds=0.1)
    defaults.update(kw)
    return make_span_dict(
        name=name, trace_id=trace_id, parent_id=parent_id, **defaults
    )


def test_writer_header_then_spans(tmp_path):
    path = tmp_path / "t.ndjson"
    writer = TraceWriter(path)
    tid = new_id()
    writer.write(_span_doc("a", tid))
    writer.close()
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    assert header == {"type": "header", "schema": TRACE_SCHEMA}
    assert json.loads(lines[1])["name"] == "a"


def test_writer_opens_lazily(tmp_path):
    path = tmp_path / "t.ndjson"
    writer = TraceWriter(path)
    writer.close()
    assert not path.exists()  # nothing written, no file


def test_append_to_existing_file_writes_no_second_header(tmp_path):
    path = tmp_path / "t.ndjson"
    tid = new_id()
    first = TraceWriter(path)
    first.write(_span_doc("attempt1", tid))
    first.close()
    second = TraceWriter(path)  # the resume case
    second.write(_span_doc("attempt2", tid))
    second.close()
    lines = path.read_text().splitlines()
    headers = [
        ln for ln in lines if json.loads(ln).get("type") == "header"
    ]
    assert len(headers) == 1
    assert [s.name for s in read_trace(path)] == [
        "attempt1",
        "attempt2",
    ]


def test_read_trace_skips_torn_and_junk_lines(tmp_path):
    path = tmp_path / "t.ndjson"
    tid = new_id()
    good = json.dumps(_span_doc("ok", tid))
    path.write_text(
        "\n".join(
            [
                json.dumps({"type": "header", "schema": TRACE_SCHEMA}),
                good,
                '{"name": "torn", "span_',  # SIGKILL mid-write
                "not json at all",
                json.dumps({"no_name": True}),
                "",
            ]
        )
    )
    spans = read_trace(path)
    assert [s.name for s in spans] == ["ok"]


def test_render_timeline_html_structure():
    tid = new_id()
    root = _span_doc("flow", tid, wall_seconds=2.0)
    child = _span_doc(
        "opt",
        tid,
        parent_id=root["span_id"],
        started_at=0.5,
        wall_seconds=1.0,
    )
    bad = _span_doc(
        "route",
        tid,
        parent_id=root["span_id"],
        started_at=1.5,
        wall_seconds=0.2,
    )
    bad["status"] = "error:ValueError"
    from repro.obs.trace import Span

    html_text = render_timeline_html(
        [Span.from_dict(d) for d in (root, child, bad)],
        title="my trace",
    )
    assert html_text.startswith("<!DOCTYPE html>")
    assert "my trace" in html_text
    assert "flow" in html_text and "opt" in html_text
    assert "bar err" in html_text  # errored span is highlighted
    assert "3 spans" in html_text
    # self-contained: no external refs
    assert "src=" not in html_text and "href=" not in html_text


def test_write_report_defaults_to_html_suffix(tmp_path):
    path = tmp_path / "run.ndjson"
    writer = TraceWriter(path)
    writer.write(_span_doc("only", new_id()))
    writer.close()
    out = write_report(path)
    assert out == tmp_path / "run.html"
    assert "only" in out.read_text()
