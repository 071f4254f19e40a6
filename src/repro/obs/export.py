"""Trace persistence and reporting.

The on-disk form is append-only NDJSON, same idiom as the job store's
``events.ndjson``: a header line identifying the schema
(``repro.obs.trace/v1``), then one span dict per line, each flushed as
written.  Appends are atomic enough for our purposes (single writer
per file, O_APPEND); readers tolerate a torn final line from a
SIGKILLed writer by skipping anything that doesn't parse.  A resumed
run re-opens the same file in append mode and keeps the same
``trace_id``, so one file holds one coherent trace across attempts.

:func:`render_timeline_html` turns a trace into a self-contained HTML
page — no JavaScript, no external assets — with a nested span tree,
proportional wall-time bars, and a per-name aggregate table (the
"flame view" is the tree with bars; sorting by self-time lives in the
aggregate table).  ``repro trace report`` is a thin CLI wrapper over
:func:`write_report`.
"""

from __future__ import annotations

import html
import json
import os
import threading
from pathlib import Path

from repro.obs.profile import DIGEST_ATTR
from repro.obs.trace import (
    TRACE_SCHEMA,
    Span,
    span_children,
)


class TraceWriter:
    """Append-only NDJSON span sink (``sink=`` for a Tracer).

    Opens lazily on first write so enabling tracing never creates an
    empty file for a run that records nothing.  The header line is
    written once per *file* (skipped when appending to an existing
    non-empty file — the resume case).
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self._fh = None
        self._lock = threading.Lock()

    def _open(self):
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fresh = (
                not self.path.exists()
                or self.path.stat().st_size == 0
            )
            self._fh = open(self.path, "a", encoding="utf-8")
            if fresh:
                self._fh.write(
                    json.dumps(
                        {"type": "header", "schema": TRACE_SCHEMA},
                        sort_keys=True,
                    )
                    + "\n"
                )
                self._fh.flush()
        return self._fh

    def write(self, doc: dict) -> None:
        line = json.dumps(doc, sort_keys=True, default=str)
        with self._lock:
            fh = self._open()
            fh.write(line + "\n")
            fh.flush()
            os.fsync(fh.fileno())

    def close(self) -> None:
        with self._lock:
            fh, self._fh = self._fh, None
            if fh is not None:
                fh.close()


def read_trace(path) -> list[Span]:
    """Load spans from an NDJSON trace file.

    Torn-line tolerant: unparseable lines (a writer killed mid-write)
    and unknown record types are skipped, never fatal.  Raises
    ``FileNotFoundError`` only for a missing file.
    """
    spans: list[Span] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError:
                continue
            if not isinstance(doc, dict):
                continue
            if doc.get("type") == "header":
                continue
            if "name" not in doc or "span_id" not in doc:
                continue
            try:
                spans.append(Span.from_dict(doc))
            except (KeyError, TypeError, ValueError):
                continue
    return spans


# ------------------------------------------------------------- report
_CSS = """
body { font-family: ui-monospace, Menlo, Consolas, monospace;
       font-size: 13px; margin: 1.5em; color: #222; }
h1, h2 { font-family: system-ui, sans-serif; }
.lane { display: flex; align-items: baseline; margin: 1px 0;
        white-space: nowrap; }
.lbl { width: 34em; overflow: hidden; text-overflow: ellipsis;
       flex: none; }
.bar-rail { flex: 1; background: #f2f2f2; height: 0.9em;
            position: relative; min-width: 20em; }
.bar { position: absolute; top: 0; height: 100%; background: #4c78a8;
       opacity: 0.85; }
.bar.err { background: #d62728; }
.t { width: 8em; text-align: right; flex: none; color: #555;
     padding-left: 0.6em; }
.attrs { color: #888; padding-left: 1em; font-size: 11px; }
table { border-collapse: collapse; margin-top: 0.5em; }
th, td { border: 1px solid #ccc; padding: 2px 8px; text-align: right; }
th { background: #f2f2f2; }
td.name, th.name { text-align: left; }
.meta { color: #555; }
"""


def _fmt_s(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    return f"{seconds * 1000:.1f}ms"


def _lane(span: Span, depth: int, t0: float, total: float) -> str:
    left = 0.0 if total <= 0 else (span.started_at - t0) / total * 100
    width = 0.0 if total <= 0 else span.wall_seconds / total * 100
    left = min(max(left, 0.0), 100.0)
    width = min(max(width, 0.05), 100.0 - left)
    cls = "bar err" if span.status != "ok" else "bar"
    indent = "&nbsp;" * (depth * 2)
    attrs = ""
    if span.attrs:
        shown = {
            k: v for k, v in span.attrs.items() if k != DIGEST_ATTR
        }
        if shown:
            attrs = (
                f'<span class="attrs">'
                f"{html.escape(json.dumps(shown, sort_keys=True, default=str))}"
                f"</span>"
            )
    title = html.escape(
        f"{span.name} wall={_fmt_s(span.wall_seconds)} "
        f"cpu={_fmt_s(span.cpu_seconds)} status={span.status}"
    )
    return (
        f'<div class="lane" title="{title}">'
        f'<span class="lbl">{indent}{html.escape(span.name)}{attrs}</span>'
        f'<span class="bar-rail">'
        f'<span class="{cls}" style="left:{left:.3f}%;width:{width:.3f}%">'
        f"</span></span>"
        f'<span class="t">{_fmt_s(span.wall_seconds)}</span>'
        f"</div>"
    )


def render_timeline_html(spans: list[Span], title: str = "trace") -> str:
    """Self-contained HTML timeline + per-name aggregate table."""
    spans = sorted(spans, key=lambda s: (s.started_at, s.span_id))
    ids = {s.span_id for s in spans}
    children = span_children(spans)
    roots = [s for s in spans if s.parent_id not in ids]
    t0 = min((s.started_at for s in spans), default=0.0)
    t1 = max(
        (s.started_at + s.wall_seconds for s in spans), default=0.0
    )
    total = max(t1 - t0, 1e-9)

    lanes: list[str] = []

    def walk(node: Span, depth: int) -> None:
        lanes.append(_lane(node, depth, t0, total))
        for child in sorted(
            children.get(node.span_id, []),
            key=lambda s: (s.started_at, s.span_id),
        ):
            walk(child, depth + 1)

    for root in roots:
        walk(root, 0)

    # per-name aggregate: total wall, self wall (minus direct
    # children), cpu, count — the "where did time go" table.
    agg: dict[str, dict] = {}
    for s in spans:
        child_wall = sum(
            c.wall_seconds for c in children.get(s.span_id, [])
        )
        row = agg.setdefault(
            s.name,
            {"count": 0, "wall": 0.0, "self": 0.0, "cpu": 0.0},
        )
        row["count"] += 1
        row["wall"] += s.wall_seconds
        row["self"] += max(s.wall_seconds - child_wall, 0.0)
        row["cpu"] += s.cpu_seconds
    table_rows = "".join(
        f'<tr><td class="name">{html.escape(name)}</td>'
        f"<td>{row['count']}</td>"
        f"<td>{_fmt_s(row['wall'])}</td>"
        f"<td>{_fmt_s(row['self'])}</td>"
        f"<td>{_fmt_s(row['cpu'])}</td></tr>"
        for name, row in sorted(
            agg.items(), key=lambda kv: -kv[1]["self"]
        )
    )

    trace_ids = sorted({s.trace_id for s in spans})
    n_err = sum(1 for s in spans if s.status != "ok")
    meta = (
        f"{len(spans)} spans · trace {', '.join(trace_ids) or '—'}"
        f" · wall {_fmt_s(total)}"
        + (f" · {n_err} errored" if n_err else "")
    )
    return (
        "<!DOCTYPE html><html><head><meta charset='utf-8'>"
        f"<title>{html.escape(title)}</title>"
        f"<style>{_CSS}</style></head><body>"
        f"<h1>{html.escape(title)}</h1>"
        f'<p class="meta">{html.escape(meta)}</p>'
        f"<h2>Timeline</h2>{''.join(lanes)}"
        "<h2>By span name (sorted by self time)</h2>"
        '<table><tr><th class="name">name</th><th>count</th>'
        "<th>wall</th><th>self</th><th>cpu</th></tr>"
        f"{table_rows}</table>"
        "</body></html>"
    )


def write_report(trace_path, out_path=None, title: str | None = None):
    """Render a trace NDJSON file to an HTML report; returns the
    output path (defaults to the trace path with ``.html``)."""
    trace_path = Path(trace_path)
    spans = read_trace(trace_path)
    if out_path is None:
        out_path = trace_path.with_suffix(".html")
    out_path = Path(out_path)
    out_path.write_text(
        render_timeline_html(spans, title=title or trace_path.name),
        encoding="utf-8",
    )
    return out_path
