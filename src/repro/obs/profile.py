"""Opt-in sampling profiler attachable to any span.

A daemon thread polls :func:`sys._current_frames` at a fixed interval
and aggregates collapsed stacks (``file:func;file:func;...``) for the
thread being profiled.  Pure stdlib, no signals (so it works off the
main thread, where the service runs jobs), and nothing runs at all
unless a span name is listed in the tracer's ``profile_spans`` — the
profiler never touches the disabled-tracing hot path.

The result is a small JSON-able digest stored in the span's
:data:`DIGEST_ATTR` attribute: sample count, interval, and the top
collapsed stacks by hit count.  It is an attribution aid ("which phase
of the pass dominates this span"), not a microbenchmark.

Only spans opened under a tracer that lists their name can be
profiled: ``flow``, its stages and the submitting process's
``distopt`` passes.  Workers record under their own
:class:`~repro.obs.trace.collecting` tracer.  A shard worker's lists
the submitting tracer's names, so its ``shard`` span and the
``distopt`` passes inside it are profiled too; a window worker's
lists none, so ``window``/``build``/``solve`` spans are
never profiled (a sampler thread per window would cost more than most
windows).
"""

from __future__ import annotations

import sys
import threading

#: Span attribute a profiled span's digest is stored under.
DIGEST_ATTR = "profile_digest"
#: Cap on distinct stacks kept in a digest (top by sample count).
MAX_STACKS = 25
#: Cap on frames per collapsed stack (innermost kept).
MAX_DEPTH = 40


def _collapse(frame) -> str:
    parts: list[str] = []
    while frame is not None and len(parts) < MAX_DEPTH:
        code = frame.f_code
        filename = code.co_filename.rsplit("/", 1)[-1]
        parts.append(f"{filename}:{code.co_name}")
        frame = frame.f_back
    parts.reverse()  # outermost first, flamegraph convention
    return ";".join(parts)


class SamplingProfiler:
    """Samples one thread's stack until stopped.

    Args:
        interval: sampling period in seconds.
        thread_id: thread to sample; defaults to the calling thread
            (the span owner).
    """

    def __init__(
        self, interval: float = 0.005, thread_id: int | None = None
    ) -> None:
        self.interval = float(interval)
        self.thread_id = (
            thread_id
            if thread_id is not None
            else threading.get_ident()
        )
        self.samples = 0
        self.stacks: dict[str, int] = {}
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            frame = sys._current_frames().get(self.thread_id)
            if frame is None:
                continue
            self.samples += 1
            key = _collapse(frame)
            self.stacks[key] = self.stacks.get(key, 0) + 1

    def start(self) -> "SamplingProfiler":
        self._thread = threading.Thread(
            target=self._run, name="repro-obs-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> dict:
        """Stop sampling; returns the digest dict."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=max(1.0, self.interval * 10))
            self._thread = None
        top = sorted(
            self.stacks.items(), key=lambda kv: (-kv[1], kv[0])
        )[:MAX_STACKS]
        return {
            "samples": self.samples,
            "interval": self.interval,
            "stacks": [
                {"stack": stack, "count": count}
                for stack, count in top
            ],
        }


def profile_block(interval: float = 0.005):
    """Standalone context manager yielding a profiler whose digest is
    available as ``.result`` after exit (handy in tests)."""

    class _Block:
        def __init__(self) -> None:
            self.profiler = SamplingProfiler(interval=interval)
            self.result: dict | None = None

        def __enter__(self) -> "_Block":
            self.profiler.start()
            return self

        def __exit__(self, *exc_info) -> None:
            self.result = self.profiler.stop()

    return _Block()
