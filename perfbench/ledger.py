"""Span-tree arithmetic behind the per-layer ledger.

Everything here is a pure function over finished spans
(:class:`repro.obs.trace.Span` objects), so the rules the
ledger rests on — self time, the tail-percentile choice, metric-name
limits — are tested without running a flow.
"""

from __future__ import annotations

import math
import re
import statistics

from perfbench.gate import TIME_LIMIT_SHARE

#: Metric names the benchmark contract accepts.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
#: Caps on the number of metrics per kind.
MAX_END_TO_END = 16
MAX_PER_LAYER = 128
#: Percentiles the tail rule chooses from, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)
#: A percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


# ------------------------------------------------------------ intervals
def covered_seconds(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``(start, end)`` intervals inside
    ``[lo, hi]``; overlapping intervals are counted once."""
    clipped = sorted(
        (max(start, lo), min(end, hi))
        for start, end in intervals
        if min(end, hi) > max(start, lo)
    )
    total = 0.0
    cur_start = cur_end = None
    for start, end in clipped:
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_seconds(span, children) -> float:
    """A span's duration minus the part of it its children cover."""
    start, wall = span.started_at, span.wall_seconds
    intervals = [
        (c.started_at, c.started_at + c.wall_seconds) for c in children
    ]
    return max(0.0, wall - covered_seconds(intervals, start, start + wall))


def self_times(spans) -> dict[str, float]:
    """``span_id -> self seconds`` for every span of a trace."""
    children: dict[str | None, list] = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append(span)
    return {
        span.span_id: self_seconds(span, children.get(span.span_id, ()))
        for span in spans
    }


# ---------------------------------------------------------- percentiles
def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile (``pct`` in 0..100)."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    if len(data) == 1:
        return float(data[0])
    rank = (len(data) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (rank - low)


def tail_percentile(count: int) -> float | None:
    """The highest ladder percentile with at least :data:`MIN_BEYOND`
    of ``count`` samples beyond it; ``None`` when even the median has
    fewer."""
    best = None
    for pct in PERCENTILE_LADDER:
        if count * (1.0 - pct / 100.0) >= MIN_BEYOND - 1e-9:
            best = pct
    return best


def summarize(values) -> dict:
    """Median, the tail percentile the rule allows, and the count."""
    values = list(values)
    doc = {"n": len(values)}
    if values:
        doc["median"] = statistics.median(values)
        pct = tail_percentile(len(values))
        if pct is not None:
            doc["tail_pct"] = pct
            doc["tail"] = percentile(values, pct)
    return doc


# ---------------------------------------------------------------- names
def check_metric_names(end_to_end, per_layer) -> list[str]:
    """Contract violations among metric names (empty when fine)."""
    errors = []
    if not 1 <= len(end_to_end) <= MAX_END_TO_END:
        errors.append(
            f"{len(end_to_end)} end-to-end metrics, want 1..{MAX_END_TO_END}"
        )
    if not 1 <= len(per_layer) <= MAX_PER_LAYER:
        errors.append(
            f"{len(per_layer)} per-layer metrics, want 1..{MAX_PER_LAYER}"
        )
    seen = set()
    for name in list(end_to_end) + list(per_layer):
        if not NAME_RE.match(name):
            errors.append(f"bad metric name {name!r}")
        if name in seen:
            errors.append(f"duplicate metric name {name!r}")
        seen.add(name)
    return errors


# ------------------------------------------------------------- ledger
#: Span names the benchmark opens around program calls that have no
#: span of their own (see perfbench/probes.py).
BENCH_SPANS = {
    "timing": "bench.timing",
    "slice": "bench.window_slice",
    "apply": "bench.apply",
    "objective": "bench.objective",
    "cache_probe": "bench.cache_probe",
    "dispatch": "bench.dispatch",
    "extract": "bench.shard_extract",
}

#: Window outcomes that mean a solve was built but moved nothing.
WASTED_OUTCOMES = ("no_move", "reverted")


def _attr(span, key, default=0):
    return span.attrs.get(key, default)


def group_by_root(spans) -> list[list]:
    """Spans grouped by their top-level ancestor (one group per flow
    or job), in the order the roots appear."""
    by_id = {s.span_id: s for s in spans}
    root_of: dict[str, str] = {}

    def root(span) -> str:
        chain = []
        while span.span_id not in root_of:
            chain.append(span.span_id)
            parent = by_id.get(span.parent_id)
            if parent is None:
                root_of[span.span_id] = span.span_id
                break
            span = parent
        top = root_of[span.span_id]
        for span_id in chain:
            root_of[span_id] = top
        return top

    groups: dict[str, list] = {}
    for span in spans:
        groups.setdefault(root(span), []).append(span)
    return list(groups.values())


def _subtree_ids(spans, tops) -> set[str]:
    """Ids of every span below any of ``tops``."""
    children: dict[str | None, list] = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append(span)
    found: set[str] = set()
    stack = [t.span_id for t in tops]
    while stack:
        for child in children.get(stack.pop(), ()):
            if child.span_id not in found:
                found.add(child.span_id)
                stack.append(child.span_id)
    return found


def flow_ledger(spans, *, time_limit: float) -> dict[str, float]:
    """Raw per-layer sums over the spans of one flow (or job)."""
    selfs = self_times(spans)
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def wall(name: str) -> float:
        return sum(s.wall_seconds for s in by_name.get(name, ()))

    def self_s(name: str) -> float:
        return sum(selfs[s.span_id] for s in by_name.get(name, ()))

    def total(name: str, key: str) -> float:
        return sum(_attr(s, key) for s in by_name.get(name, ()))

    # Shard workers inherit the parent's probes when forked; their
    # dispatch spans run inside the shard span, in parallel, so only
    # the parent's own dispatches add up to wall time.
    in_shard = _subtree_ids(spans, by_name.get("shard", ()))
    passes = by_name.get("distopt", ())
    windows = [
        s for s in by_name.get("window", ())
        if _attr(s, "outcome", "") != "empty"
    ]
    solves = [s.wall_seconds for s in by_name.get("solve", ())]
    dispatch = by_name.get(BENCH_SPANS["dispatch"], ())
    shards = [s.wall_seconds for s in by_name.get("shard", ())]
    seam_ids = {s.span_id for s in by_name.get("seam", ())}
    limited = sum(
        1 for t in solves if t >= TIME_LIMIT_SHARE * time_limit
    ) + sum(
        1 for s in windows if _attr(s, "outcome", "") == "timed_out"
    )
    return {
        "netlist.generate_s": wall("generate"),
        "placement.place_s": wall("place"),
        "routing.route_init_s": self_s("route_init"),
        "routing.route_final_s": self_s("route_final"),
        "timing.analyze_s": wall(BENCH_SPANS["timing"]),
        "core.vm1_opt_s": wall("vm1_opt"),
        "core.passes": len(passes),
        "core.windows": total("distopt", "windows"),
        "core.windows_built": total("distopt", "windows_built"),
        "core.windows_applied": total("distopt", "windows_applied"),
        "core.distopt_self_s": self_s("distopt"),
        "core.window_slice_s": wall(BENCH_SPANS["slice"]),
        "core.apply_s": wall(BENCH_SPANS["apply"]),
        "core.objective_s": wall(BENCH_SPANS["objective"]),
        "core.dirty.skipped": total("distopt", "windows_skipped_clean"),
        "core.windowcache.hits": total("distopt", "windows_cached"),
        "core.windowcache.probe_s": wall(BENCH_SPANS["cache_probe"]),
        "formulation.build_s": wall("build"),
        "formulation.pairs": total("solve", "num_pairs"),
        "milp.solves": len(solves),
        "milp.presolve_s": wall("presolve"),
        "milp.solve_s": sum(solves),
        "milp.time_limited": limited,
        "runtime.dispatch_s": sum(
            s.wall_seconds for s in dispatch if s.span_id not in in_shard
        ),
        "runtime.queue_wait_s": sum(_attr(s, "queue_s") for s in dispatch),
        "runtime.overhead_s": sum(
            max(0.0, s.wall_seconds - _attr(s, "critical_s"))
            for s in dispatch
        ),
        "runtime.retries": sum(_attr(s, "retries") for s in dispatch),
        "shard.plan_s": wall("shard_plan"),
        "shard.extract_s": wall(BENCH_SPANS["extract"]),
        "shard.payload_bytes": total(BENCH_SPANS["extract"], "bytes"),
        "shard.worker_s_max": max(shards, default=0.0),
        "shard.imbalance": (
            max(shards) / statistics.fmean(shards) if shards else 0.0
        ),
        "shard.seam_s": wall("seam"),
        "shard.seam_applied": sum(
            _attr(s, "windows_applied")
            for s in passes
            if s.parent_id in seam_ids
        ),
        # Denominators and distributions, consumed by layer_metrics.
        "_windows_built": len(windows),
        "_windows_wasted": sum(
            1 for s in windows
            if _attr(s, "outcome", "") in WASTED_OUTCOMES
        ),
        "_solves": solves,
    }


def layer_metrics(spans, *, time_limit: float) -> dict[str, float]:
    """Per-layer metrics for a traced run: mean per flow (or job) of
    every sum; ratios pooled over all flows; solve percentiles over
    every solve of the run; ``milp.time_limited`` and
    ``runtime.retries`` as totals."""
    ledgers = [
        flow_ledger(group, time_limit=time_limit)
        for group in group_by_root(spans)
    ]
    if not ledgers:
        raise ValueError("trace holds no spans")
    solves = [t for doc in ledgers for t in doc["_solves"]]
    out = {
        key: statistics.fmean(doc[key] for doc in ledgers)
        for key in ledgers[0]
        if not key.startswith("_")
    }
    for key in ("milp.time_limited", "runtime.retries"):
        out[key] = sum(doc[key] for doc in ledgers)
    built = sum(doc["_windows_built"] for doc in ledgers)
    wasted = sum(doc["_windows_wasted"] for doc in ledgers)
    out["core.no_move_ratio"] = wasted / built if built else 0.0
    out["core.dirty.skip_ratio"] = (
        out["core.dirty.skipped"] / out["core.windows"]
        if out["core.windows"]
        else 0.0
    )
    out["milp.solve_p50_ms"] = 1e3 * percentile(solves, 50) if solves else 0.0
    out["milp.solve_p99_ms"] = 1e3 * percentile(solves, 99) if solves else 0.0
    out["milp.solve_max_s"] = max(solves, default=0.0)
    return out
