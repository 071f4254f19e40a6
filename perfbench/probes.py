"""Parent-side spans around program calls that have no span today.

The traced run patches these public (and one module-private) call
sites for its own duration only, so each call opens a span under the
active tracer and the ledger can attribute its time.  Nothing under
``src/`` changes.  Forked shard workers inherit the patches, and their
spans come back inside the shard subtrees the workers ship to the
parent; the ledger reads the sharded numbers from those subtrees.

A target that no longer exists is skipped and listed, so a refactor in
the program shows up as a missing layer rather than a crashed run.
"""

from __future__ import annotations

import contextlib
import importlib
import pickle

from repro.obs.trace import Span, span

from perfbench.ledger import BENCH_SPANS


def _dispatch_attrs(sp: Span, args, outcomes) -> None:
    """Queue wait, retries and the worker critical path of one family
    dispatch (``FamilyScheduler.run_family``)."""
    scheduler = args[0]
    paths = [
        o.build_seconds + o.presolve_seconds + o.solve_seconds
        for o in outcomes.values()
    ]
    workers = max(1, getattr(scheduler.executor, "jobs", 1))
    sp.set(
        tasks=len(paths),
        queue_s=sum(o.queue_seconds for o in outcomes.values()),
        retries=sum(max(0, o.attempts - 1) for o in outcomes.values()),
        # Lower bound on the makespan of these tasks on ``workers``.
        critical_s=max(max(paths, default=0.0), sum(paths) / workers),
    )


def _payload_attrs(sp: Span, args, design) -> None:
    sp.set(bytes=len(pickle.dumps(design, protocol=pickle.HIGHEST_PROTOCOL)))


#: (module[:class], attribute, span name, hook run after the call).
PROBES = (
    ("repro.flow.flow", "analyze_timing", BENCH_SPANS["timing"], None),
    ("repro.flow.flow", "estimate_power", BENCH_SPANS["timing"], None),
    ("repro.timing", "analyze_timing", BENCH_SPANS["timing"], None),
    ("repro.timing", "estimate_power", BENCH_SPANS["timing"], None),
    ("repro.core.distopt", "window_slice", BENCH_SPANS["slice"], None),
    ("repro.core.distopt", "_apply_outcome", BENCH_SPANS["apply"], None),
    (
        "repro.core.distopt",
        "calculate_objective",
        BENCH_SPANS["objective"],
        None,
    ),
    (
        "repro.core.vm1opt",
        "calculate_objective",
        BENCH_SPANS["objective"],
        None,
    ),
    (
        "repro.shard.runner",
        "calculate_objective",
        BENCH_SPANS["objective"],
        None,
    ),
    (
        "repro.core.windowcache:WindowSolveCache",
        "probe",
        BENCH_SPANS["cache_probe"],
        None,
    ),
    (
        "repro.runtime.scheduler:FamilyScheduler",
        "run_family",
        BENCH_SPANS["dispatch"],
        _dispatch_attrs,
    ),
    (
        "repro.shard.runner",
        "extract_shard_design",
        BENCH_SPANS["extract"],
        _payload_attrs,
    ),
)


def _wrap(fn, name: str, after):
    def probe(*args, **kwargs):
        with span(name) as sp:
            result = fn(*args, **kwargs)
        if after is not None and isinstance(sp, Span):
            after(sp, args, result)
        return result

    probe.__wrapped__ = fn
    return probe


def _owner(path: str):
    module_name, _, class_name = path.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(owner, class_name, None) if class_name else owner


@contextlib.contextmanager
def instrumented():
    """Install every probe; yields the list of targets not found."""
    patched = []
    missing = []
    try:
        for path, attr, name, after in PROBES:
            owner = _owner(path)
            original = getattr(owner, attr, None)
            if original is None:
                missing.append(f"{path}.{attr}")
                continue
            setattr(owner, attr, _wrap(original, name, after))
            patched.append((owner, attr, original))
        yield missing
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)
