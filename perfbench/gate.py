"""Correctness gate: every output the benchmark times is also checked.

The checks use the independent oracle in :mod:`repro.check.oracle`,
never the production legality or objective code, so a change that
breaks placement cannot also hide it.
"""

from __future__ import annotations

import hashlib

from repro.check.oracle import check_legal, oracle_objective
from repro.runtime import WindowRecord

#: Relative tolerance between the reported and the oracle objective.
OBJECTIVE_TOL = 1e-6
#: A solve that ran this close to the per-window limit was cut by it.
TIME_LIMIT_SHARE = 0.98
#: Window outcomes that count as a failed operation.
FAILED_WINDOW_STATUSES = ("failed", "no_solution", "timed_out")


def placement_digest(design) -> str:
    """SHA-256 over every instance's name, origin and orientation."""
    digest = hashlib.sha256()
    for name in sorted(design.instances):
        inst = design.instances[name]
        digest.update(
            f"{name} {inst.x} {inst.y} {inst.orientation.value}\n".encode()
        )
    return digest.hexdigest()


def check_design(design, params, reported_objective: float) -> list[str]:
    """Oracle legality plus the oracle objective against the one the
    optimizer reported."""
    errors = [f"illegal placement: {e}" for e in check_legal(design)[:5]]
    oracle = oracle_objective(design, params)
    if abs(oracle - reported_objective) > OBJECTIVE_TOL * max(
        1.0, abs(oracle)
    ):
        errors.append(
            f"objective mismatch: reported {reported_objective!r}, "
            f"oracle {oracle!r}"
        )
    return errors


def check_windows(records, time_limit: float) -> list[str]:
    """Failed, unsolved, timed-out or time-limited window solves among
    :class:`repro.runtime.WindowRecord` entries."""
    errors = []
    for rec in records:
        if rec.status in FAILED_WINDOW_STATUSES:
            errors.append(
                f"window {rec.pass_label} ({rec.ix},{rec.iy}): {rec.status}"
            )
        elif rec.solve_seconds >= TIME_LIMIT_SHARE * time_limit:
            errors.append(
                f"window {rec.pass_label} ({rec.ix},{rec.iy}) hit the "
                f"{time_limit:g}s solve limit"
            )
    return errors


def check_telemetry(doc: dict | None, time_limit: float) -> list[str]:
    """:func:`check_windows` over the ``windows_detail`` of a saved
    telemetry summary (a service job's ``telemetry.json``)."""
    if doc is None:
        return ["no telemetry"]
    records = [WindowRecord(**r) for r in doc.get("windows_detail", ())]
    return check_windows(records, time_limit)


class DigestBook:
    """Every run of one design must end in the same placement."""

    def __init__(self) -> None:
        self.digests: dict[object, str] = {}

    def record(self, key, digest: str) -> list[str]:
        first = self.digests.setdefault(key, digest)
        if first != digest:
            return [f"design {key}: placement digest {digest[:12]} != {first[:12]}"]
        return []
