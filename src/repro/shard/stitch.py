"""Seam reconciliation: merge shard placements and heal the seams.

Merging is a plain placement copy-back — shard sub-designs share
instance names with the parent (see
:func:`repro.shard.partition.extract_shard_design`), every movable
cell stayed inside its own core band, and the cores tile the die, so
the merged placement is overlap-free by construction.

What merging cannot fix is seam *quality*: cells in the boundary rows
were optimized against frozen ghost neighbors, so improving moves that
need both sides of a seam to cooperate were out of reach.  The seam
pass is plain DistOpt (Algorithm 2) over the full design with one
restriction, :func:`seam_window_filter`: only the windows that
straddle a seam (within the halo margin) are optimized, letting both
sides co-optimize with the real, post-shard positions.  It reuses the
standard window machinery — independent families, guarded applies —
so it can only improve the objective and always preserves legality.
It keeps no window memo: a single pass has no earlier solves to
remember, and every window the filter admits is built.

The stitched result is finally verified with the independent
:mod:`repro.check` oracle (plus the production checker); a non-empty
error list means a shard-layer bug, not a noisy solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.check.oracle import check_legal as oracle_check_legal
from repro.core.distopt import DistOptResult, dist_opt
from repro.core.params import OptParams
from repro.core.window import Window
from repro.netlist.design import Design
from repro.shard.partition import ShardPlan

#: Reconciliation perturbation range (sites) — seam moves are local.
SEAM_LX = 3
#: Reconciliation perturbation range (rows).
SEAM_LY = 1


@dataclass
class StitchResult:
    """Outcome of merge + seam reconciliation + verification."""

    cells_merged: int = 0
    seam_windows: int = 0
    seam_pass: DistOptResult | None = None
    verify_errors: list[str] = field(default_factory=list)

    @property
    def legal(self) -> bool:
        return not self.verify_errors


def merge_shard_placements(
    design: Design,
    placements: dict[str, tuple[int, int, str]],
) -> int:
    """Copy shard placements (name -> (x, y, orient)) back; returns
    the number of cells whose placement actually changed."""
    from repro.geometry import Orientation

    moved = 0
    for name, (x, y, orient_value) in placements.items():
        inst = design.instances[name]
        orient = Orientation(orient_value)
        if (inst.x, inst.y, inst.orientation) != (x, y, orient):
            moved += 1
        inst.x, inst.y = int(x), int(y)
        inst.orientation = orient
    return moved


def seam_window_filter(design: Design, plan: ShardPlan):
    """Predicate selecting windows within the halo margin of a seam."""
    rh = design.tech.row_height
    margin = max(1, plan.halo_rows) * rh
    seams = plan.seam_ys

    def accept(window: Window) -> bool:
        rect = window.rect
        return any(
            rect.ylo < y + margin and rect.yhi > y - margin
            for y in seams
        )

    return accept


def run_seam_pass(
    design: Design,
    params: OptParams,
    plan: ShardPlan,
    *,
    executor=None,
) -> DistOptResult:
    """One boundary-window DistOpt pass over every seam.

    Window geometry comes from the last parameter set of ``params``
    (the finest grid the shards themselves finished with); the grid is
    phase-shifted by half a window vertically so that windows straddle
    the seams instead of abutting them.
    """
    tech = design.tech
    u = params.sequence[-1]
    bw = max(tech.site_width, tech.dbu(u.bw_um))
    bh = max(tech.row_height, tech.dbu(u.bh_um))
    return dist_opt(
        design,
        params,
        tx=0,
        ty=(bh // 2 // tech.row_height) * tech.row_height,
        bw=bw,
        bh=bh,
        lx=SEAM_LX,
        ly=SEAM_LY,
        allow_flip=False,
        executor=executor,
        pass_label="seam",
        window_filter=seam_window_filter(design, plan),
    )


def verify_stitched(design: Design) -> list[str]:
    """Independent + production legality check of the merged design."""
    errors = [f"oracle: {msg}" for msg in oracle_check_legal(design)]
    errors.extend(
        f"production: {msg}" for msg in design.check_legal()
    )
    return errors
