"""Window MILP construction: the §3.1 / §3.2 formulations, written
reduced, straight into solver arrays.

Given one window, the model selects an SCP candidate per movable cell
(λ binaries, constraints (5)–(8) folded into candidate constants),
packs cells onto sites (constraint (9)), tracks each touched net's
HPWL through min/max coordinate columns (constraints (2)–(3)), and
scores direct-vertical-M1 opportunities:

* ClosedM1 — a binary d_pq per candidate-feasible same-net pin pair
  with the big-M alignment test of constraint (4), generalized from H
  to γ·H.
* OpenM1 — overlap columns a/b/o_pq and the escape binary v_pq with
  constraints (11)–(14); d_pq = 1 requires overlap ≥ δ within the γ
  row span, and the overlap length o_pq is rewarded with ε.

Pin pairs that can never align/overlap under any candidate combination
are pruned before a column is created (sound pruning: only provably
d_pq = 0 pairs are dropped).

:func:`build_window_model` writes the model in one pass as the
:class:`~repro.milp.extract.ModelArrays` HiGHS receives, already
reduced.  Each cell's λ columns form an exactly-one group, so the
activity range of every row follows from the pins' attainable
coordinates (min/max over the owner cell's candidates), and each
reduction is computed in closed form as the rows are written
(DESIGN.md §7):

* the HPWL bounds — ``lb(xmax)`` is the larger of the fixed terminals'
  max x and every movable pin's min x, and a pin's xmax row is
  written only when its max x exceeds that bound; likewise ``xmin``,
  ``ymax`` and ``ymin``;
* site rows only where two cells' candidates meet, each distinct
  cover once; a single-candidate cell's λ is fixed instead of
  selected;
* pair rows only when they can bind, with big-M shrunk to the pair's
  attainable span; OpenM1's a and b bounded through constraint (13).

Columns keep their creation order and rows their formulation order;
within a row the coefficients follow the pins' λ columns.

One solver-facing detail rides on the model, a **deterministic
tie-break**.  Window optima are massively degenerate (symmetric swaps,
equal-HPWL shifts), so which optimum a solver returns depends on its
internal ordering.  Every λ gets a tiny objective perturbation —
deterministic in the cell name and the candidate index, total weight
below ``_TIE_BREAK_BUDGET`` — which makes the selected optimum a
property of the *model*, not of the solve path.  That is what makes
the reduced model select the optimum of the unreduced one at gap 0.
(DistOpt's window memo does not lean on it: a skipped window's model
is the remembered one, array for array, so it holds at any gap.)

Every window model admits the identity assignment: candidate 0 (the
current placement) for every cell, every alignment binary off and
every escape binary on.  With the λ pinned there, the model's optimum
is the window's current local objective plus candidate 0's tie-break
weight.  A window solve that reports infeasible or unbounded is
therefore a solver fault (:meth:`repro.runtime.task.WindowTask._run`
relies on this).
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro.core.params import OptParams
from repro.core.scp import Candidate, enumerate_candidates
from repro.core.window import Window
from repro.geometry.orientation import X_MIRRORED
from repro.milp.extract import ModelArrays
from repro.milp.solution import Solution
from repro.netlist.design import Design, Instance, Net, PinRef
from repro.tech.arch import AlignmentMode

#: Total objective weight available to the λ tie-break perturbation.
#: Kept below 0.5 — half the quantum of the integer-valued primary
#: objective — so the perturbation can reorder *tied* optima only.
_TIE_BREAK_BUDGET = 0.45

#: Tolerance of the reductions' activity tests, the structural
#: presolve's own.  Every coefficient, bound and right-hand side is an
#: integer, so any tolerance below 1 decides alike.
_EPS = 1e-9

_INF = float("inf")


@dataclass
class WindowProblem:
    """A built window MILP plus the data needed to apply its result."""

    window: Window
    arrays: ModelArrays
    movable: list[str]
    candidates: dict[str, list[Candidate]]
    #: per movable cell, its λ columns (one per candidate, in order).
    lambda_cols: dict[str, range]
    #: ``(p, q, d column)`` per candidate alignment pin pair.
    pairs: list[tuple[PinRef, PinRef, int]] = field(default_factory=list)
    nets: list[str] = field(default_factory=list)

    @property
    def num_pairs(self) -> int:
        return len(self.pairs)


class _Pin:
    """One pin's attainable geometry.

    A movable pin has one coordinate per candidate of its owner cell,
    and ``cols`` are that cell's λ columns; a fixed pin has one
    coordinate and no columns.  ``bound[kind]`` is the min and max of
    coordinate ``kind``: ``x``, ``y``, and the x-interval ends ``lo``
    and ``hi``.  The per-candidate lists (:meth:`values`) are built
    only for the pins a row or a pair test reads.  A row holds
    ``coordinate · λ`` terms for a movable pin and a constant for a
    fixed one, so :meth:`part` gives the range of the pin's λ terms
    and :meth:`const` its constant.
    """

    __slots__ = ("inst", "cols", "movable", "bound", "_geo", "_values")

    def __init__(self, inst: str, cols, bound: dict, geo=None) -> None:
        self.inst = inst
        self.cols = cols
        self.movable = bool(cols)
        self.bound = bound
        #: the owner's candidate geometry and the pin's offsets, from
        #: which :meth:`values` builds the coordinate lists.
        self._geo = geo
        self._values: dict = {}

    def values(self, kind: str) -> list[int]:
        got = self._values.get(kind)
        if got is None:
            if not self.movable:
                got = [self.bound[kind][0]]
            else:
                cxs, cys, mirrored, y_rel, offsets = self._geo
                if kind == "y":
                    got = [cy + y_rel for cy in cys]
                else:
                    off_n, off_m = offsets[kind]
                    got = [
                        cx + (off_m if m else off_n)
                        for cx, m in zip(cxs, mirrored)
                    ]
            self._values[kind] = got
        return got

    def part(self, kind: str) -> tuple[int, int]:
        """Range of the pin's λ terms of ``kind`` in a row."""
        return self.bound[kind] if self.movable else (0, 0)

    def const(self, kind: str) -> float:
        return 0.0 if self.movable else float(self.bound[kind][0])

    def terms(self, kind: str, negate: bool) -> tuple[list, list]:
        """Columns and coefficients of ``±kind`` over the pin's λ,
        zero coefficients left out."""
        if not self.movable:
            return [], []
        values = self.values(kind)
        if 0 in values:
            kept = [
                (col, -v if negate else v)
                for col, v in zip(self.cols, values)
                if v
            ]
            return [c for c, _ in kept], [v for _, v in kept]
        return list(self.cols), [-v for v in values] if negate else values


class _Arrays:
    """Column and row accumulators of one window model."""

    def __init__(self) -> None:
        self.c: list[float] = []
        self.lb: list[float] = []
        self.ub: list[float] = []
        self.integer: list[int] = []
        self.row_ptr = [0]
        self.cols: list[int] = []
        self.vals: list = []
        self.lo: list[float] = []
        self.hi: list[float] = []

    def add_column(
        self, lb: float, ub: float, integer: int = 0, cost: float = 0.0
    ) -> int:
        self.c.append(cost)
        self.lb.append(lb)
        self.ub.append(ub)
        self.integer.append(integer)
        return len(self.c) - 1

    def add_binaries(self, count: int) -> range:
        start = len(self.c)
        self.c.extend([0.0] * count)
        self.lb.extend([0.0] * count)
        self.ub.extend([1.0] * count)
        self.integer.extend([1] * count)
        return range(start, start + count)

    def add_row(self, cols, vals, lo: float, hi: float) -> None:
        self.cols.extend(cols)
        self.vals.extend(vals)
        self.row_ptr.append(len(self.cols))
        self.lo.append(lo)
        self.hi.append(hi)

    def finish(self) -> ModelArrays:
        return ModelArrays(
            c=np.array(self.c, dtype=np.float64),
            integrality=np.array(self.integer, dtype=np.int64),
            lb=np.array(self.lb, dtype=np.float64),
            ub=np.array(self.ub, dtype=np.float64),
            lo=np.array(self.lo, dtype=np.float64),
            hi=np.array(self.hi, dtype=np.float64),
            row_ptr=np.array(self.row_ptr, dtype=np.int64),
            cols=np.array(self.cols, dtype=np.int64),
            vals=np.array(self.vals, dtype=np.float64),
        )


def build_window_model(
    design: Design,
    window: Window,
    params: OptParams,
    *,
    lx: int,
    ly: int,
    allow_flip: bool,
) -> WindowProblem | None:
    """Build the MILP for ``window``; None when nothing is optimizable."""
    movable_insts = [
        inst
        for inst in design.instances_in(window.rect)
        if not inst.fixed
    ]
    if not movable_insts:
        return None
    movable_names = [inst.name for inst in movable_insts]
    movable_set = set(movable_names)

    blocked = _blocked_sites(design, window, movable_set)
    out = _Arrays()

    candidates: dict[str, list[Candidate]] = {}
    lambda_cols: dict[str, range] = {}
    #: λ column -> index of its cell
    owner: list[int] = []
    site_cover: dict[tuple[int, int], list[int]] = defaultdict(list)
    for cell, inst in enumerate(movable_insts):
        cands = [
            cand
            for cand in enumerate_candidates(
                design, inst, window.rect, lx=lx, ly=ly,
                allow_flip=allow_flip,
            )
            if blocked.isdisjoint(cand.sites)
        ]
        if not cands:  # should not happen: identity is always legal
            return None
        candidates[inst.name] = cands
        cols = out.add_binaries(len(cands))
        lambda_cols[inst.name] = cols
        owner.extend([cell] * len(cands))
        if len(cands) == 1:
            # The only candidate is selected: fixed, no selection row.
            out.lb[cols.start] = 1.0
        else:
            out.add_row(list(cols), [1.0] * len(cands), 1.0, 1.0)
        for cand, col in zip(cands, cols):
            for site in cand.sites:
                site_cover[site].append(col)

    # A site row binds only where two cells' candidates meet: one
    # cell's λ sum to at most 1 already.  λ columns ascend with the
    # cell, so the first and last cover name the extreme cells.
    covers: set[tuple[int, ...]] = set()
    for _site, cols in sorted(site_cover.items()):
        if owner[cols[0]] == owner[cols[-1]]:
            continue
        key = tuple(cols)
        if key in covers:
            continue
        covers.add(key)
        out.add_row(cols, [1.0] * len(cols), -_INF, 1.0)

    nets = _touched_nets(design, movable_set)
    mode = design.tech.arch.alignment_mode
    net_pins = _pin_geometry(
        design, nets, movable_set, candidates, lambda_cols,
        intervals=mode is AlignmentMode.OVERLAP,
    )
    for net, pins in zip(nets, net_pins):
        _hpwl_rows(out, net, pins, params.beta_of(net.name))

    pairs: list[tuple[PinRef, PinRef, int]] = []
    if mode is not AlignmentMode.NONE and params.alpha > 0:
        span = params.gamma * design.tech.row_height
        reward = -float(params.alpha)
        overlap_reward = -float(params.epsilon)
        for net, pins in zip(nets, net_pins):
            if not 2 <= net.degree <= params.max_net_degree:
                continue
            for i, j in _movable_pairs(pins):
                p = pins[i]
                q = pins[j]
                if mode is AlignmentMode.ALIGN:
                    d = _closedm1_pair(out, p, q, span)
                else:
                    d = _openm1_pair(
                        out, p, q, span, params.delta, overlap_reward
                    )
                if d is not None:
                    out.c[d] = reward
                    pairs.append((net.pins[i], net.pins[j], d))

    _perturb_ties(out.c, movable_names, lambda_cols)
    return WindowProblem(
        window=window,
        arrays=out.finish(),
        movable=movable_names,
        candidates=candidates,
        lambda_cols=lambda_cols,
        pairs=pairs,
        nets=[net.name for net in nets],
    )


def solution_moves(
    problem: WindowProblem, solution: Solution
) -> tuple[tuple[str, int, int, bool], ...]:
    """Decode a window solution into plain placement moves.

    Returns one ``(cell, column, row, flipped)`` per movable cell, in
    the problem's canonical cell order.  This is the only part of a
    solution the parent needs to apply it, so it is what a
    :class:`~repro.runtime.task.WindowTask` ships back across the
    process boundary.

    Raises:
        ValueError: if any cell has no (or more than one) selected
            candidate — a corrupt solution.
    """
    moves: list[tuple[str, int, int, bool]] = []
    values = solution.values
    for name in problem.movable:
        cands = problem.candidates[name]
        cols = problem.lambda_cols[name]
        picked = [
            cand
            for cand, col in zip(cands, cols)
            if values.get(col, 0.0) > 0.5  # Solution.is_one
        ]
        if len(picked) != 1:
            raise ValueError(
                f"{name}: {len(picked)} candidates selected"
            )
        cand = picked[0]
        moves.append((name, cand.column, cand.row, cand.flipped))
    return tuple(moves)


def apply_moves(
    design: Design, moves: tuple[tuple[str, int, int, bool], ...]
) -> int:
    """Place decoded moves; returns how many placements changed."""
    moved = 0
    for name, column, row, flipped in moves:
        inst = design.instances[name]
        before = (inst.x, inst.y, inst.orientation)
        design.place(name, column, row, flipped)
        if (inst.x, inst.y, inst.orientation) != before:
            moved += 1
    return moved


def apply_solution(
    design: Design, problem: WindowProblem, solution: Solution
) -> int:
    """Write the selected candidates back into ``design``.

    Returns the number of instances whose placement changed.

    Raises:
        ValueError: if any cell has no selected candidate (corrupt
            solution) — the design is left untouched in that case
        (decoding happens before the first placement write).
    """
    return apply_moves(design, solution_moves(problem, solution))


class SliceIndex:
    """A design's instances bucketed by row origin, so slicing a window
    visits only the rows its rect spans.  Valid while the placement
    does not change: DistOpt slices each family's windows before
    applying any of them, and builds a new index only after a family
    applied a move."""

    def __init__(self, design: Design) -> None:
        instances = self.instances = list(design.instances.values())
        rows: dict[int, list[int]] = {}
        for pos, inst in enumerate(instances):
            rows.setdefault(inst.y, []).append(pos)
        self._row_ys = sorted(rows)
        self._rows = [rows[y] for y in self._row_ys]
        self.max_h = max(
            (inst.macro.height for inst in instances), default=0
        )

    def overlapping(self, xlo: int, ylo: int, xhi: int, yhi: int):
        """Every instance whose bbox overlaps the open rect, in design
        order."""
        instances = self.instances
        found = []
        first = bisect_right(self._row_ys, ylo - self.max_h)
        for row in self._rows[first : bisect_left(self._row_ys, yhi)]:
            for pos in row:
                inst = instances[pos]
                macro = inst.macro
                if (
                    inst.x < xhi
                    and xlo < inst.x + macro.width
                    and ylo < inst.y + macro.height
                ):
                    found.append(pos)
        found.sort()
        return [instances[pos] for pos in found]


def window_slice(
    design: Design, window: Window, index: SliceIndex | None = None
) -> Design | None:
    """The minimal sub-design a worker-side window build needs.

    Collects every instance whose bbox overlaps the window rect (what
    :func:`build_window_model` reads spatially: the movables, which lie
    inside the rect, and every cell that may block one of its sites),
    the movable cells' nets, and those nets' off-window terminal
    instances (HPWL anchors read through ``pin_position``).  That is
    the build's whole input: ``build_window_model`` on the slice is
    input-identical to a build on the full design — same movables,
    same blocked sites, same touched nets, same pin geometry — so it
    produces the same model, bit for bit.  DistOpt's window memo keys
    on exactly this set of instances.

    ``index`` is a :class:`SliceIndex` of the current placement (one
    is built when none is given); it finds the rect's instances
    without scanning the design.

    Returns ``None`` when the window holds no movable cell (nothing
    to build, mirroring the full build's early-out).

    Instance/net objects are *shared* with the parent design, not
    copied: the worker only reads them, and pickling a task for a
    process executor deep-copies the slice anyway.
    """
    if index is None:
        index = SliceIndex(design)
    rect = window.rect
    wx0, wy0, wx1, wy1 = rect.xlo, rect.ylo, rect.xhi, rect.yhi
    hits = index.overlapping(wx0, wy0, wx1, wy1)
    instances: dict[str, Instance] = {}
    movable: set[str] = set()
    # Rect.contains_rect for the movables, without a bbox Rect per
    # instance per window.
    for inst in hits:
        instances[inst.name] = inst
        x = inst.x
        y = inst.y
        if (
            not inst.fixed
            and wx0 <= x
            and x + inst.macro.width <= wx1
            and wy0 <= y
            and y + inst.macro.height <= wy1
        ):
            movable.add(inst.name)
    if not movable:
        return None
    nets: dict[str, Net] = {}
    for net in design.nets_of_instances(movable):
        nets[net.name] = net
        for ref in net.pins:
            if ref.instance not in instances:
                instances[ref.instance] = design.instances[
                    ref.instance
                ]
    sub = Design(design.name, design.tech, design.die)
    sub.instances = instances
    sub.nets = nets
    return sub


# ---------------------------------------------------------------- helpers
def _perturb_ties(
    costs: list[float],
    movable_names: list[str],
    lambda_cols: dict[str, range],
) -> None:
    """Add the deterministic tie-break perturbation to the λ costs.

    Per cell ``c`` each candidate ``k`` gains
    ``scale_c * (k + 1) / (n_c + 1)`` where ``scale_c`` is derived
    from a hash of the cell name.  Within a cell, adjacent candidates
    are separated by at least ``scale_c / (n_c + 1)`` — orders of
    magnitude above solver tolerances — and the total across all cells
    stays below ``_TIE_BREAK_BUDGET`` so no primary-objective decision
    can be reordered, only genuine ties.
    """
    budget = _TIE_BREAK_BUDGET / max(1, len(movable_names))
    for name in movable_names:
        digest = hashlib.blake2b(
            name.encode(), digest_size=8
        ).digest()
        fraction = int.from_bytes(digest, "big") / 2**64
        scale = budget * (0.5 + 0.5 * fraction)
        cols = lambda_cols[name]
        step = scale / (len(cols) + 1)
        for k, col in enumerate(cols):
            costs[col] += step * (k + 1)


def _blocked_sites(
    design: Design, window: Window, movable: set[str]
) -> set[tuple[int, int]]:
    """Sites inside the window footprinted by cells we may not move
    (boundary-straddling or fixed cells).

    Only cells overlapping the window rect can cover such a site, and
    every candidate footprint lies inside the window rect, so the scan
    skips every other instance (a slice holds terminals outside the
    rect): the sites it leaves out could never meet a candidate."""
    blocked: set[tuple[int, int]] = set()
    rect = window.rect
    xlo, ylo, xhi, yhi = rect.xlo, rect.ylo, rect.xhi, rect.yhi
    die = design.die
    sw = design.tech.site_width
    rh = design.tech.row_height
    # Set contents are order-independent — no need to sort the scan.
    for name, inst in design.instances.items():
        if name in movable:
            continue
        x = inst.x
        y = inst.y
        macro = inst.macro
        if (
            x >= xhi
            or x + macro.width <= xlo
            or y >= yhi
            or y + macro.height <= ylo
        ):
            continue
        row = (y - die.ylo) // rh  # Design.row_of
        col = (x - die.xlo) // sw  # Design.column_of
        for c in range(col, col + macro.width_sites):
            blocked.add((row, c))
    return blocked


def _touched_nets(design: Design, movable: set[str]) -> list[Net]:
    nets = design.nets_of_instances(movable)
    return [net for net in nets if not net.is_trivial()]


def _pin_geometry(
    design: Design,
    nets: list[Net],
    movable: set[str],
    candidates: dict[str, list[Candidate]],
    lambda_cols: dict[str, range],
    *,
    intervals: bool,
) -> list[list[_Pin]]:
    """Every touched pin's geometry, per net in pin order; the
    x-interval ends ``lo``/``hi`` of movable pins only when
    ``intervals`` (OpenM1 reads them)."""
    pins: dict[PinRef, _Pin] = {}
    # Candidate geometry is per *instance*, not per pin — hoist it out
    # of the per-pin work so a cell's pins share one sweep.
    inst_geo: dict[str, tuple] = {}
    per_net = []
    for net in nets:
        net_pins = []
        for ref in net.pins:
            pin = pins.get(ref)
            if pin is None:
                pin = pins[ref] = _new_pin(
                    design, ref, movable, candidates, lambda_cols,
                    inst_geo, intervals,
                )
            net_pins.append(pin)
        per_net.append(net_pins)
    return per_net


def _new_pin(
    design, ref, movable, candidates, lambda_cols, inst_geo, intervals
) -> _Pin:
    inst = design.instances[ref.instance]
    if ref.instance not in movable:
        x, y, lo, hi = inst.pin_access(ref.pin)
        return _Pin(
            ref.instance,
            (),
            {"x": (x, x), "y": (y, y), "lo": (lo, lo), "hi": (hi, hi)},
        )
    geo = inst_geo.get(ref.instance)
    if geo is None:
        cands = candidates[ref.instance]
        cxs = [c.x for c in cands]
        cys = [c.y for c in cands]
        mirrored = [c.orientation in X_MIRRORED for c in cands]
        plain = [cx for cx, m in zip(cxs, mirrored) if not m]
        mirror = [cx for cx, m in zip(cxs, mirrored) if m]
        geo = inst_geo[ref.instance] = (
            cxs,
            cys,
            mirrored,
            (min(plain), max(plain)) if plain else None,
            (min(mirror), max(mirror)) if mirror else None,
            min(cys),
            max(cys),
        )
    cxs, cys, mirrored, plain, mirror, cy_min, cy_max = geo
    # The pin's relative geometry has exactly two variants (plain /
    # x-mirrored), both precomputed in the macro's pin table.
    (x_n, y_rel, lo_n, hi_n), (x_m, _, lo_m, hi_m) = (
        inst.macro.pin_access[ref.pin]
    )
    offsets = {"x": (x_n, x_m), "lo": (lo_n, lo_m), "hi": (hi_n, hi_m)}
    bound = {
        "x": _ends(plain, mirror, x_n, x_m),
        "y": (cy_min + y_rel, cy_max + y_rel),
    }
    if intervals:
        bound["lo"] = _ends(plain, mirror, lo_n, lo_m)
        bound["hi"] = _ends(plain, mirror, hi_n, hi_m)
    return _Pin(
        ref.instance,
        lambda_cols[ref.instance],
        bound,
        (cxs, cys, mirrored, y_rel, offsets),
    )


def _ends(plain, mirror, off_n: int, off_m: int) -> tuple[int, int]:
    """Min and max of ``x + offset`` over candidate origins whose x
    ranges are ``plain`` (offset ``off_n``) and ``mirror``
    (``off_m``), either None when no candidate has that orientation."""
    if mirror is None:
        return plain[0] + off_n, plain[1] + off_n
    if plain is None:
        return mirror[0] + off_m, mirror[1] + off_m
    return (
        min(plain[0] + off_n, mirror[0] + off_m),
        max(plain[1] + off_n, mirror[1] + off_m),
    )


def _hpwl_rows(
    out: _Arrays, net: Net, pins: list[_Pin], beta: float
) -> None:
    """Constraints (2)-(3): the net's bounding-box columns and the pin
    rows that can bind them.

    Every touched net has a movable pin (it was found through one).
    A column's fixed-terminal bound and each pin's guaranteed
    coordinate bound it; a pin's row binds only where the pin can
    reach past that bound."""
    moving = [pin for pin in pins if pin.movable]
    # Two rows of one column coincide only for two pins of one cell.
    repeated = len({pin.inst for pin in moving}) < len(moving)
    columns = []
    for kind, pads in (
        ("x", [pad.x for pad in net.pads]),
        ("y", [pad.y for pad in net.pads]),
    ):
        terminals = pads + [
            pin.bound[kind][0] for pin in pins if not pin.movable
        ]
        los = [pin.bound[kind][0] for pin in moving]
        his = [pin.bound[kind][1] for pin in moving]
        # The max column lies above every pin's least coordinate and
        # the min column below every pin's largest.
        max_lb = max(los)
        min_ub = min(his)
        low = min(los)
        high = max(his)
        if terminals:
            f_max = max(terminals)
            f_min = min(terminals)
            max_lb = max(max_lb, f_max)
            min_ub = min(min_ub, f_min)
            low = min(low, f_min)
            high = max(high, f_max)
        col_max = out.add_column(
            float(max_lb), float(high), cost=0.0 + beta
        )
        col_min = out.add_column(
            float(low), float(min_ub), cost=0.0 - beta
        )
        columns.append((kind, col_max, max_lb, col_min, min_ub, los, his))
    seen: set[tuple] = set()
    for i, pin in enumerate(moving):
        for kind, col_max, max_lb, col_min, min_ub, los, his in columns:
            # xmax >= pin: binds only if the pin can pass lb(xmax).
            if his[i] > max_lb:
                _pin_row(out, pin, kind, col_max, 0.0, _INF, seen, repeated)
            # xmin <= pin: binds only if the pin can pass ub(xmin).
            if los[i] < min_ub:
                _pin_row(
                    out, pin, kind, col_min, -_INF, 0.0, seen, repeated
                )


def _pin_row(
    out: _Arrays,
    pin: _Pin,
    kind: str,
    col: int,
    lo: float,
    hi: float,
    seen: set[tuple],
    repeated: bool,
) -> None:
    """``column - pin.<kind>`` within ``[lo, hi]``, unless a pin of the
    same cell already wrote the same row."""
    if repeated:
        key = (col, pin.inst, tuple(pin.values(kind)))
        if key in seen:
            return
        seen.add(key)
    cols, vals = pin.terms(kind, True)
    out.add_row([*cols, col], [*vals, 1.0], lo, hi)


def _row_bounds(
    rest_lo: float, rest_hi: float, coef: float, le: bool, rhs: float
) -> tuple[float, float] | None:
    """The presolve rules for a row ``rest + coef·z (≤ or ≥) rhs`` with
    one free binary ``z`` (absent when ``coef`` is 0) and ``rest``
    ranging over ``[rest_lo, rest_hi]``.

    Returns None when the row can never bind, else the row's
    ``(coef, rhs)``: when one branch of ``z`` cannot bind, the big-M
    coefficient shrinks to the smallest value that enforces the other
    branch identically.
    """
    if le:
        if rest_hi + max(coef, 0.0) <= rhs + _EPS:
            return None
        if coef > 0 and rest_hi <= rhs - _EPS and rest_hi + coef > rhs + _EPS:
            # The z = 0 branch is slack; keep z = 1 exact.
            return rest_hi + coef - rhs, rest_hi
        if coef < 0 and rhs + _EPS < rest_hi < rhs - coef - _EPS:
            # The z = 1 branch is slack; shrink M = -coef.
            return rhs - rest_hi, rhs
    else:
        if rest_lo + min(coef, 0.0) >= rhs - _EPS:
            return None
        if coef < 0 and rest_lo >= rhs + _EPS and rest_lo + coef < rhs - _EPS:
            return rest_lo + coef - rhs, rest_lo
        if coef > 0 and rhs - coef + _EPS < rest_lo < rhs - _EPS:
            return rhs - rest_lo, rhs
    return coef, rhs


def _diff(p: _Pin, q: _Pin, kind: str):
    """``p.<kind> - q.<kind>``: its λ columns and coefficients, its
    constant, and the range of its λ terms."""
    p_cols, p_vals = p.terms(kind, False)
    q_cols, q_vals = q.terms(kind, True)
    p_lo, p_hi = p.part(kind)
    q_lo, q_hi = q.part(kind)
    return (
        p_cols + q_cols,
        p_vals + q_vals,
        p.const(kind) - q.const(kind),
        float(p_lo - q_hi),
        float(p_hi - q_lo),
    )


def _pair_row(
    cols: list,
    vals: list,
    const: float,
    rest_lo: float,
    rest_hi: float,
    z: int,
    coef: float,
    le: bool,
    rhs: float,
):
    """``terms + const + coef·z (≤ or ≥) rhs`` reduced by
    :func:`_row_bounds`, as ``(cols, vals, lo, hi)``; None when it
    cannot bind."""
    reduced = _row_bounds(rest_lo, rest_hi, coef, le, rhs - const)
    if reduced is None:
        return None
    coef, rhs = reduced
    if coef:
        cols = [*cols, z]
        vals = [*vals, coef]
    return (cols, vals, -_INF, rhs) if le else (cols, vals, rhs, _INF)


def _movable_pairs(pins: list[_Pin]):
    """Index pairs of a net's pins on distinct instances, at least one
    movable."""
    for i in range(len(pins)):
        for j in range(i + 1, len(pins)):
            if pins[i].inst == pins[j].inst:
                continue
            if pins[i].movable or pins[j].movable:
                yield i, j


def _closedm1_pair(
    out: _Arrays, p: _Pin, q: _Pin, span: int
) -> int | None:
    """Constraint (4) with a γ·H vertical window; returns the d column,
    or None when pruned."""
    p_xlo, p_xhi = p.bound["x"]
    q_xlo, q_xhi = q.bound["x"]
    if p_xhi < q_xlo or q_xhi < p_xlo:
        return None
    if set(p.values("x")).isdisjoint(q.values("x")):
        return None
    p_ylo, p_yhi = p.bound["y"]
    q_ylo, q_yhi = q.bound["y"]
    if max(p_ylo - q_yhi, q_ylo - p_yhi, 0) > span:
        return None
    g_x = float(max(p_xhi - q_xlo, q_xhi - p_xlo))
    g_y = float(max(p_yhi - q_ylo, q_yhi - p_ylo) + span)
    d = out.add_column(0.0, 1.0, 1)
    rows = []
    for kind, g, reach in (("x", g_x, 0), ("y", g_y, span)):
        cols, vals, const, lo, hi = _diff(p, q, kind)
        for coef, le, rhs in ((g, True, g + reach), (-g, False, -(g + reach))):
            rows.append(_pair_row(cols, vals, const, lo, hi, d, coef, le, rhs))
    for k, row in enumerate(rows):
        # A y row can repeat its x row only if every x equals its y.
        if row is not None and (k < 2 or row != rows[k - 2]):
            out.add_row(*row)
    return d


def _openm1_pair(
    out: _Arrays,
    p: _Pin,
    q: _Pin,
    span: int,
    delta: int,
    overlap_reward: float,
) -> int | None:
    """Constraints (11)-(14); returns the d column, or None when
    pruned."""
    p_lo, p_lo_max = p.bound["lo"]
    q_lo, q_lo_max = q.bound["lo"]
    p_hi_min, p_hi = p.bound["hi"]
    q_hi_min, q_hi = q.bound["hi"]
    lo_max = max(p_lo, q_lo)
    hi_min = min(p_hi, q_hi)
    best_overlap = hi_min - lo_max
    if best_overlap < delta:
        return None
    p_ylo, p_yhi = p.bound["y"]
    q_ylo, q_yhi = q.bound["y"]
    if max(p_ylo - q_yhi, q_ylo - p_yhi, 0) > span:
        return None
    # Relaxation constant for constraint (13): when d = 0 the bound
    # must stay slack even for the most disjoint candidate choice, so
    # it covers the full x-span of both pins plus δ.
    g_13 = float(max(p_hi, q_hi) - min(p_lo, q_lo) + delta)
    o_cap = max(0.0, float(best_overlap - delta))
    # Constraint (13) bounds o, b and a, one after another.
    lb_a = float(lo_max)
    ub_b = float(hi_min)
    rhs_13 = g_13 - delta
    ub_o = o_cap
    implied = rhs_13 - (-ub_b + lb_a)
    if implied < ub_o - _EPS and implied >= -_EPS:
        ub_o = max(implied, 0.0)
    lb_b = -_INF
    implied = (rhs_13 - lb_a) / -1.0
    if implied <= ub_b + _EPS:
        lb_b = min(implied, ub_b)
    ub_a = _INF
    implied = rhs_13 + ub_b
    if implied >= lb_a - _EPS:
        ub_a = max(implied, lb_a)

    a = out.add_column(lb_a, ub_a)
    b = out.add_column(lb_b, ub_b)
    # a >= x_lo of each pin, b <= x_hi: bind only for a pin whose
    # interval can pass lb(a) / ub(b).  A fixed pin's are bounds.
    for pin, pin_lo_max in ((p, p_lo_max), (q, q_lo_max)):
        if pin.movable and pin_lo_max - lb_a > _EPS:
            cols, vals = pin.terms("lo", True)
            out.add_row([*cols, a], [*vals, 1.0], 0.0, _INF)
    for pin, pin_hi_min in ((p, p_hi_min), (q, q_hi_min)):
        if pin.movable and ub_b - pin_hi_min > _EPS:
            cols, vals = pin.terms("hi", True)
            out.add_row([*cols, b], [*vals, 1.0], -_INF, 0.0)

    d = out.add_column(0.0, 1.0, 1)
    v = out.add_column(0.0, 1.0, 1)
    g_y = float(max(p_yhi - q_ylo, q_yhi - p_ylo) + span)
    cols, vals, const, lo, hi = _diff(p, q, "y")
    for coef, le, rhs in ((-g_y, True, span), (g_y, False, -span)):
        row = _pair_row(cols, vals, const, lo, hi, v, coef, le, rhs)
        if row is not None:
            out.add_row(*row)
    out.add_row([d, v], [1.0, 1.0], -_INF, 1.0)

    o = out.add_column(0.0, ub_o, cost=overlap_reward)
    # o - (b - a) - g_13*(1 - d) <= -delta
    reduced = _row_bounds(
        0.0 - ub_b + lb_a, ub_o - lb_b + ub_a, g_13, True, rhs_13
    )
    if reduced is not None:
        coef, rhs = reduced
        out.add_row([o, b, a, d], [1.0, -1.0, 1.0, coef], -_INF, rhs)
    if o_cap:
        # o <= o_cap * d
        reduced = _row_bounds(0.0, ub_o, -o_cap, True, 0.0)
        if reduced is not None:
            coef, rhs = reduced
            out.add_row([o, d], [1.0, coef], -_INF, rhs)
    return d
