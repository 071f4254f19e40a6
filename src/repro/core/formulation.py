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
from dataclasses import dataclass, field
from functools import lru_cache
from operator import attrgetter

import numpy as np

from repro.core.params import OptParams
from repro.core.scp import Candidate
from repro.core.window import Window
from repro.geometry.orientation import X_MIRRORED, Orientation
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


#: Coordinate kinds, indexing a pin's ``lo``/``hi`` tuples the way
#: :meth:`~repro.netlist.design.Instance.pin_access` lays out its
#: answer: access point x and y, then the access shape's x-extent ends.
_X, _Y, _LO, _HI = range(4)


class _Pin:
    """One pin's attainable geometry.

    ``lo`` and ``hi`` hold, per coordinate kind (:data:`_X` …
    :data:`_HI`), the least and largest value over the owner cell's
    candidates.  A fixed pin has one placement, so they coincide, and
    ``cols`` is empty.  A movable pin's
    ``cols`` are its cell's λ columns, and its per-candidate
    coordinates (:meth:`values`) are built only for the pins a row or a
    pair test reads.  A row holds ``coordinate · λ`` terms for a
    movable pin and a constant for a fixed one, so :meth:`part` gives
    the range of the pin's λ terms and :meth:`const` its constant.
    """

    __slots__ = ("inst", "cols", "lo", "hi", "_geo", "_values")

    def __init__(self, inst: str, cols, lo: tuple, hi: tuple, geo=None):
        self.inst = inst
        self.cols = cols
        self.lo = lo
        self.hi = hi
        #: the owner's candidate geometry and the pin's plain and
        #: mirrored access tuples, from which :meth:`values` builds
        #: the coordinate lists.
        self._geo = geo
        self._values = [None] * 8 if cols else None

    def values(self, kind: int) -> list[int]:
        """The pin's ``kind`` coordinate under each candidate."""
        if not self.cols:
            return [self.lo[kind]]
        got = self._values[kind]
        if got is None:
            cxs, cys, mirrored, plain, mirror = self._geo
            if kind == _Y:
                y_rel = plain[_Y]
                got = [cy + y_rel for cy in cys]
            elif mirrored is None:
                off = plain[kind]
                got = [cx + off for cx in cxs]
            else:
                off_n = plain[kind]
                off_m = mirror[kind]
                got = [
                    cx + (off_m if m else off_n)
                    for cx, m in zip(cxs, mirrored)
                ]
            self._values[kind] = got
        return got

    def negated(self, kind: int) -> list[int]:
        """``-values(kind)``: the coefficients of an HPWL row."""
        got = self._values[kind + 4]
        if got is None:
            got = self._values[kind + 4] = [-v for v in self.values(kind)]
        return got

    def part(self, kind: int) -> tuple[int, int]:
        """Range of the pin's λ terms of ``kind`` in a row."""
        return (self.lo[kind], self.hi[kind]) if self.cols else (0, 0)

    def const(self, kind: int) -> float:
        return 0.0 if self.cols else float(self.lo[kind])

    def terms(self, kind: int, negate: bool) -> tuple[list, list]:
        """Columns and coefficients of ``±kind`` over the pin's λ,
        zero coefficients left out."""
        if not self.cols:
            return [], []
        values = self.negated(kind) if negate else self.values(kind)
        if 0 in values:
            kept = [(col, v) for col, v in zip(self.cols, values) if v]
            return [c for c, _ in kept], [v for _, v in kept]
        return list(self.cols), values


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
    rect = window.rect
    movable_insts, blocked = _scan(design, rect)
    if not movable_insts:
        return None
    out = _Arrays()
    cells = _cells(design, rect, movable_insts, blocked, out,
                   lx=lx, ly=ly, allow_flip=allow_flip)
    if cells is None:  # should not happen: identity is always legal
        return None
    candidates, lambda_cols, geometry = cells

    cell_of = {inst.name: k for k, inst in enumerate(movable_insts)}
    nets = _touched_nets(design, movable_insts)
    mode = design.tech.arch.alignment_mode
    pins = _Pins(
        design, nets, cell_of, geometry, lambda_cols,
        intervals=mode is AlignmentMode.OVERLAP,
    )
    _hpwl_rows(out, pins, params)
    pairs: list[tuple[PinRef, PinRef, int]] = []
    if mode is not AlignmentMode.NONE and params.alpha > 0:
        _pair_rows(out, pins, params, design.tech.row_height, mode, pairs)

    return WindowProblem(
        window=window,
        arrays=out.finish(),
        movable=[inst.name for inst in movable_insts],
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
    process boundary.  Each cell's selection is read from its λ slice
    of the solution's column vector (``Solution.x``); a λ is selected
    when it exceeds 0.5, as :meth:`Solution.is_one` decides.

    Raises:
        ValueError: if any cell has no (or more than one) selected
            candidate — a corrupt solution.
    """
    selected = (solution.x > 0.5).tolist()
    moves: list[tuple[str, int, int, bool]] = []
    for name in problem.movable:
        cols = problem.lambda_cols[name]
        picks = selected[cols.start : cols.stop]
        count = picks.count(True)
        if count != 1:
            raise ValueError(f"{name}: {count} candidates selected")
        cand = problem.candidates[name][picks.index(True)]
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
#: A candidate's row-legal orientation by row parity and flip
#: (:meth:`Orientation.for_row`).
_ORIENTATION = {
    (parity, flip): Orientation.for_row(parity, flip)
    for parity in (0, 1)
    for flip in (False, True)
}

_name = attrgetter("name")

#: ``Candidate``'s tuple constructor, without the generated ``__new__``.
_new_candidate = tuple.__new__


@lru_cache(maxsize=1 << 16)
def _tie_weight(name: str) -> float:
    """The share of its tie-break budget a cell spends, in [0.5, 1):
    ``0.5 + 0.5 · f`` with ``f`` a hash of the cell name, so a
    constant of the name."""
    digest = hashlib.blake2b(name.encode(), digest_size=8).digest()
    return 0.5 + 0.5 * (int.from_bytes(digest, "big") / 2**64)


def _scan(design: Design, rect) -> tuple[list[Instance], dict]:
    """One pass over the slice: the movable cells (inside the window
    rect and not fixed), by name, and the sites of every other cell
    overlapping the rect as ``row -> blocked columns``.

    Only cells overlapping the rect can cover a site a candidate may
    use, since every candidate footprint lies inside it; the slice's
    other instances (terminals outside the rect) are skipped."""
    xlo, ylo, xhi, yhi = rect.xlo, rect.ylo, rect.xhi, rect.yhi
    die = design.die
    sw = design.tech.site_width
    rh = design.tech.row_height
    movable: list[Instance] = []
    blocked: dict[int, set[int]] = {}
    for inst in design.instances.values():
        x = inst.x
        y = inst.y
        macro = inst.macro
        x_end = x + macro.width
        y_end = y + macro.height
        if x >= xhi or x_end <= xlo or y >= yhi or y_end <= ylo:
            continue
        if (
            not inst.fixed
            and xlo <= x
            and x_end <= xhi
            and ylo <= y
            and y_end <= yhi
        ):
            movable.append(inst)
            continue
        row = (y - die.ylo) // rh  # Design.row_of
        col = (x - die.xlo) // sw  # Design.column_of
        taken = blocked.get(row)
        if taken is None:
            taken = blocked[row] = set()
        taken.update(range(col, col + macro.width_sites))
    movable.sort(key=_name)
    return movable, blocked


def _cells(design, rect, movable_insts, blocked, out, *, lx, ly, allow_flip):
    """Every movable cell's candidates, λ columns and selection row,
    then the site rows where two cells' candidates meet.

    A cell's candidates are :func:`~repro.core.scp.enumerate_candidates`'
    (the current placement first, then in (row, column, flip) order)
    less those covering a blocked site.  Each λ column carries its
    tie-break cost (module docstring): cell ``c``'s candidate ``k``
    costs ``scale_c · (k + 1) / (n_c + 1)``, and the scales sum to at
    most ``_TIE_BREAK_BUDGET``, so only genuine ties are reordered.

    Returns ``(candidates, lambda_cols, geometry)``, or None when a
    cell has no candidate.  ``geometry`` holds per cell its candidates'
    origins ``xs`` and ``ys``, their flips (None when all share the
    flip given next), the ranges of the unflipped and flipped origin
    x (None without such a candidate) and the y range.
    """
    die = design.die
    sw = design.tech.site_width
    rh = design.tech.row_height
    dx = die.xlo
    dy = die.ylo
    num_columns = design.num_columns
    last_row = design.num_rows - 1
    # The die and window containment checks, clipped per axis.
    first_col = -((dx - rect.xlo) // sw)
    first_row = -((dy - rect.ylo) // rh)
    budget = _TIE_BREAK_BUDGET / len(movable_insts)
    c, lb, ub, integer = out.c, out.lb, out.ub, out.integer
    candidates: dict[str, list[Candidate]] = {}
    lambda_cols: dict[str, range] = {}
    geometry = []
    #: per row, each cell's ``(first column, end column)`` of its
    #: candidates in the row.
    spans: dict[int, list[tuple[int, int, int]]] = {}
    widths = []
    for cell, inst in enumerate(movable_insts):
        macro = inst.macro
        width = macro.width_sites
        col0 = (inst.x - dx) // sw
        row0 = (inst.y - dy) // rh
        flip0 = inst.orientation in X_MIRRORED
        col_lo = max(0, col0 - lx, first_col)
        col_hi = min(
            num_columns - width, col0 + lx, (rect.xhi - dx - macro.width) // sw
        )
        row_lo = max(0, row0 - ly, first_row)
        row_hi = min(last_row, row0 + ly, (rect.yhi - dy - macro.height) // rh)
        flips = (False, True) if allow_flip else (flip0,)
        identity = col_lo <= col0 <= col_hi and row_lo <= row0 <= row_hi
        cands: list[Candidate] = []
        if identity:
            taken = blocked.get(row0)
            if not taken or taken.isdisjoint(range(col0, col0 + width)):
                cands.append(
                    _new_candidate(Candidate, (
                        col0, row0, flip0, dx + col0 * sw, dy + row0 * rh,
                        _ORIENTATION[row0 % 2, flip0], (),
                    ))
                )
        for row in range(row_lo, row_hi + 1):
            y = dy + row * rh
            taken = blocked.get(row)
            orients = [(flip, _ORIENTATION[row % 2, flip]) for flip in flips]
            # The identity was placed first; its column skips its flip.
            skip = col0 if identity and row == row0 else None
            first = last = None
            for col in range(col_lo, col_hi + 1):
                if taken and not taken.isdisjoint(range(col, col + width)):
                    continue
                if first is None:
                    first = col
                last = col
                x = dx + col * sw
                for flip, orientation in orients:
                    if col == skip and flip == flip0:
                        continue
                    cands.append(_new_candidate(
                        Candidate, (col, row, flip, x, y, orientation, ())
                    ))
            if first is not None:
                spans.setdefault(row, []).append((first, last + width, cell))
        if not cands:
            return None
        count = len(cands)
        start = len(c)
        cols = range(start, start + count)
        candidates[inst.name] = cands
        lambda_cols[inst.name] = cols
        widths.append(width)
        step = budget * _tie_weight(inst.name) / (count + 1)
        c.extend([step * k for k in range(1, count + 1)])
        lb.extend([0.0] * count)
        ub.extend([1.0] * count)
        integer.extend([1] * count)
        if count == 1:
            # The only candidate is selected: fixed, no selection row.
            lb[start] = 1.0
        else:
            out.add_row(cols, [1.0] * count, 1.0, 1.0)
        _, _, cand_flips, xs, ys, _, _ = zip(*cands)
        y_range = (min(ys), max(ys))
        if cand_flips.count(flip0) == count:
            x_range = (min(xs), max(xs))
            geometry.append(
                (xs, ys, None, flip0,
                 None if flip0 else x_range, x_range if flip0 else None,
                 *y_range)
            )
        else:
            plain = [x for x, m in zip(xs, cand_flips) if not m]
            mirror = [x for x, m in zip(xs, cand_flips) if m]
            geometry.append(
                (xs, ys, cand_flips, flip0,
                 (min(plain), max(plain)) if plain else None,
                 (min(mirror), max(mirror)) if mirror else None,
                 *y_range)
            )
    _site_rows(out, spans, movable_insts, candidates, lambda_cols, widths)
    return candidates, lambda_cols, geometry


def _site_rows(out, spans, movable_insts, candidates, lambda_cols, widths):
    """Constraint (9) where it can bind, in site order.

    A site row binds only where two cells' candidates meet: one cell's
    λ sum to at most 1 already.  Every distinct cover is written once.
    A site two cells cover lies in both cells' spans of that row, so
    only cells whose span meets another's are swept; a flip window's
    candidates keep their cells' own footprints, which meet nothing.
    """
    #: per row with a meeting, its first site and its meeting cells
    base: dict[int, int] = {}
    meeting: set[tuple[int, int]] = set()
    for row, row_spans in spans.items():
        for i, (first, end, cell) in enumerate(row_spans):
            for other_first, other_end, other in row_spans[i + 1 :]:
                if first < other_end and other_first < end:
                    meeting.add((row, cell))
                    meeting.add((row, other))
                    low = min(first, other_first)
                    if base.get(row, low) >= low:
                        base[row] = low
    if not meeting:
        return
    # row -> covering λ columns per site from the row's base, ascending:
    # cells and their candidates are visited in column order.
    cover = {
        row: [[] for _ in range(max(end for _, end, _ in spans[row]) - low)]
        for row, low in base.items()
    }
    owner: dict[int, int] = {}
    for cell, inst in enumerate(movable_insts):
        width = widths[cell]
        for cand, col in zip(candidates[inst.name], lambda_cols[inst.name]):
            row = cand.row
            if (row, cell) not in meeting:
                continue
            owner[col] = cell
            sites = cover[row]
            first = cand.column - base[row]
            for site in range(first, first + width):
                sites[site].append(col)
    covers: set[tuple[int, ...]] = set()
    for row in sorted(cover):
        for cols in cover[row]:
            if not cols or owner[cols[0]] == owner[cols[-1]]:
                continue
            key = tuple(cols)
            if key in covers:
                continue
            covers.add(key)
            out.add_row(cols, [1.0] * len(cols), -_INF, 1.0)


def _touched_nets(design: Design, movable_insts: list[Instance]) -> list[Net]:
    """The non-trivial nets of the movable cells, by name."""
    names: set[str] = set()
    for inst in movable_insts:
        names.update(inst.net_of_pin.values())
    nets = design.nets
    return [
        net
        for net in (nets[name] for name in sorted(names))
        if net.degree >= 2
    ]


class _Pins:
    """The attainable coordinates of every touched net's pins, as flat
    lists indexed by pin: the nets' pins in net order, each net's in pin
    order (``start[n]`` is net ``n``'s first pin, ``start[-1]`` their
    count).  Every pin is on exactly one net
    (:meth:`~repro.netlist.design.Design.connect`), so each appears once.

    Per pin, ``x_lo``/``x_hi`` and ``y_lo``/``y_hi`` bound its access
    point over the owner cell's candidates, and with ``intervals``
    (OpenM1) ``lo_lo``/``lo_hi`` and ``hi_lo``/``hi_hi`` the ends of
    its access shape's x-extent.  A fixed pin has one placement, so its
    bounds coincide and ``cell`` is -1; a movable pin's ``cell`` is its
    cell's index, and ``movers[n]`` lists net ``n``'s movable pins.
    The bounds decide which rows and pairs exist; only the pins those
    read become :class:`_Pin` objects (:meth:`pin`).
    """

    def __init__(
        self,
        design: Design,
        nets: list[Net],
        cell_of: dict[str, int],
        geometry: list[tuple],
        lambda_cols: dict[str, range],
        *,
        intervals: bool,
    ) -> None:
        self.nets = nets
        self.geometry = geometry
        self.lambda_cols = lambda_cols
        self.intervals = intervals
        instances = design.instances
        self.start = start = []
        self.movers = movers = []
        self.inst = inst_of = []
        self.cell = cell_list = []
        #: per pin, its ``pin_access`` answer when fixed, else its
        #: macro's plain and mirrored access tuples.
        self.access = access_list = []
        self.x_lo = x_lo = []
        self.x_hi = x_hi = []
        self.y_lo = y_lo = []
        self.y_hi = y_hi = []
        if intervals:
            self.lo_lo = lo_lo = []
            self.lo_hi = lo_hi = []
            self.hi_lo = hi_lo = []
            self.hi_hi = hi_hi = []
        for net in nets:
            start.append(len(inst_of))
            net_movers = []
            movers.append(net_movers)
            for ref in net.pins:
                name = ref.instance
                inst = instances[name]
                cell = cell_of.get(name, -1)
                if cell >= 0:
                    net_movers.append(len(inst_of))
                inst_of.append(name)
                cell_list.append(cell)
                if cell < 0:
                    access = inst.pin_access(ref.pin)
                    access_list.append(access)
                    x, y, lo, hi = access
                    x_lo.append(x)
                    x_hi.append(x)
                    y_lo.append(y)
                    y_hi.append(y)
                    if intervals:
                        lo_lo.append(lo)
                        lo_hi.append(lo)
                        hi_lo.append(hi)
                        hi_hi.append(hi)
                    continue
                _, _, _, _, x_plain, x_mirror, y_min, y_max = geometry[cell]
                plain, mirror = access = inst.macro.pin_access[ref.pin]
                access_list.append(access)
                low, high = _ends(x_plain, x_mirror, plain[_X], mirror[_X])
                x_lo.append(low)
                x_hi.append(high)
                y_lo.append(y_min + plain[_Y])
                y_hi.append(y_max + plain[_Y])
                if intervals:
                    low, high = _ends(
                        x_plain, x_mirror, plain[_LO], mirror[_LO]
                    )
                    lo_lo.append(low)
                    lo_hi.append(high)
                    low, high = _ends(
                        x_plain, x_mirror, plain[_HI], mirror[_HI]
                    )
                    hi_lo.append(low)
                    hi_hi.append(high)
        start.append(len(inst_of))
        self._pins: dict[int, _Pin] = {}

    def pin(self, k: int) -> _Pin:
        """Pin ``k`` as a :class:`_Pin`, built on first use."""
        got = self._pins.get(k)
        if got is not None:
            return got
        if self.intervals:
            lo = (self.x_lo[k], self.y_lo[k], self.lo_lo[k], self.hi_lo[k])
            hi = (self.x_hi[k], self.y_hi[k], self.lo_hi[k], self.hi_hi[k])
        else:
            lo = (self.x_lo[k], self.y_lo[k])
            hi = (self.x_hi[k], self.y_hi[k])
        name = self.inst[k]
        cell = self.cell[k]
        if cell < 0:
            got = _Pin(name, (), lo, hi)
        else:
            xs, ys, flips, flip0, *_ = self.geometry[cell]
            plain, mirror = self.access[k]
            if flips is None:
                # Every candidate has one flip: one access tuple.
                geo = (xs, ys, None, mirror if flip0 else plain, None)
            else:
                geo = (xs, ys, flips, plain, mirror)
            got = _Pin(name, self.lambda_cols[name], lo, hi, geo)
        self._pins[k] = got
        return got


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


def _hpwl_rows(out: _Arrays, pins: _Pins, params: OptParams) -> None:
    """Constraints (2)-(3): every touched net's bounding-box columns,
    then the pin rows that can bind them.

    Every touched net has a movable pin (it was found through one).
    The max column lies above every terminal's least coordinate and
    the min column below every terminal's largest; a pin's row binds
    only where the pin can reach past that bound.  Each net's columns
    are ``xmax, xmin, ymax, ymin``; its rows follow its pins, x before
    y and max before min."""
    start = pins.start
    x_lo, x_hi, y_lo, y_hi = pins.x_lo, pins.x_hi, pins.y_lo, pins.y_hi
    base = len(out.c)
    lb = out.lb
    ub = out.ub
    bounds = []
    for n, net in enumerate(pins.nets):
        first = start[n]
        end = start[n + 1]
        xs_lo = x_lo[first:end]
        xs_hi = x_hi[first:end]
        ys_lo = y_lo[first:end]
        ys_hi = y_hi[first:end]
        if net.pads:
            pad_xs = [pad.x for pad in net.pads]
            pad_ys = [pad.y for pad in net.pads]
            xs_lo += pad_xs
            xs_hi += pad_xs
            ys_lo += pad_ys
            ys_hi += pad_ys
        x_lb = max(xs_lo)
        x_ub = min(xs_hi)
        y_lb = max(ys_lo)
        y_ub = min(ys_hi)
        # Integer bounds: ``finish`` converts them exactly.
        lb += (x_lb, min(xs_lo), y_lb, min(ys_lo))
        ub += (max(xs_hi), x_ub, max(ys_hi), y_ub)
        bounds.append((x_lb, x_ub, y_lb, y_ub))
    count = 4 * len(bounds)
    if params.net_beta is None:
        beta = params.beta
        out.c += (0.0 + beta, 0.0 - beta, 0.0 + beta, 0.0 - beta) * len(bounds)
    else:
        for net in pins.nets:
            beta = params.beta_of(net.name)
            out.c += (0.0 + beta, 0.0 - beta, 0.0 + beta, 0.0 - beta)
    out.integer += [0] * count
    # A row repeats an earlier one of its column only for two pins of
    # one cell with the same coordinates.
    seen: set[tuple] = set()
    for n, (x_lb, x_ub, y_lb, y_ub) in enumerate(bounds):
        col = base + 4 * n
        for k in pins.movers[n]:
            if x_hi[k] > x_lb:
                _pin_row(out, pins.pin(k), _X, col, 0.0, _INF, seen)
            if x_lo[k] < x_ub:
                _pin_row(out, pins.pin(k), _X, col + 1, -_INF, 0.0, seen)
            if y_hi[k] > y_lb:
                _pin_row(out, pins.pin(k), _Y, col + 2, 0.0, _INF, seen)
            if y_lo[k] < y_ub:
                _pin_row(out, pins.pin(k), _Y, col + 3, -_INF, 0.0, seen)


def _pin_row(
    out: _Arrays,
    pin: _Pin,
    kind: int,
    col: int,
    lo: float,
    hi: float,
    seen: set[tuple],
) -> None:
    """``column - pin.<kind>`` within ``[lo, hi]``, unless a pin of the
    same cell already wrote the same row."""
    key = (col, pin.inst, tuple(pin.values(kind)))
    if key in seen:
        return
    seen.add(key)
    negs = pin.negated(kind)
    cols = out.cols
    vals = out.vals
    if 0 in negs:
        for lam, value in zip(pin.cols, negs):
            if value:
                cols.append(lam)
                vals.append(value)
    else:
        cols += pin.cols
        vals += negs
    cols.append(col)
    vals.append(1.0)
    out.row_ptr.append(len(cols))
    out.lo.append(lo)
    out.hi.append(hi)


def _pair_rows(out, pins: _Pins, params, row_height, mode, pairs):
    """The d columns and rows of every same-net pin pair that can
    align (ClosedM1) or overlap (OpenM1), on distinct instances with at
    least one movable; appends ``(p, q, d)`` to ``pairs``.

    A pair whose pins cannot come within the γ row span, or whose x
    ranges (OpenM1: access shapes) can never meet, is pruned on the
    pins' bounds before either becomes a :class:`_Pin`."""
    span = params.gamma * row_height
    reward = -float(params.alpha)
    overlap_reward = -float(params.epsilon)
    delta = params.delta
    max_degree = params.max_net_degree
    align = mode is AlignmentMode.ALIGN
    start = pins.start
    inst = pins.inst
    cell = pins.cell
    y_lo, y_hi = pins.y_lo, pins.y_hi
    if align:
        near_lo, near_hi = pins.x_lo, pins.x_hi
    else:
        near_lo, near_hi = pins.lo_lo, pins.hi_hi
    for n, net in enumerate(pins.nets):
        if not 2 <= net.degree <= max_degree:
            continue
        first = start[n]
        end = start[n + 1]
        movers = pins.movers[n]
        for i in range(first, end):
            # A pair needs a movable pin: past a fixed i, only the
            # movable pins after it.
            later = (
                range(i + 1, end)
                if cell[i] >= 0
                else movers[bisect_right(movers, i):]
            )
            for j in later:
                if inst[i] == inst[j]:
                    continue
                if y_lo[i] - y_hi[j] > span or y_lo[j] - y_hi[i] > span:
                    continue
                if align:
                    if near_hi[i] < near_lo[j] or near_hi[j] < near_lo[i]:
                        continue
                    d = _closedm1_pair(out, pins.pin(i), pins.pin(j), span)
                else:
                    if min(near_hi[i], near_hi[j]) - max(
                        near_lo[i], near_lo[j]
                    ) < delta:
                        continue
                    d = _openm1_pair(
                        out, pins.pin(i), pins.pin(j), span, delta,
                        overlap_reward,
                    )
                if d is not None:
                    out.c[d] = reward
                    pairs.append(
                        (net.pins[i - first], net.pins[j - first], d)
                    )


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


def _diff(p: _Pin, q: _Pin, kind: int):
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


def _closedm1_pair(
    out: _Arrays, p: _Pin, q: _Pin, span: int
) -> int | None:
    """Constraint (4) with a γ·H vertical window; returns the d column,
    or None when pruned."""
    p_xlo, p_xhi = p.lo[_X], p.hi[_X]
    q_xlo, q_xhi = q.lo[_X], q.hi[_X]
    if p_xhi < q_xlo or q_xhi < p_xlo:
        return None
    if set(p.values(_X)).isdisjoint(q.values(_X)):
        return None
    p_ylo, p_yhi = p.lo[_Y], p.hi[_Y]
    q_ylo, q_yhi = q.lo[_Y], q.hi[_Y]
    if max(p_ylo - q_yhi, q_ylo - p_yhi, 0) > span:
        return None
    g_x = float(max(p_xhi - q_xlo, q_xhi - p_xlo))
    g_y = float(max(p_yhi - q_ylo, q_yhi - p_ylo) + span)
    d = out.add_column(0.0, 1.0, 1)
    rows = []
    for kind, g, reach in ((_X, g_x, 0), (_Y, g_y, span)):
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
    p_lo, p_lo_max = p.lo[_LO], p.hi[_LO]
    q_lo, q_lo_max = q.lo[_LO], q.hi[_LO]
    p_hi_min, p_hi = p.lo[_HI], p.hi[_HI]
    q_hi_min, q_hi = q.lo[_HI], q.hi[_HI]
    lo_max = max(p_lo, q_lo)
    hi_min = min(p_hi, q_hi)
    best_overlap = hi_min - lo_max
    if best_overlap < delta:
        return None
    p_ylo, p_yhi = p.lo[_Y], p.hi[_Y]
    q_ylo, q_yhi = q.lo[_Y], q.hi[_Y]
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
        if pin.cols and pin_lo_max - lb_a > _EPS:
            cols, vals = pin.terms(_LO, True)
            out.add_row([*cols, a], [*vals, 1.0], 0.0, _INF)
    for pin, pin_hi_min in ((p, p_hi_min), (q, q_hi_min)):
        if pin.cols and ub_b - pin_hi_min > _EPS:
            cols, vals = pin.terms(_HI, True)
            out.add_row([*cols, b], [*vals, 1.0], -_INF, 0.0)

    d = out.add_column(0.0, 1.0, 1)
    v = out.add_column(0.0, 1.0, 1)
    g_y = float(max(p_yhi - q_ylo, q_yhi - p_ylo) + span)
    cols, vals, const, lo, hi = _diff(p, q, _Y)
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
