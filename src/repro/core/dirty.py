"""Cross-pass dirty tracking: skip windows *before* building.

VM1Opt re-runs DistOpt over the same (or half-shifted) window grids
pass after pass; once a neighborhood settles, every later pass would
slice, build and re-solve a window only to conclude "no improving
move" again.  A :class:`DirtyTracker` *remembers* which windows were
verified fixpoints and what has been written since, so a window may
be skipped without slicing, building, or solving when

* its key (window rect + ``lx``/``ly``/``allow_flip`` freedom) was
  previously marked clean — i.e. a solve of exactly this subproblem
  ended ``OPTIMAL`` with no surviving move — **and**
* nothing the window's build *reads* has been written since the mark.

It is the only cross-pass skip in the engine: with tracking off, every
pass re-solves every window (plain Algorithm 2).

Soundness — why skipping preserves the placement bit for bit:

* Only **fixpoint** outcomes are marked: windows whose solve ended
  ``OPTIMAL`` and whose guarded apply changed nothing (``no_move``) or
  was reverted (``reverted``).  The model build is a deterministic
  function of what it reads (below), and a solve of the identical
  model with identical options is deterministic (the λ tie-break of
  :mod:`repro.core.formulation` makes the selected optimum a property
  of the model), so re-running such a window provably reproduces the
  same non-move.  Skipping it cannot change the placement — at *any*
  optimality gap.
* **Applied** windows are never marked: the next pass enumerates SCP
  candidates around the new positions and could move further.
* Window geometry and the (lx, ly, allow_flip) freedom are part of the
  key itself; everything else a build reads is covered by
  invalidation.  The same argument makes eviction and a lost mark
  safe: an unmarked fixpoint merely re-solves to the identical
  non-move, so capacity and resume state change performance, never
  placements.

What a build reads is two things, and the tracker invalidates each
with a matched mechanism:

* **Spatially**: the placements of instances inside the probe rect
  (occupancy/blocking, and the movable set itself).  Applied moves
  report each moved cell's old∪new bounding box; a mark whose probe
  intersects one is dropped (closed test — touching counts, and
  degenerate rects still collide).  Cell boxes are small, so the
  over-approximation is tight.
* **By net identity**: the pin positions of every net touched by the
  window's movable cells.  Each mark records exactly that net-name
  set (from the solved slice), applied moves report the names of the
  nets their cells touch, and a mark sharing any name is dropped.
  This is *exact* — an earlier design used the nets' post-move
  bounding boxes as spatial dirt, and a handful of applies on
  well-connected nets wiped out nearly every mark on the die per pass.

Two operating modes:

* **default-dirty** (fresh tracker): nothing is marked, so the first
  pass builds everything; marks accumulate as windows settle.  This is
  the VM1Opt mode.
* **default-clean** (``seed_dirty=...``): everything is presumed clean
  except the seeded regions.  The shard layer seeds the stitch seam
  bands so a seam pass treats only boundary neighborhoods as dirty.
  Unmarked windows have no recorded net set, so in this mode applied
  moves also accumulate their nets' *bounding boxes* as spatial dirt
  (conservative, like the seams themselves) on top of the exact
  per-mark invalidation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, NamedTuple

if TYPE_CHECKING:  # pragma: no cover — import cycle guard
    from repro.core.window import Window
    from repro.netlist.design import Design

#: (window rect, lx, ly, allow_flip) — one skippable subproblem.
DirtyKey = tuple[int, int, int, int, int, int, bool]

#: Closed rectangle (xlo, ylo, xhi, yhi) in DBU.
Rect4 = tuple[int, int, int, int]

#: Default cap on clean marks; eviction is sound (an evicted mark's
#: window just re-solves to the same non-move next time).
DEFAULT_MAX_MARKS = 65_536


def _rect4(rect) -> Rect4:
    """Coerce a Rect-like object or 4-sequence (tuple, or a list from
    a JSON checkpoint round-trip) to a plain tuple."""
    if isinstance(rect, (tuple, list)):
        return (
            int(rect[0]), int(rect[1]), int(rect[2]), int(rect[3])
        )
    return (
        int(rect.xlo), int(rect.ylo), int(rect.xhi), int(rect.yhi)
    )


def _intersects(a: Rect4, b: Rect4) -> bool:
    """Closed-rectangle intersection: touching edges/corners count,
    and degenerate (zero-area) rects like single-point boxes still
    intersect what they touch."""
    return not (
        a[2] < b[0] or b[2] < a[0] or a[3] < b[1] or b[3] < a[1]
    )


class DirtyWrite(NamedTuple):
    """The write set of one (or one family's) applied window solution.

    ``cell_rects`` — per moved cell, the union of its old and new
    bounding boxes (spatial invalidation).  ``nets`` — the names of
    every net touching a moved cell (exact invalidation).
    ``net_rects`` — those nets' post-move bounding boxes, used only as
    background dirt in the tracker's default-clean mode.
    """

    cell_rects: tuple[Rect4, ...]
    nets: tuple[str, ...]
    net_rects: tuple[Rect4, ...]


class DirtyTracker:
    """Remembers verified-fixpoint windows and what has been written
    since, so later passes can skip clean windows pre-build.

    Protocol (per window, before slicing)::

        key = DirtyTracker.window_key(window, lx, ly, allow_flip)
        probe = probe_rect(design, window)
        if tracker.is_clean(key, probe):
            ...skip the window entirely...

    After a window verifies as a fixpoint (solved ``OPTIMAL`` with no
    surviving move), ``mark_clean(key, probe, nets=...)`` with the net
    names its build read.  After each family's applies,
    ``note_dirty(cell_rects, nets=..., net_rects=...)`` with the
    family's :class:`DirtyWrite` — marks whose probe intersects a cell
    rect or whose net set shares a name are dropped.  Batching per
    family matches the engine's build-before-apply ordering, so a skip
    never observes a placement the no-skip run would not also have
    observed.
    """

    def __init__(
        self,
        *,
        seed_dirty: Iterable | None = None,
        max_marks: int = DEFAULT_MAX_MARKS,
    ) -> None:
        if max_marks < 1:
            raise ValueError(
                f"max_marks must be >= 1, got {max_marks}"
            )
        self.max_marks = max_marks
        #: key -> (probe rect, net read-set) (insertion-ordered).
        self._clean: dict[DirtyKey, tuple[Rect4, frozenset[str]]] = {}
        #: net name -> keys of marks that read it.
        self._net_index: dict[str, set[DirtyKey]] = {}
        #: default-clean mode: unmarked windows are clean unless their
        #: probe intersects an accumulated dirty rect.
        self._background_clean = seed_dirty is not None
        self._dirty: list[Rect4] = [
            _rect4(r) for r in (seed_dirty or ())
        ]
        self.skips = 0
        self.marks = 0
        self.invalidations = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._clean)

    # ------------------------------------------------------------ query
    @staticmethod
    def window_key(
        window: "Window", lx: int, ly: int, allow_flip: bool
    ) -> DirtyKey:
        """The subproblem identity: everything a build depends on
        that invalidation does not cover."""
        rect = window.rect
        return (
            rect.xlo, rect.ylo, rect.xhi, rect.yhi,
            lx, ly, allow_flip,
        )

    def is_clean(self, key: DirtyKey, probe) -> bool:
        """True when the window may be skipped without building."""
        if key in self._clean:
            self.skips += 1
            return True
        if not self._background_clean:
            return False
        p = _rect4(probe)
        if any(_intersects(p, rect) for rect in self._dirty):
            return False
        self.skips += 1
        return True

    # ----------------------------------------------------------- update
    def mark_clean(
        self, key: DirtyKey, probe, nets: Iterable[str] = ()
    ) -> None:
        """Record a verified fixpoint for ``key``: its probe rect and
        the net names its build read."""
        if key in self._clean:
            self._drop_mark(key)
        elif len(self._clean) >= self.max_marks:
            self._drop_mark(next(iter(self._clean)))
            self.evictions += 1
        net_set = frozenset(nets)
        self._clean[key] = (_rect4(probe), net_set)
        for name in net_set:
            self._net_index.setdefault(name, set()).add(key)
        self.marks += 1

    def note_dirty(
        self,
        rects: Iterable,
        *,
        nets: Iterable[str] = (),
        net_rects: Iterable = (),
    ) -> int:
        """Record one write set; drops every clean mark it touches.

        ``rects`` are the moved cells' old∪new boxes — they drop marks
        spatially (probe intersection).  ``nets`` are the changed net
        names — they drop marks by exact identity through the net
        index.  ``net_rects`` only matter in default-clean mode, where
        they accumulate as background dirt for *unmarked* windows
        (whose read sets are unknown).  Returns the number of marks
        dropped.
        """
        dirty = [_rect4(r) for r in rects]
        names = [n for n in nets if n in self._net_index]
        if self._background_clean:
            self._dirty.extend(dirty)
            self._dirty.extend(_rect4(r) for r in net_rects)
        if not dirty and not names:
            return 0
        dropped = {
            key
            for name in names
            for key in self._net_index[name]
        }
        if dirty:
            dropped.update(
                key
                for key, (probe, _) in self._clean.items()
                if key not in dropped
                and any(_intersects(probe, rect) for rect in dirty)
            )
        for key in dropped:
            self._drop_mark(key)
        self.invalidations += len(dropped)
        return len(dropped)

    def _drop_mark(self, key: DirtyKey) -> None:
        _, net_set = self._clean.pop(key)
        for name in net_set:
            keys = self._net_index.get(name)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._net_index[name]

    # ------------------------------------------------ checkpoint state
    def export_state(self) -> list:
        """JSON-serializable snapshot (marks + mode + dirty rects).

        Counters are per-run observability, not solver state, and are
        not exported.
        """
        return [
            int(self._background_clean),
            [list(rect) for rect in self._dirty],
            [
                [list(key), list(probe), sorted(net_set)]
                for key, (probe, net_set) in sorted(
                    self._clean.items()
                )
            ],
        ]

    def import_state(self, state: list) -> None:
        """Replace tracker state with an :meth:`export_state` snapshot.

        An empty/missing snapshot leaves the tracker default-dirty —
        resuming without dirty state is always sound, just slower.
        """
        if not state:
            return
        background, dirty, marks = state
        self._background_clean = bool(background)
        self._dirty = [_rect4(rect) for rect in dirty]
        clean: dict[DirtyKey, tuple[Rect4, frozenset[str]]] = {}
        for raw_key, raw_probe, raw_nets in marks:
            key: DirtyKey = (
                int(raw_key[0]), int(raw_key[1]),
                int(raw_key[2]), int(raw_key[3]),
                int(raw_key[4]), int(raw_key[5]),
                bool(raw_key[6]),
            )
            clean[key] = (
                _rect4(raw_probe),
                frozenset(str(n) for n in raw_nets),
            )
        if len(clean) > self.max_marks:
            overflow = len(clean) - self.max_marks
            self.evictions += overflow
            for key in list(clean)[:overflow]:
                clean.pop(key)
        self._clean = clean
        self._net_index = {}
        for key, (_, net_set) in clean.items():
            for name in net_set:
                self._net_index.setdefault(name, set()).add(key)


def dirty_write_for_moves(
    design: "Design",
    moved: Iterable[str],
    snapshot: dict[str, tuple[int, int, object]],
) -> DirtyWrite:
    """The :class:`DirtyWrite` covering one applied window solution.

    ``moved`` names the cells whose placement actually changed;
    ``snapshot`` maps every movable cell to its pre-apply
    ``(x, y, orientation)``.  Emits, per moved cell, the union of its
    old and new bounding boxes, plus the names (and, for background
    mode, post-move bounding boxes) of every net touching a moved
    cell — see the module docstring for how each part invalidates.
    """
    moved = list(moved)
    cell_rects: list[Rect4] = []
    for name in moved:
        inst = design.instances[name]
        old_x, old_y = snapshot[name][0], snapshot[name][1]
        cell_rects.append((
            min(old_x, inst.x),
            min(old_y, inst.y),
            max(old_x, inst.x) + inst.width,
            max(old_y, inst.y) + inst.height,
        ))
    nets: list[str] = []
    net_rects: list[Rect4] = []
    for net in design.nets_of_instances(set(moved)):
        nets.append(net.name)
        bbox = design.net_bbox(net)
        if bbox is not None:
            net_rects.append(
                (bbox.xlo, bbox.ylo, bbox.xhi, bbox.yhi)
            )
    return DirtyWrite(
        tuple(cell_rects), tuple(nets), tuple(net_rects)
    )
