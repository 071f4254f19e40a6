"""DirtyTracker unit tests: intersection geometry, mark/invalidate
protocol (spatial cell rects + exact net identity), checkpoint state
round-trip, and the eviction cap."""

import json

import pytest

from repro.core.dirty import (
    DEFAULT_MAX_MARKS,
    DirtyTracker,
    _intersects,
    dirty_write_for_moves,
)


def key(i: int, allow_flip: bool = False):
    """A distinct, well-formed DirtyKey per index."""
    return (i * 100, 0, i * 100 + 90, 80, 3, 1, allow_flip)


# -------------------------------------------------- intersection geometry
def test_closed_intersection_touching_edges_count():
    assert _intersects((0, 0, 10, 10), (10, 0, 20, 10))  # shared edge
    assert _intersects((0, 0, 10, 10), (10, 10, 20, 20))  # corner
    assert not _intersects((0, 0, 10, 10), (11, 0, 20, 10))
    assert not _intersects((0, 0, 10, 10), (0, 11, 10, 20))


def test_degenerate_rects_still_intersect():
    # A single-point net bbox (all pins at one spot) must still dirty
    # whatever contains or touches that point.
    point = (5, 5, 5, 5)
    assert _intersects(point, (0, 0, 10, 10))
    assert _intersects(point, (5, 5, 20, 20))
    assert not _intersects(point, (6, 6, 20, 20))
    # Zero-height horizontal segment.
    assert _intersects((0, 7, 100, 7), (50, 0, 60, 10))


# ------------------------------------------------- mark / skip / dirty
def test_unmarked_is_dirty_by_default():
    tracker = DirtyTracker()
    assert not tracker.is_clean(key(0))
    assert len(tracker) == 0


def test_mark_then_skip_then_invalidate():
    tracker = DirtyTracker()
    probe = (0, 0, 100, 100)
    tracker.mark_clean(key(0), probe)
    assert tracker.is_clean(key(0))
    assert tracker.skips == 1

    # A write far away leaves the mark alone.
    assert tracker.note_dirty([(500, 500, 600, 600)]) == 0
    assert tracker.is_clean(key(0))

    # A write touching the probe (closed test: shared edge) drops it.
    assert tracker.note_dirty([(100, 0, 200, 50)]) == 1
    assert not tracker.is_clean(key(0))
    assert tracker.invalidations == 1


def test_net_identity_invalidation_is_exact():
    """Marks record the net names their build read; a write naming
    one of those nets drops exactly the marks that read it — no
    matter where on the die the write landed spatially."""
    tracker = DirtyTracker()
    tracker.mark_clean(key(0), (0, 0, 100, 100), nets=("n1", "n2"))
    tracker.mark_clean(
        key(1), (1000, 0, 1100, 100), nets=("n2", "n3")
    )
    tracker.mark_clean(key(2), (2000, 0, 2100, 100), nets=("n4",))

    # A spatially-distant write on n3: only the n3 reader dies.
    assert tracker.note_dirty([], nets=("n3",)) == 1
    assert tracker.is_clean(key(0))
    assert not tracker.is_clean(key(1))
    assert tracker.is_clean(key(2))

    # A shared net drops every reader at once.
    tracker.mark_clean(
        key(1), (1000, 0, 1100, 100), nets=("n2", "n3")
    )
    assert tracker.note_dirty([], nets=("n2",)) == 2
    assert not tracker.is_clean(key(0))
    assert not tracker.is_clean(key(1))
    assert tracker.is_clean(key(2))

    # Unknown net names are a no-op.
    assert tracker.note_dirty([], nets=("never-seen",)) == 0


def test_cell_rect_and_net_invalidation_compose():
    """One note_dirty call can drop marks both ways; a mark is only
    counted once even when both mechanisms hit it."""
    tracker = DirtyTracker()
    tracker.mark_clean(key(0), (0, 0, 100, 100), nets=("n1",))
    tracker.mark_clean(key(1), (500, 0, 600, 100), nets=("n9",))
    dropped = tracker.note_dirty(
        [(50, 50, 60, 60)], nets=("n1", "n9")
    )
    assert dropped == 2
    assert tracker.invalidations == 2


def test_key_identity_includes_perturbation_and_flip():
    # Same window rect under different (lx, ly, allow_flip) is a
    # different subproblem: a mark for one must not skip the other.
    tracker = DirtyTracker()
    probe = (0, 0, 100, 100)
    rect = (0, 0, 90, 80)
    move_key = rect + (3, 1, False)
    flip_key = rect + (0, 0, True)
    tracker.mark_clean(move_key, probe)
    assert tracker.is_clean(move_key)
    assert not tracker.is_clean(flip_key)


def test_note_dirty_empty_is_noop():
    tracker = DirtyTracker()
    tracker.mark_clean(key(0), (0, 0, 100, 100))
    assert tracker.note_dirty([]) == 0
    assert len(tracker) == 1


def test_default_mode_does_not_accumulate_background_dirt():
    tracker = DirtyTracker()
    tracker.note_dirty([(0, 0, 10, 10)], nets=("n1",))
    tracker.mark_clean(key(0), (0, 0, 100, 100), nets=("n1",))
    # Earlier dirt (rects and nets alike) is not replayed against a
    # new mark: only writes after the mark drop it.
    assert tracker.is_clean(key(0))


# ------------------------------------------------------- eviction cap
def test_eviction_cap_fifo():
    tracker = DirtyTracker(max_marks=2)
    tracker.mark_clean(key(0), (0, 0, 10, 10))
    tracker.mark_clean(key(1), (100, 0, 110, 10))
    tracker.mark_clean(key(2), (200, 0, 210, 10))
    assert len(tracker) == 2
    assert tracker.evictions == 1
    # Oldest mark evicted; eviction is sound — just re-verifies later.
    assert not tracker.is_clean(key(0))
    assert tracker.is_clean(key(1))
    assert tracker.is_clean(key(2))


def test_remark_refreshes_fifo_position():
    tracker = DirtyTracker(max_marks=2)
    tracker.mark_clean(key(0), (0, 0, 10, 10))
    tracker.mark_clean(key(1), (100, 0, 110, 10))
    tracker.mark_clean(key(0), (0, 0, 10, 10))  # refresh, no evict
    assert tracker.evictions == 0
    tracker.mark_clean(key(2), (200, 0, 210, 10))
    # key(1) was the stalest — it goes, key(0) survives.
    assert tracker.is_clean(key(0))
    assert not tracker.is_clean(key(1))


def test_max_marks_validated():
    with pytest.raises(ValueError):
        DirtyTracker(max_marks=0)
    assert DirtyTracker().max_marks == DEFAULT_MAX_MARKS


# ----------------------------------------------- checkpoint round-trip
def test_export_import_round_trip():
    tracker = DirtyTracker()
    tracker.mark_clean(key(0), (0, 0, 100, 80), nets=("n1", "n2"))
    tracker.mark_clean(key(1), (500, 0, 600, 80))

    # Simulate a JSON checkpoint round-trip: tuples become lists.
    state = json.loads(json.dumps(tracker.export_state()))

    restored = DirtyTracker()
    restored.import_state(state)
    assert restored.export_state() == tracker.export_state()
    assert restored.is_clean(key(0))
    assert restored.is_clean(key(1))
    # The mark's net read-set survives: a net write still drops it.
    assert restored.note_dirty([], nets=("n2",)) == 1
    assert not restored.is_clean(key(0))
    # So does its probe: a write touching it drops the other mark.
    assert restored.note_dirty([(550, 40, 560, 50)]) == 1
    assert not restored.is_clean(key(1))


def test_import_empty_state_stays_default_dirty():
    tracker = DirtyTracker()
    tracker.import_state([])
    assert not tracker.is_clean(key(0))


def test_export_is_deterministic():
    a = DirtyTracker()
    b = DirtyTracker()
    # Same marks in different insertion order (and net order) export
    # identically, so checkpoint bytes don't depend on family order.
    a.mark_clean(key(0), (0, 0, 10, 10), nets=("x", "y"))
    a.mark_clean(key(1), (20, 0, 30, 10))
    b.mark_clean(key(1), (20, 0, 30, 10))
    b.mark_clean(key(0), (0, 0, 10, 10), nets=("y", "x"))
    assert a.export_state() == b.export_state()


# ------------------------------------------------- dirty_write_for_moves
def test_dirty_write_covers_cell_boxes_net_names_and_net_boxes():
    """A write carries each moved cell's old∪new box and the names of
    its nets, and no net boxes: the tracker invalidates nets by
    identity, never by their extent."""
    from repro.library import build_library
    from repro.netlist import generate_design
    from repro.placement import place_design
    from repro.tech import CellArchitecture, make_tech

    tech = make_tech(CellArchitecture.CLOSED_M1)
    lib = build_library(tech)
    design = generate_design("m0", tech, lib, scale=0.01, seed=2)
    place_design(design, seed=1)

    name = next(
        n for n, inst in design.instances.items() if not inst.fixed
    )
    inst = design.instances[name]
    old = (inst.x, inst.y, inst.orientation)
    snapshot = {name: old}
    inst.x += 2 * tech.site_width  # displace without re-legalizing

    write = dirty_write_for_moves(design, [name], snapshot)
    nets = list(design.nets_of_instances({name}))
    assert len(write.cell_rects) == 1
    assert len(write.nets) == len(nets)

    # The cell rect spans the old and new cell bboxes.
    cell_rect = write.cell_rects[0]
    assert cell_rect[0] == min(old[0], inst.x)
    assert cell_rect[2] == max(old[0], inst.x) + inst.width
    # Net names are exactly the moved cell's nets.
    assert write.nets == tuple(net.name for net in nets)
    assert write._fields == ("cell_rects", "nets")
