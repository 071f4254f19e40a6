"""Global placement: centroid relaxation + quantile spreading.

The algorithm alternates two phases:

1. **Centroid relaxation** — every movable instance moves toward the
   weighted centroid of the centroids of its nets (pads act as fixed
   anchors).  This is a Jacobi iteration of the star-model quadratic
   wirelength program, so connected cells contract together.
2. **Quantile spreading** — coordinates are redistributed so that each
   die slice holds an equal share of cell area, removing the density
   collapse the quadratic objective causes.  Spreading preserves
   relative order, so the locality found by phase 1 survives.

The result is a globally-spread placement with locality comparable to
a commercial global placer's output — exactly the starting point the
paper's detailed-placement optimizer expects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.netlist.design import Design


def global_place(
    design: Design,
    *,
    rounds: int = 6,
    relax_iters: int = 12,
    seed: int = 0,
) -> None:
    """Assign (continuous) global locations to all movable instances.

    Coordinates are written into ``instance.x/.y`` as cell-center-ish
    positions; they are *not* legal until :func:`repro.placement.legalize`
    runs.
    """
    names = sorted(
        n for n, inst in design.instances.items() if not inst.fixed
    )
    if not names:
        return
    index = {n: i for i, n in enumerate(names)}
    n = len(names)
    rng = np.random.RandomState(seed)
    die = design.die

    x = die.xlo + rng.random_sample(n) * die.width
    y = die.ylo + rng.random_sample(n) * die.height

    # Net incidence: for each net, movable member indices + fixed
    # anchor coordinates (pads and fixed instances).
    net_members: list[np.ndarray] = []
    net_anchor: list[tuple[float, float, int] | None] = []
    for _, net in sorted(design.nets.items()):
        if net.is_trivial():
            continue
        members = [
            index[ref.instance]
            for ref in net.pins
            if ref.instance in index
        ]
        anchors_x = [p.x for p in net.pads]
        anchors_y = [p.y for p in net.pads]
        for ref in net.pins:
            if ref.instance not in index:
                inst = design.instances[ref.instance]
                pos = inst.pin_position(ref.pin)
                anchors_x.append(pos.x)
                anchors_y.append(pos.y)
        if not members:
            continue
        net_members.append(np.asarray(members, dtype=np.intp))
        if anchors_x:
            net_anchor.append(
                (
                    float(np.mean(anchors_x)),
                    float(np.mean(anchors_y)),
                    len(anchors_x),
                )
            )
        else:
            net_anchor.append(None)

    areas = np.asarray(
        [
            design.instances[name].width * design.instances[name].height
            for name in names
        ],
        dtype=float,
    )

    star = _star_model(net_members, net_anchor, n)
    for _ in range(rounds):
        x, y = _relax(x, y, star, relax_iters)
        x = _quantile_spread(x, areas, die.xlo, die.xhi)
        y = _quantile_spread(y, areas, die.ylo, die.yhi)

    for name in names:
        i = index[name]
        inst = design.instances[name]
        inst.x = int(round(x[i]))
        inst.y = int(round(y[i]))


@dataclass(frozen=True)
class _StarModel:
    """The star-model incidence of the kept nets, built once per call.

    A net is kept when its movable members plus its anchors number at
    least two.  An *entry* is one member of one kept net; entries are
    flattened in net order, then member order, so a cell with two pins
    on a net appears twice.
    """

    #: Cell index of every entry.
    cells: np.ndarray
    #: Kept-net index of every entry.
    nets: np.ndarray
    #: ``1/(total-1)`` and ``total-1`` of every entry's net.
    w: np.ndarray
    denom: np.ndarray
    #: Per kept net, the anchor centroid times the anchor count (0.0
    #: without anchors).
    anchor_x: np.ndarray
    anchor_y: np.ndarray
    #: Per distinct member count ``k``: the kept nets of that size and
    #: their ``(nets, k)`` member-index matrix.
    groups: tuple[tuple[np.ndarray, np.ndarray], ...]
    #: Per cell, the summed entry weights (iteration-invariant).
    weight: np.ndarray


def _star_model(
    net_members: list[np.ndarray],
    net_anchor: list[tuple[float, float, int] | None],
    n: int,
) -> _StarModel:
    """Flatten the nets' incidence for :func:`_relax`."""
    kept = [
        (members, anchor)
        for members, anchor in zip(net_members, net_anchor)
        if len(members) + (anchor[2] if anchor else 0) >= 2
    ]
    sizes = np.asarray([len(m) for m, _ in kept], dtype=np.intp)
    denom = np.asarray(
        [len(m) + (a[2] if a else 0) - 1 for m, a in kept], dtype=float
    )
    nets = np.repeat(np.arange(len(kept)), sizes)
    cells = np.concatenate(
        [np.empty(0, dtype=np.intp)] + [m for m, _ in kept]
    )
    w = (1.0 / denom)[nets]
    by_size: dict[int, list[int]] = {}
    for i, (members, _) in enumerate(kept):
        by_size.setdefault(len(members), []).append(i)
    groups = tuple(
        (np.asarray(ids, dtype=np.intp), np.stack([kept[i][0] for i in ids]))
        for ids in by_size.values()
    )
    return _StarModel(
        cells=cells,
        nets=nets,
        w=w,
        denom=denom[nets],
        # Anchors pull with their full multiplicity.
        anchor_x=np.asarray([a[0] * a[2] if a else 0.0 for _, a in kept]),
        anchor_y=np.asarray([a[1] * a[2] if a else 0.0 for _, a in kept]),
        groups=groups,
        weight=np.bincount(cells, weights=w, minlength=n),
    )


def _relax(
    x: np.ndarray, y: np.ndarray, star: _StarModel, iters: int
) -> tuple[np.ndarray, np.ndarray]:
    """Jacobi iterations of the star-model quadratic program.

    Bit-identical to walking the nets one by one: each row sum of a
    group matrix adds in the order ``x[members].sum()`` does, and
    ``np.bincount`` scatters the entries in net-then-member order, the
    order of sequential ``np.add.at`` calls.
    """
    moved = star.weight > 0
    scale = np.maximum(star.weight, 1e-12)
    for _ in range(iters):
        x = np.where(moved, _pull(x, star.anchor_x, star) / scale, x)
        y = np.where(moved, _pull(y, star.anchor_y, star) / scale, y)
    return x, y


def _pull(
    coord: np.ndarray, anchor: np.ndarray, star: _StarModel
) -> np.ndarray:
    """One coordinate's weighted pull toward the net centroids, summed
    per cell."""
    sums = np.empty(len(anchor))
    for ids, matrix in star.groups:
        sums[ids] = coord[matrix].sum(axis=1)
    center = (sums + anchor)[star.nets]
    terms = star.w * (center - coord[star.cells]) / star.denom
    return np.bincount(star.cells, weights=terms, minlength=len(coord))


def _quantile_spread(
    coords: np.ndarray, areas: np.ndarray, lo: int, hi: int
) -> np.ndarray:
    """Redistribute ``coords`` so cumulative cell area is uniform.

    Cells are sorted by coordinate; each is assigned the position where
    the midpoint of its area share falls inside ``[lo, hi]``.  Ties are
    broken by original coordinate, keeping the map monotonic.
    """
    order = np.argsort(coords, kind="stable")
    cum = np.cumsum(areas[order])
    total = cum[-1]
    mid = cum - areas[order] / 2.0
    spread = lo + (hi - lo) * mid / total
    out = np.empty_like(coords)
    out[order] = spread
    return out
