"""Tests for the global placer."""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.library import build_library
from repro.netlist import generate_design
from repro.placement import global_place
from repro.placement.global_place import (
    _quantile_spread,
    _relax,
    _star_model,
)
from repro.tech import CellArchitecture, make_tech

# The package re-exports the function under the module's name.
gp = importlib.import_module("repro.placement.global_place")


@pytest.fixture(scope="module")
def placed():
    tech = make_tech(CellArchitecture.CLOSED_M1)
    lib = build_library(tech)
    design = generate_design("aes", tech, lib, scale=0.03, seed=2)
    global_place(design, seed=1)
    return design


def test_all_instances_inside_die(placed):
    die = placed.die
    for inst in placed.instances.values():
        assert die.xlo <= inst.x <= die.xhi
        assert die.ylo <= inst.y <= die.yhi


def test_spreading_roughly_uniform(placed):
    """No quadrant should hold a grossly disproportionate area share."""
    die = placed.die
    mid_x = (die.xlo + die.xhi) / 2
    mid_y = (die.ylo + die.yhi) / 2
    quadrants = [0, 0, 0, 0]
    for inst in placed.instances.values():
        idx = (inst.x >= mid_x) * 2 + (inst.y >= mid_y)
        quadrants[idx] += inst.width * inst.height
    total = sum(quadrants)
    for q in quadrants:
        assert 0.15 < q / total < 0.35


def test_connected_cells_are_near(placed):
    """Average 2-pin net span must beat the random-pair expectation."""
    spans = []
    for net in placed.nets.values():
        if net.degree == 2 and len(net.pins) == 2:
            a = placed.instances[net.pins[0].instance]
            b = placed.instances[net.pins[1].instance]
            spans.append(abs(a.x - b.x) + abs(a.y - b.y))
    random_expectation = (placed.die.width + placed.die.height) / 3
    assert np.mean(spans) < 0.6 * random_expectation


def test_determinism():
    tech = make_tech(CellArchitecture.CLOSED_M1)
    lib = build_library(tech)
    d1 = generate_design("aes", tech, lib, scale=0.02, seed=2)
    d2 = generate_design("aes", tech, lib, scale=0.02, seed=2)
    global_place(d1, seed=9)
    global_place(d2, seed=9)
    for name in d1.instances:
        assert d1.instances[name].x == d2.instances[name].x
        assert d1.instances[name].y == d2.instances[name].y


def test_quantile_spread_uniform_and_monotone():
    rng = np.random.RandomState(0)
    coords = rng.normal(500, 50, size=200)  # collapsed blob
    areas = np.ones(200)
    spread = _quantile_spread(coords, areas, 0, 1000)
    order_in = np.argsort(coords)
    assert (np.diff(spread[order_in]) >= 0).all()  # order preserved
    hist, _ = np.histogram(spread, bins=4, range=(0, 1000))
    assert hist.max() - hist.min() <= 2  # near-uniform fill


def test_quantile_spread_weights_by_area():
    coords = np.array([0.0, 1.0, 2.0])
    areas = np.array([1.0, 1.0, 98.0])
    spread = _quantile_spread(coords, areas, 0, 1000)
    # The heavy cell's area midpoint sits at (2+98/2)/100 of the span.
    assert spread[2] == pytest.approx(510.0, abs=1.0)


# The per-net loop the array kernel replaced, kept verbatim as its
# oracle.
def _relax_reference(
    x: np.ndarray,
    y: np.ndarray,
    net_members: list[np.ndarray],
    net_anchor: list[tuple[float, float, int] | None],
    iters: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Jacobi iterations of the star-model quadratic program."""
    n = len(x)
    for _ in range(iters):
        acc_x = np.zeros(n)
        acc_y = np.zeros(n)
        weight = np.zeros(n)
        for members, anchor in zip(net_members, net_anchor):
            k = len(members)
            total = k + (anchor[2] if anchor else 0)
            if total < 2:
                continue
            cx = x[members].sum()
            cy = y[members].sum()
            if anchor:
                # Anchors pull with their full multiplicity.
                cx += anchor[0] * anchor[2]
                cy += anchor[1] * anchor[2]
            w = 1.0 / (total - 1)
            np.add.at(acc_x, members, w * (cx - x[members]) / (total - 1))
            np.add.at(acc_y, members, w * (cy - y[members]) / (total - 1))
            np.add.at(weight, members, w)
        moved = weight > 0
        x = np.where(moved, acc_x / np.maximum(weight, 1e-12), x)
        y = np.where(moved, acc_y / np.maximum(weight, 1e-12), y)
    return x, y


def assert_matches_reference(got, x, y, net_members, net_anchor, iters):
    """The array kernel must return the per-net loop's floats exactly."""
    want = _relax_reference(x, y, net_members, net_anchor, iters)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


#: Member counts around numpy's summation blocking (an 8-way unrolled
#: loop from 8 members, pairwise halving above 128).
_NET_SIZES = st.one_of(
    st.integers(1, 20), st.integers(120, 140), st.sampled_from([255, 256])
)
_ANCHOR = st.none() | st.tuples(
    st.floats(0, 1e5), st.floats(0, 1e5), st.integers(1, 4)
)


@settings(max_examples=80, deadline=None)
@given(
    nets=st.lists(st.tuples(_NET_SIZES, _ANCHOR), max_size=16),
    cells=st.integers(1, 60),
    isolated=st.integers(0, 3),
    iters=st.integers(1, 3),
    seed=st.integers(0, 2**31 - 1),
)
def test_relax_kernel_matches_per_net_loop(nets, cells, isolated, iters,
                                           seed):
    """Random incidences: duplicate members (draws repeat cells),
    anchored and anchor-free nets, lone-member nets with ``total < 2``,
    and ``isolated`` cells on no net."""
    rng = np.random.RandomState(seed)
    n = cells + isolated
    net_members = [
        rng.randint(0, cells, size=k).astype(np.intp) for k, _ in nets
    ]
    net_anchor = [anchor for _, anchor in nets]
    x = rng.random_sample(n) * 1e5
    y = rng.random_sample(n) * 1e5
    got = _relax(x, y, _star_model(net_members, net_anchor, n), iters)
    assert_matches_reference(got, x, y, net_members, net_anchor, iters)


@pytest.mark.parametrize(
    "arch, scale",
    [(CellArchitecture.CLOSED_M1, 0.01), (CellArchitecture.OPEN_M1, 0.02)],
    ids=["closedm1", "openm1"],
)
def test_every_relax_call_of_a_design_matches_per_net_loop(
    monkeypatch, arch, scale
):
    tech = make_tech(arch)
    design = generate_design(
        "aes", tech, build_library(tech), scale=scale, seed=1
    )
    incidence, calls = [], []
    real_star_model, real_relax = gp._star_model, gp._relax

    def star_model(net_members, net_anchor, n):
        incidence.append((net_members, net_anchor))
        return real_star_model(net_members, net_anchor, n)

    def relax(x, y, star, iters):
        calls.append((x, y, iters, real_relax(x, y, star, iters)))
        return calls[-1][-1]

    monkeypatch.setattr(gp, "_star_model", star_model)
    monkeypatch.setattr(gp, "_relax", relax)
    global_place(design, seed=1)
    assert len(calls) == 6
    [(net_members, net_anchor)] = incidence
    for x, y, iters, got in calls:
        assert_matches_reference(got, x, y, net_members, net_anchor, iters)
