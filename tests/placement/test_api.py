"""Tests for the placement entry point."""

import hashlib

import pytest

from repro.library import build_library
from repro.netlist import generate_design
from repro.placement import place_design
from repro.tech import CellArchitecture, make_tech


def test_place_design_returns_hpwl_and_is_legal():
    tech = make_tech(CellArchitecture.OPEN_M1)
    lib = build_library(tech)
    d = generate_design("m0", tech, lib, scale=0.02, seed=7)
    hpwl = place_design(d, seed=2)
    assert hpwl == d.total_hpwl()
    assert hpwl > 0
    assert d.check_legal() == []


def test_place_design_seed_reproducible():
    tech = make_tech(CellArchitecture.CLOSED_M1)
    lib = build_library(tech)
    d1 = generate_design("m0", tech, lib, scale=0.015, seed=7)
    d2 = generate_design("m0", tech, lib, scale=0.015, seed=7)
    h1 = place_design(d1, seed=3)
    h2 = place_design(d2, seed=3)
    assert h1 == h2
    assert d1.placement_snapshot() == d2.placement_snapshot()


def test_placement_seed_insensitive_after_convergence():
    """The relaxation + quantile-spread pipeline washes out the
    random initial coordinates: different placer seeds land within a
    few percent HPWL of each other (often identically)."""
    tech = make_tech(CellArchitecture.CLOSED_M1)
    lib = build_library(tech)
    d1 = generate_design("m0", tech, lib, scale=0.015, seed=7)
    d2 = generate_design("m0", tech, lib, scale=0.015, seed=7)
    h1 = place_design(d1, seed=3)
    h2 = place_design(d2, seed=4)
    assert abs(h1 - h2) <= 0.05 * max(h1, h2)


def test_different_netlist_seed_different_placement():
    tech = make_tech(CellArchitecture.CLOSED_M1)
    lib = build_library(tech)
    d1 = generate_design("m0", tech, lib, scale=0.015, seed=7)
    d2 = generate_design("m0", tech, lib, scale=0.015, seed=8)
    place_design(d1, seed=3)
    place_design(d2, seed=3)
    assert d1.placement_snapshot() != d2.placement_snapshot()


def placement_digest(design) -> str:
    """SHA-256 over every instance's name, origin and orientation (the
    formula of the repository benchmark's placement digest)."""
    digest = hashlib.sha256()
    for name in sorted(design.instances):
        inst = design.instances[name]
        digest.update(
            f"{name} {inst.x} {inst.y} {inst.orientation.value}\n".encode()
        )
    return digest.hexdigest()


#: ``place_design`` digests recorded while the star-model relaxation
#: still walked the nets one by one.  Every byte-identity test compares
#: two runs of the same code; these pin the placement they all start
#: from, so a placer that drifts fails here.
PINNED_PLACEMENTS = [
    ("aes", CellArchitecture.CLOSED_M1, 0.01, 1,
     "95367f36f82a1ae0b7040a1123f8a832bdd5b6c49eb2d8000512dca99468a319"),
    ("aes", CellArchitecture.CLOSED_M1, 0.01, 2,
     "556dbd44be0a82c5bfdfee390494a083de4c018d508be0c21558dd420fd9a635"),
    ("aes", CellArchitecture.OPEN_M1, 0.02, 1,
     "39bd5a1ac949d47c3e0d798c1791862c27bead999bef05e8e6af2e8d15e2ac22"),
    ("aes", CellArchitecture.OPEN_M1, 0.02, 2,
     "99c7bdc006397d1121df3ea3210650353fa98b2c4db3cbf66fd07ef4a78d0297"),
    ("m0", CellArchitecture.CLOSED_M1, 0.01, 1,
     "560a9c07804807ad4840887b3a54d19b19882b599d4889a527f4bc62964cd6b5"),
]


@pytest.mark.parametrize(
    "profile, arch, scale, seed, expected",
    PINNED_PLACEMENTS,
    ids=[f"{p}-{a.value}-{s:g}-s{n}" for p, a, s, n, _ in PINNED_PLACEMENTS],
)
def test_placement_digest_is_pinned(profile, arch, scale, seed, expected):
    tech = make_tech(arch)
    design = generate_design(
        profile, tech, build_library(tech), scale=scale, seed=seed
    )
    place_design(design, seed=seed)
    assert placement_digest(design) == expected
