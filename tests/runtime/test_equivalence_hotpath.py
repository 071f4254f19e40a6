"""Behaviour-preservation of the window-solve hot path.

The acceptance bar: the window models as built — written already
reduced — end a pass and a full run on a fixed seed in a placement
byte-identical to the runs that solve the reference build's unreduced
models instead.  Equivalence holds at ``mip_gap=0`` — the
formulation's deterministic tie-break makes the window optimum a
property of the model, so any exact solve path must select it.  (At a
nonzero gap HiGHS may legally stop at *different* within-gap
incumbents depending on the search path, which is why these tests pin
the gap.)
"""

import pytest

from repro.core import OptParams, ParamSet, formulation
from repro.core.distopt import dist_opt
from repro.core.vm1opt import vm1_opt
from repro.library import build_library
from repro.netlist import generate_design
from repro.placement import place_design
from repro.tech import CellArchitecture, make_tech
from tests.reference import reference_problem

TECH = make_tech(CellArchitecture.CLOSED_M1)
LIB = build_library(TECH)

EXACT = dict(mip_gap=0.0, time_limit=30.0)


def fresh_design():
    design = generate_design("aes", TECH, LIB, scale=0.015, seed=3)
    place_design(design, seed=1)
    return design


def one_pass():
    design = fresh_design()
    params = OptParams.for_arch(TECH.arch, **EXACT)
    result = dist_opt(
        design, params, tx=0, ty=0, bw=1250, bh=1080, lx=3, ly=1,
        allow_flip=False,
    )
    return design.placement_snapshot(), result


@pytest.fixture(scope="module")
def plain_pass():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(formulation, "build_window_model", reference_problem)
        return one_pass()


def test_presolve_is_byte_identical(plain_pass):
    plain_snapshot, plain_result = plain_pass
    fast_snapshot, fast_result = one_pass()
    assert fast_snapshot == plain_snapshot
    assert fast_result.objective == plain_result.objective
    assert fast_result.moved_cells == plain_result.moved_cells
    assert fast_result.windows_failed == 0
    # No phase presolves: the build writes the model reduced.
    assert fast_result.presolve_seconds == 0.0


def full_run():
    params = OptParams.for_arch(
        TECH.arch,
        sequence=(ParamSet.square(1.25, 2, 1),),
        theta=1e-4,
        **EXACT,
    )
    design = fresh_design()
    result = vm1_opt(
        design, params, enable_shift=False, window_memo=False
    )
    return design.placement_snapshot(), result


def test_full_run_with_hot_path_is_byte_identical(monkeypatch):
    """Built models == reference unreduced models, over a whole run.

    ``enable_shift=False`` keeps the window grid fixed across
    iterations and ``theta`` is small enough to run the loop into its
    converged tail, so many passes re-solve the same windows.
    """
    snapshot_fast, fast = full_run()
    monkeypatch.setattr(
        formulation, "build_window_model", reference_problem
    )
    snapshot_plain, baseline = full_run()

    assert snapshot_fast == snapshot_plain
    assert fast.final_objective == baseline.final_objective
    assert fast.iterations == baseline.iterations
    assert fast.windows_failed == 0
    assert fast.presolve_seconds == 0.0
