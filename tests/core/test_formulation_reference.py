"""The window build writes the reduced model HiGHS has always received.

``build_window_model`` computes the structural presolve's reductions in
closed form.  Its arrays must equal, bit for bit,
``extract(presolve(model))`` of the Model-based reference build
(:mod:`tests.reference`): on generated check cases of every
architecture, as move and as flip passes, on pin shapes no generated
case has, and on every window of two small flows.  The same flows pin the HiGHS input itself: a digest of
the arrays and options of every HiGHS call, recorded before the build
wrote its model reduced.  A change to the formulation must re-pin it
openly.  Each flow runs with the window memo off and on: off, HiGHS
receives what it received before the memo existed; on, the same calls
less those of the windows the memo skipped.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.check import generate_case
from repro.core import OptParams, ParamSet, Window, formulation
from repro.core.vm1opt import vm1_opt
from repro.geometry import Rect
from repro.library import build_library
from repro.milp.highs_backend import HighsBackend
from repro.netlist import Design, generate_design
from repro.placement import place_design
from repro.tech import CellArchitecture, make_tech
from tests.reference import reference_arrays

#: ModelArrays fields in hashing order, with the dtype HiGHS reads.
FIELDS = (
    ("c", np.float64),
    ("integrality", np.int64),
    ("lb", np.float64),
    ("ub", np.float64),
    ("lo", np.float64),
    ("hi", np.float64),
    ("row_ptr", np.int64),
    ("cols", np.int64),
    ("vals", np.float64),
)

#: (HiGHS calls, SHA-256 of their arrays and options) of each pinned
#: flow, with the window memo off and on.  The arrays were recorded
#: while window models were still built as a ``Model`` and reduced by
#: a separate presolve; the digests were re-pinned when the options
#: gained ``mip_heuristic_run_rens: False`` (without that key they hash
#: to the earlier pins, so every call's arrays stayed the same).  The
#: memo-off pins are the calls the flows made under the dirty tracker
#: the memo replaced, which skipped no window of either flow; the
#: memo-on pins drop the calls of the windows the memo skips
#: (:func:`test_memo_drops_only_the_skipped_calls`).
PINNED_HIGHS_INPUT = {
    CellArchitecture.CLOSED_M1: {
        False: (
            96,
            "e73891b4fec838ccdd41a26b0dad7ef279f7afceb7dbffddc0099f76b90616df",
        ),
        True: (
            94,
            "7796da5e2fd401ba0b37add5a66e91785ac09595cfe5db47fa219e03e1c4e2e7",
        ),
    },
    CellArchitecture.OPEN_M1: {
        False: (
            100,
            "17bc30a2a976cb8a310b03ea6acc3e2b50ab28bc18b816263376043ae8dffe7c",
        ),
        True: (
            96,
            "c0e6f57b39c4fe43ccec3e614782510f20ecb5cca26f725034790570c36b6373",
        ),
    },
}


def mismatch(built, reference) -> str:
    """The first field in which two window models differ ("" if none)."""
    if built is None or reference is None:
        return "" if built is reference else "one build found no model"
    for name, _ in FIELDS:
        a = getattr(built, name)
        b = getattr(reference, name)
        if a.dtype != b.dtype or a.shape != b.shape:
            return f"{name}: {a.dtype}{a.shape} vs {b.dtype}{b.shape}"
        if a.tobytes() != b.tobytes():
            return name
    return ""


@pytest.mark.parametrize("pass_kind", ["move", "flip"])
@pytest.mark.parametrize("seed", range(40))
def test_arrays_match_reference_on_check_cases(seed, pass_kind):
    case = generate_case(seed)
    if pass_kind == "flip":
        case = dataclasses.replace(case, lx=0, ly=0, allow_flip=True)
    kwargs = dict(lx=case.lx, ly=case.ly, allow_flip=case.allow_flip)
    built = formulation.build_window_model(
        case.design, case.window, case.params, **kwargs
    )
    reference = reference_arrays(
        case.design, case.window, case.params, **kwargs
    )
    arrays = None if built is None else built.arrays
    assert mismatch(arrays, reference) == ""


@pytest.mark.parametrize(
    "lx, ly, allow_flip", [(2, 1, False), (0, 0, True), (3, 1, True)]
)
@pytest.mark.parametrize(
    "arch", [CellArchitecture.CLOSED_M1, CellArchitecture.OPEN_M1]
)
def test_arrays_match_reference_on_rare_pin_shapes(
    arch, lx, ly, allow_flip
):
    """Shapes no generated case has: two pins of one cell on one net
    with equal x (their HPWL rows coincide, one is kept) and a pin
    interval starting at x = 0 (a zero coefficient, left out)."""
    tech = make_tech(arch)
    library = build_library(tech)
    design = Design(
        "rare", tech, Rect(0, 0, 40 * tech.site_width, 4 * tech.row_height)
    )
    for name, column, row in (("u0", 0, 0), ("u1", 3, 1), ("u2", 8, 0)):
        design.add_instance(name, library.macro("NAND2_X1_RVT"))
        design.place(name, column=column, row=row)
    nets = {
        "n0": (("u0", "A2"), ("u0", "ZN"), ("u1", "A1")),
        "n1": (("u0", "VDD"), ("u1", "VDD"), ("u2", "A1")),
    }
    for net, pins in nets.items():
        design.add_net(net)
        for inst, pin in pins:
            design.connect(net, inst, pin)
    window = Window(0, 0, design.die)
    params = OptParams.for_arch(arch)
    kwargs = dict(lx=lx, ly=ly, allow_flip=allow_flip)
    built = formulation.build_window_model(design, window, params, **kwargs)
    reference = reference_arrays(design, window, params, **kwargs)
    assert mismatch(built.arrays, reference) == ""


def test_check_cases_cover_every_architecture():
    archs = {generate_case(seed).design.tech.arch for seed in range(40)}
    assert archs == set(CellArchitecture)


@pytest.fixture(scope="module", params=list(PINNED_HIGHS_INPUT))
def pinned_flow(request):
    """Run the pinned flow of one architecture with the memo off and
    on, checking every window build against the reference and hashing
    every HiGHS call, whole and one by one."""
    arch = request.param
    tech = make_tech(arch)
    params = OptParams.for_arch(
        arch, sequence=(ParamSet.square(1.0, 2, 1),), time_limit=10.0
    )
    runs = {}
    for memo in (False, True):
        design = generate_design(
            "aes", tech, build_library(tech), scale=0.008, seed=1
        )
        place_design(design, seed=1)
        runs[memo] = run = {
            "windows": 0, "mismatches": [], "calls": [], "skipped": 0
        }
        digest = hashlib.sha256()
        build = formulation.build_window_model
        invoke = HighsBackend._invoke

        def checked_build(design, window, params, *, lx, ly, allow_flip):
            built = build(
                design, window, params, lx=lx, ly=ly, allow_flip=allow_flip
            )
            reference = reference_arrays(
                design, window, params, lx=lx, ly=ly, allow_flip=allow_flip
            )
            run["windows"] += 1
            field = mismatch(
                None if built is None else built.arrays, reference
            )
            if field:
                run["mismatches"].append((window.ix, window.iy, field))
            return built

        def hashed_invoke(arrays, options):
            call = hashlib.sha256()
            for name, dtype in FIELDS:
                values = np.ascontiguousarray(
                    getattr(arrays, name), dtype=dtype
                )
                for hashed in (digest, call):
                    hashed.update(f"{name}:{values.size};".encode())
                    hashed.update(values.tobytes())
            for hashed in (digest, call):
                hashed.update(repr(sorted(options.items())).encode())
            run["calls"].append(call.hexdigest())
            return invoke(arrays, options)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(formulation, "build_window_model", checked_build)
            patch.setattr(
                HighsBackend, "_invoke", staticmethod(hashed_invoke)
            )
            result = vm1_opt(design, params, window_memo=memo)
        run["digest"] = digest.hexdigest()
        run["skipped"] = result.windows_skipped_clean
    return arch, runs


def test_arrays_match_reference_on_every_window_of_a_flow(pinned_flow):
    _, runs = pinned_flow
    assert runs[False]["windows"] >= 90
    assert runs[False]["mismatches"] == runs[True]["mismatches"] == []


def test_highs_input_is_pinned(pinned_flow):
    arch, runs = pinned_flow
    pinned = {
        memo: (len(run["calls"]), run["digest"])
        for memo, run in runs.items()
    }
    assert pinned == PINNED_HIGHS_INPUT[arch]


def test_memo_drops_only_the_skipped_calls(pinned_flow):
    """The memo-on call list is the memo-off list with one call taken
    out per skipped window, every other call in order and unchanged."""
    _, runs = pinned_flow
    off, on = runs[False]["calls"], runs[True]["calls"]
    assert runs[True]["skipped"] > 0
    assert len(off) - len(on) == runs[True]["skipped"]
    remaining = iter(off)
    assert all(call in remaining for call in on)
