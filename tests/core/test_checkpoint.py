"""VM1Opt checkpoint/resume: capture, JSON round-trip, equivalence."""

import json

import pytest

from repro.core import (
    CHECKPOINT_SCHEMA,
    OptParams,
    ParamSet,
    VM1Checkpoint,
    vm1_opt,
)
from repro.library import build_library
from repro.netlist import generate_design
from repro.placement import place_design
from repro.tech import CellArchitecture, make_tech


def _fresh_design(scale=0.02):
    tech = make_tech(CellArchitecture.CLOSED_M1)
    lib = build_library(tech)
    design = generate_design("m0", tech, lib, scale=scale, seed=2)
    place_design(design, seed=1)
    return design


@pytest.fixture(scope="module")
def reference():
    """One uninterrupted run: final placement + every checkpoint."""
    params = OptParams.for_arch(
        CellArchitecture.CLOSED_M1, time_limit=2.0
    )
    checkpoints = []
    design = _fresh_design()
    result = vm1_opt(design, params, checkpoint_sink=checkpoints.append)
    return params, checkpoints, design.placement_snapshot(), result


def test_checkpoint_sink_sees_every_pass(reference):
    params, checkpoints, _, result = reference
    # One checkpoint per DistOpt pass: move + flip per iteration.
    assert len(checkpoints) == 2 * result.iterations
    assert [cp.phase for cp in checkpoints[:2]] == ["move", "flip"]
    assert all(cp.schema == CHECKPOINT_SCHEMA for cp in checkpoints)
    assert checkpoints[0].placement  # full placement captured


def test_json_roundtrip_is_lossless(reference):
    _, checkpoints, _, _ = reference
    cp = checkpoints[-1]
    clone = VM1Checkpoint.loads(cp.dumps())
    assert clone == cp


def test_save_load_file(tmp_path, reference):
    _, checkpoints, _, _ = reference
    path = checkpoints[0].save(tmp_path / "cp.json")
    assert VM1Checkpoint.load(path) == checkpoints[0]


def test_from_dict_rejects_unknown_schema(reference):
    _, checkpoints, _, _ = reference
    doc = checkpoints[0].to_dict()
    doc["schema"] = "repro.core.checkpoint/v999"
    with pytest.raises(ValueError, match="unsupported checkpoint"):
        VM1Checkpoint.from_dict(doc)


#: A ``dirty`` entry as the dirty tracker (the window memo's
#: predecessor) wrote it: ``[mode, background rects, marks]``, each
#: mark ``[key, probe rect, net names]``.
DIRTY_ENTRY = [0, [], [[[0, 0, 1000, 1000, 2, 1, False],
                        [-3500, -3500, 4500, 4500], ["n1", "n2"]]]]


@pytest.mark.parametrize(
    "which", ["first", "last", "parent_cache", "parent_dirty"]
)
def test_resume_reproduces_placement_byte_identical(
    reference, which
):
    """Resuming from any checkpoint finishes with the exact placement
    (and iteration count) of the uninterrupted run — the contract the
    service's crash recovery rests on.  ``parent_cache`` and
    ``parent_dirty`` resume documents in older formats that carried
    window-cache entries under ``cache`` or dirty-tracker marks under
    ``dirty``; both keys are ignored."""
    params, checkpoints, final_placement, result = reference
    cp = checkpoints[0] if which == "first" else checkpoints[-2]
    # Serialize across the "crash": resume from JSON, not the object.
    doc = cp.to_dict()
    if which == "parent_cache":
        doc["cache"] = [[[0, 0, 10, 10, 2, 1, False], "ab" * 16]]
    if which == "parent_dirty":
        doc["dirty"] = DIRTY_ENTRY
    cp = VM1Checkpoint.from_dict(json.loads(json.dumps(doc)))
    design = _fresh_design()
    resumed = vm1_opt(design, params, resume=cp)
    assert design.placement_snapshot() == final_placement
    assert resumed.iterations == result.iterations
    assert resumed.final_objective == pytest.approx(
        result.final_objective
    )
