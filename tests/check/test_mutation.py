"""Mutation smoke tests: deliberately corrupt the window model and
verify the oracles catch it.

Two injected bugs, mirroring real formulation failure modes:

* zeroing the alignment rewards (an objective bug) — the solver then
  optimizes the wrong function, and the brute-force comparison must
  flag the resulting placement as suboptimal;
* deleting the site-packing constraints (a legality bug) — the solver
  may stack cells, and the independent site-occupancy checker must
  report the overlap.
"""

import dataclasses

import numpy as np
import pytest

from repro.check import generate_case, run_case, shrink_case

# Seeds whose clean runs certify AND whose optimum depends on the
# alignment reward / site packing (verified stable by construction:
# generate_case is fully seed-deterministic).
SEED_RANGE = range(20)


def _kill_alignment_rewards(problem):
    for _, _, d in problem.pairs:
        problem.arrays.c[d] = 0.0


def _drop_site_constraints(problem):
    """Delete every site-packing row: the ``<= 1`` rows over λ
    columns alone (the selection rows are equalities, and the only
    other ``<= 1`` row, OpenM1's ``d + v``, covers no λ)."""
    arrays = problem.arrays
    is_lambda = np.zeros(arrays.n, dtype=bool)
    for cols in problem.lambda_cols.values():
        is_lambda[cols.start : cols.stop] = True
    keep = [
        r
        for r in range(arrays.m)
        if not (
            arrays.lo[r] == -np.inf
            and arrays.hi[r] == 1.0
            and is_lambda[
                arrays.cols[arrays.row_ptr[r] : arrays.row_ptr[r + 1]]
            ].all()
        )
    ]
    spans = [
        np.arange(arrays.row_ptr[r], arrays.row_ptr[r + 1]) for r in keep
    ]
    entries = np.concatenate(spans) if spans else np.zeros(0, int)
    problem.arrays = dataclasses.replace(
        arrays,
        lo=arrays.lo[keep],
        hi=arrays.hi[keep],
        row_ptr=np.concatenate(
            ([0], np.cumsum([len(span) for span in spans]))
        ).astype(np.int64),
        cols=arrays.cols[entries],
        vals=arrays.vals[entries],
    )


def test_objective_bug_is_caught_by_brute_force():
    caught = []
    for seed in SEED_RANGE:
        case = generate_case(seed)
        if run_case(case).status != "certified":
            continue
        report = run_case(
            case, problem_transform=_kill_alignment_rewards
        )
        if report.status == "failed":
            caught.append((seed, report))
    assert caught, "no seed exposed the zeroed alignment reward"
    assert any(
        "WORSE" in err or "drift" in err
        for _, report in caught
        for err in report.errors
    )


def test_site_constraint_bug_is_caught_by_legality_oracle():
    caught = []
    for seed in SEED_RANGE:
        case = generate_case(seed)
        if run_case(case).status != "certified":
            continue
        report = run_case(
            case, problem_transform=_drop_site_constraints
        )
        if report.status == "failed":
            caught.append((seed, report))
    assert caught, "no seed exposed the missing site constraints"
    assert any(
        "occupied by both" in err
        for _, report in caught
        for err in report.errors
    )


def test_shrink_produces_a_minimal_still_failing_case():
    for seed in SEED_RANGE:
        case = generate_case(seed)
        if run_case(case).status != "certified":
            continue

        def failing(candidate):
            report = run_case(
                candidate, problem_transform=_drop_site_constraints
            )
            return (
                report.errors if report.status == "failed" else []
            )

        if not failing(case):
            continue
        shrunk = shrink_case(case, failing)
        assert failing(shrunk), "shrunk case no longer fails"
        assert len(shrunk.design.instances) <= len(
            case.design.instances
        )
        assert len(shrunk.design.nets) <= len(case.design.nets)
        # 1-minimality over nets: no single net can still be dropped.
        return
    pytest.fail("no certified seed exposed the mutation to shrink")
