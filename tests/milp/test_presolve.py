"""The reference presolve: soundness on toy models and real windows.

The window build writes these reductions into its arrays itself
(DESIGN.md §7); ``tests/core/test_formulation_reference.py`` checks it
against this presolve bit for bit, and these tests keep the presolve
honest.  The contract: solving the reduced model and lifting the
solution gives the *same optimum* as solving the original model, with
the original objective value.
"""

import pytest

from repro.milp import HighsBackend, LinExpr, Model, SolveStatus, extract
from repro.milp.highs_backend import (
    NATIVE_PRESOLVE_BINARY_THRESHOLD,
    recommend_native_presolve,
)
from tests.reference.presolve import presolve


def exactly_one(model, vars_):
    model.add_constraint(LinExpr.total(vars_).equals(1))


def test_gub_groups_detected():
    m = Model()
    lams = [m.add_binary(f"l{i}") for i in range(3)]
    exactly_one(m, lams)
    m.minimize(LinExpr.total(i * v for i, v in enumerate(lams)))
    result = presolve(m)
    assert result.stats.gub_groups == 1
    assert result.stats.vars_fixed == 0


def test_size_one_gub_fixes_variable():
    m = Model()
    lam = m.add_binary("l0")
    extra = m.add_binary("e")
    exactly_one(m, [lam])
    m.minimize(5 * lam + extra)
    result = presolve(m)
    assert result.fixed == {lam.index: 1.0}
    assert result.stats.vars_fixed == 1
    # The exactly-one row folded into the fixing and is gone.
    assert result.stats.rows_out == 0
    sol = HighsBackend().solve(result.model)
    lifted = result.lift(sol)
    assert lifted.value(lam) == 1.0
    assert lifted.objective == pytest.approx(5.0)


def test_lift_keeps_a_solution_that_already_holds_the_fixed_values():
    import math
    from dataclasses import replace

    m = Model()
    lam = m.add_binary("l0")
    off = m.add_continuous("off", -5, 5)
    extra = m.add_binary("e")
    exactly_one(m, [lam])
    m.add_constraint(LinExpr.of(off).equals(0))
    m.minimize(5 * lam + extra + off)
    result = presolve(m)
    assert result.fixed == {lam.index: 1.0, off.index: 0.0}
    pinned = result.fixed[off.index]
    sol = HighsBackend().solve(result.model)
    if math.copysign(1.0, sol.value(off)) == math.copysign(1.0, pinned):
        # Nothing to re-pin: the backend's own solution comes back.
        assert result.lift(sol) is sol
    # A stale value, even a zero of the other sign, is re-pinned and
    # the objective re-evaluated over the lifted values.
    stale = replace(
        sol,
        values={**sol.values, lam.index: 0.0, off.index: -pinned},
        objective=0.0,
    )
    lifted = result.lift(stale)
    assert lifted is not stale
    assert lifted.values[lam.index] == 1.0
    assert math.copysign(1.0, lifted.values[off.index]) == math.copysign(
        1.0, pinned
    )
    assert lifted.objective == m.objective.value(lifted.values)
    only_sign = replace(sol, values={**sol.values, off.index: -pinned})
    assert result.lift(only_sign) is not only_sign


def test_singleton_rows_become_bounds():
    m = Model()
    x = m.add_continuous("x", 0, 100)
    y = m.add_var("y", lb=0, ub=9, integer=True)
    m.add_constraint(2 * x <= 10)
    m.add_constraint(LinExpr.of(y) >= 2.5)
    m.minimize(x + y)
    result = presolve(m)
    assert result.stats.rows_singleton == 2
    assert result.stats.rows_out == 0
    xr = result.model.vars[x.index]
    yr = result.model.vars[y.index]
    assert xr.ub == pytest.approx(5.0)
    assert yr.lb == 3  # integer rounding of 2.5


def test_redundant_row_removed_gub_aware():
    m = Model()
    lams = [m.add_binary(f"l{i}") for i in range(3)]
    exactly_one(m, lams)
    # Exactly one lambda is 1, so the sum can never exceed 1 — a
    # per-variable interval analysis (max activity 3) would keep this.
    m.add_constraint(LinExpr.total(lams) <= 2)
    m.minimize(LinExpr.total(i * v for i, v in enumerate(lams)))
    result = presolve(m)
    assert result.stats.rows_redundant == 1
    assert result.stats.rows_out == 1  # the GUB row itself


def test_duplicate_rows_removed():
    m = Model()
    x = m.add_binary("x")
    y = m.add_binary("y")
    m.add_constraint(x + y <= 1)
    m.add_constraint(x + y <= 1)
    m.minimize(-1 * x - 1 * y)
    result = presolve(m)
    assert result.stats.rows_duplicate == 1
    assert result.stats.rows_out == 1


def test_big_m_coefficient_tightened():
    # d=0 forces x <= 2; d=1 relaxes to x <= 2 + M with M=1000 far
    # beyond x's range.  The smallest sound M is ub(x) - 2 = 8.
    m = Model()
    x = m.add_continuous("x", 0, 10)
    d = m.add_binary("d")
    m.add_constraint(x - 1000 * d <= 2)
    m.minimize(LinExpr.of(d))
    result = presolve(m)
    assert result.stats.coefficients_tightened == 1
    (row,) = result.model.constraints
    assert row.coefs[d.index] == pytest.approx(-8.0)
    # Same feasible set on both branches: d=0 -> x<=2, d=1 -> x<=10.


def test_bound_tightening_from_rows():
    # z <= x + 3 with binary x bounds the free z at 4 — the same
    # mechanism that bounds the HPWL min/max variables by the pins'
    # attainable coordinates.
    m = Model()
    x = m.add_binary("x")
    z = m.add_continuous("z")  # free upper bound
    m.add_constraint(z - x <= 3)
    m.minimize(-1 * z)
    result = presolve(m)
    zr = result.model.vars[z.index]
    assert zr.ub == pytest.approx(4.0)
    assert result.stats.bounds_tightened >= 1


@pytest.mark.parametrize("backend_cls", [HighsBackend])
def test_lift_recovers_original_optimum(backend_cls):
    """Reduced-and-lifted == original, objective and all."""
    m = Model()
    lams = [m.add_binary(f"l{i}") for i in range(4)]
    other = [m.add_binary(f"o{i}") for i in range(2)]
    z = m.add_continuous("z", 0, 50)
    exactly_one(m, lams)
    exactly_one(m, other)
    m.add_constraint(
        LinExpr.total((i + 1) * v for i, v in enumerate(lams)) + z <= 40
    )
    m.add_constraint(z - 500 * other[0] <= 10)
    m.minimize(
        LinExpr.total(3 * i * v for i, v in enumerate(lams))
        - z
        + 2 * other[1]
    )
    baseline = backend_cls().solve(m)
    result = presolve(m)
    lifted = result.lift(backend_cls().solve(result.model))
    assert baseline.status is SolveStatus.OPTIMAL
    assert lifted.status is SolveStatus.OPTIMAL
    assert lifted.objective == pytest.approx(baseline.objective)
    # Lifted values satisfy every original constraint.
    for con in m.constraints:
        activity = sum(
            coef * lifted.values[idx]
            for idx, coef in con.coefs.items()
        )
        if con.sense.name == "LE":
            assert activity <= con.rhs + 1e-6
        elif con.sense.name == "GE":
            assert activity >= con.rhs - 1e-6
        else:
            assert activity == pytest.approx(con.rhs)


def test_presolve_preserves_window_optimum():
    """End-to-end on a real window MILP: same objective, same lambdas."""
    from repro.core import OptParams
    from repro.core.window import partition
    from repro.library import build_library
    from repro.netlist import generate_design
    from repro.placement import place_design
    from repro.tech import CellArchitecture, make_tech
    from tests.reference.formulation import build_window_model

    tech = make_tech(CellArchitecture.CLOSED_M1)
    lib = build_library(tech)
    design = generate_design("m0", tech, lib, scale=0.01, seed=2)
    place_design(design, seed=1)
    params = OptParams.for_arch(tech.arch, mip_gap=0.0)
    windows = partition(design, 0, 0, 1250, 1080)
    solver = HighsBackend(time_limit=30.0, mip_rel_gap=0.0)
    tested = 0
    for window in windows:
        problem = build_window_model(
            design, window, params, lx=2, ly=1, allow_flip=False
        )
        if problem is None:
            continue
        plain = solver.solve(problem.model)
        result = presolve(problem.model)
        lifted = result.lift(solver.solve(result.model))
        assert lifted.status is plain.status
        if plain.status is SolveStatus.OPTIMAL:
            assert lifted.objective == pytest.approx(plain.objective)
        tested += 1
        if tested >= 4:
            break
    assert tested > 0


def test_reduced_model_marked_and_stats_consistent():
    m = Model()
    lams = [m.add_binary(f"l{i}") for i in range(3)]
    exactly_one(m, lams)
    m.minimize(LinExpr.total(i * v for i, v in enumerate(lams)))
    result = presolve(m)
    assert getattr(result.model, "presolved", False) is True
    assert getattr(m, "presolved", False) is False
    assert result.stats.rows_in == 1
    assert result.stats.rows_dropped == (
        result.stats.rows_in - result.stats.rows_out
    )


def test_native_presolve_recommendation():
    small = Model()
    for i in range(3):
        small.add_binary(f"x{i}")
    small.add_continuous("z", 0, 1)
    assert recommend_native_presolve(extract(small)) is True
    big = Model()
    for i in range(NATIVE_PRESOLVE_BINARY_THRESHOLD):
        big.add_binary(f"x{i}")
    assert recommend_native_presolve(extract(big)) is False
