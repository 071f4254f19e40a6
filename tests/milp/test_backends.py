"""Backend correctness: HiGHS vs the pure-Python branch & bound.

The two independent solvers must agree on optimal objective values —
the strongest cheap check we have that the CPLEX-substitute stack is
sound.  The direct HiGHS driver must also agree bit for bit with the
public ``scipy.optimize.milp`` path it replaces.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.milp import (
    BranchBoundBackend,
    HighsBackend,
    LinExpr,
    Model,
    SolveStatus,
)
from repro.milp import highs_backend
from repro.milp.extract import extract

needs_direct = pytest.mark.skipif(
    highs_backend._highs is None,
    reason="SciPy without the bundled HiGHS binding",
)


def knapsack(values, weights, cap):
    m = Model("knapsack")
    xs = [m.add_binary(f"x{i}") for i in range(len(values))]
    m.add_constraint(
        LinExpr.total(w * x for w, x in zip(weights, xs)) <= cap
    )
    m.minimize(LinExpr.total(-v * x for v, x in zip(values, xs)))
    return m


def test_trivial_empty_model():
    m = Model()
    for backend in (HighsBackend(), BranchBoundBackend()):
        sol = backend.solve(m)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == 0.0


def test_constant_objective():
    m = Model()
    m.minimize(LinExpr.of(7.5))
    assert HighsBackend().solve(m).objective == 7.5


def test_knapsack_known_optimum():
    m = knapsack([5, 7, 3, 9], [2, 3, 1, 4], 5)
    for backend in (HighsBackend(), BranchBoundBackend()):
        sol = backend.solve(m)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(-12.0)  # items 1+3 or 0+3


def test_infeasible_detected():
    m = Model()
    x = m.add_binary("x")
    m.add_constraint(LinExpr.of(x) >= 0.4)
    m.add_constraint(LinExpr.of(x) <= 0.6)
    for backend in (HighsBackend(), BranchBoundBackend()):
        assert backend.solve(m).status is SolveStatus.INFEASIBLE


def test_equality_with_integers():
    m = Model()
    x = m.add_var("x", lb=0, ub=10, integer=True)
    y = m.add_continuous("y", 0, 10)
    m.add_constraint((2 * x + y).equals(7))
    m.minimize(y)
    sol = HighsBackend().solve(m)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.value(x) == 3
    assert sol.value(y) == pytest.approx(1.0)


def test_integer_values_are_integral():
    m = knapsack([3, 1, 4, 1, 5], [1, 2, 3, 4, 5], 9)
    sol = HighsBackend().solve(m)
    for var in m.vars:
        assert sol.value(var) == int(sol.value(var))


def test_solution_helpers():
    m = Model()
    x = m.add_binary("x")
    m.minimize(-1.0 * x)
    sol = HighsBackend().solve(m)
    assert sol.is_one(x)
    assert sol.value_of(2 * x + 1) == pytest.approx(3.0)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_backends_agree_on_random_models(seed):
    """Property: both solvers find the same optimal objective on
    random small mixed binary/continuous models."""
    rng = np.random.RandomState(seed)
    n_bin = rng.randint(2, 7)
    n_cont = rng.randint(0, 3)
    m = Model(f"rand{seed}")
    xs = [m.add_binary(f"b{i}") for i in range(n_bin)]
    xs += [m.add_continuous(f"c{i}", 0, 5) for i in range(n_cont)]
    for _ in range(rng.randint(1, 5)):
        coefs = rng.randint(-4, 5, size=len(xs))
        rhs = float(rng.randint(0, 8))
        expr = LinExpr.total(
            int(c) * x for c, x in zip(coefs, xs) if c
        )
        m.add_constraint(expr <= rhs)
    obj_coefs = rng.randint(-5, 6, size=len(xs))
    m.minimize(
        LinExpr.total(int(c) * x for c, x in zip(obj_coefs, xs) if c)
    )
    s1 = HighsBackend().solve(m)
    s2 = BranchBoundBackend(time_limit=20).solve(m)
    assert s1.status == s2.status
    if s1.status is SolveStatus.OPTIMAL:
        # abs=1e-5: HiGHS reports objectives through its feasibility
        # tolerance, so integer-optimal values can be off by ~1e-6
        # (observed: -3.000001 vs the exact -3.0 on seed=7).
        assert s1.objective == pytest.approx(s2.objective, abs=1e-5)


def test_branch_bound_node_limit_returns_incumbent_status():
    m = knapsack(list(range(1, 13)), list(range(1, 13)), 20)
    sol = BranchBoundBackend(node_limit=1).solve(m)
    assert sol.status in (SolveStatus.FEASIBLE, SolveStatus.OPTIMAL)


def test_highs_unbounded():
    m = Model()
    x = m.add_continuous("x")
    m.minimize(x)
    status = HighsBackend().solve(m).status
    assert status in (SolveStatus.UNBOUNDED, SolveStatus.ERROR)


def test_error_status_retries_without_native_presolve():
    """Regression (hypothesis seed 13374): HiGHS' own presolve
    reports Status 4 ("Solve error") on this small well-posed mixed
    model even though it solves cleanly with presolve off.  The
    backend must retry and return the true optimum."""
    m = Model("rand13374")
    b0 = m.add_binary("b0")
    b1 = m.add_binary("b1")
    c0 = m.add_continuous("c0", 0, 5)
    c1 = m.add_continuous("c1", 0, 5)
    m.add_constraint((-2 * b0 - 4 * b1 + c0 + 2 * c1) <= 2.0)
    m.add_constraint((-3 * b1 - c0 + 3 * c1) <= 2.0)
    m.minimize(4 * b0 + 4 * b1 + 3 * c0 - 3 * c1)
    sol = HighsBackend().solve(m)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(-2.0)


def test_error_status_retry_sends_presolve_off(monkeypatch):
    """The retry is a second call with native presolve forced off."""
    calls = []

    def invoke(arrays, options):
        calls.append(dict(options))
        if len(calls) == 1:
            return SolveStatus.ERROR, "Solve error", None
        return highs_backend._run_milp(arrays, options)

    monkeypatch.setattr(
        highs_backend.HighsBackend, "_invoke", staticmethod(invoke)
    )
    sol = HighsBackend(mip_rel_gap=0.01).solve(knapsack([5, 7], [2, 3], 5))
    assert sol.status is SolveStatus.OPTIMAL
    assert calls == [
        {"mip_rel_gap": 0.01},
        {"mip_rel_gap": 0.01, "presolve": False},
    ]


def test_infeasible_status_on_both_paths():
    m = Model()
    x = m.add_binary("x")
    y = m.add_binary("y")
    m.add_constraint((x + y) >= 3)
    m.minimize(x + y)
    assert HighsBackend().solve(m).status is SolveStatus.INFEASIBLE
    arrays = extract(m)
    status, _, x_out = highs_backend._run_milp(arrays, {})
    assert status is SolveStatus.INFEASIBLE and x_out is None
    if highs_backend._highs is not None:
        status, _, x_out = highs_backend._run_highs(arrays, {})
        assert status is SolveStatus.INFEASIBLE and x_out is None


def hard_equality_knapsack(n=40, seed=0):
    """A 0/1 equality knapsack HiGHS cannot solve in a nanosecond."""
    rng = np.random.RandomState(seed)
    m = Model("eq-knapsack")
    xs = [m.add_binary(f"x{i}") for i in range(n)]
    weights = rng.randint(1000, 100000, size=n)
    m.add_constraint(
        LinExpr.total(int(w) * x for w, x in zip(weights, xs)).equals(
            int(weights[: n // 2].sum()) + 1
        )
    )
    m.minimize(
        LinExpr.total(
            int(c) * x for c, x in zip(rng.randint(1, 9, size=n), xs)
        )
    )
    return m


def test_time_limit_without_incumbent_is_a_time_limit_error():
    m = hard_equality_knapsack()
    sol = HighsBackend(time_limit=1e-9).solve(m)
    assert sol.status is SolveStatus.ERROR
    assert "time limit" in sol.message.lower()
    assert sol.values == {}


def test_time_limit_without_incumbent_marks_the_task_timed_out():
    from repro.runtime.task import SolverSpec, WindowTask

    task = WindowTask(
        task_id=0,
        ix=0,
        iy=0,
        family=0,
        solver=SolverSpec(time_limit=1e-9),
        model=hard_equality_knapsack(),
        presolve=False,
    )
    result = task.run()
    assert result.timed_out
    assert "time limit" in result.error.lower()


def _window_models(monkeypatch, arch, seed):
    """The arrays and options of every HiGHS call one DistOpt pass
    makes (each window model, presolved as in production)."""
    from repro.core import OptParams
    from repro.core.distopt import dist_opt
    from repro.library import build_library
    from repro.netlist import generate_design
    from repro.placement import place_design
    from repro.tech import make_tech

    calls = []
    invoke = highs_backend.HighsBackend._invoke

    def record(arrays, options):
        calls.append((arrays, dict(options)))
        return invoke(arrays, options)

    monkeypatch.setattr(
        highs_backend.HighsBackend, "_invoke", staticmethod(record)
    )
    tech = make_tech(arch)
    design = generate_design(
        "aes", tech, build_library(tech), scale=0.008, seed=seed
    )
    place_design(design, seed=seed)
    params = OptParams.for_arch(arch, time_limit=10.0)
    dist_opt(
        design, params, tx=0, ty=0, bw=1250, bh=1080, lx=2, ly=1,
        allow_flip=False,
    )
    return calls


@needs_direct
@pytest.mark.parametrize("arch_name", ["CLOSED_M1", "OPEN_M1"])
def test_direct_driver_matches_public_milp_on_window_models(
    monkeypatch, arch_name
):
    from repro.tech import CellArchitecture

    calls = _window_models(
        monkeypatch, CellArchitecture[arch_name], seed=5
    )
    assert len(calls) >= 5
    for index, (arrays, options) in enumerate(calls):
        d_status, _, d_x = highs_backend._run_highs(arrays, options)
        p_status, _, p_x = highs_backend._run_milp(arrays, options)
        assert d_status is p_status, index
        assert (d_x is None) == (p_x is None), index
        if d_x is not None:
            direct = np.asarray(d_x, dtype=np.float64)
            public = np.asarray(p_x, dtype=np.float64)
            assert direct.tobytes() == public.tobytes(), index
