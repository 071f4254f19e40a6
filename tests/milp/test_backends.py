"""Backend correctness: HiGHS vs an exhaustive-enumeration reference.

On small random models HiGHS must reach the optimum that enumerating
every binary assignment finds — the strongest cheap check we have that
the CPLEX-substitute stack is sound.  The reference reads the model's
rows itself and shares no code with the backend.  The direct HiGHS
driver must also agree bit for bit with the public
``scipy.optimize.milp`` path it replaces.
"""

import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from repro.milp import HighsBackend, LinExpr, Model, Sense, SolveStatus
from repro.milp import highs_backend
from repro.milp.extract import extract

needs_direct = pytest.mark.skipif(
    highs_backend._highs is None,
    reason="SciPy without the bundled HiGHS binding",
)

#: SciPy's public ``milp`` warns that it passes the backend's HiGHS
#: heuristic options on verbatim.
milp_passes_options = pytest.mark.filterwarnings(
    "ignore:Unrecognized options:RuntimeWarning"
)

#: The root heuristics the backend switches off at gap 0, and above it.
FJ_OFF = {"mip_heuristic_run_feasibility_jump": False}
FJ_RENS_OFF = {**FJ_OFF, "mip_heuristic_run_rens": False}


def knapsack(values, weights, cap):
    m = Model("knapsack")
    xs = [m.add_binary(f"x{i}") for i in range(len(values))]
    m.add_constraint(
        LinExpr.total(w * x for w, x in zip(weights, xs)) <= cap
    )
    m.minimize(LinExpr.total(-v * x for v, x in zip(values, xs)))
    return m


def enumerated_optimum(model: Model) -> tuple[SolveStatus, float | None]:
    """Reference optimum of a small mixed-binary model.

    Every assignment of the binaries is enumerated; for each, the rows
    of ``model.constraints`` are reduced to the continuous variables
    and that LP is solved by ``linprog`` (or, without continuous
    variables, checked directly).  Returns ``(OPTIMAL, objective)``,
    ``(INFEASIBLE, None)`` or ``(UNBOUNDED, None)``.
    """
    binaries = [v for v in model.vars if v.is_integer]
    assert all(v.lb == 0.0 and v.ub == 1.0 for v in binaries)
    continuous = [v for v in model.vars if not v.is_integer]
    column = {v.index: k for k, v in enumerate(continuous)}
    cost = np.zeros(len(continuous))
    for idx, coef in model.objective.coefs.items():
        if idx in column:
            cost[column[idx]] += coef
    best = None
    for bits in itertools.product((0.0, 1.0), repeat=len(binaries)):
        fixed = {v.index: bit for v, bit in zip(binaries, bits)}
        # Continuous variables are absent from ``fixed`` and read 0.
        const = model.objective.value(fixed)
        a_ub, b_ub, a_eq, b_eq = [], [], [], []
        for con in model.constraints:
            row = np.zeros(len(continuous))
            rhs = con.rhs
            for idx, coef in con.coefs.items():
                if idx in column:
                    row[column[idx]] += coef
                else:
                    rhs -= coef * fixed[idx]
            if con.sense is Sense.EQ:
                a_eq.append(row)
                b_eq.append(rhs)
            elif con.sense is Sense.LE:
                a_ub.append(row)
                b_ub.append(rhs)
            else:
                a_ub.append(-row)
                b_ub.append(-rhs)
        if not continuous:
            feasible = all(b >= -1e-9 for b in b_ub) and all(
                abs(b) <= 1e-9 for b in b_eq
            )
            value = const if feasible else None
        else:
            result = linprog(
                cost,
                A_ub=np.array(a_ub) if a_ub else None,
                b_ub=b_ub or None,
                A_eq=np.array(a_eq) if a_eq else None,
                b_eq=b_eq or None,
                bounds=[(v.lb, v.ub) for v in continuous],
            )
            if result.status == 3:
                return SolveStatus.UNBOUNDED, None
            assert result.status in (0, 2), result.message
            value = const + result.fun if result.status == 0 else None
        if value is not None and (best is None or value < best):
            best = value
    if best is None:
        return SolveStatus.INFEASIBLE, None
    return SolveStatus.OPTIMAL, best


def test_trivial_empty_model():
    sol = HighsBackend().solve(Model())
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.objective == 0.0
    assert enumerated_optimum(Model()) == (SolveStatus.OPTIMAL, 0.0)


def test_constant_objective():
    m = Model()
    m.minimize(LinExpr.of(7.5))
    assert HighsBackend().solve(m).objective == 7.5


def test_knapsack_known_optimum():
    m = knapsack([5, 7, 3, 9], [2, 3, 1, 4], 5)
    sol = HighsBackend().solve(m)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(-12.0)  # items 1+3 or 0+3
    assert enumerated_optimum(m) == (SolveStatus.OPTIMAL, -12.0)


def test_infeasible_detected():
    m = Model()
    x = m.add_binary("x")
    m.add_constraint(LinExpr.of(x) >= 0.4)
    m.add_constraint(LinExpr.of(x) <= 0.6)
    assert HighsBackend().solve(m).status is SolveStatus.INFEASIBLE
    assert enumerated_optimum(m) == (SolveStatus.INFEASIBLE, None)


def test_enumerated_optimum_solves_the_continuous_part():
    m = Model()
    x = m.add_binary("x")
    y = m.add_continuous("y", 0, 10)
    m.add_constraint((y - 4 * x) >= 1.5)
    m.add_constraint((x + y).equals(3))
    m.minimize(2 * x + y)
    # x = 0: y = 3 (objective 3); x = 1: y >= 5.5 contradicts y = 2.
    status, objective = enumerated_optimum(m)
    assert status is SolveStatus.OPTIMAL
    assert objective == pytest.approx(3.0)


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
    """Property: HiGHS finds the enumerated optimum (or infeasibility)
    of random small mixed binary/continuous models."""
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
    sol = HighsBackend().solve(m)
    status, objective = enumerated_optimum(m)
    assert sol.status is status
    if status is SolveStatus.OPTIMAL:
        # abs=1e-5: HiGHS reports objectives through its feasibility
        # tolerance, so integer-optimal values can be off by ~1e-6
        # (observed: -3.000001 vs the exact -3.0 on seed=7).
        assert sol.objective == pytest.approx(objective, abs=1e-5)


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


@milp_passes_options
def test_error_status_retry_sends_presolve_off(monkeypatch):
    """The retry is a second call with native presolve forced off."""
    calls = []

    def invoke(arrays, options):
        calls.append(dict(options))
        if len(calls) == 1:
            return SolveStatus.ERROR, "Solve error", None, None
        return highs_backend._run_milp(arrays, options)

    monkeypatch.setattr(
        highs_backend.HighsBackend, "_invoke", staticmethod(invoke)
    )
    sol = HighsBackend(mip_rel_gap=0.01).solve(knapsack([5, 7], [2, 3], 5))
    assert sol.status is SolveStatus.OPTIMAL
    assert calls == [
        {"mip_rel_gap": 0.01, **FJ_RENS_OFF},
        {"mip_rel_gap": 0.01, **FJ_RENS_OFF, "presolve": False},
    ]


@pytest.mark.parametrize(
    "gap, expected",
    [(0.0, {"mip_rel_gap": 0.0, **FJ_OFF}),
     (0.01, {"mip_rel_gap": 0.01, **FJ_RENS_OFF})],
    ids=["gap0", "gap1pct"],
)
def test_rens_is_off_only_above_gap_0(monkeypatch, gap, expected):
    """RENS stays on at gap 0, where HiGHS 1.12.0 needs it (see
    ``test_gap0_solve_is_exact_on_the_wrong_bound_window``)."""
    calls = []
    invoke = highs_backend.HighsBackend._invoke

    def record(arrays, options):
        calls.append(dict(options))
        return invoke(arrays, options)

    monkeypatch.setattr(
        highs_backend.HighsBackend, "_invoke", staticmethod(record)
    )
    model = knapsack([5, 7], [2, 3], 5)
    HighsBackend(mip_rel_gap=gap).solve(model)
    HighsBackend(mip_rel_gap=gap).solve_arrays(extract(model))
    assert calls == [expected, expected]


def test_infeasible_status_on_both_paths():
    m = Model()
    x = m.add_binary("x")
    y = m.add_binary("y")
    m.add_constraint((x + y) >= 3)
    m.minimize(x + y)
    assert HighsBackend().solve(m).status is SolveStatus.INFEASIBLE
    arrays = extract(m)
    status, _, x_out, _ = highs_backend._run_milp(arrays, {})
    assert status is SolveStatus.INFEASIBLE and x_out is None
    if highs_backend._highs is not None:
        status, _, x_out, _ = highs_backend._run_highs(arrays, {})
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
    from tests.runtime._fakes import slice_task

    result = slice_task(0, solver=HighsBackend(time_limit=1e-9)).run()
    assert result.timed_out
    assert "time limit" in result.error.lower()


def _window_models(monkeypatch, arch, seed, *, lx, ly, allow_flip):
    """The arrays and options of every HiGHS call one DistOpt pass
    makes (each window model, as the build writes it)."""
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
        design, params, tx=0, ty=0, bw=1250, bh=1080, lx=lx, ly=ly,
        allow_flip=allow_flip,
    )
    return calls


def _assert_driver_matches_milp(calls) -> None:
    """The driver's row-wise load answers every recorded call bit for
    bit as the public ``milp`` entry point does."""
    assert len(calls) >= 5
    for index, (arrays, options) in enumerate(calls):
        assert options.items() >= FJ_RENS_OFF.items(), index
        d_status, _, d_x, _ = highs_backend._run_highs(arrays, options)
        p_status, _, p_x, _ = highs_backend._run_milp(arrays, options)
        assert d_status is p_status, index
        assert (d_x is None) == (p_x is None), index
        if d_x is not None:
            direct = np.asarray(d_x, dtype=np.float64)
            public = np.asarray(p_x, dtype=np.float64)
            assert direct.tobytes() == public.tobytes(), index


@needs_direct
@milp_passes_options
@pytest.mark.parametrize("arch_name", ["CLOSED_M1", "OPEN_M1"])
def test_direct_driver_matches_public_milp_on_window_models(
    monkeypatch, arch_name
):
    """A move pass's window models."""
    from repro.tech import CellArchitecture

    _assert_driver_matches_milp(
        _window_models(
            monkeypatch, CellArchitecture[arch_name], seed=5,
            lx=2, ly=1, allow_flip=False,
        )
    )


@needs_direct
@milp_passes_options
@pytest.mark.parametrize("arch_name", ["CLOSED_M1", "OPEN_M1"])
def test_direct_driver_matches_public_milp_on_flip_window_models(
    monkeypatch, arch_name
):
    """A flip pass's window models: half of a flow's HiGHS calls."""
    from repro.tech import CellArchitecture

    _assert_driver_matches_milp(
        _window_models(
            monkeypatch, CellArchitecture[arch_name], seed=5,
            lx=0, ly=0, allow_flip=True,
        )
    )


def load_model(doc: dict) -> Model:
    """A ``Model`` from a JSON fixture: objective ``c``, ``vars`` as
    ``[lb, ub, integer]`` (``null`` for an infinite bound) and ``rows``
    as ``[sense, rhs, [[column, coefficient], ...]]``."""
    m = Model("fixture")
    xs = [
        m.add_var(
            f"x{i}",
            lb=-np.inf if lb is None else lb,
            ub=np.inf if ub is None else ub,
            integer=bool(integer),
        )
        for i, (lb, ub, integer) in enumerate(doc["vars"])
    ]
    for sense, rhs, coefs in doc["rows"]:
        row = LinExpr.total(coef * xs[col] for col, coef in coefs)
        if sense == "<=":
            m.add_constraint(row <= rhs)
        elif sense == ">=":
            m.add_constraint(row >= rhs)
        else:
            m.add_constraint(row.equals(rhs))
    m.minimize(LinExpr.total(coef * x for coef, x in zip(doc["c"], xs)))
    return m


def test_gap0_solve_is_exact_on_the_wrong_bound_window():
    """Regression for a wrong bound in HiGHS 1.12.0 (SciPy 1.17.1).

    On this OpenM1 window model (83 variables, 53 of them binary, 34
    rows), HiGHS at gap 0 with its presolve on and its RENS heuristic
    off reports ``Optimal`` at 27690.14, yet 27582.17 is feasible and
    optimal.  The backend's options at gap 0, the certifier's setting
    in ``repro.check``, must reach the optimum: an option set that
    turns RENS off fails here.
    """
    path = Path(__file__).parent / "wrong_bound_window.json"
    model = load_model(json.loads(path.read_text()))
    arrays = extract(model)
    assert (arrays.n, arrays.m) == (83, 34)
    assert (model.num_binaries, len(arrays.vals)) == (53, 295)
    sol = HighsBackend(mip_rel_gap=0.0).solve(model)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(27582.165967, abs=1e-5)


def wrong_bound_window() -> Model:
    path = Path(__file__).parent / "wrong_bound_window.json"
    return load_model(json.loads(path.read_text()))


#: The optimum of ``wrong_bound_window.json``.
WRONG_BOUND_OPTIMUM = 27582.165967


def test_gap_solve_with_rens_off_stays_within_its_gap():
    """At the flow's 1% gap the backend switches RENS off, and its
    answer on the wrong-bound window stays within 1% of the optimum,
    not below it."""
    sol = HighsBackend(mip_rel_gap=0.01).solve(wrong_bound_window())
    assert sol.status is SolveStatus.OPTIMAL
    assert WRONG_BOUND_OPTIMUM - 1e-5 <= sol.objective
    assert sol.objective <= WRONG_BOUND_OPTIMUM * 1.01


@needs_direct
@milp_passes_options
def test_direct_driver_reports_effort():
    """The direct driver reads HiGHS' node and simplex iteration
    counts into the ``Solution``; the public ``milp`` path reports
    none."""
    model = wrong_bound_window()
    sol = HighsBackend(mip_rel_gap=0.01).solve(model)
    assert type(sol.mip_node_count) is int
    assert type(sol.simplex_iteration_count) is int
    assert sol.mip_node_count >= 1 and sol.simplex_iteration_count >= 1
    *_, effort = highs_backend._run_milp(extract(model), FJ_RENS_OFF)
    assert effort is None
