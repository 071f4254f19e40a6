"""HiGHS backend: a direct driver over SciPy's bundled HiGHS binding.

SciPy ships HiGHS as ``scipy.optimize._highspy._core``.  Its public
``scipy.optimize.milp`` entry point (and the ``_highs_wrapper`` under
it) re-validates every option through a fresh options manager, turns
the integrality mask into enum objects one ``HighsVarType(i)`` call at
a time, and after the run extracts the basis, the duals and a
per-column bound-multiplier table this backend never reads.  On the
window-solve hot path — many small MILPs per flow — that glue cost
about a fifth as much as HiGHS' own ``run()``.

The driver here fills a ``HighsLp`` from the same arrays and sets the
same options the wrapper would (output off, ``mip_rel_gap``,
``time_limit``, and ``presolve`` only when forced off), so HiGHS
receives a bit-identical model and option set and returns the same
solution; it then reads back only the model status and the primal
column values.  On a SciPy without ``_core`` the public ``milp`` entry
point is used instead.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.milp.extract import extract
from repro.milp.model import Model
from repro.milp.solution import Solution, SolveStatus

try:  # pragma: no cover - exercised implicitly on this SciPy
    from scipy.optimize._highspy import _core as _highs
except ImportError:  # pragma: no cover - future SciPy layouts
    _highs = None

#: ``scipy.optimize.milp`` status codes (the fallback path).
_STATUS_MAP = {
    0: SolveStatus.OPTIMAL,
    1: SolveStatus.FEASIBLE,  # iteration/time limit with incumbent
    2: SolveStatus.INFEASIBLE,
    3: SolveStatus.UNBOUNDED,
    4: SolveStatus.ERROR,
}

if _highs is not None:
    _MS = _highs.HighsModelStatus
    #: HiGHS model status -> ours; every status missing here is an
    #: ``ERROR``.  The same mapping ``milp`` applies, so both paths
    #: classify every outcome alike (a model HiGHS rejects on load is
    #: reported as infeasible there too).
    _MODEL_STATUS = {
        _MS.kOptimal: SolveStatus.OPTIMAL,
        _MS.kTimeLimit: SolveStatus.FEASIBLE,
        _MS.kIterationLimit: SolveStatus.FEASIBLE,
        _MS.kInfeasible: SolveStatus.INFEASIBLE,
        _MS.kModelError: SolveStatus.INFEASIBLE,
        _MS.kUnbounded: SolveStatus.UNBOUNDED,
    }
    _VAR_TYPES = (
        _highs.HighsVarType.kContinuous,
        _highs.HighsVarType.kInteger,
    )


def _run_highs(arrays, options: dict):
    """One direct HiGHS run; returns ``(status, message, x)``.

    ``x`` is None unless HiGHS holds a usable primal solution: an
    optimal one, or for a MIP the incumbent of a limit stop.
    """
    h = _highs
    n = arrays.n
    m = arrays.m
    lp = h.HighsLp()
    lp.num_col_ = n
    lp.num_row_ = m
    matrix = lp.a_matrix_
    matrix.num_col_ = n
    matrix.num_row_ = m
    matrix.format_ = h.MatrixFormat.kColwise
    # The binding copies an ndarray into most of these vectors one
    # element at a time; a list converts several times faster.  Only
    # col_cost_ takes the array directly.  Either way HiGHS receives
    # the same doubles and ints.
    lp.col_cost_ = arrays.c
    lp.col_lower_ = arrays.lb.tolist()
    lp.col_upper_ = arrays.ub.tolist()
    lp.row_lower_ = arrays.lo.tolist()
    lp.row_upper_ = arrays.hi.tolist()
    col_ptr, rows, values = arrays.csc()
    matrix.start_ = col_ptr.tolist()
    matrix.index_ = rows.tolist()
    matrix.value_ = values.tolist()
    integrality = arrays.integrality.tolist()
    lp.integrality_ = [_VAR_TYPES[flag] for flag in integrality]

    highs = h._Highs()
    highs.setOptionValue("log_to_console", False)
    for key, value in options.items():
        if key == "presolve":
            value = "on" if value else "off"
        highs.setOptionValue(key, value)
    if highs.passModel(lp) == h.HighsStatus.kError:
        status = _MS.kModelError
        return _MODEL_STATUS[status], _message(highs, status), None
    run_status = highs.run()
    status = highs.getModelStatus()
    ours = _MODEL_STATUS.get(status, SolveStatus.ERROR)
    message = _message(highs, status)
    if run_status == h.HighsStatus.kError or not ours.has_solution:
        return ours, message, None
    if status != _MS.kOptimal:
        # A limit stop: only a MIP's finite incumbent is a solution.
        if (
            1 not in integrality
            or highs.getInfo().objective_function_value
            == h.kHighsInf
        ):
            return ours, f"{message}; no feasible solution", None
    return ours, message, highs.getSolution().col_value


def _run_milp(arrays, options: dict):
    """One solve through the public ``scipy.optimize.milp`` entry
    point; returns ``(status, message, x)`` like :func:`_run_highs`."""
    constraints = None
    if arrays.a is not None:
        constraints = LinearConstraint(arrays.a, arrays.lo, arrays.hi)
    result = milp(
        arrays.c,
        constraints=constraints,
        integrality=arrays.integrality,
        bounds=Bounds(arrays.lb, arrays.ub),
        options=options,
    )
    status = _STATUS_MAP.get(result.status, SolveStatus.ERROR)
    return status, str(result.message), result.x


def _message(highs, status) -> str:
    return (
        f"{highs.modelStatusToString(status)} "
        f"(HiGHS model status {int(status)})"
    )


class HighsBackend:
    """Exact MILP solver backed by HiGHS branch-and-cut.

    Args:
        time_limit: per-solve wall-clock limit in seconds (None = no
            limit).  On timeout the incumbent, if any, is returned with
            status ``FEASIBLE`` — matching how the paper's flow would
            use CPLEX with a deterministic time limit per window.  A
            timeout with no incumbent is an ``ERROR`` whose message
            says "time limit".
        mip_rel_gap: relative optimality gap at which to stop.
        native_presolve: whether HiGHS runs its own presolve.  True /
            False force it; None (default) keeps it on except for
            models already reduced by :mod:`repro.milp.presolve` that
            exceed the binary-count threshold — there the reductions
            did the structural work and HiGHS' own pass is measured
            overhead.  The choice is a function of the model alone,
            so parallel and serial runs stay deterministic.
    """

    name = "highs"

    def __init__(
        self,
        time_limit: float | None = None,
        mip_rel_gap: float = 0.0,
        native_presolve: bool | None = None,
    ) -> None:
        self.time_limit = time_limit
        self.mip_rel_gap = mip_rel_gap
        self.native_presolve = native_presolve

    @staticmethod
    def _invoke(arrays, options: dict):
        """One HiGHS call; returns ``(status, message, x)``."""
        if _highs is not None:
            return _run_highs(arrays, options)
        return _run_milp(arrays, options)

    def solve(self, model: Model) -> Solution:
        """Solve ``model`` (minimization)."""
        started = time.perf_counter()
        if not model.vars:
            return Solution(
                status=SolveStatus.OPTIMAL,
                objective=model.objective.const,
            )

        arrays = extract(model)

        options: dict = {"mip_rel_gap": self.mip_rel_gap}
        if self.time_limit is not None:
            options["time_limit"] = self.time_limit
        native = self.native_presolve
        if native is None:
            if getattr(model, "presolved", False):
                from repro.milp.presolve import (
                    recommend_native_presolve,
                )

                native = recommend_native_presolve(model)
            else:
                native = True
        if not native:
            options["presolve"] = False

        status, message, result_x = self._invoke(arrays, options)
        if (
            status is SolveStatus.ERROR
            and options.get("presolve") is not False
        ):
            # HiGHS' own presolve occasionally reports Status 4
            # ("Solve error") on small well-posed mixed models that
            # solve cleanly without it; retry once with native
            # presolve off before surfacing an error.  The retry is a
            # pure function of the first outcome, so determinism
            # across runs/executors is preserved.
            status, message, result_x = self._invoke(
                arrays, {**options, "presolve": False}
            )
        elapsed = time.perf_counter() - started

        if status.has_solution and result_x is None:
            status = SolveStatus.ERROR
        if not status.has_solution:
            return Solution(
                status=status,
                solve_seconds=elapsed,
                message=message,
            )

        # Integer variables snap to the nearest integer in one
        # vectorized pass; a per-variable round() was measurable on
        # the window-solve hot path.
        xs = np.asarray(result_x, dtype=np.float64)
        snapped = np.where(
            arrays.integrality == 1, np.rint(xs), xs
        )
        values = dict(enumerate(snapped.tolist()))
        objective = model.objective.value(values)
        return Solution(
            status=status,
            objective=objective,
            values=values,
            solve_seconds=elapsed,
            message=message,
        )
