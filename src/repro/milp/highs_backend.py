"""HiGHS backend: a direct driver over SciPy's bundled HiGHS binding.

SciPy ships HiGHS as ``scipy.optimize._highspy._core``.  Its public
``scipy.optimize.milp`` entry point (and the ``_highs_wrapper`` under
it) re-validates every option through a fresh options manager, turns
the integrality mask into enum objects one ``HighsVarType(i)`` call at
a time, and after the run extracts the basis, the duals and a
per-column bound-multiplier table this backend never reads.  On the
window-solve hot path — many small MILPs per flow — that glue cost
about a fifth as much as HiGHS' own ``run()``.

This backend hands the same arrays to the binding's array
``passModel`` overload and sets the same options the wrapper would, so
HiGHS receives the same model and option set and returns the same
solution.  It loads the matrix row-wise, as
:class:`~repro.milp.extract.ModelArrays` holds it and the window build
writes it: HiGHS takes a row-wise matrix as readily as a column-wise
one, and a column-major copy cost a sort and three index arrays per
solve.  On every window model of the census reference flows the
row-wise load got the column-wise load's answer bit for bit: model
status, node and iteration counts, objective and column values.  After
the run it reads back only the model status, two info values (the
branch-and-bound node count and the simplex iteration count) and the
primal column values; :class:`~repro.milp.solution.Solution` keeps
those as one vector (``Solution.x``), integer columns snapped, which
the window decode reads a cell's λ slice at a time.  On a SciPy
without ``_core`` the public ``milp`` entry point is used instead,
with the same options, and no effort is reported.  HiGHS receives, on
every path:

* ``log_to_console`` off (the direct driver; ``milp`` sets it itself);
* ``mip_rel_gap``, the backend's gap;
* ``mip_heuristic_run_feasibility_jump`` off, always;
* ``mip_heuristic_run_rens`` off when the gap is above 0;
* ``time_limit``, when the backend has one;
* ``presolve`` off for a window model with 192 or more integer
  columns, and on the retry after a solve error (see
  :class:`HighsBackend`).

Feasibility jump (FJ) and RENS are two of HiGHS' root heuristics.  On
window models FJ costs a third or more of all HiGHS time, at a 1% gap
as at gap 0, and RENS' sub-MIP up to half of the slowest calls, which
finish at the root node.  ``benchmarks/highs_census.py`` re-solves
every HiGHS call of the perfbench reference flows under candidate
option sets: with FJ off their total HiGHS time fell by 32-34%
(ClosedM1) and 42-44% (OpenM1), and RENS off on top took about a tenth
more off ClosedM1 and halved its slowest call, with every answer
within its gap of the exact optimum.  RENS stays on at gap 0: there,
with it off, HiGHS 1.12.0 reports a wrong optimum on one OpenM1 window
(``tests/milp/wrong_bound_window.json``), and gap 0 is the
certifier's setting.  The census result is committed as
``benchmarks/results/highs_census.json``; DESIGN.md §7 says why no
other option joined these two.

HiGHS 1.12.0 writes some messages straight to file descriptor 1 (e.g.
``HighsMipSolverData::transformNewIntegerFeasibleSolution
tmpSolver.run();``), whatever its log options say;
:func:`stdout_to_stderr` keeps a program's own stdout report clean.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import sys
import time

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.milp.extract import ModelArrays, extract
from repro.milp.model import Model
from repro.milp.solution import Solution, SolveStatus

try:  # pragma: no cover - exercised implicitly on this SciPy
    from scipy.optimize._highspy import _core as _highs
except ImportError:  # pragma: no cover - future SciPy layouts
    _highs = None

@contextlib.contextmanager
def stdout_to_stderr():
    """Point file descriptor 1 at stderr while the block runs.

    Whatever HiGHS (or anything else) writes to fd 1 inside the block
    lands on stderr, in worker processes started inside it too.
    Python's and the C library's stdio are flushed on the way in and
    out, so what the caller prints after the block is all that reaches
    stdout.
    """
    _flush_stdio()
    saved = os.dup(1)
    os.dup2(2, 1)
    try:
        yield
    finally:
        _flush_stdio()
        os.dup2(saved, 1)
        os.close(saved)


def _flush_stdio() -> None:
    sys.stdout.flush()
    sys.stderr.flush()
    fflush = ctypes.CDLL(None).fflush
    fflush.argtypes = [ctypes.c_void_p]
    fflush.restype = ctypes.c_int
    fflush(None)  # NULL: every C stdio output stream


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
    _ROWWISE = int(_highs.MatrixFormat.kRowwise)
    _MINIMIZE = int(_highs.ObjSense.kMinimize)

#: From this many integer columns on, HiGHS spends more time in its own
#: presolve than it saves on a window model, which arrives already
#: reduced — windows this large solve ~2x faster with native presolve
#: off (measured on the aes fixture; see BENCH_window_solve.json).
#: Deterministic in the model, so serial and parallel runs make the
#: same choice.
NATIVE_PRESOLVE_BINARY_THRESHOLD = 192


def recommend_native_presolve(arrays: ModelArrays) -> bool:
    """Whether HiGHS' own presolve should stay on for a window model."""
    return (
        int(np.count_nonzero(arrays.integrality))
        < NATIVE_PRESOLVE_BINARY_THRESHOLD
    )


def _run_highs(arrays, options: dict):
    """One direct HiGHS run; returns ``(status, message, x, effort)``.

    The model is loaded row-wise, as the arrays hold it.  ``x`` is
    None unless HiGHS holds a usable primal solution: an optimal one,
    or for a MIP the incumbent of a limit stop.  ``effort`` is
    ``(mip_node_count, simplex_iteration_count)`` of the run, or None
    for a model HiGHS rejects on load.
    """
    h = _highs
    highs = h._Highs()
    highs.setOptionValue("log_to_console", False)
    for key, value in options.items():
        if key == "presolve":
            value = "on" if value else "off"
        highs.setOptionValue(key, value)
    loaded = highs.passModel(
        arrays.n,
        arrays.m,
        len(arrays.vals),
        _ROWWISE,
        _MINIMIZE,
        0.0,
        arrays.c,
        arrays.lb,
        arrays.ub,
        arrays.lo,
        arrays.hi,
        arrays.row_ptr.astype(np.int32),
        arrays.cols.astype(np.int32),
        arrays.vals,
        arrays.integrality.astype(np.int32),
    )
    if loaded == h.HighsStatus.kError:
        status = _MS.kModelError
        return _MODEL_STATUS[status], _message(highs, status), None, None
    run_status = highs.run()
    status = highs.getModelStatus()
    effort = _effort(highs)
    ours = _MODEL_STATUS.get(status, SolveStatus.ERROR)
    message = _message(highs, status)
    if run_status == h.HighsStatus.kError or not ours.has_solution:
        return ours, message, None, effort
    if status != _MS.kOptimal:
        # A limit stop: only a MIP's finite incumbent is a solution.
        if (
            not arrays.integrality.any()
            or highs.getInfo().objective_function_value == h.kHighsInf
        ):
            return ours, f"{message}; no feasible solution", None, effort
    return ours, message, highs.getSolution().col_value, effort


def _effort(highs) -> tuple[int, int]:
    """The run's ``(mip_node_count, simplex_iteration_count)``, read as
    two info values rather than the whole ``HighsInfo``.  A status
    other than ``kOk`` means HiGHS holds no valid info, and then
    ``getInfo`` reports its reset counts."""
    ok = _highs.HighsStatus.kOk
    nodes_status, nodes = highs.getInfoValue("mip_node_count")
    iterations_status, iterations = highs.getInfoValue(
        "simplex_iteration_count"
    )
    if nodes_status != ok or iterations_status != ok:
        info = highs.getInfo()
        return info.mip_node_count, info.simplex_iteration_count
    return nodes, iterations


def _run_milp(arrays, options: dict):
    """One solve through the public ``scipy.optimize.milp`` entry
    point; returns ``(status, message, x, None)`` like
    :func:`_run_highs`, without effort counts."""
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
    return status, str(result.message), result.x, None


#: HiGHS model status -> the message it is reported with, filled on
#: first use (a status' wording is a constant of the binding).
_MESSAGES: dict = {}


def _message(highs, status) -> str:
    message = _MESSAGES.get(status)
    if message is None:
        message = _MESSAGES[status] = (
            f"{highs.modelStatusToString(status)} "
            f"(HiGHS model status {int(status)})"
        )
    return message


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

    A window model comes in array form, already reduced
    (:meth:`solve_arrays`); HiGHS' own presolve is off for one that
    :func:`recommend_native_presolve` rules out, where the reductions
    did the structural work and HiGHS' own pass is measured overhead.
    :meth:`solve` takes any :class:`~repro.milp.model.Model` and keeps
    HiGHS' presolve on.

    HiGHS' feasibility-jump heuristic is always off, and its RENS
    heuristic is off at a gap above 0; at gap 0 RENS stays on, because
    without it HiGHS 1.12.0 proves a wrong optimum on one window.  The
    module docstring lists every option HiGHS receives and why.  The
    options are part of the answer: at a nonzero gap HiGHS may stop at
    any solution within it, and which one depends on them.
    """

    name = "highs"

    def __init__(
        self,
        time_limit: float | None = None,
        mip_rel_gap: float = 0.0,
    ) -> None:
        self.time_limit = time_limit
        self.mip_rel_gap = mip_rel_gap

    @staticmethod
    def _invoke(arrays, options: dict):
        """One HiGHS call; returns ``(status, message, x, effort)``."""
        if _highs is not None:
            return _run_highs(arrays, options)
        return _run_milp(arrays, options)

    def solve(self, model: Model) -> Solution:
        """Solve ``model`` (minimization)."""
        if not model.vars:
            return Solution(
                status=SolveStatus.OPTIMAL,
                objective=model.objective.const,
            )
        return self._solve(
            extract(model), model.objective.const, native_presolve=True
        )

    def solve_arrays(self, arrays: ModelArrays) -> Solution:
        """Solve a window model written as arrays (minimization, no
        objective constant)."""
        return self._solve(
            arrays, 0.0, native_presolve=recommend_native_presolve(arrays)
        )

    def _solve(
        self, arrays: ModelArrays, const: float, *, native_presolve: bool
    ) -> Solution:
        started = time.perf_counter()
        options: dict = {
            "mip_rel_gap": self.mip_rel_gap,
            "mip_heuristic_run_feasibility_jump": False,
        }
        if self.mip_rel_gap > 0:
            options["mip_heuristic_run_rens"] = False
        if self.time_limit is not None:
            options["time_limit"] = self.time_limit
        if not native_presolve:
            options["presolve"] = False

        status, message, result_x, effort = self._invoke(arrays, options)
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
            status, message, result_x, effort = self._invoke(
                arrays, {**options, "presolve": False}
            )
        elapsed = time.perf_counter() - started
        # The effort of the call that answered.
        nodes, iterations = effort or (None, None)

        if status.has_solution and result_x is None:
            status = SolveStatus.ERROR
        if not status.has_solution:
            return Solution(
                status=status,
                solve_seconds=elapsed,
                message=message,
                mip_node_count=nodes,
                simplex_iteration_count=iterations,
            )

        # Integer variables snap to the nearest integer in one
        # vectorized pass, in place; ``Solution.values`` reads the
        # vector.
        x = np.array(result_x, dtype=np.float64)
        np.rint(x, out=x, where=arrays.integrality == 1)
        return Solution(
            status=status,
            objective=const + float(arrays.c @ x),
            x=x,
            solve_seconds=elapsed,
            message=message,
            mip_node_count=nodes,
            simplex_iteration_count=iterations,
        )
