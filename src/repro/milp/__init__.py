"""Solver-independent MILP modeling layer (the CPLEX substitute).

The paper solves its window MILPs with CPLEX 12.6.3.  This package
provides:

* :class:`Model` / :class:`Var` / :class:`LinExpr` — a small algebraic
  modeling API sufficient for the paper's formulations (binary and
  continuous variables, linear constraints, linear objective).
* :class:`HighsBackend` — the one exact solver, HiGHS branch-and-cut
  driven through SciPy's bundled binding.
* :func:`extract` — the ``Model`` -> sparse-array conversion
  (:class:`ModelArrays`, the form the backend solves; window models
  are built in it directly).
"""

from repro.milp.model import Constraint, LinExpr, Model, Sense, Var
from repro.milp.solution import Solution, SolveStatus
from repro.milp.extract import ModelArrays, extract
from repro.milp.highs_backend import HighsBackend

__all__ = [
    "Model",
    "Var",
    "LinExpr",
    "Constraint",
    "Sense",
    "Solution",
    "SolveStatus",
    "ModelArrays",
    "extract",
    "HighsBackend",
]

from repro.log import subsystem_logger

logger = subsystem_logger("repro.milp")
