"""MILP solve results."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.milp.model import LinExpr, Var


class SolveStatus(enum.Enum):
    """Outcome of a solve call."""

    OPTIMAL = "optimal"
    FEASIBLE = "feasible"  # incumbent found, optimality not proven
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ERROR = "error"

    @property
    def has_solution(self) -> bool:
        return self in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE)


@dataclass
class Solution:
    """Variable assignment returned by a backend.

    A backend's ``objective`` is the model's objective expression
    evaluated over ``values`` (``model.objective.value(values)``);
    :meth:`repro.milp.presolve.PresolveResult.lift` relies on it.
    """

    status: SolveStatus
    objective: float = float("nan")
    values: dict[int, float] = field(default_factory=dict)
    solve_seconds: float = 0.0
    message: str = ""

    def value(self, var: Var) -> float:
        """Value of ``var`` (0.0 when the variable is absent)."""
        return self.values.get(var.index, 0.0)

    def value_of(self, expr: "LinExpr | Var") -> float:
        """Evaluate an expression under this solution."""
        return LinExpr.of(expr).value(self.values)

    def is_one(self, var: Var) -> bool:
        """Robust binary test (handles LP round-off)."""
        return self.value(var) > 0.5
