"""MILP solve results."""

from __future__ import annotations

import enum
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field

import numpy as np

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


class ColumnValues(Mapping):
    """A column vector read as ``{column index: value}``, without a
    dict of every column: each lookup reads the vector."""

    __slots__ = ("_x",)

    def __init__(self, x: np.ndarray) -> None:
        self._x = x

    def __getitem__(self, index: int) -> float:
        if not 0 <= index < len(self._x):
            raise KeyError(index)
        return float(self._x[index])

    def __iter__(self) -> Iterator[int]:
        return iter(range(len(self._x)))

    def __len__(self) -> int:
        return len(self._x)


@dataclass
class Solution:
    """Variable assignment returned by a backend.

    A backend's ``objective`` is the model's objective evaluated over
    ``values``.  ``x`` is the primal column vector the backend read
    back, integer columns snapped to the nearest integer, or None for a
    solution without one; when given, ``values`` reads it
    (:class:`ColumnValues`).  ``mip_node_count`` and
    ``simplex_iteration_count`` are the solver's effort on the solve,
    None where the backend does not report it.
    """

    status: SolveStatus
    objective: float = float("nan")
    values: Mapping[int, float] = field(default_factory=dict)
    solve_seconds: float = 0.0
    message: str = ""
    mip_node_count: int | None = None
    simplex_iteration_count: int | None = None
    x: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.x is not None and not self.values:
            self.values = ColumnValues(self.x)

    def value(self, var: Var) -> float:
        """Value of ``var`` (0.0 when the variable is absent)."""
        return self.values.get(var.index, 0.0)

    def value_of(self, expr: "LinExpr | Var") -> float:
        """Evaluate an expression under this solution."""
        return LinExpr.of(expr).value(self.values)

    def is_one(self, var: Var) -> bool:
        """Robust binary test (handles LP round-off)."""
        return self.value(var) > 0.5
