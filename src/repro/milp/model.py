"""Algebraic MILP model: variables, linear expressions, constraints."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Sense(enum.Enum):
    """Constraint sense."""

    LE = "<="
    GE = ">="
    EQ = "=="


@dataclass(frozen=True, slots=True)
class Var:
    """A decision variable.

    Instances are created through :meth:`Model.add_var`; identity is the
    model-assigned ``index``.
    """

    index: int
    name: str
    lb: float
    ub: float
    is_integer: bool

    def __add__(self, other) -> "LinExpr":
        return LinExpr.of(self) + other

    def __radd__(self, other) -> "LinExpr":
        return LinExpr.of(self) + other

    def __sub__(self, other) -> "LinExpr":
        return LinExpr.of(self) - other

    def __rsub__(self, other) -> "LinExpr":
        return (-1.0 * self) + other

    def __mul__(self, coef: float) -> "LinExpr":
        return LinExpr({self.index: float(coef)}, 0.0)

    __rmul__ = __mul__

    def __neg__(self) -> "LinExpr":
        return self * -1.0

    def __le__(self, other) -> "Constraint":  # type: ignore[override]
        return LinExpr.of(self) <= other

    def __ge__(self, other) -> "Constraint":  # type: ignore[override]
        return LinExpr.of(self) >= other

    def __hash__(self) -> int:
        return self.index


@dataclass
class LinExpr:
    """A linear expression ``sum(coef * var) + const``.

    Coefficients are keyed by variable index.  Arithmetic returns new
    expressions; nothing is mutated, so building constraints from
    shared subexpressions is safe.
    """

    coefs: dict[int, float] = field(default_factory=dict)
    const: float = 0.0

    @classmethod
    def of(cls, item: "Var | LinExpr | float") -> "LinExpr":
        if isinstance(item, LinExpr):
            return item
        if isinstance(item, Var):
            return cls({item.index: 1.0}, 0.0)
        return cls({}, float(item))

    @classmethod
    def total(cls, items) -> "LinExpr":
        """Sum an iterable of vars/expressions/numbers."""
        out = cls()
        for item in items:
            out = out + item
        return out

    def __add__(self, other) -> "LinExpr":
        other = LinExpr.of(other)
        coefs = dict(self.coefs)
        for idx, coef in other.coefs.items():
            coefs[idx] = coefs.get(idx, 0.0) + coef
        return LinExpr(coefs, self.const + other.const)

    __radd__ = __add__

    def __sub__(self, other) -> "LinExpr":
        return self + (LinExpr.of(other) * -1.0)

    def __rsub__(self, other) -> "LinExpr":
        return (self * -1.0) + other

    def __mul__(self, factor: float) -> "LinExpr":
        factor = float(factor)
        return LinExpr(
            {idx: coef * factor for idx, coef in self.coefs.items()},
            self.const * factor,
        )

    __rmul__ = __mul__

    def __neg__(self) -> "LinExpr":
        return self * -1.0

    def __le__(self, other) -> "Constraint":
        return Constraint.build(self, Sense.LE, other)

    def __ge__(self, other) -> "Constraint":
        return Constraint.build(self, Sense.GE, other)

    def equals(self, other) -> "Constraint":
        """Build an equality constraint (named method — ``==`` keeps
        its identity semantics)."""
        return Constraint.build(self, Sense.EQ, other)

    def value(self, assignment: dict[int, float]) -> float:
        """Evaluate under a variable-index -> value assignment."""
        return self.const + sum(
            coef * assignment.get(idx, 0.0)
            for idx, coef in self.coefs.items()
        )


@dataclass(frozen=True)
class Constraint:
    """A linear constraint ``expr (sense) rhs`` with constants folded
    to the right-hand side."""

    coefs: dict[int, float]
    sense: Sense
    rhs: float
    name: str = ""

    @classmethod
    def build(cls, lhs, sense: Sense, rhs) -> "Constraint":
        diff = LinExpr.of(lhs) - LinExpr.of(rhs)
        coefs = {i: c for i, c in diff.coefs.items() if c != 0.0}
        return cls(coefs=coefs, sense=sense, rhs=-diff.const)

    def named(self, name: str) -> "Constraint":
        return Constraint(self.coefs, self.sense, self.rhs, name)


class Model:
    """A mixed-integer linear program under minimization."""

    def __init__(self, name: str = "model") -> None:
        self.name = name
        self.vars: list[Var] = []
        self.constraints: list[Constraint] = []
        self.objective: LinExpr = LinExpr()

    def add_var(
        self,
        name: str,
        *,
        lb: float = 0.0,
        ub: float = float("inf"),
        integer: bool = False,
    ) -> Var:
        """Create a variable and register it with the model."""
        var = Var(len(self.vars), name, float(lb), float(ub), integer)
        self.vars.append(var)
        return var

    def add_binary(self, name: str) -> Var:
        """Create a {0, 1} variable."""
        return self.add_var(name, lb=0.0, ub=1.0, integer=True)

    def add_continuous(
        self,
        name: str,
        lb: float = -float("inf"),
        ub: float = float("inf"),
    ) -> Var:
        """Create a continuous variable (free by default)."""
        return self.add_var(name, lb=lb, ub=ub, integer=False)

    def add_constraint(
        self, constraint: Constraint, name: str = ""
    ) -> Constraint:
        """Register a constraint built with ``<=``/``>=``/``equals``."""
        if name:
            constraint = constraint.named(name)
        self.constraints.append(constraint)
        return constraint

    def minimize(self, objective: "LinExpr | Var") -> None:
        """Set the (minimization) objective."""
        self.objective = LinExpr.of(objective)

    @property
    def num_binaries(self) -> int:
        return sum(
            1 for v in self.vars if v.is_integer and v.ub - v.lb <= 1
        )

    def stats(self) -> str:
        """One-line size summary for logging."""
        n_int = sum(1 for v in self.vars if v.is_integer)
        return (
            f"{self.name}: {len(self.vars)} vars ({n_int} int), "
            f"{len(self.constraints)} constraints"
        )
