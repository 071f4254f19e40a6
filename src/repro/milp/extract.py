"""Sparse extraction: ``Model`` -> solver-ready arrays.

:func:`extract` converts a model — objective vector, integrality mask,
variable bounds and the constraint matrix — in one pass, straight into
row-major (CSR) arrays.  The direct HiGHS driver loads those arrays as
they are (HiGHS takes a row-wise matrix); the public
``scipy.optimize.milp`` path views them as a two-sided range
constraint (``lo <= A x <= hi``) without another pass over the
model.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

from repro.milp.model import Model, Sense


@dataclass
class ModelArrays:
    """Array form of a MILP under minimization: what
    :func:`extract` makes of a :class:`~repro.milp.model.Model`, and
    what :func:`repro.core.formulation.build_window_model` writes
    directly.

    Attributes:
        c: objective coefficient vector (length ``n``).
        integrality: 1 where the variable is integer, else 0.
        lb/ub: variable bound vectors.
        lo/hi: row activity range — ``lo[r] <= (A x)[r] <= hi[r]``.
            ``LE`` rows have ``lo = -inf``, ``GE`` rows ``hi = +inf``
            and ``EQ`` rows ``lo == hi``.
        row_ptr/cols/vals: the constraint matrix ``A`` (``m x n``) as
            row-major (CSR) index pointer, column indices and values,
            in constraint order and, within a row, coefficient order.

    HiGHS loads the row-major arrays as they are; :attr:`a` views
    them as a SciPy CSR matrix on demand.
    """

    c: np.ndarray
    integrality: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    row_ptr: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    @property
    def n(self) -> int:
        return len(self.c)

    @property
    def m(self) -> int:
        return len(self.lo)

    @cached_property
    def a(self) -> sparse.csr_matrix | None:
        """The constraint matrix in CSR form, or None without rows."""
        if not self.m:
            return None
        return sparse.csr_matrix(
            (self.vals, self.cols, self.row_ptr), shape=(self.m, self.n)
        )


def extract(model: Model) -> ModelArrays:
    """Convert ``model`` into :class:`ModelArrays` (one pass, sparse)."""
    variables = model.vars
    n = len(variables)
    c = np.zeros(n)
    objective = model.objective.coefs
    if objective:
        c[np.fromiter(objective, dtype=np.int64, count=len(objective))] = (
            np.fromiter(
                objective.values(), dtype=np.float64, count=len(objective)
            )
        )
    integrality = np.array(
        [1 if v.is_integer else 0 for v in variables], dtype=np.int64
    )
    lb = np.array([v.lb for v in variables], dtype=np.float64)
    ub = np.array([v.ub for v in variables], dtype=np.float64)

    # Constraints are visited in row order, so the CSR index pointer
    # is built directly — no COO intermediate, no sort.  Plain lists
    # collect the rows; each becomes an array once.
    m = len(model.constraints)
    cols: list[int] = []
    data: list[float] = []
    row_ptr = [0]
    lo = [-np.inf] * m
    hi = [np.inf] * m
    for r, con in enumerate(model.constraints):
        coefs = con.coefs
        cols.extend(coefs)
        data.extend(coefs.values())
        row_ptr.append(len(cols))
        if con.sense is Sense.LE:
            hi[r] = con.rhs
        elif con.sense is Sense.GE:
            lo[r] = con.rhs
        else:
            lo[r] = hi[r] = con.rhs
    return ModelArrays(
        c=c,
        integrality=integrality,
        lb=lb,
        ub=ub,
        lo=np.array(lo, dtype=np.float64),
        hi=np.array(hi, dtype=np.float64),
        row_ptr=np.array(row_ptr, dtype=np.int64),
        cols=np.array(cols, dtype=np.int64),
        vals=np.array(data, dtype=np.float64),
    )
