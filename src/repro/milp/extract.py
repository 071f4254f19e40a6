"""Shared sparse extraction: ``Model`` -> solver-ready arrays.

Both MILP backends need the same conversion — objective vector,
integrality mask, variable bounds and the constraint matrix — and both
used to build it independently (branch-and-bound even materialized a
dense ``np.zeros(n)`` row per constraint, an O(n·m) build that dwarfed
the solve on small windows).  :func:`extract` performs the conversion
once, straight into row-major (CSR) arrays, and the result can be
viewed as a two-sided range constraint (``lo <= A x <= hi``, the form
``scipy.optimize.milp`` wants), as column-major arrays (the form the
direct HiGHS driver passes), or split into inequality/equality blocks
(``A_ub x <= b_ub``, ``A_eq x == b_eq``, the form ``linprog`` wants)
without another pass over the model.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

from repro.milp.model import Model, Sense


@dataclass
class ModelArrays:
    """Array form of a :class:`~repro.milp.model.Model`.

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

    The matrix is viewed on demand: :attr:`a` as a SciPy CSR matrix,
    :meth:`csc` as column-major arrays (what HiGHS takes).
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

    def csc(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``A`` column-major: ``(col_ptr, row_indices, values)``.

        The same arrays ``a.tocsc()`` holds — within a column, entries
        in ascending row order — built by one stable sort of the
        row-major column indices instead of two SciPy matrix objects.
        """
        order = np.argsort(self.cols, kind="stable")
        rows = np.repeat(
            np.arange(self.m, dtype=np.int64), np.diff(self.row_ptr)
        )
        col_ptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(self.cols, minlength=self.n), out=col_ptr[1:]
        )
        return col_ptr, rows[order], self.vals[order]

    def inequality_form(
        self,
    ) -> tuple[
        sparse.csr_matrix | None,
        np.ndarray | None,
        sparse.csr_matrix | None,
        np.ndarray | None,
    ]:
        """Split rows into ``(A_ub, b_ub, A_eq, b_eq)`` blocks.

        ``GE`` rows are negated into ``LE`` form.  Row selection and
        negation happen in CSR — no densification.
        """
        if self.a is None:
            return None, None, None, None
        is_eq = np.isfinite(self.lo) & np.isfinite(self.hi)
        # Among non-EQ rows: GE rows (finite lo) must be negated.
        eq_idx = np.flatnonzero(is_eq)
        le_idx = np.flatnonzero(~is_eq & np.isfinite(self.hi))
        ge_idx = np.flatnonzero(~is_eq & np.isfinite(self.lo))

        a_eq = b_eq = a_ub = b_ub = None
        if eq_idx.size:
            a_eq = self.a[eq_idx]
            b_eq = self.hi[eq_idx]
        if le_idx.size or ge_idx.size:
            blocks = []
            rhs = []
            if le_idx.size:
                blocks.append(self.a[le_idx])
                rhs.append(self.hi[le_idx])
            if ge_idx.size:
                blocks.append(-self.a[ge_idx])
                rhs.append(-self.lo[ge_idx])
            a_ub = sparse.vstack(blocks, format="csr")
            b_ub = np.concatenate(rhs)
        return a_ub, b_ub, a_eq, b_eq


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
