"""Shared sparse extraction: Model -> arrays, both solver views."""

import numpy as np
import pytest

from repro.milp import LinExpr, Model
from repro.milp.extract import extract


def mixed_model():
    m = Model("mixed")
    x = m.add_binary("x")
    y = m.add_var("y", lb=0, ub=4, integer=True)
    z = m.add_continuous("z", -1, 3)
    m.add_constraint((2 * x + y) <= 5)          # LE
    m.add_constraint((y - z) >= 1)              # GE
    m.add_constraint((x + y + z).equals(3))     # EQ
    m.minimize(3 * x - y + 0.5 * z)
    return m, (x, y, z)


def test_extract_vectors():
    m, (x, y, z) = mixed_model()
    arrays = extract(m)
    assert arrays.n == 3
    assert arrays.c == pytest.approx([3.0, -1.0, 0.5])
    assert list(arrays.integrality) == [1, 1, 0]
    assert arrays.lb == pytest.approx([0.0, 0.0, -1.0])
    assert arrays.ub == pytest.approx([1.0, 4.0, 3.0])


def test_extract_range_form():
    m, _ = mixed_model()
    arrays = extract(m)
    dense = arrays.a.toarray()
    assert np.allclose(
        dense, [[2, 1, 0], [0, 1, -1], [1, 1, 1]]
    )
    assert arrays.lo == pytest.approx([-np.inf, 1.0, 3.0])
    assert arrays.hi == pytest.approx([5.0, np.inf, 3.0])


def test_inequality_form_negates_ge_rows():
    m, _ = mixed_model()
    a_ub, b_ub, a_eq, b_eq = extract(m).inequality_form()
    # LE row kept as-is, GE row negated into LE form.
    assert np.allclose(a_ub.toarray(), [[2, 1, 0], [0, -1, 1]])
    assert b_ub == pytest.approx([5.0, -1.0])
    assert np.allclose(a_eq.toarray(), [[1, 1, 1]])
    assert b_eq == pytest.approx([3.0])


def test_inequality_form_is_sparse():
    m, _ = mixed_model()
    a_ub, _, a_eq, _ = extract(m).inequality_form()
    assert a_ub.format == "csr"
    assert a_eq.format == "csr"


def test_extract_unconstrained_model():
    m = Model("free")
    x = m.add_binary("x")
    m.minimize(-1.0 * x)
    arrays = extract(m)
    assert arrays.a is None
    assert arrays.inequality_form() == (None, None, None, None)


def test_inequality_form_single_sense():
    m = Model("le-only")
    x = m.add_continuous("x", 0, 10)
    m.add_constraint(LinExpr.of(x) <= 4)
    a_ub, b_ub, a_eq, b_eq = extract(m).inequality_form()
    assert a_ub.shape == (1, 1)
    assert b_ub == pytest.approx([4.0])
    assert a_eq is None and b_eq is None


def test_csc_view_equals_scipy_tocsc():
    m = Model("scattered")
    xs = [m.add_continuous(f"x{i}", 0, 9) for i in range(5)]
    m.add_constraint((3 * xs[4] + 2 * xs[0] - xs[2]) <= 7)
    m.add_constraint((xs[2] + 5 * xs[1]) >= 1)
    m.add_constraint((xs[0] - 4 * xs[4] + xs[3]).equals(2))
    arrays = extract(m)
    col_ptr, rows, values = arrays.csc()
    csc = arrays.a.tocsc()
    assert col_ptr.tolist() == csc.indptr.tolist()
    assert rows.tolist() == csc.indices.tolist()
    assert values.tobytes() == csc.data.tobytes()


def test_csc_view_of_unconstrained_model_is_empty():
    m = Model("free")
    m.add_binary("x")
    m.add_binary("y")
    col_ptr, rows, values = extract(m).csc()
    assert col_ptr.tolist() == [0, 0, 0]
    assert rows.size == 0 and values.size == 0
