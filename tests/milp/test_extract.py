"""Sparse extraction: Model -> arrays and the range-form view."""

import numpy as np
import pytest

from repro.milp import Model
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


def test_extract_unconstrained_model():
    m = Model("free")
    x = m.add_binary("x")
    m.minimize(-1.0 * x)
    arrays = extract(m)
    assert arrays.a is None

