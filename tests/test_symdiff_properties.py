"""Property test of the derivative cursor at random depth: after k
advances its fraction expands to the k-th formal derivative of the seed
fraction's expansion."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st
from support import formal_derivative

from motzkin.symdiff import DerivativeCursor, fraction_series, initial_fraction

MAX_PASSES = 30
MAX_ORDER = 8
PROPERTY = settings(deadline=None, database=None)


@PROPERTY
@given(st.integers(0, MAX_PASSES), st.integers(0, MAX_ORDER))
def test_cursor_is_kth_derivative(k, order):
    cursor = DerivativeCursor()
    for _ in range(k):
        cursor.advance()
    # Each formal derivative drops one order, so k of them from order
    # + k land exactly on order.
    expected = fraction_series(initial_fraction(), order + k)
    for _ in range(k):
        expected = formal_derivative(expected)
    assert expected.order == order
    assert fraction_series(cursor.current, order) == expected
