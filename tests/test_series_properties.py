"""Property tests of the series ring laws and square root on series whose
coefficients mix ints and Fractions."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from motzkin.series import TruncatedSeries

MAX_ORDER = 8
PROPERTY = settings(deadline=None, database=None)

ints = st.integers(-20, 20)
coefficients = st.one_of(ints, st.fractions(min_value=-20, max_value=20, max_denominator=6))


def series_of(order, values=coefficients):
    return st.lists(values, min_size=order + 1, max_size=order + 1).map(TruncatedSeries)


def same_order(count, values=coefficients):
    """``count`` series of one common order, so no operation truncates."""
    return st.integers(0, MAX_ORDER).flatmap(lambda order: st.tuples(*[series_of(order, values)] * count))


any_series = st.integers(0, MAX_ORDER).flatmap(series_of)


@PROPERTY
@given(same_order(2))
def test_subtraction_undoes_addition(pair):
    f, g = pair
    assert (f + g) - g == f


@PROPERTY
@given(same_order(2))
def test_multiplication_commutes(pair):
    f, g = pair
    assert f * g == g * f


@PROPERTY
@given(same_order(3))
def test_multiplication_distributes(triple):
    f, g, h = triple
    assert f * (g + h) == f * g + f * h


@PROPERTY
@given(same_order(2))
def test_division_undoes_multiplication(pair):
    f, g = pair
    assume(g[0] != 0)
    assert (f * g) / g == f


@PROPERTY
@given(any_series)
def test_sqrt_squares_back(f):
    f = TruncatedSeries((1, *f.coefficients[1:]))
    root = f.sqrt()
    assert root * root == f


@PROPERTY
@given(any_series)
def test_equal_series_hash_equal(f):
    as_fractions = TruncatedSeries(Fraction(c) for c in f.coefficients)
    assert as_fractions == f
    assert hash(as_fractions) == hash(f)


@PROPERTY
@given(same_order(2, ints))
def test_product_of_int_series_is_int(pair):
    f, g = pair
    assert all(type(c) is int for c in (f * g).coefficients)
