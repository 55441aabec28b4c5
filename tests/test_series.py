import random
import time
from fractions import Fraction

import pytest

from motzkin import BadConstantTermError, InternalError, ZeroConstantTermError
from motzkin import sequences
from motzkin.series import TruncatedSeries, motzkin_series, nat_series


def S(values, order=None):
    return TruncatedSeries.from_coefficients(values, order)


class TestRingOperations:
    def test_add(self):
        assert S([1, 1]) + S([-1, 1]) == S([0, 2])

    def test_mul_monomials(self):
        assert S([0, 1, 0]) * S([0, 1, 0]) == S([0, 0, 1])

    def test_min_order_semantics(self):
        total = S([1, 2, 3, 4]) + S([1, 1])
        assert total.order == 1
        assert total == S([2, 3])

    def test_motzkin_square_gives_shifted_differences(self):
        m = motzkin_series(4)
        square = m * m
        assert square.integer_coefficients() == [1, 2, 5, 12, 30]
        # Coefficient n of M^2 is the difference number at n + 2.
        assert square.integer_coefficients() == sequences.difference_numbers(6)[2:]

    def test_getitem(self):
        m = S([1, 2, 3])
        assert m[2] == 3

    def test_equal_series_hash_equal(self):
        first, second = S([1, Fraction(1, 2)]), S([Fraction(2, 2), Fraction(1, 2)])
        assert first == second
        assert hash(first) == hash(second)
        assert len({first, second}) == 1
        assert first != first.coefficients
        assert first != S([1, Fraction(1, 2), 0])

    def test_rejects_non_rational_coefficients(self):
        for values, position in (([0.5], 0), ([1, 2, 0.5], 2), ([1, "2"], 1), ([1, None, 3], 1)):
            with pytest.raises(TypeError, match=f"coefficient {position} is "):
                S(values, 2)
        assert S([True, Fraction(1, 2)], 2) == S([1, Fraction(1, 2), 0])

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError, match="order must be nonnegative"):
            S([1], -1)

    def test_no_values_give_the_zero_series(self):
        zero = S([])
        assert zero.order == 0
        assert zero == TruncatedSeries([0])

    def test_fractional_coefficient_is_not_an_integer(self):
        with pytest.raises(InternalError, match="coefficient 1 is 1/2, not an integer"):
            S([1, Fraction(1, 2), 2]).integer_coefficients()

    def test_repr_shows_at_most_eight_coefficients(self):
        assert repr(S(range(8))) == "TruncatedSeries([0, 1, 2, 3, 4, 5, 6, 7], order=7)"
        assert repr(S(range(9))) == "TruncatedSeries([0, 1, 2, 3, 4, 5, 6, 7, ...], order=8)"


class TestDivision:
    def test_geometric(self):
        one = S([1], order=6)
        geometric = one / S([1, -1], order=6)
        assert geometric == S([1] * 7)

    def test_self_division(self):
        f = S([2, -2], order=5)
        assert (f / f).integer_coefficients() == [1, 0, 0, 0, 0, 0]

    def test_closed_form_anchor(self):
        root = S([1, -2, -3], order=4).sqrt()
        result = S([2], order=4) / (S([1, -1], order=4) + root)
        assert result.integer_coefficients() == [1, 1, 2, 4, 9]

    def test_no_scalar_dividend(self):
        with pytest.raises(TypeError):
            2 / S([1], 3)

    def test_int_operands_give_an_exact_quotient(self):
        quotient = S([1], 3) / S([3], 3)
        assert quotient[0] == Fraction(1, 3)
        assert type(quotient[0]) is Fraction

    def test_zero_constant_term(self):
        # A divisor built with no coefficients has no constant term.
        for divisor in (S([0, 1]), TruncatedSeries([])):
            with pytest.raises(ZeroConstantTermError):
                S([1, 1]) / divisor

    def test_division_inverts_product(self):
        rng = random.Random(7)
        for _ in range(50):
            order = rng.randrange(1, 8)
            f = S([Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)) for _ in range(order + 1)])
            g = S([Fraction(rng.randrange(1, 10))] + [Fraction(rng.randrange(-9, 10)) for _ in range(order)])
            assert (f * g) / g == f


class TestSqrt:
    def test_sqrt_of_one(self):
        assert S([1], order=5).sqrt() == S([1], order=5)

    def test_sqrt_of_radicand(self):
        root = S([1, -2, -3], order=3).sqrt()
        assert root == S([1, -1, -2, -2])
        assert root * root == S([1, -2, -3], order=3)

    def test_sqrt_of_int_series_is_exact(self):
        assert S([1, 1], 3).sqrt() == S([1, Fraction(1, 2), Fraction(-1, 8), Fraction(1, 16)])

    def test_sqrt_of_perfect_square(self):
        assert S([1, 2, 1]).sqrt() == S([1, 1, 0])

    def test_bad_constant_term(self):
        for operand in (S([4, 1]), TruncatedSeries([])):
            with pytest.raises(BadConstantTermError):
                operand.sqrt()


class TestMotzkinSeries:
    def test_methods_agree_to_400(self):
        assert motzkin_series(400, "functional") == motzkin_series(400, "closed_form")

    def test_closed_form_divides_no_series(self, monkeypatch):
        # The closed form reads (1 - x - W) / (2x^2) off the coefficients
        # of W; it shares no division with anything it is checked against.
        def refuse(self, other):
            raise AssertionError("series division called")

        monkeypatch.setattr(TruncatedSeries, "__truediv__", refuse)
        assert motzkin_series(64, "closed_form") == motzkin_series(64, "functional")

    def test_rejects_bad_method(self):
        with pytest.raises(ValueError):
            motzkin_series(4, "oracular")

    @pytest.mark.parametrize("method", ["functional", "closed_form"])
    def test_rejects_negative_order(self, method):
        with pytest.raises(ValueError, match="order must be nonnegative"):
            motzkin_series(-1, method)


class TestNatSeries:
    @pytest.mark.parametrize("order", [0, 1, 2, 7, 33, 64])
    def test_forms_agree(self, order):
        assert nat_series(order, "product") == nat_series(order, "linear")

    def test_each_form_multiplies_its_own_operands(self, monkeypatch):
        # Both forms make the same number of coefficient products, since
        # 1 - x is padded to the order, so the operands tell them apart:
        # the product form squares M, the linear form takes (1 - x) * M.
        m = motzkin_series(12, "functional").coefficients
        multiply = TruncatedSeries.__mul__
        products = []

        def recording(self, other):
            products.append((self.coefficients, other.coefficients))
            return multiply(self, other)

        monkeypatch.setattr(TruncatedSeries, "__mul__", recording)
        nat_series(12, "product")
        assert products == [(m, m)]
        products.clear()
        nat_series(12, "linear")
        assert products == [((1, -1) + (0,) * 11, m)]

    def test_rejects_bad_form(self):
        with pytest.raises(ValueError):
            nat_series(4, "quotient")

    @pytest.mark.parametrize("form", ["product", "linear"])
    def test_rejects_negative_order(self, form):
        with pytest.raises(ValueError, match="order must be nonnegative"):
            nat_series(-1, form)


# The routes that stay in the ints: the functional solver and both
# difference forms only add and multiply, and the closed form's square
# root and halving only ever halve even ints.
MULTIPLICATION_ROUTES = [
    (motzkin_series, "functional"),
    (motzkin_series, "closed_form"),
    (nat_series, "product"),
    (nat_series, "linear"),
]


class TestMultiplicationRoutes:
    @pytest.mark.parametrize("build, method", MULTIPLICATION_ROUTES)
    def test_coefficients_are_ints(self, build, method):
        assert all(type(c) is int for c in build(64, method).coefficients)

    def test_closed_form_root_at_order_402_is_ints(self):
        root = TruncatedSeries.from_coefficients([1, -2, -3], 402).sqrt()
        assert all(type(c) is int for c in root.coefficients)
        assert all(type(c) is int for c in motzkin_series(400, "closed_form").coefficients)

    @pytest.mark.parametrize("build, method", MULTIPLICATION_ROUTES)
    def test_order_400_is_fast(self, build, method):
        start = time.perf_counter()
        build(400, method)
        assert time.perf_counter() - start < 0.3
