import random
from fractions import Fraction

import pytest

from motzkin import DegenerateFractionError, InternalError, ZeroDenominatorError
from motzkin import sequences
from motzkin.series import TruncatedSeries
from motzkin.symdiff import (
    HALF_DERIVATIVE,
    RADICAND,
    DerivativeCursor,
    IntPoly,
    SqrtFraction,
    content_reduce,
    derivative_step,
    evaluate_at_zero,
    fraction_series,
    initial_fraction,
    nat_coefficients,
)

DIFFERENCE_PREFIX = [0, 1, 1, 2, 5, 12, 30, 76, 196, 512, 1353, 3610, 9713, 26324, 71799]


def random_fraction(rng, max_degree=3, span=6):
    """Random fraction whose denominator is evaluable at zero."""

    def poly():
        return IntPoly(rng.randrange(-span, span + 1) for _ in range(max_degree + 1))

    while True:
        f = SqrtFraction(poly(), poly(), poly(), poly())
        if f.c.at_zero() + f.d.at_zero() != 0:
            return f


def formal_derivative(series):
    coeffs = series.coefficients
    return TruncatedSeries(tuple((n + 1) * coeffs[n + 1] for n in range(len(coeffs) - 1)))


class TestIntPoly:
    def test_canonical_trimming(self):
        assert IntPoly((1, 2, 0, 0)) == IntPoly((1, 2))
        assert IntPoly((0, 0)).is_zero
        assert IntPoly().degree == -1

    def test_radicand_derivative(self):
        assert RADICAND.derivative() == IntPoly((-2, -6))
        assert HALF_DERIVATIVE == IntPoly((-1, -3))

    def test_mul_by_zero(self):
        assert (IntPoly() * IntPoly((1, 2, 3))).is_zero

    def test_at_zero(self):
        assert IntPoly((2, -2)).at_zero() == 2
        assert IntPoly().at_zero() == 0

    def test_arithmetic(self):
        p, q = IntPoly((1, 2)), IntPoly((3, 0, 1))
        assert p + q == IntPoly((4, 2, 1))
        assert q - p == IntPoly((2, -2, 1))
        assert p * q == IntPoly((3, 6, 1, 2))
        assert 2 * p == IntPoly((2, 4))

    def test_content(self):
        assert IntPoly((4, -6, 8)).content() == 2
        assert IntPoly().content() == 0

    def test_exact_div(self):
        product = IntPoly((1, -1)) * IntPoly((2, 0, 4))
        assert product.exact_div(IntPoly((1, -1))) == IntPoly((2, 0, 4))
        with pytest.raises(InternalError):
            IntPoly((1, 1)).exact_div(IntPoly((2,)))
        with pytest.raises(InternalError):
            IntPoly((1, 1)).exact_div(IntPoly())


class TestInitialFraction:
    def test_components(self):
        f = initial_fraction()
        assert f.a == IntPoly((2, -2))
        assert f.b == IntPoly()
        assert f.c == IntPoly((1, -1))
        assert f.d == IntPoly((1,))

    def test_value_at_zero(self):
        assert evaluate_at_zero(initial_fraction()) == 1

    def test_zeroth_coefficient_consistency(self):
        # The series prefix contributes -1, so the zeroth coefficient is 0.
        assert -1 + evaluate_at_zero(initial_fraction()) == 0


class TestDerivativeStep:
    def test_first_step_polynomials(self):
        g = derivative_step(initial_fraction())
        assert g.a == IntPoly((0, 8))
        assert g.b == IntPoly()
        # 2 * (1 - x) * (1 - 2x - 3x^2), expanded by hand.
        assert g.c == IntPoly((2, -6, -2, 6))
        assert g.d == IntPoly((2, -4, -2))

    def test_first_derivative_value(self):
        g = derivative_step(initial_fraction())
        assert evaluate_at_zero(g) == 0
        assert 1 + evaluate_at_zero(g) == 1  # first coefficient

    def test_second_step_polynomials(self):
        # Hand derivation from the content-reduced first step
        # (4x, 0, (1-x)r, 1-2x-x^2).
        reduced = content_reduce(derivative_step(initial_fraction()))
        assert reduced == SqrtFraction(
            IntPoly((0, 4)), IntPoly(), IntPoly((1, -3, -1, 3)), IntPoly((1, -2, -1))
        )
        g = derivative_step(reduced)
        assert g.a == IntPoly((4, -4, -4, -36, -24))
        assert g.b == IntPoly((4, 0, 4, -24))
        assert g.c == 2 * (IntPoly((1, -3, -1, 3)) * IntPoly((1, -2, -1)) * RADICAND)
        assert g.d == IntPoly((1, -3, -1, 3)) * IntPoly((1, -3, -1, 3)) + IntPoly((1, -2, -1)) * IntPoly((1, -2, -1)) * RADICAND
        # Second coefficient: value / 2! = 1.
        assert evaluate_at_zero(g) / 2 == 1

    def test_constant_fraction_has_zero_derivative(self):
        constant = SqrtFraction(IntPoly((1,)), IntPoly(), IntPoly((1,)), IntPoly())
        g = derivative_step(constant)
        assert g.a.is_zero and g.b.is_zero
        assert g.c == IntPoly() and g.d == IntPoly((1,))

    def test_degenerate_input_raises(self):
        # Denominator x + 0*W vanishes at zero; the update cannot recover.
        bad = SqrtFraction(IntPoly((1,)), IntPoly(), IntPoly((0, 1)), IntPoly())
        with pytest.raises(DegenerateFractionError):
            derivative_step(bad)

    def test_matches_series_derivative_randomized(self):
        rng = random.Random(271)
        for _ in range(200):
            f = random_fraction(rng)
            order = rng.randrange(2, 9)
            expanded = fraction_series(f, order)
            stepped = fraction_series(derivative_step(f), order - 1)
            assert stepped == formal_derivative(expanded)


class TestContentReduce:
    def test_divides_common_content(self):
        f = SqrtFraction(IntPoly((0, 4)), IntPoly(), IntPoly((2, -2)), IntPoly((2,)))
        assert content_reduce(f) == SqrtFraction(IntPoly((0, 2)), IntPoly(), IntPoly((1, -1)), IntPoly((1,)))

    def test_no_common_content_is_identity(self):
        f = SqrtFraction(IntPoly((3,)), IntPoly((2,)), IntPoly((5,)), IntPoly())
        assert content_reduce(f) is f

    def test_value_neutral_randomized(self):
        rng = random.Random(4144)
        for _ in range(200):
            f = random_fraction(rng)
            scale = rng.randrange(1, 6)
            scaled = SqrtFraction(f.a * scale, f.b * scale, f.c * scale, f.d * scale)
            reduced = content_reduce(scaled)
            assert evaluate_at_zero(reduced) == evaluate_at_zero(f)

    def test_function_neutral_sample(self):
        rng = random.Random(99)
        for _ in range(50):
            f = random_fraction(rng)
            scaled = SqrtFraction(f.a * 6, f.b * 6, f.c * 6, f.d * 6)
            assert fraction_series(content_reduce(scaled), 6) == fraction_series(f, 6)


class TestEvaluateAtZero:
    def test_plain_fraction(self):
        f = SqrtFraction(IntPoly((3,)), IntPoly((1,)), IntPoly((2,)), IntPoly())
        assert evaluate_at_zero(f) == 2

    def test_rational_result(self):
        f = SqrtFraction(IntPoly((1,)), IntPoly(), IntPoly((3,)), IntPoly())
        assert evaluate_at_zero(f) == Fraction(1, 3)

    def test_zero_denominator(self):
        f = SqrtFraction(IntPoly((1,)), IntPoly(), IntPoly((1,)), IntPoly((-1,)))
        with pytest.raises(ZeroDenominatorError):
            evaluate_at_zero(f)


class TestDerivativeCursor:
    def test_passes_counter(self):
        cursor = DerivativeCursor()
        assert cursor.passes == 0
        cursor.advance()
        cursor.advance()
        assert cursor.passes == 2

    def test_current_is_kth_derivative(self):
        # Function identity: expanding the cursor and differentiating the
        # seed expansion k times must agree.
        order = 10
        reference = fraction_series(initial_fraction(), order)
        cursor = DerivativeCursor()
        for k in range(1, 5):
            cursor.advance()
            reference = formal_derivative(reference)
            assert fraction_series(cursor.current, order - k) == reference

    def test_degree_growth_bound(self):
        cursor = DerivativeCursor()
        for k in range(1, 41):
            cursor.advance()
            assert cursor.current.c.degree <= 3 * k + 2

    def test_matches_verbatim_cycle(self):
        # One literal step from the cursor's fraction at every pass: the
        # raw update shares no code with the cursor's quotient-rule update.
        cursor = DerivativeCursor()
        for _ in range(40):
            expected = evaluate_at_zero(derivative_step(cursor.current))
            assert evaluate_at_zero(cursor.advance()) == expected


class TestNatCoefficient:
    def test_low_anchors(self):
        assert nat_coefficients(0)[-1] == 0
        assert nat_coefficients(1)[-1] == 1

    def test_pass_twelve(self):
        assert nat_coefficients(12)[-1] == 9713

    def test_pass_fourteen(self):
        assert nat_coefficients(14)[-1] == 71799

    def test_prefix(self):
        assert nat_coefficients(14) == DIFFERENCE_PREFIX

    def test_matches_recurrence_to_40(self):
        assert nat_coefficients(40) == sequences.difference_numbers(40)

    def test_matches_recurrence_to_200(self):
        assert nat_coefficients(200) == sequences.difference_numbers(200)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            nat_coefficients(-1)


class TestFractionSeries:
    def test_seed_expansion(self):
        # The seed fraction is the difference-number series without its
        # x - 1 prefix: coefficients 1, 0, then the difference numbers.
        expansion = fraction_series(initial_fraction(), 6).integer_coefficients()
        assert expansion == [1, 0, 1, 2, 5, 12, 30]

    def test_taylor_coefficients_match_cycle(self):
        expansion = fraction_series(initial_fraction(), 4)
        adjustments = {0: -1, 1: 1}
        for k in range(5):
            assert nat_coefficients(k)[-1] == expansion[k] + adjustments.get(k, 0)
