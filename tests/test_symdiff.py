import random
from fractions import Fraction

import pytest
from reference import fraction_series
from support import formal_derivative, random_fraction, run

from motzkin import DegenerateFractionError, InternalError, ZeroDenominatorError
from motzkin import sequences
from motzkin.series import NAT_FORMS, nat_series
from motzkin.symdiff import (
    HALF_DERIVATIVE,
    RADICAND,
    DerivativeCursor,
    IntPoly,
    SqrtFraction,
    content_reduce,
    derivative_step,
    evaluate_at_zero,
    initial_fraction,
    nat_coefficients,
)


class TestIntPoly:
    def test_canonical_trimming(self):
        assert IntPoly((1, 2, 0, 0)) == IntPoly((1, 2))
        assert IntPoly((0, 0)).is_zero
        assert IntPoly().degree == -1

    def test_equal_polynomials_hash_equal(self):
        first, second = IntPoly((1, 2, 0)), IntPoly([1, 2])
        assert first == second
        assert hash(first) == hash(second)
        assert len({first, second}) == 1

    def test_repr(self):
        assert repr(IntPoly()) == "IntPoly()"
        assert repr(IntPoly((1, -2, 0))) == "IntPoly([1, -2])"

    def test_radicand_derivative(self):
        assert RADICAND.derivative() == IntPoly((-2, -6))
        assert HALF_DERIVATIVE == IntPoly((-1, -3))

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
        assert IntPoly().exact_div(IntPoly((1, 1))) == IntPoly()
        with pytest.raises(InternalError, match="inexact polynomial division"):
            IntPoly((1,)).exact_div(IntPoly((1, 1)))


# (1 - x) * M = (2 - 2x) / (1 - x + W), the seed less its x - 1 prefix.
# Its numerator has no W part, so its first two steps stay short enough
# for the hand derivations below.
SCALED_MOTZKIN = SqrtFraction(IntPoly((2, -2)), IntPoly(), IntPoly((1, -1)), IntPoly((1,)))


class TestInitialFraction:
    def test_components(self):
        # (1 - x^2 + (x - 1)W) / (1 - x + W) = x - 1 + (1 - x) * M.
        f = initial_fraction()
        assert f.a == IntPoly((1, 0, -1))
        assert f.b == IntPoly((-1, 1))
        assert f.c == IntPoly((1, -1))
        assert f.d == IntPoly((1,))

    def test_unpacks_in_field_order(self):
        f = initial_fraction()
        a, b, c, d = f
        assert (a, b, c, d) == (f.a, f.b, f.c, f.d)

    def test_seed_evaluates_to_zero(self):
        assert evaluate_at_zero(initial_fraction()) == 0


class TestDerivativeStep:
    def test_first_step_polynomials(self):
        g = derivative_step(SCALED_MOTZKIN)
        assert g.a == IntPoly((0, 8))
        assert g.b == IntPoly()
        # 2 * (1 - x) * (1 - 2x - 3x^2), expanded by hand.
        assert g.c == IntPoly((2, -6, -2, 6))
        assert g.d == IntPoly((2, -4, -2))

    def test_second_step_polynomials(self):
        # Hand derivation from the content-reduced first step
        # (4x, 0, (1-x)r, 1-2x-x^2).
        reduced = content_reduce(derivative_step(SCALED_MOTZKIN))
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

    def test_returns_a_fraction(self):
        assert type(evaluate_at_zero(initial_fraction())) is Fraction


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

    def test_denominator_is_canonical(self):
        # c + dW must equal r^k * (1 - x + W)^(k+1), built here with a
        # local product on (p, q) pairs standing for p + q*W.
        def extension_mul(x, y):
            (p, q), (u, v) = x, y
            return p * u + q * v * RADICAND, p * v + q * u

        base = (IntPoly((1, -1)), IntPoly((1,)))
        power, radicand_power = base, IntPoly((1,))
        cursor = DerivativeCursor()
        for k in range(21):
            if k:
                cursor.advance()
                power = extension_mul(power, base)
                radicand_power = radicand_power * RADICAND
            assert cursor.current.c == radicand_power * power[0]
            assert cursor.current.d == radicand_power * power[1]

    def test_products_per_pass(self, monkeypatch):
        # Each pass multiplies only by s = 1 - x, r, t or an integer,
        # which takes 18 IntPoly products.
        products = 0
        original = IntPoly.__mul__

        def counting_mul(self, other):
            nonlocal products
            products += 1
            return original(self, other)

        monkeypatch.setattr(IntPoly, "__mul__", counting_mul)
        cursor = DerivativeCursor()
        for _ in range(10):
            before = products
            cursor.advance()
            assert products - before <= 18

    def test_matches_verbatim_cycle(self):
        # One literal step from the cursor's fraction at every pass: the
        # raw update shares no code with the cursor's quotient-rule update.
        cursor = DerivativeCursor()
        for _ in range(40):
            expected = evaluate_at_zero(derivative_step(cursor.current))
            assert evaluate_at_zero(cursor.advance()) == expected


class TestNatCoefficient:
    def test_matches_recurrence_to_200(self):
        assert nat_coefficients(200) == sequences.difference_numbers(200)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            nat_coefficients(-1)

    @staticmethod
    def patch_pass(monkeypatch, k, change):
        original = DerivativeCursor.advance

        def advance(self):
            fraction = original(self)
            if self.passes == k:
                fraction = self.current = change(fraction)
            return fraction

        monkeypatch.setattr(DerivativeCursor, "advance", advance)

    def test_fractional_pass_is_refused(self, monkeypatch):
        # a + 1 at pass 3 adds 1 / (2^4 * 3!) to U_3.
        self.patch_pass(monkeypatch, 3, lambda f: f._replace(a=f.a + IntPoly([1])))
        with pytest.raises(InternalError, match=r"pass 3 produced .*, not a natural number"):
            nat_coefficients(5)

    def test_negative_pass_is_refused(self, monkeypatch):
        # Pass 2 is over 2^3 * 2!, so a - 32 takes U_2 = 1 to -1.
        self.patch_pass(monkeypatch, 2, lambda f: f._replace(a=f.a - IntPoly([32])))
        with pytest.raises(InternalError, match="^pass 2 produced -1, not a natural number$"):
            nat_coefficients(5)

    def test_vanishing_denominator_is_refused(self, monkeypatch):
        # c(0) + d(0) is 2^(k+1) by construction, so no input reaches a
        # vanishing denominator: it is a fault of the cycle.
        self.patch_pass(monkeypatch, 2, lambda f: f._replace(d=-f.c))
        with pytest.raises(DegenerateFractionError, match="^pass 2 has a denominator that vanishes at zero$"):
            nat_coefficients(5)

    def test_cli_reports_a_vanishing_denominator_as_a_fault(self, monkeypatch, capsys):
        self.patch_pass(monkeypatch, 2, lambda f: f._replace(d=-f.c))
        code, out, err = run(capsys, "symdiff", "--max", "5")
        assert (code, out) == (3, "")
        assert err == "error: DEGENERATE: pass 2 has a denominator that vanishes at zero\n"


class TestFractionSeries:
    def test_seed_expansion(self):
        # The seed fraction is the difference-number series itself.
        expansion = fraction_series(initial_fraction(), 6).integer_coefficients()
        assert expansion == [0, 1, 1, 2, 5, 12, 30]

    def test_taylor_coefficients_match_cycle(self):
        expansion = fraction_series(initial_fraction(), 4)
        for k in range(5):
            assert nat_coefficients(k)[-1] == expansion[k]

    @pytest.mark.parametrize("form", NAT_FORMS)
    def test_seed_is_the_nat_series(self, form):
        assert fraction_series(initial_fraction(), 40) == nat_series(40, form)
