"""Exact symbolic derivatives of fractions over sqrt(1 - 2x - 3x^2).

A ``SqrtFraction`` holds four integer polynomials a, b, c, d and stands
for ``(a + b*W) / (c + d*W)`` where ``W = sqrt(r)`` and the radicand
``r = 1 - 2x - 3x^2`` is fixed. Differentiating the seed fraction
``(2 - 2x) / (1 - x + W)`` repeatedly and evaluating at zero yields the
difference numbers: ``U_k`` is the k-th derivative value over k!, with
the two lowest coefficients adjusted for the ``x - 1`` summand that the
seed fraction omits.

``derivative_step`` performs one differentiation with the direct
update (conjugate-free, obtained by clearing the 1/W terms):

    A = (a'd + b'c - bc' - ad')r + (bc - ad)t
    B = a'c - ac' + (b'd - bd')r
    C = 2cdr
    D = c^2 + d^2*r

where ``t = r'/2``. It is the literal cycle, kept as an independent
reference: iterating it squares the denominator, so every polynomial
degree doubles per pass.

``DerivativeCursor`` instead keeps the k-th derivative over the
canonical denominator ``r^k * D^(k+1)`` with ``D = 1 - x + W``. The
quotient rule on ``N / (r^k * D^(k+1))`` with ``N = a + b*W`` gives the
next numerator directly over ``r^(k+1) * D^(k+2)``:

    N_new = (a'r + (b'r + bt)W) D - N (2kt D + (k+1)(tW - r))

so degrees grow linearly in k and no step divides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import DegenerateFractionError, InternalError, ZeroDenominatorError
from .series import TruncatedSeries


class IntPoly:
    """Dense univariate polynomial over the integers, constant term first.

    Canonical form has no trailing zero coefficients; the zero polynomial
    is the empty tuple (degree -1).
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Iterable[int] = ()):
        coeffs = list(coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coefficients = tuple(coeffs)

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def at_zero(self) -> int:
        return self.coefficients[0] if self.coefficients else 0

    def content(self) -> int:
        return math.gcd(*self.coefficients) if self.coefficients else 0

    def derivative(self) -> "IntPoly":
        return IntPoly(n * c for n, c in enumerate(self.coefficients) if n)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntPoly) and self.coefficients == other.coefficients

    def __hash__(self) -> int:
        return hash(self.coefficients)

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        return IntPoly([x + y for x, y in zip(a, b)] + list(a[len(b):]))

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __neg__(self) -> "IntPoly":
        return IntPoly(-c for c in self.coefficients)

    def __mul__(self, other: "IntPoly | int") -> "IntPoly":
        if isinstance(other, int):
            return IntPoly(other * c for c in self.coefficients)
        if self.is_zero or other.is_zero:
            return IntPoly()
        out = [0] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, x in enumerate(self.coefficients):
            for j, y in enumerate(other.coefficients):
                out[i + j] += x * y
        return IntPoly(out)

    def __rmul__(self, other: int) -> "IntPoly":
        return self * other

    def exact_div(self, divisor: "IntPoly") -> "IntPoly":
        """Quotient self / divisor, which must be exact in Z[x]."""
        if divisor.is_zero:
            raise InternalError("polynomial division by zero")
        if self.is_zero:
            return IntPoly()
        rem = list(self.coefficients)
        div = divisor.coefficients
        lead = div[-1]
        if len(rem) < len(div):
            raise InternalError("inexact polynomial division")
        quot = [0] * (len(rem) - len(div) + 1)
        for i in range(len(quot) - 1, -1, -1):
            head = rem[i + len(div) - 1]
            q, r = divmod(head, lead)
            if r:
                raise InternalError("inexact polynomial division")
            quot[i] = q
            if q:
                for j, y in enumerate(div):
                    rem[i + j] -= q * y
        if any(rem):
            raise InternalError("inexact polynomial division")
        return IntPoly(quot)

    def __repr__(self) -> str:
        if self.is_zero:
            return "IntPoly()"
        return f"IntPoly({list(self.coefficients)})"


RADICAND = IntPoly((1, -2, -3))  # r = 1 - 2x - 3x^2
HALF_DERIVATIVE = IntPoly((-1, -3))  # t = r'/2 = -1 - 3x


@dataclass(frozen=True)
class SqrtFraction:
    """(a + b*W) / (c + d*W) with W = sqrt(RADICAND).

    Valid fractions have c + d*W nonzero as an extension element and a
    denominator that does not vanish at x = 0, i.e. c(0) + d(0) != 0.
    """

    a: IntPoly
    b: IntPoly
    c: IntPoly
    d: IntPoly


def initial_fraction() -> SqrtFraction:
    """The seed (2 - 2x) / (1 - x + W) whose derivatives carry the
    difference numbers."""
    return SqrtFraction(IntPoly((2, -2)), IntPoly(), IntPoly((1, -1)), IntPoly((1,)))


def derivative_step(fraction: SqrtFraction) -> SqrtFraction:
    """One differentiation pass; the result is the exact derivative of
    ``fraction`` on a neighborhood of zero."""
    a, b, c, d = fraction.a, fraction.b, fraction.c, fraction.d
    da, db, dc, dd = a.derivative(), b.derivative(), c.derivative(), d.derivative()
    r, t = RADICAND, HALF_DERIVATIVE
    new_a = (da * d + db * c - b * dc - a * dd) * r + (b * c - a * d) * t
    new_b = da * c - a * dc + (db * d - b * dd) * r
    new_c = 2 * (c * d * r)
    new_d = c * c + d * d * r
    result = SqrtFraction(new_a, new_b, new_c, new_d)
    if result.c.at_zero() + result.d.at_zero() == 0:
        raise DegenerateFractionError("derivative is not evaluable at zero")
    return result


def content_reduce(fraction: SqrtFraction) -> SqrtFraction:
    """Divide all four polynomials by the gcd of their integer contents;
    the common scalar cancels between numerator and denominator."""
    g = math.gcd(
        fraction.a.content(),
        fraction.b.content(),
        fraction.c.content(),
        fraction.d.content(),
    )
    if g <= 1:
        return fraction
    return SqrtFraction(
        IntPoly(k // g for k in fraction.a.coefficients),
        IntPoly(k // g for k in fraction.b.coefficients),
        IntPoly(k // g for k in fraction.c.coefficients),
        IntPoly(k // g for k in fraction.d.coefficients),
    )


def evaluate_at_zero(fraction: SqrtFraction) -> Fraction:
    """Value at x = 0, where W evaluates to 1."""
    denominator = fraction.c.at_zero() + fraction.d.at_zero()
    if denominator == 0:
        raise ZeroDenominatorError("denominator vanishes at zero")
    return Fraction(fraction.a.at_zero() + fraction.b.at_zero(), denominator)


def _extension_mul(p: IntPoly, q: IntPoly, u: IntPoly, v: IntPoly) -> tuple[IntPoly, IntPoly]:
    """(p + q*W) * (u + v*W) as a (polynomial, W-coefficient) pair."""
    return p * u + q * v * RADICAND, p * v + q * u


class DerivativeCursor:
    """Stepwise derivatives of the seed fraction.

    After k advances ``current`` equals the k-th derivative of
    ``initial_fraction()`` as a function near zero, held over the
    canonical denominator ``r^k * D^(k+1)`` (see the module docstring
    for the update). A cursor is a sequential accumulator: advance it
    from one owner; independent cursors are independent.
    """

    def __init__(self) -> None:
        self.current = initial_fraction()
        self.passes = 0

    def advance(self) -> SqrtFraction:
        """Differentiate once; returns the new ``current``."""
        k = self.passes
        a, b, c, d = self.current.a, self.current.b, self.current.c, self.current.d
        seed = initial_fraction()
        root_p, root_q = seed.c, seed.d  # D = 1 - x + W
        r, t = RADICAND, HALF_DERIVATIVE
        lead_p, lead_q = _extension_mul(a.derivative() * r, b.derivative() * r + b * t, root_p, root_q)
        factor_p = 2 * k * t * root_p - (k + 1) * r
        factor_q = 2 * k * t * root_q + (k + 1) * t
        tail_p, tail_q = _extension_mul(a, b, factor_p, factor_q)
        new_c, new_d = _extension_mul(c * r, d * r, root_p, root_q)
        self.current = SqrtFraction(lead_p - tail_p, lead_q - tail_q, new_c, new_d)
        self.passes += 1
        return self.current


def nat_coefficients(k_max: int) -> list[int]:
    """Difference numbers U_0..U_k_max extracted by the derivative cycle.

    U_k is the k-th derivative of the seed fraction at zero over k!,
    with -1 added at k = 0 and +1 at k = 1 for the series prefix x - 1.
    Raises InternalError if any value fails to be a natural number.
    """
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    cursor = DerivativeCursor()
    factorial = 1
    out: list[int] = []
    for k in range(k_max + 1):
        if k:
            cursor.advance()
            factorial *= k
        value = evaluate_at_zero(cursor.current) / factorial
        if k == 0:
            value -= 1
        elif k == 1:
            value += 1
        if value.denominator != 1 or value < 0:
            raise InternalError(f"pass {k} produced {value}, not a natural number")
        out.append(int(value))
    return out


def fraction_series(fraction: SqrtFraction, order: int) -> TruncatedSeries:
    """Expand a fraction as a truncated power series by substituting the
    series square root for W; independent check on the symbolic cycle."""
    root = TruncatedSeries.from_coefficients(RADICAND.coefficients, order).sqrt()

    def lift(poly: IntPoly) -> TruncatedSeries:
        return TruncatedSeries.from_coefficients(poly.coefficients, order)

    numerator = lift(fraction.a) + lift(fraction.b) * root
    denominator = lift(fraction.c) + lift(fraction.d) * root
    return numerator / denominator
