"""Exact symbolic derivatives of fractions over sqrt(1 - 2x - 3x^2).

A ``SqrtFraction`` holds four integer polynomials a, b, c, d and stands
for ``(a + b*W) / (c + d*W)`` where ``W = sqrt(r)`` and the radicand
``r = 1 - 2x - 3x^2`` is fixed. The seed is the generating function
of the difference numbers, ``G = x - 1 + (1 - x) * M`` for the Motzkin
series M, written over ``D = 1 - x + W``. Since

    (1 - x + W)(1 - x - W) = (1 - x)^2 - r = 4x^2,

``1/D = (1 - x - W) / (4x^2) = M/2``, so ``M = 2/D`` and

    G = ((x - 1) D + 2 - 2x) / D = (1 - x^2 + (x - 1) W) / D.

Differentiating it repeatedly and evaluating at zero yields the
difference numbers: its k-th Taylor coefficient (k-th derivative at
zero over k!) is ``U_k`` for every k >= 0.

``derivative_step`` performs one differentiation with the direct
update (conjugate-free, obtained by clearing the 1/W terms):

    A = (a'd + b'c - bc' - ad')r + (bc - ad)t
    B = a'c - ac' + (b'd - bd')r
    C = 2cdr
    D = c^2 + d^2*r

where ``t = r'/2``. It is the literal cycle, kept as an independent
reference: iterating it squares the denominator, so every polynomial
degree doubles per pass.

``DerivativeCursor`` instead keeps the k-th derivative as
``N / (r^k * D^(k+1))`` with ``N = a + b*W`` and ``c + d*W`` equal to
that denominator. With ``r*D' = tW - r``, the quotient rule grouped
as

    N_new = (P + Q*W) D - (k+1) N (tW - r)
    P = a'r - 2kt*a,  Q = b'r + bt - 2kt*b

gives the next numerator over ``r^(k+1) * D^(k+2)``. Writing
``D = s + W`` with ``s = 1 - x``, a product by D is
``(P + Q*W) D = sP + rQ + (sQ + P)W``, so

    a_new = sP + rQ + (k+1) r (a - tb)
    b_new = sQ + P - (k+1)(ta - rb)
    c_new = r (sc + rd)
    d_new = r (sd + c)

Every product is by s, r, t or an integer, degrees grow linearly in k
and no step divides.

``nat_coefficients`` stays in the ints: it divides the value at zero by
``k!`` with ``divmod`` and checks the remainder. This module never loads
``series``, and it imports ``fractions`` only where a ``Fraction`` is
formed (``evaluate_at_zero`` and the error message of a pass that is not
a natural number), so ``nat_coefficients`` loads neither.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable

from .errors import DegenerateFractionError, InternalError, ZeroDenominatorError

# Type checkers read this block as true; at run time the annotation
# that names ``Fraction`` is never evaluated, so nothing loads here.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction


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
        return math.gcd(*self.coefficients)

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
        rem = list(self.coefficients)
        div = divisor.coefficients
        lead = div[-1]
        quot = [0] * max(len(rem) - len(div) + 1, 0)
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
ONE_MINUS_X = IntPoly((1, -1))  # s = 1 - x, so D = s + W


class SqrtFraction(namedtuple("SqrtFraction", "a b c d")):
    """(a + b*W) / (c + d*W) with W = sqrt(RADICAND), as the immutable
    tuple of IntPolys (a, b, c, d).

    Valid fractions have c + d*W nonzero as an extension element and a
    denominator that does not vanish at x = 0, i.e. c(0) + d(0) != 0.
    """

    __slots__ = ()


def initial_fraction() -> SqrtFraction:
    """The seed (1 - x^2 + (x - 1)W) / (1 - x + W), the generating
    function of the difference numbers, whose k-th derivative at zero
    over k! is U_k."""
    return SqrtFraction(IntPoly((1, 0, -1)), IntPoly((-1, 1)), ONE_MINUS_X, IntPoly((1,)))


def derivative_step(fraction: SqrtFraction) -> SqrtFraction:
    """One differentiation pass; the result is the exact derivative of
    ``fraction`` on a neighborhood of zero."""
    a, b, c, d = fraction
    da, db, dc, dd = a.derivative(), b.derivative(), c.derivative(), d.derivative()
    r, t = RADICAND, HALF_DERIVATIVE
    new_a = (da * d + db * c - b * dc - a * dd) * r + (b * c - a * d) * t
    new_b = da * c - a * dc + (db * d - b * dd) * r
    new_c = 2 * (c * d * r)
    new_d = c * c + d * d * r
    if new_c.at_zero() + new_d.at_zero() == 0:
        raise DegenerateFractionError("derivative is not evaluable at zero")
    return SqrtFraction(new_a, new_b, new_c, new_d)


def content_reduce(fraction: SqrtFraction) -> SqrtFraction:
    """Divide all four polynomials by the gcd of their integer contents;
    the common scalar cancels between numerator and denominator."""
    g = math.gcd(*(poly.content() for poly in fraction))
    if g <= 1:
        return fraction
    return SqrtFraction(*(IntPoly(k // g for k in poly.coefficients) for poly in fraction))


def _value_at_zero(fraction: SqrtFraction) -> tuple[int, int]:
    """Numerator and nonzero denominator of the value at x = 0, where W
    evaluates to 1."""
    denominator = fraction.c.at_zero() + fraction.d.at_zero()
    if denominator == 0:
        raise ZeroDenominatorError("denominator vanishes at zero")
    return fraction.a.at_zero() + fraction.b.at_zero(), denominator


def evaluate_at_zero(fraction: SqrtFraction) -> Fraction:
    """Value at x = 0, where W evaluates to 1."""
    from fractions import Fraction

    return Fraction(*_value_at_zero(fraction))


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
        a, b, c, d = self.current
        r, s, t = RADICAND, ONE_MINUS_X, HALF_DERIVATIVE
        ta, tb = t * a, t * b
        p = r * a.derivative() - 2 * k * ta
        q = r * b.derivative() + (1 - 2 * k) * tb
        new_a = s * p + r * q + (k + 1) * (r * (a - tb))
        new_b = s * q + p - (k + 1) * (ta - r * b)
        self.current = SqrtFraction(new_a, new_b, r * (s * c + r * d), r * (s * d + c))
        self.passes += 1
        return self.current


def nat_coefficients(k_max: int) -> list[int]:
    """Difference numbers U_0..U_k_max extracted by the derivative cycle.

    U_k is the k-th derivative of the seed fraction at zero over k!.
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
        numerator, denominator = _value_at_zero(cursor.current)
        denominator *= factorial
        value, remainder = divmod(numerator, denominator)
        if remainder or value < 0:
            from fractions import Fraction

            raise InternalError(f"pass {k} produced {Fraction(numerator, denominator)}, not a natural number")
        out.append(value)
    return out

