"""Truncated formal power series with exact coefficients.

``TruncatedSeries`` keeps coefficients 0..order inclusive; every binary
operation truncates at the smaller operand's order and is exact on what
it keeps. On top of the ring operations this module builds the Motzkin
generating function two independent ways and the difference-number
generating function two more, so the identities between them can be
checked coefficient by coefficient:

* ``motzkin_series`` solves ``M = 1 + x*M + x^2*M^2`` term by term, or
  reads the closed form ``M = (1 - x - W) / (2x^2)`` with
  ``W = sqrt(1 - 2x - 3x^2)`` (OEIS A001006) by coefficient extraction:
  ``W = 1 - x - 2x^2*M``, so ``M_n = -W_(n+2) / 2``. No series is
  divided, so the ``x^2`` in the denominator costs nothing.
* ``nat_series`` evaluates either ``x + x^2*M^2`` or ``x - 1 + (1-x)*M``.

Coefficients are Python ints until a series division forms a quotient
or a square root halves an odd value; either gives a ``Fraction``. Sums
and products keep whichever they are given. So the functional solver,
both ``nat_series`` forms and the closed form, whose every halving is
exact, stay in the ints, and integrality of the final tables is asserted
rather than assumed. ``fractions`` (which loads ``decimal``) is imported
only where a ``Fraction`` is formed or a non-int coefficient is checked,
so a process that stays in the ints never loads either module.
"""

from __future__ import annotations

from collections.abc import Iterable
from operator import mul

from .errors import BadConstantTermError, InternalError, ZeroConstantTermError

# Type checkers read this block as true; at run time the annotations
# that name ``Fraction`` are never evaluated, so nothing loads here.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction


class TruncatedSeries:
    """Coefficients 0..order of a formal power series, each an int or a
    ``Fraction``: ints until a division forms a quotient or a square
    root halves an odd value.

    Two series are equal when their coefficient tuples are, orders
    included; ``1 == Fraction(1)``, so the coefficient type does not
    matter. Operands of the binary operations are series only.
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Iterable[int | Fraction]):
        self.coefficients = tuple(coefficients)

    @classmethod
    def from_coefficients(cls, values: Iterable[int | Fraction], order: int | None = None) -> "TruncatedSeries":
        """Build a series from low-order ints and Fractions, kept as given,
        padding with zeros (or truncating) to the requested order.

        Raises TypeError, naming the position, for any other value, such
        as a float.
        """
        coeffs = list(values)
        for position, value in enumerate(coeffs):
            if not isinstance(value, int):
                from fractions import Fraction

                if not isinstance(value, Fraction):
                    raise TypeError(f"coefficient {position} is {value!r}, not an int or Fraction")
        if order is not None:
            if order < 0:
                raise ValueError("order must be nonnegative")
            coeffs = coeffs[: order + 1]
            coeffs += [0] * (order + 1 - len(coeffs))
        elif not coeffs:
            coeffs = [0]
        return cls(coeffs)

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def __getitem__(self, n: int) -> int | Fraction:
        return self.coefficients[n]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TruncatedSeries) and self.coefficients == other.coefficients

    def __hash__(self) -> int:
        return hash(self.coefficients)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return TruncatedSeries(x + y for x, y in zip(self.coefficients, other.coefficients))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return TruncatedSeries(x - y for x, y in zip(self.coefficients, other.coefficients))

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        a, b = self.coefficients, other.coefficients
        order = min(self.order, other.order)
        return TruncatedSeries(sum((a[k] * b[n - k] for k in range(n + 1)), 0) for n in range(order + 1))

    def __truediv__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        from fractions import Fraction

        num, den = self.coefficients, other.coefficients
        order = min(self.order, other.order)
        if not den or den[0] == 0:
            raise ZeroConstantTermError("series division needs a nonzero constant term")
        quotient: list[int | Fraction] = []
        for n in range(order + 1):
            acc = num[n]
            for k in range(n):
                acc -= quotient[k] * den[n - k]
            quotient.append(Fraction(acc, den[0]))
        return TruncatedSeries(quotient)

    def sqrt(self) -> "TruncatedSeries":
        """Series square root; requires constant term 1 and squares back
        to the operand exactly through the order. A coefficient stays an
        int while each halving it takes is exact."""
        if self.coefficients[:1] != (1,):
            raise BadConstantTermError("series square root needs constant term 1")
        root: list[int | Fraction] = [1]
        for n in range(1, self.order + 1):
            # The sum of root[k] * root[n - k] over 0 < k < n is symmetric in
            # k <-> n - k: subtract its first h terms twice, and the middle
            # term once when it has one (n even).
            h = (n - 1) // 2
            acc = self.coefficients[n] - 2 * sum(map(mul, root[1 : h + 1], reversed(root[n - h : n])))
            root.append(_half(acc - root[h + 1] ** 2 if n % 2 == 0 else acc))
        return TruncatedSeries(root)

    def integer_coefficients(self) -> list[int]:
        """Coefficients as ints; raises InternalError if any is fractional."""
        for n, c in enumerate(self.coefficients):
            if c.denominator != 1:
                raise InternalError(f"coefficient {n} is {c}, not an integer")
        return [c.numerator for c in self.coefficients]

    def __repr__(self) -> str:
        shown = ", ".join(str(c) for c in self.coefficients[:8])
        if self.order >= 8:
            shown += ", ..."
        return f"TruncatedSeries([{shown}], order={self.order})"


def _half(value: int | Fraction) -> int | Fraction:
    """``value / 2``: an int when ``value`` is an even int, else a
    ``Fraction``, so no gcd is paid for an exact halving."""
    if isinstance(value, int):
        quotient, remainder = divmod(value, 2)
        if not remainder:
            return quotient
    from fractions import Fraction

    return Fraction(value, 2)


MOTZKIN_METHODS = ("functional", "closed_form")
NAT_FORMS = ("product", "linear")


def motzkin_series(order: int, method: str = "functional") -> TruncatedSeries:
    """Generating function of the Motzkin numbers through ``order``.

    ``functional`` solves ``M = 1 + x*M + x^2*M^2`` coefficient by
    coefficient; ``closed_form`` takes ``W = sqrt(1 - 2x - 3x^2)`` to
    order ``order + 2`` and halves the negated coefficients 2.., which
    are ``(1 - x - W) / (2x^2)`` read without a series division. Both
    return the same integer-valued series.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if method not in MOTZKIN_METHODS:
        raise ValueError(f"unknown method {method!r}")
    if method == "functional":
        # Coefficient n of 1 + x*M + x^2*M^2 must equal coefficient n of M.
        # The sum of coeffs[k] * coeffs[n - 2 - k] is symmetric in
        # k <-> n - 2 - k: add its first h terms twice, and the middle term
        # once when it has one (n even).
        coeffs = [1]
        for n in range(1, order + 1):
            h = (n - 1) // 2
            acc = coeffs[n - 1] + 2 * sum(map(mul, coeffs[:h], reversed(coeffs[n - 1 - h : n - 1])))
            coeffs.append(acc + coeffs[h] ** 2 if n % 2 == 0 else acc)
        result = TruncatedSeries(coeffs)
    else:
        root = TruncatedSeries.from_coefficients([1, -2, -3], order + 2).sqrt()
        result = TruncatedSeries(_half(-c) for c in root.coefficients[2:])
    result.integer_coefficients()
    return result


def nat_series(order: int, form: str = "product") -> TruncatedSeries:
    """Generating function of the difference numbers through ``order``.

    ``product`` evaluates ``x + x^2*M^2`` with one product, ``M*M``,
    shifted two places; ``linear`` evaluates ``x - 1 + (1-x)*M``. The
    two agree coefficient by coefficient.
    """
    if form not in NAT_FORMS:
        raise ValueError(f"unknown form {form!r}")
    m = motzkin_series(order, "functional")
    if form == "product":
        result = TruncatedSeries([0, 1, *(m * m).coefficients][: order + 1])
    else:
        one_minus_x = TruncatedSeries.from_coefficients([1, -1], order)
        result = TruncatedSeries.from_coefficients([-1, 1], order) + one_minus_x * m
    result.integer_coefficients()
    return result
