"""Proofs, not only comparisons, of the recurrences that divide.

``sequences.motzkin_numbers`` divides by n + 2 in the three-term
recurrence of M_n; ``tests/test_routes.py`` divides by (n - 2)(n + 2) in
U's own recurrence; the two contiguity relations among completion counts
divide by 3r(h + 2) and 3r(h + 1). Each recurrence is a statement about a
binomial sum F(n) = sum over k of F(n, k): M_n = sum C(n, 2k) C_k, U_n =
sum C(n - 1, 2j - 1) C_j and the ballot sum c(h, r), with C_k the Catalan
numbers. Take the summand S(k) of the left side minus the right side. A
Gosper certificate G with S(k) = G(k + 1) - G(k), zero at the first k of
the sum and one past its last, telescopes the sum to 0, so the
recurrence holds at that n (Petkovsek, Wilf and Zeilberger, *A = B*,
1996, ch. 5).

Each test checks S(k) = G(k + 1) - G(k) exactly, with Fractions, at
every k of every sum on its grid, and that G is zero at both ends. It
reads nothing of the package: the tables are checked against these sums
in ``tests/test_routes.py``.
"""

from fractions import Fraction
from math import comb

import pytest


def binomial(n, k):
    """C(n, k), and 0 outside 0 <= k <= n."""
    return comb(n, k) if 0 <= k <= n else 0


def catalan(k):
    return comb(2 * k, k) // (k + 1)


def assert_telescopes(summand, certificate, first, last):
    """summand(k) = certificate(k + 1) - certificate(k) for k = first..last,
    where the sum's nonzero terms lie, and the certificate is 0 at first
    and at last + 1."""
    assert certificate(first) == 0
    assert certificate(last + 1) == 0
    for k in range(first, last + 1):
        assert summand(k) == certificate(k + 1) - certificate(k), k


def test_motzkin_recurrence():
    # (n + 2) M_n = (2n + 1) M_(n-1) + 3(n - 1) M_(n-2) for n >= 2, and the
    # sums give M_0 = M_1 = 1, so they are the Motzkin numbers.
    assert [sum(binomial(n, 2 * k) * catalan(k) for k in range(n + 1)) for n in (0, 1)] == [1, 1]
    for n in range(2, 80):

        def summand(k):
            return (
                (n + 2) * binomial(n, 2 * k)
                - (2 * n + 1) * binomial(n - 1, 2 * k)
                - 3 * (n - 1) * binomial(n - 2, 2 * k)
            ) * catalan(k)

        def certificate(k):
            return Fraction(-4 * k * (k + 1), n) * binomial(n, 2 * k) * catalan(k)

        assert_telescopes(summand, certificate, 0, n // 2)


def test_difference_recurrence():
    # (n - 2)(n + 2) U_n = (2n - 1)(n - 1) U_(n-1) + 3(n - 1)(n - 2) U_(n-2)
    # for n >= 4, and the sums give U_2 = 1, U_3 = 2.
    assert [sum(binomial(n - 1, 2 * j - 1) * catalan(j) for j in range(1, n)) for n in (2, 3)] == [1, 2]
    for n in range(4, 80):

        def summand(j):
            return (
                (n - 2) * (n + 2) * binomial(n - 1, 2 * j - 1)
                - (2 * n - 1) * (n - 1) * binomial(n - 2, 2 * j - 1)
                - 3 * (n - 1) * (n - 2) * binomial(n - 3, 2 * j - 1)
            ) * catalan(j)

        def certificate(j):
            return -4 * (j - 1) * (j + 1) * binomial(n - 1, 2 * j - 1) * catalan(j)

        assert_telescopes(summand, certificate, 1, n // 2)


def ballot_term(h, r, j):
    """The j-th term of c(h, r) = sum over j of C(r, h + 2j) (h + 1) / (h + j + 1) C(h + 2j, j)."""
    return Fraction(h + 1, h + j + 1) * binomial(r, h + 2 * j) * binomial(h + 2 * j, j)


@pytest.mark.parametrize("h", range(12))
def test_contiguity_relations(h):
    # For r >= 1:
    # 3r(h + 2) c(h, r - 1) = 2(h + 1)(h + r + 3) c(h + 1, r) - (r - h)(h + 2) c(h, r)
    # 3r(h + 1) c(h + 1, r - 1) = 2(r - h)(h + 2) c(h, r) - (h + 1)(h + r + 3) c(h + 1, r)
    for r in range(1, 30):

        def first(j):
            return (
                3 * r * (h + 2) * ballot_term(h, r - 1, j)
                - 2 * (h + 1) * (h + r + 3) * ballot_term(h + 1, r, j)
                + (r - h) * (h + 2) * ballot_term(h, r, j)
            )

        def second(j):
            return (
                3 * r * (h + 1) * ballot_term(h + 1, r - 1, j)
                - 2 * (r - h) * (h + 2) * ballot_term(h, r, j)
                + (h + 1) * (h + r + 3) * ballot_term(h + 1, r, j)
            )

        # Every term of either sum has h + 2j <= r.
        last = max(r - h, 0) // 2
        assert_telescopes(first, lambda j: -2 * (h + 2) * j * ballot_term(h, r, j), 0, last)
        assert_telescopes(second, lambda j: 4 * (h + 2) * j * ballot_term(h, r, j), 0, last)


def test_sympy_rederives_each_certificate():
    """From each summand alone, with n, h and r left symbolic, solve for a
    certificate p(k) T(k), where p has degree <= 2 in k and T is the sum's
    term; p must be the factor that the tests above check. (sympy's
    ``gosper_term`` finds the same certificates, in about 13 s on a 2-CPU
    Xeon VM.)"""
    sympy = pytest.importorskip("sympy")
    n, k, h, r = sympy.symbols("n k h r", integer=True, nonnegative=True)
    a = sympy.symbols("a0:3")

    def derived(term, parts):
        p = a[0] + a[1] * k + a[2] * k**2

        def ratio(other):
            return sympy.combsimp(other / term)

        residue = p.subs(k, k + 1) * ratio(term.subs(k, k + 1)) - p - sum(c * ratio(t) for c, t in parts)
        (solution,) = sympy.linsolve(sympy.Poly(sympy.numer(sympy.cancel(residue)), k).coeffs(), a)
        return p.subs(dict(zip(a, solution)))

    def motzkin(n):
        return sympy.binomial(n, 2 * k) * sympy.binomial(2 * k, k) / (k + 1)

    def difference(n):
        return sympy.binomial(n - 1, 2 * k - 1) * sympy.binomial(2 * k, k) / (k + 1)

    def ballot(h, r):
        return (h + 1) / (h + k + 1) * sympy.binomial(r, h + 2 * k) * sympy.binomial(h + 2 * k, k)

    cases = [
        (
            motzkin(n),
            [(n + 2, motzkin(n)), (-(2 * n + 1), motzkin(n - 1)), (-3 * (n - 1), motzkin(n - 2))],
            -4 * k * (k + 1) / n,
        ),
        (
            difference(n),
            [
                ((n - 2) * (n + 2), difference(n)),
                (-(2 * n - 1) * (n - 1), difference(n - 1)),
                (-3 * (n - 1) * (n - 2), difference(n - 2)),
            ],
            -4 * (k - 1) * (k + 1),
        ),
        (
            ballot(h, r),
            [
                (3 * r * (h + 2), ballot(h, r - 1)),
                (-2 * (h + 1) * (h + r + 3), ballot(h + 1, r)),
                ((r - h) * (h + 2), ballot(h, r)),
            ],
            -2 * (h + 2) * k,
        ),
        (
            ballot(h, r),
            [
                (3 * r * (h + 1), ballot(h + 1, r - 1)),
                (-2 * (r - h) * (h + 2), ballot(h, r)),
                ((h + 1) * (h + r + 3), ballot(h + 1, r)),
            ],
            4 * (h + 2) * k,
        ),
    ]
    for term, parts, factor in cases:
        assert sympy.expand(derived(term, parts) - factor) == 0, factor
