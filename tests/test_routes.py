"""The package's tables at scale, against closed forms that share no step
with the routes that build them.

The Motzkin table comes from its three-term recurrence and the
completion table from the Motzkin numbers by a downward recurrence.
These checks start elsewhere: the Deutsch-Sagan congruences for M_n
modulo 2 and 3, the difference numbers' own recurrence and a Catalan
sum, and a ballot-number sum for every completion count. Every division
in them is checked to be exact.
"""

import random
from math import comb

import pytest

from motzkin import ranking, sequences

N_MAX = 20000


@pytest.fixture(scope="module")
def motzkin():
    return sequences.motzkin_numbers(N_MAX)


def exact_div(numerator, denominator):
    quotient, remainder = divmod(numerator, denominator)
    assert remainder == 0, (numerator, denominator)
    return quotient


def two_adic_valuation(k):
    return (k & -k).bit_length() - 1


def base_three_digits(k):
    digits = set()
    while k:
        k, digit = divmod(k, 3)
        digits.add(digit)
    return digits


def test_motzkin_parity_deutsch_sagan(motzkin):
    # M_n is even iff n = 2, 3 (mod 4) and floor((n + 2) / 4) has even
    # 2-adic valuation (Deutsch & Sagan, "Congruences for Catalan and
    # Motzkin numbers and related sequences", JNT 117, 2006).
    for n in range(N_MAX + 1):
        assert (motzkin[n] % 2 == 0) == (n % 4 in (2, 3) and two_adic_valuation((n + 2) // 4) % 2 == 0), n


def test_motzkin_modulo_three_deutsch_sagan(motzkin):
    # 3 does not divide M_n iff ceil(n / 3) has only the base-3 digits 0
    # and 1 (same paper).
    for n in range(N_MAX + 1):
        assert (motzkin[n] % 3 != 0) == (base_three_digits(-(-n // 3)) <= {0, 1}), n


def difference_recurrence(n_max):
    """U_0..U_n_max from U_0 = 0, U_1 = U_2 = 1, U_3 = 2 and, for n >= 4,
    (n - 2)(n + 2) U_n = (2n - 1)(n - 1) U_(n-1) + 3(n - 1)(n - 2) U_(n-2).
    Proof: from the Catalan sum below, certificate
    G(j) = -4(j - 1)(j + 1) C(n - 1, 2j - 1) C_j (test_certificates.py)."""
    values = [0, 1, 1, 2][: n_max + 1]
    for n in range(4, n_max + 1):
        total = (2 * n - 1) * (n - 1) * values[n - 1] + 3 * (n - 1) * (n - 2) * values[n - 2]
        values.append(exact_div(total, (n - 2) * (n + 2)))
    return values


def test_difference_numbers_follow_their_own_recurrence():
    assert difference_recurrence(3000) == sequences.difference_numbers(3000)
    # The convolution costs O(n^2) big products; 500 keeps it well under
    # a second.
    assert difference_recurrence(500) == sequences.difference_numbers(500, "convolution")


def test_difference_numbers_as_a_catalan_sum():
    # U_n = sum over j >= 1 of C(n - 1, 2j - 1) * Catalan(j), for n >= 2.
    catalan = [exact_div(comb(2 * j, j), j + 1) for j in range(150)]
    table = sequences.difference_numbers(299)
    for n in range(2, 300):
        assert sum(comb(n - 1, 2 * j - 1) * catalan[j] for j in range(1, n // 2 + 1)) == table[n], n


def ballot_sum(h, r):
    """c(h, r) = sum over j of C(r, h + 2j) * (h + 1) / (h + j + 1) * C(h + 2j, j):
    choose which of the r symbols are parentheses, then count the ballot
    sequences of j opens and h + j closes that never close below zero.

    The j = 0 term is C(r, h), and each next term is the last times
    (r - m)(r - m - 1) / ((j + 1)(h + j + 2)), m = h + 2j, with no
    remainder."""
    term = total = comb(r, h)
    j = 0
    while term:
        m = h + 2 * j
        term = exact_div(term * (r - m) * (r - m - 1), (j + 1) * (h + j + 2))
        total += term
        j += 1
    return total


def test_completion_counts_are_ballot_sums():
    for r in range(80):
        for h in range(r + 3):
            assert ranking.completion_count(h, r) == ballot_sum(h, r), (h, r)


def test_completion_counts_near_the_rank_limit_are_ballot_sums():
    rng = random.Random(2020)
    for _ in range(200):
        h, r = rng.randrange(40), rng.randrange(900, 960)
        assert ranking.completion_count(h, r) == ballot_sum(h, r), (h, r)


def test_motzkin_number_is_the_depth_zero_ballot_sum(motzkin):
    assert ballot_sum(0, N_MAX) == motzkin[N_MAX]
