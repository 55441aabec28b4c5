"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v``; the criterion lines are
written straight to the terminal, bypassing capture.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest
from support import random_fraction

from motzkin import cli, sequences, words
from motzkin.series import TruncatedSeries, motzkin_series, nat_series
from motzkin.symdiff import SqrtFraction, content_reduce, evaluate_at_zero

MOTZKIN_PREFIX = [1, 1, 2, 4, 9, 21, 51, 127, 323, 835, 2188, 5798, 15511, 41835]
DIFFERENCE_PREFIX = [0, 1, 1, 2, 5, 12, 30, 76, 196, 512, 1353, 3610, 9713, 26324, 71799]
SERIES_PREFIX = ["0", "()", "(0)", "()0", "(00)", "(0)0", "(())", "()00", "()()", "(000)", "(00)0", "(0())"]


@pytest.fixture
def report(capsys):
    @contextmanager
    def _report(name):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"FAIL {name}", flush=True)
            raise
        with capsys.disabled():
            print(f"PASS {name}", flush=True)

    return _report


def run_cli(capsys, *argv):
    start = time.perf_counter()
    code = cli.main(list(argv))
    elapsed = time.perf_counter() - start
    return code, capsys.readouterr().out, elapsed


def test_criterion_1_motzkin_parity(report, capsys):
    with report("criterion 1: Motzkin parity, numbers --max 13 exact in < 0.1 s"):
        code, out, elapsed = run_cli(capsys, "numbers", "--max", "13")
        assert code == 0
        assert out == "".join(f"{v}\n" for v in MOTZKIN_PREFIX)
        assert elapsed < 0.1


def test_criterion_2_difference_parity(report, capsys):
    with report("criterion 2: difference parity, diff --max 14 exact both methods in < 0.1 s"):
        expected = "".join(f"{v}\n" for v in DIFFERENCE_PREFIX)
        for method in ("subtraction", "convolution"):
            code, out, elapsed = run_cli(capsys, "diff", "--max", "14", "--method", method)
            assert code == 0
            assert out == expected
            assert elapsed < 0.1


def test_criterion_3_census(report):
    with report("criterion 3: enumeration census for n <= 12 exact in < 5 s"):
        start = time.perf_counter()
        motzkin = sequences.motzkin_numbers(12)
        diff = sequences.difference_numbers(12)
        for n in range(13):
            assert len(words.enumerate_words(n, "all")) == motzkin[n]
            if n >= 1:
                assert len(words.enumerate_words(n, "unique")) == diff[n]
            if n >= 2:
                assert len(words.enumerate_words(n, "inherited")) == motzkin[n - 1]
        assert time.perf_counter() - start < 5


def test_criterion_4_series_listing(report):
    with report("criterion 4: unrank(0..11) reproduces the series listing"):
        assert [words.unrank(i) for i in range(12)] == SERIES_PREFIX


def test_criterion_5_symbolic_cycle(report, capsys):
    with report("criterion 5: symdiff --max 12 and --max 40 exact in < 30 s"):
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "symdiff", "--max", "12")
        assert code == 0
        assert out == "".join(f"{v}\n" for v in DIFFERENCE_PREFIX[:13])
        code, out, _ = run_cli(capsys, "symdiff", "--max", "40")
        assert code == 0
        assert out == "".join(f"{v}\n" for v in sequences.difference_numbers(40))
        assert time.perf_counter() - start < 30


def test_criterion_6_generating_function_identities(report):
    with report("criterion 6: generating-function identities exact at order 64"):
        functional = motzkin_series(64, "functional")
        closed = motzkin_series(64, "closed_form")
        x = TruncatedSeries.from_coefficients([0, 1], 64)
        one = TruncatedSeries.from_coefficients([1], 64)
        zero = TruncatedSeries.from_coefficients([0], 64)
        for m in (functional, closed):
            assert one + x * m + x * x * m * m - m == zero
        assert closed == functional
        product, linear = nat_series(64, "product"), nat_series(64, "linear")
        assert product == linear
        assert product.integer_coefficients() == sequences.difference_numbers(64)


def test_criterion_7_property_suites(report):
    with report("criterion 7: property suites, >= 200 cases each, zero failures"):
        failures = 0

        # Square root round trip on randomized series with constant term 1.
        rng = random.Random(8128)
        for _ in range(200):
            order = rng.randrange(1, 10)
            coeffs = [Fraction(1)] + [
                Fraction(rng.randrange(-20, 21), rng.randrange(1, 7)) for _ in range(order)
            ]
            operand = TruncatedSeries.from_coefficients(coeffs)
            root = operand.sqrt()
            failures += root * root != operand

        # Rank/unrank bijection through length 10 (2188 words).
        cases = 0
        index = 0
        for n in range(1, 11):
            for word in words.enumerate_words(n, "unique"):
                failures += words.rank(word) != index
                failures += words.unrank(index) != word
                index += 1
                cases += 1
        assert cases >= 200

        # Order coherence of consecutive unranks over the same range.
        listing = [words.unrank(i) for i in range(index)]
        for previous, current in zip(listing, listing[1:]):
            failures += words.compare(previous, current) != -1

        # Content reduction is value-neutral.
        for _ in range(200):
            f = random_fraction(rng)
            scale = rng.randrange(1, 7)
            scaled = SqrtFraction(f.a * scale, f.b * scale, f.c * scale, f.d * scale)
            failures += evaluate_at_zero(content_reduce(scaled)) != evaluate_at_zero(f)

        assert failures == 0
