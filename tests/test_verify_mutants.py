"""Mutants of the routes that ``verify`` cross-checks.

Each mutant changes one value on one route, patched in with no source
edit for one ``verification_checks(12)`` run and one ``verify --max 12``
command, and names the exact set of lines that must FAIL. A mutant that
no line catches is a finding about ``verify``, not a reason to drop the
mutant: the table only grows.
"""

import pytest
from support import cold, run

from motzkin import InternalError, cli, ranking, sequences, series, symdiff, words


def _bump(values, n):
    """values with entry n raised by two, when it has one; an even error
    survives the halvings of the closed form as a wrong integer."""
    values = list(values)
    if n < len(values):
        values[n] += 2
    return values


def constant_compare(monkeypatch):
    monkeypatch.setattr(words, "compare", lambda first, second: -1)


def wrong_sqrt_coefficient(monkeypatch):
    original = series.TruncatedSeries.sqrt
    monkeypatch.setattr(
        series.TruncatedSeries, "sqrt", lambda self: series.TruncatedSeries(_bump(original(self).coefficients, 5))
    )


def wrong_product_coefficient(monkeypatch):
    original = series.TruncatedSeries.__mul__
    monkeypatch.setattr(
        series.TruncatedSeries,
        "__mul__",
        lambda self, other: series.TruncatedSeries(_bump(original(self, other).coefficients, 5)),
    )


def wrong_completion_row(monkeypatch):
    # Start the shared table cold, so the run builds every entry through
    # the mutant.
    original = ranking._grow
    cold(monkeypatch)

    def grow(length, depth=0):
        built = len(ranking._COLUMNS[0])
        columns = original(length, depth)
        # Wrong c(1, 5): it is built with length 6, once the words of
        # length 4 have deepened the table to depth 3. Growing to length 7
        # carries the error down to the pad entry c(4, 3), so the table
        # refuses to grow before the round trip reads it.
        if built <= 6 < len(columns[0]):
            columns[1][5] += 2
        return columns

    monkeypatch.setattr(ranking, "_grow", grow)


def wrong_table_seed(monkeypatch):
    # The table alone starts length 7 from M_7 + 2: the growth routine
    # reads the wrong M_7, every other route the true one. Cold, as above;
    # the pad entry c(4, 3) reads 2.
    original = ranking._grow
    numbers = sequences.motzkin_numbers
    cold(monkeypatch)

    def grow(length, depth=0):
        with monkeypatch.context() as table_only:
            table_only.setattr(sequences, "motzkin_numbers", lambda n_max: _bump(numbers(n_max), 7))
            return original(length, depth)

    monkeypatch.setattr(ranking, "_grow", grow)


def wrong_cursor_numerator(monkeypatch):
    original = symdiff.DerivativeCursor.advance

    def advance(self):
        fraction = original(self)
        if self.passes == 3:
            fraction = self.current = fraction._replace(a=fraction.a + symdiff.IntPoly([1]))
        return fraction

    monkeypatch.setattr(symdiff.DerivativeCursor, "advance", advance)


def wrong_natural_cursor_value(monkeypatch):
    # Pass 3 holds a + 96 in place of a. Its value at zero has the
    # denominator c(0) + d(0) = 2^4, so it rises by 6 = 3! and U_3 reads
    # one too high but still natural. Pass 4 advances from the true pass 3.
    original = symdiff.DerivativeCursor.advance
    true = {}

    def advance(self):
        self.current = true.pop(self, self.current)
        fraction = original(self)
        if self.passes == 3:
            true[self] = fraction
            self.current = fraction._replace(a=fraction.a + symdiff.IntPoly([96]))
        return self.current

    monkeypatch.setattr(symdiff.DerivativeCursor, "advance", advance)


def wrong_last_motzkin_number(monkeypatch):
    # Every motzkin_numbers call returns its last entry two too high, so
    # each line that reads M_0..M_12 sees the wrong M_12. The completion
    # table is grown first, with the true numbers, to all that the round
    # trip reads: length 10 and depth 6, one past the deepest word of
    # length 10. So no growth reads a wrong M_L.
    cold(monkeypatch)
    ranking._grow(10, 6)
    original = sequences.motzkin_numbers
    monkeypatch.setattr(sequences, "motzkin_numbers", lambda n_max: _bump(original(n_max), n_max))


def wrong_last_motzkin_number_on_a_cold_table(monkeypatch):
    # The same mutant on the table a process starts with: each length L
    # the table grows to reads a wrong M_L, and the pad check refuses the
    # first growth, c(1, 0) = 2.
    wrong_last_motzkin_number(monkeypatch)
    cold(monkeypatch)


def wrong_convolution_value(monkeypatch):
    original = sequences.difference_numbers
    monkeypatch.setattr(
        sequences,
        "difference_numbers",
        lambda n_max, method: _bump(original(n_max, method), 9) if method == "convolution" else original(n_max, method),
    )


def wrong_functional_coefficient(monkeypatch):
    original = series.motzkin_series

    def motzkin_series(order, method):
        built = original(order, method)
        return series.TruncatedSeries(_bump(built.coefficients, 7)) if method == "functional" else built

    monkeypatch.setattr(series, "motzkin_series", motzkin_series)


def wrong_linear_nat_coefficient(monkeypatch):
    # Only the linear form x - 1 + (1 - x)M of the difference numbers.
    original = series.nat_series

    def nat_series(order, form="product"):
        built = original(order, form)
        return series.TruncatedSeries(_bump(built.coefficients, 6)) if form == "linear" else built

    monkeypatch.setattr(series, "nat_series", nat_series)


def wrong_last_cycle_value(monkeypatch):
    original = symdiff.nat_coefficients
    monkeypatch.setattr(symdiff, "nat_coefficients", lambda k_max: _bump(original(k_max), k_max))


def short_word_listing(monkeypatch):
    # Drop the last word of length 5 from the full listing.
    original = words.word_blocks

    def word_blocks(n, kind="all"):
        blocks = list(original(n, kind))
        if kind == "all" and n == 5:
            blocks[-1] = blocks[-1][:-1]
        return iter(blocks)

    monkeypatch.setattr(words, "word_blocks", word_blocks)


def short_unique_listing(monkeypatch):
    # Drop the last unique word of length 6, "()()()", from the unique
    # filter alone.
    original = words.word_blocks

    def word_blocks(n, kind="all"):
        blocks = list(original(n, kind))
        if kind == "unique" and n == 6:
            blocks[-1] = blocks[-1][:-1]
        return iter(blocks)

    monkeypatch.setattr(words, "word_blocks", word_blocks)


def inherited_short_word(monkeypatch):
    # "0" listed as an inherited word of length 1, where none is.
    original = words.word_blocks
    monkeypatch.setattr(
        words,
        "word_blocks",
        lambda n, kind="all": iter([[words.ZERO]]) if (n, kind) == (1, "inherited") else original(n, kind),
    )


def wrong_rank_at_length_nine(monkeypatch):
    original = ranking.rank
    monkeypatch.setattr(ranking, "rank", lambda word: original(word) + (len(word) == 9))


def wrong_unrank_at_index_100(monkeypatch):
    original = ranking.unrank
    monkeypatch.setattr(ranking, "unrank", lambda index: original(101 if index == 100 else index))


# mutant -> the lines that must FAIL, recorded from a run; None when the
# run must end in InternalError instead.
MUTANTS = [
    (constant_compare, {"unrank-order-coherence"}),
    (wrong_sqrt_coefficient, {"motzkin-functional-vs-closed-form"}),
    (wrong_product_coefficient, {"nat-product-vs-linear", "nat-series-vs-difference-table"}),
    (wrong_completion_row, None),
    (wrong_table_seed, None),
    (wrong_cursor_numerator, None),
    (wrong_natural_cursor_value, {"symdiff-vs-difference-table"}),
    (
        wrong_last_motzkin_number,
        {
            "motzkin-recurrence-vs-functional-series",
            "difference-subtraction-vs-convolution",
            "nat-series-vs-difference-table",
            "symdiff-vs-difference-table",
            "census-all-vs-motzkin-table",
            "census-unique-vs-difference-table",
        },
    ),
    (wrong_last_motzkin_number_on_a_cold_table, None),
    (wrong_convolution_value, {"difference-subtraction-vs-convolution"}),
    (
        wrong_functional_coefficient,
        {
            "motzkin-recurrence-vs-functional-series",
            "motzkin-functional-vs-closed-form",
            "nat-product-vs-linear",
            "nat-series-vs-difference-table",
        },
    ),
    (wrong_linear_nat_coefficient, {"nat-product-vs-linear"}),
    (wrong_last_cycle_value, {"symdiff-vs-difference-table"}),
    (short_word_listing, {"census-all-vs-motzkin-table"}),
    (short_unique_listing, {"census-unique-vs-difference-table", "rank-unrank-roundtrip", "unrank-order-coherence"}),
    (inherited_short_word, {"census-inherited-vs-shifted-motzkin"}),
    (wrong_rank_at_length_nine, {"rank-unrank-roundtrip"}),
    (wrong_unrank_at_index_100, {"rank-unrank-roundtrip"}),
]


@pytest.mark.parametrize("mutant, failing", MUTANTS, ids=[mutant.__name__ for mutant, _ in MUTANTS])
def test_mutant_fails_its_lines(monkeypatch, capsys, mutant, failing):
    mutant(monkeypatch)
    if failing is None:
        with pytest.raises(InternalError):
            list(cli.verification_checks(12))
    else:
        assert {name for name, ok, _ in cli.verification_checks(12) if not ok} == failing
    # The same mutant through the command line: exit 2 and exactly its
    # FAIL lines, or exit 3 and an INTERNAL error line.
    status, out, err = run(capsys, "verify", "--max", "12")
    if failing is None:
        assert status == 3
        assert err.startswith("error: INTERNAL: ")
    else:
        assert status == 2
        fail_lines = [line.split()[1] for line in out.splitlines() if line.startswith("FAIL ")]
        assert sorted(fail_lines) == sorted(failing)
