"""Mutants of the routes that ``verify`` cross-checks.

Each mutant changes one value on one route, patched in for a single
``verification_checks(12)`` run with no source edit, and names the exact
set of lines that must FAIL. A mutant that no line catches is a finding
about ``verify``, not a reason to drop the mutant: the table only grows.
"""

import pytest

from motzkin import InternalError, cli, series, symdiff, words


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
    # Drop the shared table to its first row, so the run builds every
    # later row through the mutant.
    original = words._next_row
    monkeypatch.setattr(words, "_ROWS", words._ROWS[:1])
    # Wrong c(1, 5): row 5 is built from row 4, which has 7 entries.
    monkeypatch.setattr(words, "_next_row", lambda prev: _bump(original(prev), 1) if len(prev) == 7 else original(prev))


def wrong_cursor_numerator(monkeypatch):
    original = symdiff.DerivativeCursor.advance

    def advance(self):
        fraction = original(self)
        if self.passes == 3:
            fraction = self.current = fraction._replace(a=fraction.a + symdiff.IntPoly([1]))
        return fraction

    monkeypatch.setattr(symdiff.DerivativeCursor, "advance", advance)


# mutant -> the lines that must FAIL, recorded from a run; None when the
# run must end in InternalError instead.
MUTANTS = [
    (constant_compare, {"unrank-order-coherence"}),
    (wrong_sqrt_coefficient, {"motzkin-functional-vs-closed-form"}),
    (wrong_product_coefficient, {"nat-product-vs-linear", "nat-series-vs-difference-table"}),
    (wrong_completion_row, {"rank-unrank-roundtrip"}),
    (wrong_cursor_numerator, None),
]


@pytest.mark.parametrize("mutant, failing", MUTANTS, ids=[mutant.__name__ for mutant, _ in MUTANTS])
def test_mutant_fails_its_lines(monkeypatch, mutant, failing):
    mutant(monkeypatch)
    if failing is None:
        with pytest.raises(InternalError):
            list(cli.verification_checks(12))
    else:
        assert {name for name, ok, _ in cli.verification_checks(12) if not ok} == failing
