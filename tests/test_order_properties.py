"""Property tests of the series order: ``compare`` against ``sort_key``
on random words, and ``compare`` along ``enumerate_words`` listings."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from motzkin import words

MAX_LENGTH = 40
MAX_LISTED = 12
PROPERTY = settings(deadline=None, database=None)


def motzkin_word(picks):
    """The Motzkin word of length len(picks) that takes, at each step, the
    pick-th symbol (cyclically) of those that can still be closed."""
    symbols, depth = [], 0
    for remaining, pick in zip(range(len(picks) - 1, -1, -1), picks):
        allowed = [(s, d) for s, d in (("0", 0), ("(", 1), (")", -1)) if 0 <= depth + d <= remaining]
        symbol, step = allowed[pick % len(allowed)]
        symbols.append(symbol)
        depth += step
    return "".join(symbols)


motzkin_words = st.lists(st.integers(0, 2), max_size=MAX_LENGTH).map(motzkin_word)



@PROPERTY
@given(motzkin_words, motzkin_words)
def test_compare_is_the_sign_of_sort_key(first, second):
    a, b = words.sort_key(first), words.sort_key(second)
    assert words.compare(first, second) == (a > b) - (a < b)


@PROPERTY
@given(st.integers(2, MAX_LISTED), st.data())
def test_listing_is_strictly_increasing(n, data):
    listing = words.enumerate_words(n)
    i = data.draw(st.integers(0, len(listing) - 2))
    j = data.draw(st.integers(i + 1, len(listing) - 1))
    assert words.compare(listing[i], listing[j]) == -1
    assert words.compare(listing[j], listing[i]) == 1
