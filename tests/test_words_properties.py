"""Property tests of the rank/unrank bijection, and of the order it
follows, on unique words of length up to 400."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from motzkin import sequences, words

MAX_LENGTH = 400
# Unique words of length <= MAX_LENGTH hold the indexes below M_MAX_LENGTH.
END = sequences.motzkin_numbers(MAX_LENGTH)[-1]
PROPERTY = settings(deadline=None, database=None)


def unique_word(picks):
    """The unique word of length len(picks) + 1 that starts with '(' and
    then takes, at each step, the pick-th symbol (cyclically) of those that
    can still be closed; "0" for no picks."""
    if not picks:
        return "0"
    symbols, depth = ["("], 1
    for remaining in range(len(picks) - 1, -1, -1):
        allowed = [(s, d) for s, d in (("0", 0), ("(", 1), (")", -1)) if 0 <= depth + d <= remaining]
        symbol, step = allowed[picks[len(picks) - 1 - remaining] % len(allowed)]
        symbols.append(symbol)
        depth += step
    return "".join(symbols)


unique_words = st.integers(1, MAX_LENGTH).flatmap(
    lambda n: st.lists(st.integers(0, 2), min_size=n - 1, max_size=n - 1)
).map(unique_word)


@PROPERTY
@given(st.integers(0, END - 1))
def test_rank_inverts_unrank(index):
    assert words.rank(words.unrank(index)) == index


@PROPERTY
@given(unique_words)
def test_unrank_inverts_rank(word):
    assert words.unrank(words.rank(word)) == word


@PROPERTY
@given(st.integers(0, END - 2).flatmap(lambda i: st.tuples(st.just(i), st.integers(i + 1, END - 1))))
def test_unrank_is_increasing(pair):
    # compare orders by length and symbols alone, without the table.
    first, second = pair
    assert words.compare(words.unrank(first), words.unrank(second)) == -1
