"""Property tests of the rank/unrank bijection on unique words of length
up to 400, and of the series order it follows: ``compare`` against
``sort_key`` on random words, and ``compare`` along ``enumerate_words``
listings."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st
from support import cycled, drawn_word

from motzkin import sequences, words

MAX_COMPARED = 40
MAX_LISTED = 12
MAX_LENGTH = 400
# Unique words of length <= MAX_LENGTH hold the indexes below M_MAX_LENGTH.
END = sequences.motzkin_numbers(MAX_LENGTH)[-1]
PROPERTY = settings(deadline=None, database=None)

# Each pick chooses, cyclically, among the symbols that can still be closed.
motzkin_words = st.lists(st.integers(0, 2), max_size=MAX_COMPARED).map(lambda picks: drawn_word(len(picks), cycled(picks)))
unique_words = (
    st.integers(1, MAX_LENGTH)
    .flatmap(lambda n: st.lists(st.integers(0, 2), min_size=n - 1, max_size=n - 1))
    .map(lambda picks: drawn_word(len(picks), cycled(picks), "(", 1) if picks else "0")
)


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
