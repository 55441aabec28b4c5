"""Motzkin words and their length-major lexicographic series.

A Motzkin word is a string over '0', '(' and ')' in which the two
parenthesis counts agree and no prefix closes more than it opened. The
empty word is valid. Words are totally ordered by length first, then
lexicographically with the symbol order '0' < '(' < ')'.

A word is *unique* when it is "0" or starts with '(', *inherited* when
it has length >= 2 and starts with '0'. Listing the unique words in the
total order gives an infinite zero-indexed series whose first entries
are::

    0, (), (0), ()0, (00), (0)0, (()), ()00, ()(), (000), (00)0, (0()), ...

``word_blocks`` streams the words of one length in that order, in blocks
that share a prefix: the valid prefixes of the first half of the symbols,
expanded level by level in series order, meet a table of every completion
of the second half, both built by string concatenation alone. A listing
holds one prefix level and the table, each O(3^(n/2)) short strings.
``enumerate_words`` joins the blocks into one list; the CLI listing and
the ``verify`` census consume them one at a time, so neither holds the
whole listing. The enumeration never reads the completion-count table
of ``motzkin.ranking``, and so stays an independent check of it and of
the recurrences.

``rank``, ``unrank``, ``completion_count`` and ``RANK_LIMIT`` are
defined in ``motzkin.ranking`` and bound here as well, so callers reach
both directions of the series through this module. The alphabet's three
symbols and ``validate``, the word check that ``classify`` and
``sort_key`` make, are defined there too and bound here; the listing
reads nothing of that module but the three symbols.
"""

import operator
from collections.abc import Iterator

from .errors import LimitExceededError
from .ranking import CLOSE, OPEN, RANK_LIMIT, ZERO, completion_count, rank, unrank, validate  # noqa: F401

SYMBOLS = (ZERO, OPEN, CLOSE)  # ascending alphabet order
_DELTA = {ZERO: 0, OPEN: 1, CLOSE: -1}
_SORTABLE = str.maketrans("".join(SYMBOLS), "012")  # series order as string order

EMPTY = "empty"
UNIQUE = "unique"
INHERITED = "inherited"

# Exhaustive enumeration is exponential in n. Streaming callers hold one
# block at a time, so this bound (853467 words of length 16) limits the
# list that enumerate_words returns and the run time of every listing.
ENUMERATION_LIMIT = 16

FILTERS = ("all", UNIQUE, INHERITED)


def classify(word: str) -> str:
    """Classify a valid word as 'unique', 'inherited' or 'empty'."""
    validate(word)
    if not word:
        return EMPTY
    if word == ZERO or word[0] == OPEN:
        return UNIQUE
    return INHERITED


def compare(first: str, second: str) -> int:
    """Total order on valid words: -1, 0 or 1.

    Shorter words come first; equal lengths compare lexicographically
    with '0' < '(' < ')'.
    """
    a, b = sort_key(first), sort_key(second)
    if a < b:
        return -1
    return 0 if a == b else 1


def sort_key(word: str):
    """Sorting key realizing the same order as ``compare``; raises what
    ``validate`` raises for a string that is not a Motzkin word."""
    return len(validate(word)), word.translate(_SORTABLE)


def word_blocks(n: int, kind: str = "all") -> Iterator[list[str]]:
    """The Motzkin words of length ``n`` in series order, as an iterator
    of nonempty lists of consecutive words; joined, the lists are
    ``enumerate_words(n, kind)``.

    The arguments are checked at call time, with the same errors as
    ``enumerate_words``.
    """
    n = operator.index(n)
    if n < 0:
        raise ValueError("length must be nonnegative")
    if kind not in FILTERS:
        raise ValueError(f"unknown filter {kind!r}")
    if n > ENUMERATION_LIMIT:
        raise LimitExceededError(f"length {n} exceeds the enumeration bound {ENUMERATION_LIMIT}")
    if kind == "all":
        return _blocks("", 0, n)
    if n < 2:  # "0" is the one unique word this short; no inherited one is
        return iter([[ZERO]] if kind == UNIQUE and n == 1 else [])
    start = OPEN if kind == UNIQUE else ZERO
    return _blocks(start, _DELTA[start], n - 1)


def _blocks(start: str, depth: int, remaining: int) -> Iterator[list[str]]:
    """Every completion of ``start`` (at ``depth``) by ``remaining`` more
    symbols, in series order: one block per valid prefix of the first
    ``remaining - m`` symbols, joined to every valid last m symbols."""
    m = remaining // 2
    # After step j, table[h] lists every completion of j symbols from
    # depth h in series order: a first symbol '0', '(' or ')' leaves
    # depth h, h + 1 or h - 1 for the other j - 1.
    table = [[""]]
    for j in range(1, m + 1):
        padded = [[], *table, [], []]
        table = [
            [ZERO + s for s in padded[h + 1]] + [OPEN + s for s in padded[h + 2]] + [CLOSE + s for s in padded[h]]
            for h in range(j + 1)
        ]

    # Level by level over the prefixes: extending each prefix of a level
    # in series order by '0', '(' and ')' keeps the next level in series
    # order. A new prefix at depth d with k symbols still to come before
    # the table part is kept only if d <= k + m, so every block is nonempty.
    prefixes = [(start, depth)]
    for k in range(remaining - m - 1, -1, -1):
        prefixes = [(prefix + s, d) for prefix, h in prefixes for s in SYMBOLS if 0 <= (d := h + _DELTA[s]) <= k + m]
    yield from ([prefix + s for s in table[h]] for prefix, h in prefixes)


def enumerate_words(n: int, kind: str = "all") -> list[str]:
    """All Motzkin words of length ``n`` in the series order.

    ``kind`` restricts the listing to 'unique' or 'inherited' words;
    'all' lists every word. Raises LimitExceededError for n above
    ENUMERATION_LIMIT.
    """
    return [word for block in word_blocks(n, kind) for word in block]
