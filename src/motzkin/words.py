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

``rank`` and ``unrank`` convert between unique words and positions in
that series. A unique word's position equals its lexicographic index
among all Motzkin words of its length: for n >= 2 both count M_(n-1)
words before its block, the shorter unique words on one side
(U_1 + ... + U_(n-1) = M_(n-1)) and the n-words starting with '0' on
the other; for n = 1 both are 0. So both functions walk one
completion-count table from depth 0: ``completion_count(h, r)`` is the
number of ways to finish a word when h parentheses are open and r
symbols remain, which doubles as an independent route to the Motzkin
numbers via ``completion_count(0, n)``. The table is built once per
process and only grows; lengths above RANK_LIMIT raise
LimitExceededError, and ``unrank`` refuses an index of M_RANK_LIMIT or
more without building the table.
"""

from bisect import bisect_right
from operator import itemgetter

from . import sequences
from .errors import (
    BadSymbolError,
    LimitExceededError,
    NotUniqueError,
    MotzkinWordError,
    PrefixViolationError,
    UnbalancedError,
)

ZERO = "0"
OPEN = "("
CLOSE = ")"
SYMBOLS = (ZERO, OPEN, CLOSE)  # ascending alphabet order
_DELTA = {ZERO: 0, OPEN: 1, CLOSE: -1}
_SYMBOL_RANK = {ZERO: 0, OPEN: 1, CLOSE: 2}

EMPTY = "empty"
UNIQUE = "unique"
INHERITED = "inherited"

# Exhaustive enumeration is exponential in n; this bound (853467 words of
# length 16) keeps it comfortable in memory and time.
ENUMERATION_LIMIT = 16

# The completion table up to length n holds O(n^3) bits and stays for
# the life of the process: about 85 MB at this bound, 500 MB at 2000.
RANK_LIMIT = 1000

FILTERS = ("all", UNIQUE, INHERITED)


def validate(text: str) -> str:
    """Return ``text`` unchanged if it is a Motzkin word, else raise.

    Raises BadSymbolError for characters outside the alphabet,
    PrefixViolationError when some prefix has more ')' than '(', and
    UnbalancedError when the totals differ. The empty string validates.
    """
    depth = 0
    for position, symbol in enumerate(text):
        if symbol not in _DELTA:
            raise BadSymbolError(f"symbol {symbol!r} at position {position}")
        depth += _DELTA[symbol]
        if depth < 0:
            raise PrefixViolationError(f"prefix {text[: position + 1]!r} closes below depth zero")
    if depth != 0:
        raise UnbalancedError(f"{depth} unmatched '(' in {text!r}")
    return text


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
    validate(first)
    validate(second)
    a, b = sort_key(first), sort_key(second)
    if a < b:
        return -1
    return 0 if a == b else 1


def sort_key(word: str):
    """Sorting key realizing the same order as ``compare``."""
    return len(word), tuple(_SYMBOL_RANK[symbol] for symbol in word)


def _next_row(prev: list[int]) -> list[int]:
    """Row r + 1 of the completion table from row r: a first symbol
    '(', '0' or ')' leaves depth h + 1, h or h - 1 for the rest."""
    padded = [0, *prev, 0, 0]
    return [padded[h] + padded[h + 1] + padded[h + 2] for h in range(len(prev) + 1)]


# Rows 0..len(_ROWS)-1 of the completion table, shared by every call.
# A published row is never mutated, and growth publishes a longer copy
# with one rebinding, so concurrent callers need no lock: at worst they
# build the same rows twice.
_ROWS: list[list[int]] = [[1]]


def _completion_rows(length: int) -> list[list[int]]:
    """Rows r = 0..length (at least) of the completion table; rows[r][h]
    counts the ways to finish from h open parentheses in exactly r symbols.

    Raises LimitExceededError for a length above RANK_LIMIT.
    """
    global _ROWS
    if length > RANK_LIMIT:
        raise LimitExceededError(f"length {length} exceeds the rank bound {RANK_LIMIT}")
    rows = _ROWS
    if len(rows) <= length:
        rows = rows.copy()
        while len(rows) <= length:
            rows.append(_next_row(rows[-1]))
        _ROWS = rows
    return rows


def completion_count(depth: int, remaining: int) -> int:
    """Number of length-``remaining`` suffixes that close ``depth`` open
    parentheses and keep every prefix valid.

    ``completion_count(0, n)`` equals the n-th Motzkin number. Raises
    LimitExceededError for ``remaining`` above RANK_LIMIT.
    """
    if depth < 0 or remaining < 0:
        raise ValueError("depth and remaining must be nonnegative")
    row = _completion_rows(remaining)[remaining]
    return row[depth] if depth <= remaining else 0


def _extend(out: list[str], prefix: list[str], depth: int, remaining: int) -> None:
    """Append to ``out``, in series order, every valid completion of
    ``prefix`` (at ``depth``) by ``remaining`` more symbols."""
    if remaining == 0:
        out.append("".join(prefix))
        return
    for symbol in SYMBOLS:
        new_depth = depth + _DELTA[symbol]
        if new_depth < 0 or new_depth > remaining - 1:
            continue
        prefix.append(symbol)
        _extend(out, prefix, new_depth, remaining - 1)
        prefix.pop()


def enumerate_words(n: int, kind: str = "all") -> list[str]:
    """All Motzkin words of length ``n`` in the series order.

    ``kind`` restricts the listing to 'unique' or 'inherited' words;
    'all' lists every word. Raises LimitExceededError for n above
    ENUMERATION_LIMIT.
    """
    if n < 0:
        raise ValueError("length must be nonnegative")
    if kind not in FILTERS:
        raise ValueError(f"unknown filter {kind!r}")
    if n > ENUMERATION_LIMIT:
        raise LimitExceededError(f"length {n} exceeds the enumeration bound {ENUMERATION_LIMIT}")

    if n == 0:
        return [""] if kind == "all" else []
    if n == 1:
        return [] if kind == INHERITED else [ZERO]

    # A module-level DFS: a nested one would hold ``out`` in a reference
    # cycle, keeping each listing alive until the cyclic collector runs.
    out: list[str] = []
    if kind == "all":
        _extend(out, [], 0, n)
    elif kind == UNIQUE:
        _extend(out, [OPEN], 1, n - 1)
    else:
        _extend(out, [ZERO], 0, n - 1)
    return out


def rank(word: str) -> int:
    """Zero-based position of a unique word in the series.

    Raises NotUniqueError for the empty word, inherited words, and
    anything that is not a Motzkin word, then LimitExceededError for a
    word longer than RANK_LIMIT.
    """
    try:
        kind = classify(word)
    except MotzkinWordError as exc:
        raise NotUniqueError(f"not a Motzkin word: {exc}") from exc
    if kind != UNIQUE:
        raise NotUniqueError(f"{word!r} has no position in the series")

    # The series index is the lexicographic index among all n-words:
    # count the completions of every smaller symbol at each step.
    n = len(word)
    rows = _completion_rows(n)
    position = depth = 0
    for i, symbol in enumerate(word):
        remaining = n - i - 1
        for candidate in SYMBOLS:
            if candidate == symbol:
                break
            new_depth = depth + _DELTA[candidate]
            if 0 <= new_depth <= remaining:
                position += rows[remaining][new_depth]
        depth += _DELTA[symbol]
    return position


def unrank(index: int) -> str:
    """The unique word at ``index``; inverse of ``rank``.

    Raises LimitExceededError when the word would be longer than
    RANK_LIMIT, that is for an index at or beyond M_RANK_LIMIT.
    """
    if index < 0:
        raise ValueError("index must be nonnegative")

    # Indexes below completion_count(0, n) = M_n have length <= n: grow
    # the table a row at a time until it covers the index, then find the
    # length in the rows built. An index of M_RANK_LIMIT or more is
    # refused before any row is built; M_n >= 2^(n-1), so the recurrence
    # runs only for an index of 2^(RANK_LIMIT-1) or more.
    rows = _ROWS
    if rows[-1][0] <= index and index >> (RANK_LIMIT - 1) and index >= sequences.motzkin_numbers(RANK_LIMIT)[-1]:
        raise LimitExceededError(f"length {RANK_LIMIT + 1} exceeds the rank bound {RANK_LIMIT}")
    while rows[-1][0] <= index:
        rows = _completion_rows(len(rows))
    n = bisect_right(rows, index, lo=1, key=itemgetter(0))

    # The series index is the lexicographic index among all n-words.
    offset = index
    symbols = []
    depth = 0
    for remaining in range(n - 1, -1, -1):
        for candidate in SYMBOLS:
            new_depth = depth + _DELTA[candidate]
            if new_depth < 0 or new_depth > remaining:
                continue
            block = rows[remaining][new_depth]
            if offset < block:
                symbols.append(candidate)
                depth = new_depth
                break
            offset -= block
        else:  # pragma: no cover - the blocks partition the index range
            raise AssertionError("completion table exhausted")
    return "".join(symbols)
