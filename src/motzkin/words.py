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
below, and so stays an independent check of it and of the recurrences.

``rank`` and ``unrank`` convert between unique words and positions in
that series. A unique word's position equals its lexicographic index
among all Motzkin words of its length: for n >= 2 both count M_(n-1)
words before its block, the shorter unique words on one side
(U_1 + ... + U_(n-1) = M_(n-1)) and the n-words starting with '0' on
the other; for n = 1 both are 0. So both functions walk one
completion-count table from depth 0: ``completion_count(h, r)`` is the
number of ways to finish a word when h parentheses are open and r
symbols remain; ``completion_count(0, n)`` is M_n, read from
``sequences.motzkin_numbers``. After a prefix at depth h with r symbols
still to come after the next one, the words that continue with '0', '('
or ')' form three consecutive blocks of ``completion_count(h, r)``,
``completion_count(h + 1, r)`` and ``completion_count(h - 1, r)`` words.
So an index is one block sum per symbol: '(' skips the '0' block, ')'
skips the '0' and '(' blocks, and '0' skips nothing. ``rank`` adds those
sums; ``unrank`` compares the offset left with the '0' block, then with
the '(' block, and takes ')' past both.

A walk of length n stands at depth h <= min(n - 1 - r, r + 1) when r
symbols follow and reads depths h and h + 1, so the table up to length N
keeps only the region r + h <= N, h <= r + 2, and only the depths up to
its depth bound D, the deepest h + 1 that any walk has read so far. D is
not an option: a walk that reads past it gets an IndexError, and the
table grows by one column per missed depth (``rank`` only after the
word is checked, to the word's deepest depth plus one; ``unrank`` one
column at a time, resuming its walk). Random words of length n reach
depths of order sqrt(n), so a table of N rows holds about N * D counts:
24 random words of length 400 left 16465 counts in 1.2 MB (tracemalloc),
where every depth takes 40801 counts in 2.9 MB.

The table is built down from the Motzkin numbers, by the recurrence
c(h + 1, r) = c(h, r + 1) - c(h, r) - c(h - 1, r) from c(0, r) = M_r:
a new length adds one diagonal r + h = N, a new depth one column. Both
check every pad entry, a count c(h, r) with h > r that would close more
than the symbols left can: it must come out 0, or InternalError is
raised and no row changes. So each grown row ties the triangle to the
Motzkin values, and where a row holds every depth it ends in two zeros;
every block either walk can reach reads as a number and a block no word
can take reads 0. ``rank`` checks the word in the same walk under one
rule: '0' and '(' must leave no more open than the rest can close, and
')' must close an open '('. A symbol outside the alphabet or one that
breaks the rule stops it, and ``validate`` then names the fault; a walk
that reaches the end is at depth 0. The table is built once per process
and only grows, and only for a word already checked, so a malformed
word builds no row or column; lengths above RANK_LIMIT raise
LimitExceededError, and ``unrank`` refuses an index of M_RANK_LIMIT or
more without building the table.
"""

import operator
import threading
from bisect import bisect_right
from collections.abc import Iterator
from itertools import accumulate
from operator import itemgetter

from . import sequences
from .errors import (
    BadSymbolError,
    InternalError,
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
_SYMBOL_RANK = {symbol: rank for rank, symbol in enumerate(SYMBOLS)}

EMPTY = "empty"
UNIQUE = "unique"
INHERITED = "inherited"

# Exhaustive enumeration is exponential in n. Streaming callers hold one
# block at a time, so this bound (853467 words of length 16) limits the
# list that enumerate_words returns and the run time of every listing.
ENUMERATION_LIMIT = 16

# The completion table stays for the life of the process. The deepest
# word of this length, "(" * 500 + ")" * 500, needs every depth and
# O(n^3) bits: 30 MB of table (tracemalloc; the process peaks at 45 MB).
# The shallow M_1000 - 1 needs 0.5 MB (14 MB of process).
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
        if symbol == OPEN:
            depth += 1
        elif symbol == CLOSE:
            if not depth:
                raise PrefixViolationError(f"prefix {text[: position + 1]!r} closes below depth zero")
            depth -= 1
        elif symbol != ZERO:
            raise BadSymbolError(f"symbol {symbol!r} at position {position}")
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
    # From a list, not a generator: tuple() guesses a generator's length,
    # and each resized tuple is parked in the interpreter's tuple free
    # lists, so repeated calls grow the process by hundreds of KB.
    return len(word), tuple([_SYMBOL_RANK[symbol] for symbol in word])


def _depth(rows: list[list[int]]) -> int:
    """D, the deepest depth that the table in ``rows`` holds. Row r holds
    min(r + 2, N - r, D) + 1 entries, and min(r + 2, N - r) peaks at row
    max(N - 2, 0) // 2, where it is never below a depth that a walk of
    length <= N reads."""
    return len(rows[max(len(rows) - 3, 0) // 2]) - 1


def _check_pad(h: int, r: int, count: int) -> None:
    """Raise InternalError unless the pad entry c(h, r), h > r, is 0: it
    counts the ways to close more parentheses than symbols are left."""
    if count:
        raise InternalError(f"c({h}, {r}) = {count}, not 0")


def _add_diagonal(rows: list[list[int]], top: int) -> None:
    """Grow the table in ``rows`` from length N = len(rows) - 1 to N + 1,
    in place, from ``top`` = M_(N+1): append c(h, N + 1 - h) to each row
    that holds depth h, then publish row N + 1 = [M_(N+1)].

    Down the diagonal r + h = N + 1 the recurrence reads
    c(h, r) = c(h - 1, r + 1) - c(h - 1, r) - c(h - 2, r): the entry one
    row up on the same diagonal, less the last two entries of row r, on
    diagonals N and N - 1 (row N holds only M_N; c(-1, N) is 0). It stops
    at the depth bound D <= (N + 2) // 2, so it holds at most one pad
    entry, c(r + 1, r). Every pad entry is checked before any row
    changes."""
    n = len(rows)
    counts = [top]
    for h in range(1, _depth(rows) + 1):
        row = rows[n - h]
        counts.append(counts[-1] - row[-1] - (row[-2] if h > 1 else 0))
    for h in range(n // 2 + 1, len(counts)):
        _check_pad(h, n - h, counts[h])
    for h in range(1, len(counts)):
        rows[n - h].append(counts[h])
    rows.append([top])


def _add_column(rows: list[list[int]], h: int) -> None:
    """Deepen the table in ``rows`` from depth bound h - 1 to h, in place:
    append c(h, r) to every row h - 2 <= r <= N - h, by the recurrence of
    ``_add_diagonal``. Each of those rows ends at depth h - 1, and so does
    the row above it. Every pad entry is checked before any row changes."""
    first = max(h - 2, 0)
    below = rows[first : len(rows) - h]
    counts = [above[-1] - row[-1] - (row[-2] if h > 1 else 0) for row, above in zip(below, rows[first + 1 :])]
    for r in range(first, min(h, first + len(counts))):
        _check_pad(h, r, counts[r - first])
    for row, count in zip(below, counts):
        row.append(count)


# The completion table up to length N = len(_ROWS) - 1 and depth bound
# D = _depth(_ROWS), shared by every call: row r is [c(0, r), c(1, r), ...]
# for h <= min(r + 2, N - r, D), so row N is [M_N]. A walk of length
# n <= N at row r stands at depth h <= min(n - 1 - r, r + 1) and reads
# c(h, r) and c(h + 1, r), inside the first two bounds; D is the deepest
# h + 1 that any walk has read, and a walk that needs more gets an
# IndexError and grows the table. Growth appends in place, only past
# every entry that a published length or depth can read, and appends row
# N + 1 last, so readers need no lock; growers hold _GROWING, one at a
# time.
_ROWS: list[list[int]] = [[1]]
_GROWING = threading.Lock()


def _completion_rows(length: int, depth: int = 0) -> list[list[int]]:
    """The completion table up to length ``length`` at least, and up to
    depth ``depth`` when one is given: rows r = 0..N, where rows[r][h]
    counts the ways to finish from h open parentheses in exactly r
    symbols, for h <= min(r + 2, N - r, D).

    Each new length starts from M_N, read from ``motzkin_numbers``. A
    depth is checked under the lock: a column is appended one row at a
    time, so only the lock tells a whole column from a growing one.
    Raises LimitExceededError for a length above RANK_LIMIT.
    """
    if length > RANK_LIMIT:
        raise LimitExceededError(f"length {length} exceeds the rank bound {RANK_LIMIT}")
    rows = _ROWS
    if len(rows) <= length or depth:
        with _GROWING:
            if len(rows) <= length:
                for top in sequences.motzkin_numbers(length)[len(rows) :]:
                    _add_diagonal(rows, top)
            for h in range(_depth(rows) + 1, depth + 1):
                _add_column(rows, h)
    return rows


def completion_count(depth: int, remaining: int) -> int:
    """Number of length-``remaining`` suffixes that close ``depth`` open
    parentheses and keep every prefix valid.

    ``completion_count(0, n)`` is the n-th Motzkin number, the table's
    seed. A depth above ``remaining`` counts 0 without reading the table.
    Otherwise a word that reaches this state has at least
    ``depth + remaining`` symbols: LimitExceededError is raised when that
    is above RANK_LIMIT, and else the table grows to that length and to
    ``depth`` if it must.
    """
    if depth < 0 or remaining < 0:
        raise ValueError("depth and remaining must be nonnegative")
    if depth > remaining:
        return 0
    return _completion_rows(depth + remaining, depth)[remaining][depth]


def word_blocks(n: int, kind: str = "all") -> Iterator[list[str]]:
    """The Motzkin words of length ``n`` in series order, as an iterator
    of nonempty lists of consecutive words; joined, the lists are
    ``enumerate_words(n, kind)``.

    The arguments are checked at call time, with the same errors as
    ``enumerate_words``.
    """
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


def _unique(word: str) -> None:
    """Raise NotUniqueError unless ``word`` is a unique Motzkin word,
    reporting the first fault from the left."""
    try:
        kind = classify(word)
    except MotzkinWordError as exc:
        raise NotUniqueError(f"not a Motzkin word: {exc}") from exc
    if kind != UNIQUE:
        raise NotUniqueError(f"{word!r} has no position in the series")


def _position(word: str, rows: list[list[int]]) -> int | None:
    """The lexicographic index of a word that starts with '0' or '(' among
    all words of its length, or None when the walk refuses the word.

    At each step, skip the blocks of the smaller symbols. The same walk
    checks the word: '0' and '(' must leave no more open than the rest can
    close, and ')' must close an open '('. So depth never exceeds the
    symbols left, every block read lies in its padded row up to the depth
    bound, and a walk that reaches the end is at depth 0. A read past the
    depth bound raises IndexError."""
    position = depth = 0
    for remaining, symbol in zip(range(len(word) - 1, -1, -1), word):
        if symbol == OPEN:
            if depth >= remaining:
                return None
            position += rows[remaining][depth]
            depth += 1
        elif symbol == CLOSE:
            if not depth:
                return None
            row = rows[remaining]
            position += row[depth] + row[depth + 1]
            depth -= 1
        elif symbol != ZERO or depth > remaining:
            return None
    return position


def rank(word: str) -> int:
    """Zero-based position of a unique word in the series.

    Raises NotUniqueError for the empty word, inherited words, and
    anything that is not a Motzkin word, then LimitExceededError for a
    word longer than RANK_LIMIT.
    """
    # Only a checked word may grow the table: a malformed word builds no
    # row or column, and its fault is reported before a length above
    # RANK_LIMIT.
    n = len(word)
    rows = _ROWS
    if n >= len(rows):
        _unique(word)
        rows = _completion_rows(n)
    if word == ZERO or word[:1] == OPEN:
        try:
            position = _position(word, rows)
        except IndexError:
            # The word reads past the depth bound: deepen the table to one
            # past the word's deepest depth and walk again.
            _unique(word)
            position = _position(word, _completion_rows(n, max(accumulate(map(_DELTA.get, word))) + 1))
        if position is not None:
            return position
    # On any fault, _unique names it.
    _unique(word)
    raise InternalError(f"rank refused the unique word {word!r}")


def unrank(index: int) -> str:
    """The unique word at ``index``; inverse of ``rank``.

    Raises TypeError for an index that is not an integer, and
    LimitExceededError when the word would be longer than RANK_LIMIT,
    that is for an index at or beyond M_RANK_LIMIT.
    """
    index = operator.index(index)
    if index < 0:
        raise ValueError("index must be nonnegative")

    # Indexes below completion_count(0, n) = M_n have length <= n. The
    # table grows to the length of an index it does not cover, found among
    # M_0..M_(b+1) for an index of b bits, since M_n >= 2^(n-1); an index
    # of M_RANK_LIMIT or more is refused before any row is built.
    rows = _ROWS
    if rows[-1][0] <= index:
        motzkin = sequences.motzkin_numbers(min(index.bit_length() + 1, RANK_LIMIT))
        if index >= motzkin[-1]:
            raise LimitExceededError(f"length {RANK_LIMIT + 1} exceeds the rank bound {RANK_LIMIT}")
        rows = _completion_rows(bisect_right(motzkin, index))
    n = bisect_right(rows, index, lo=1, key=itemgetter(0))

    # The series index is the lexicographic index among all n-words: at
    # each step, the offset falls in the '0' block, the '(' block or,
    # past both, the ')' block. A block that no word can take reads 0 in
    # the padded row, so the offset never falls in it. The walk has read
    # c(depth, r) one row up, so only c(depth + 1, r) can lie past the
    # depth bound: on that IndexError, the '0' block is given back and the
    # step runs again one column deeper. A column that still lacks the
    # count is a fault, not a reason to retry.
    offset = index
    symbols = []
    depth = 0
    remaining = n - 1
    while True:
        try:
            for remaining in range(remaining, -1, -1):
                row = rows[remaining]
                block = row[depth]
                if offset < block:
                    symbols.append(ZERO)
                    continue
                offset -= block
                block = row[depth + 1]
                if offset < block:
                    symbols.append(OPEN)
                    depth += 1
                    continue
                offset -= block
                symbols.append(CLOSE)
                depth -= 1
            return "".join(symbols)
        except IndexError:
            offset += block
            if len(_completion_rows(n, depth + 1)[remaining]) <= depth + 1:
                raise InternalError(f"the table holds no c({depth + 1}, {remaining})") from None
