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

The table is stored by columns: column h is [c(h, 0), ..., c(h, N - h)]
up to length N, so column 0 is M_0..M_N and a pad entry c(h, r) with
h > r, a count that would close more than the symbols left can, is
stored as the 0 it must be. A walk of length n stands at depth
h <= n - 1 - r when r symbols follow and reads depths h and h + 1, so
the table keeps only the region r + h <= N, and only the depths up to
its depth bound D = len(columns) - 1, the deepest h + 1 that any walk
has read so far. D is not an option: ``rank`` deepens the table once
for a word it has checked, to the word's deepest depth plus one, and
``unrank`` one column at a time as its walk reaches it. Random words of
length n reach depths of order sqrt(n), so a table of length N holds
about N * D counts: 24 random words of length 400 left 17411 counts in
1.2 MB (tracemalloc), where every depth takes 60701 counts in 3.0 MB.

One routine grows the table, down from the Motzkin numbers. It checks
once, under its lock, whether the published table covers the request,
and if so returns it unchanged. A growth in length takes column 0 whole
as ``sequences.motzkin_numbers`` returns it; every deeper column h
follows from columns h - 1 and h - 2 by the one rule
c(h, r) = c(h - 1, r + 1) - c(h - 1, r) - c(h - 2, r). It extends every
column to the new length, adds the missing depths, checks every pad
entry it built and only then publishes the new table whole, so a caller
holds either the old table or the new one. A pad that is not 0 raises
InternalError and publishes nothing. So each growth ties the table to
the Motzkin values; every block either walk can reach reads as a number
and a block no word can take reads 0. It is also the one place that
enforces RANK_LIMIT: a length above it raises LimitExceededError before
anything is built.

``rank`` has one path: walk, and on a refusal check, grow and walk
again. The walk checks the word as it ranks it, under one rule: '0' and
'(' must leave no more open than the rest can close, and ')' must close
an open '('. So a walk that reaches the end is at depth 0. It refuses a
symbol outside the alphabet or one that breaks the rule, a word longer
than the table, and a read past the depth bound. Only then is the word
classified, once, and ``validate`` names any fault; a unique word grows
the table once, to its length and its deepest depth plus one, and is
walked again. The table is built once per process and only grows, and
only for a word already checked, so a malformed word builds no length
or depth. ``unrank`` finds the length of an index among the Motzkin
numbers up to M_RANK_LIMIT, so an index of M_RANK_LIMIT or more asks
for length RANK_LIMIT + 1 and is refused before anything is built.
"""

import operator
import threading
from bisect import bisect_right
from collections.abc import Iterator
from itertools import accumulate, repeat

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
_SORTABLE = str.maketrans("".join(SYMBOLS), "012")  # series order as string order

EMPTY = "empty"
UNIQUE = "unique"
INHERITED = "inherited"

# Exhaustive enumeration is exponential in n. Streaming callers hold one
# block at a time, so this bound (853467 words of length 16) limits the
# list that enumerate_words returns and the run time of every listing.
ENUMERATION_LIMIT = 16

# The completion table stays for the life of the process. The deepest
# word of this length, "(" * 500 + ")" * 500, needs 502 columns and
# O(n^3) bits: 32 MB of table (tracemalloc; the process peaks at 46 MB).
# The shallow M_1000 - 1 needs three columns, 0.4 MB (15 MB of process).
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
    a, b = sort_key(first), sort_key(second)
    if a < b:
        return -1
    return 0 if a == b else 1


def sort_key(word: str):
    """Sorting key realizing the same order as ``compare``; raises what
    ``validate`` raises for a string that is not a Motzkin word."""
    return len(validate(word)), word.translate(_SORTABLE)


# The completion table up to length N = len(_COLUMNS[0]) - 1 and depth
# bound D = len(_COLUMNS) - 1, shared by every call: column h is
# [c(h, 0), ..., c(h, N - h)], so column 0 is M_0..M_N and the pad entries
# c(h, r) with h > r hold the zeros they must. A walk of length n <= N
# stands at depth h <= n - 1 - r when r symbols follow and reads c(h, r)
# and c(h + 1, r), both held once D >= h + 1; D is the deepest h + 1 that
# any walk has read. A published table never changes: _grow checks it and
# builds the next one whole, both under _GROWING, and then rebinds _COLUMNS,
# so a reader's snapshot is always a whole table and readers need no lock.
_COLUMNS: list[list[int]] = [[1]]
_GROWING = threading.Lock()


def _grow(length: int, depth: int = 0) -> list[list[int]]:
    """The completion table up to length ``length`` and depth ``depth`` at
    least: columns h = 0..D, where column h counts the ways to finish from
    h open parentheses in exactly r = 0..N - h symbols.

    One check, under _GROWING, returns the published table unchanged when
    it already covers the request. A growth in length takes column 0 whole
    from ``motzkin_numbers``; every column h >= 1 follows from columns
    h - 1 and h - 2 by c(h, r) =
    c(h - 1, r + 1) - c(h - 1, r) - c(h - 2, r). Each pad entry built,
    c(h, r) with h > r, counts the ways to close more parentheses than
    symbols are left, so it must be 0; otherwise InternalError is raised
    and nothing is published. A growth in length copies every column it
    extends, so growing a deep table one length at a time costs the whole
    table per step. Raises LimitExceededError for a length above
    RANK_LIMIT, before anything is built.
    """
    global _COLUMNS
    if length > RANK_LIMIT:
        raise LimitExceededError(f"length {length} exceeds the rank bound {RANK_LIMIT}")
    with _GROWING:
        columns = _COLUMNS
        if length < len(columns[0]) and depth < len(columns):
            return columns
        grown = [columns[0] if length < len(columns[0]) else sequences.motzkin_numbers(length)]
        n = len(grown[0]) - 1
        for h in range(1, max(depth, len(columns) - 1) + 1):
            column = columns[h] if h < len(columns) else []
            start = len(column)
            if start <= n - h:
                above = grown[h - 1][start:]
                below = grown[h - 2][start:] if h > 1 else repeat(0)
                column = column + [b - a - c for a, b, c in zip(above, above[1:], below)]
                for r in range(start, min(h, len(column))):
                    if column[r]:
                        raise InternalError(f"c({h}, {r}) = {column[r]}, not 0")
            grown.append(column)
        _COLUMNS = grown
    return grown


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
    return _grow(depth + remaining, depth)[depth][remaining]


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


def _position(word: str, columns: list[list[int]]) -> int | None:
    """The lexicographic index of a word that starts with '0' or '(' among
    all words of its length, or None when the walk cannot finish.

    At each step, skip the blocks of the smaller symbols. The same walk
    checks the word: '0' and '(' must leave no more open than the rest can
    close, and ')' must close an open '('. So a walk that reaches the end
    is at depth 0, and every block read lies in its column, pad zeros
    included, when the column is there. The walk refuses a symbol outside
    the alphabet or one that breaks the rule, a word longer than the table
    and a read past the depth bound."""
    if len(word) >= len(columns[0]):
        return None
    position = depth = 0
    try:
        for remaining, symbol in zip(range(len(word) - 1, -1, -1), word):
            if symbol == OPEN:
                if depth >= remaining:
                    return None
                position += columns[depth][remaining]
                depth += 1
            elif symbol == CLOSE:
                if not depth:
                    return None
                position += columns[depth][remaining] + columns[depth + 1][remaining]
                depth -= 1
            elif symbol != ZERO or depth > remaining:
                return None
    except IndexError:
        return None
    return position


def rank(word: str) -> int:
    """Zero-based position of a unique word in the series.

    Raises NotUniqueError for the empty word, inherited words, and
    anything that is not a Motzkin word, then LimitExceededError for a
    word longer than RANK_LIMIT.
    """
    position = _position(word, _COLUMNS) if word == ZERO or word[:1] == OPEN else None
    if position is None:
        # Only a checked word may grow the table: a malformed word builds
        # no length or depth, and its fault is reported before a length
        # above RANK_LIMIT.
        try:
            kind = classify(word)
        except MotzkinWordError as exc:
            raise NotUniqueError(f"not a Motzkin word: {exc}") from exc
        if kind != UNIQUE:
            raise NotUniqueError(f"{word!r} has no position in the series")
        position = _position(word, _grow(len(word), max(accumulate(map(_DELTA.get, word))) + 1))
        if position is None:
            raise InternalError(f"rank refused the unique word {word!r}")
    return position


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
    # M_0..M_(b+1) for an index of b bits, since M_n >= 2^(n-1), and to
    # depth 1, which the walk holds from its first step. Among
    # M_0..M_RANK_LIMIT, an index of M_RANK_LIMIT or more finds length
    # RANK_LIMIT + 1, which _grow refuses before it builds anything.
    columns = _COLUMNS
    if columns[0][-1] <= index or len(columns) < 2:
        motzkin = sequences.motzkin_numbers(min(index.bit_length() + 1, RANK_LIMIT))
        columns = _grow(bisect_right(motzkin, index), 1)
    n = bisect_right(columns[0], index, lo=1)

    # The series index is the lexicographic index among all n-words: at
    # each step, the offset falls in the '0' block of the column at the
    # current depth, the '(' block of the next column or, past both, the
    # ')' block. A block that no word can take reads 0, so the offset
    # never falls in it. The walk holds both columns, and the table
    # deepens when the walk enters the depth bound.
    offset = index
    symbols = []
    depth = 0
    here, deeper = columns[0], columns[1]
    for remaining in range(n - 1, -1, -1):
        block = here[remaining]
        if offset < block:
            symbols.append(ZERO)
            continue
        offset -= block
        block = deeper[remaining]
        if offset < block:
            symbols.append(OPEN)
            depth += 1
            if depth + 1 == len(columns):
                columns = _grow(n, depth + 1)
            here, deeper = deeper, columns[depth + 1]
            continue
        offset -= block
        symbols.append(CLOSE)
        depth -= 1
        here, deeper = columns[depth], here
    return "".join(symbols)
