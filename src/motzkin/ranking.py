"""The completion-count table of Motzkin words and the rank/unrank walks
over it: the second route to the series that ``motzkin.words`` lists.

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
its depth bound D = len(columns) - 1. Three rules hold the table, and
each is stated here only:

- D is the deepest h + 1 that any walk has read, and at least 1: the
  table starts at length 0 with columns 0 and 1, which both walks read
  from their first step. D is not an option: ``rank`` deepens the table
  once for a word it has checked, to the word's deepest depth plus one,
  and ``unrank`` one column at a time as its walk reaches it.
- A malformed word builds no length or depth: the table is built once
  per process and only grows, and only for a word already checked.
- ``_grow``, the one routine that builds the table, is the only check of
  RANK_LIMIT. On a warm table the rank walk's length check guards it:
  without it, a word one symbol longer than the table would walk inside
  it and never reach ``_grow``.

Random words of length n reach depths of order sqrt(n), so a table of
length N holds about N * D counts: 24 random words of length 400 left
17411 counts in 1.2 MB (tracemalloc), where every depth takes 60701
counts in 3.0 MB.

``rank`` has one path: walk, and on a refusal check, grow and walk
again. The walk checks the word as it ranks it, under one rule, the one
``validate`` enforces: every symbol is in the alphabet, ')' closes an
open '(', and the word ends at depth 0. Beside the words that break the
rule it refuses what the table cannot reach: a word longer than the
table and a read past the depth bound. Only then is the word checked,
once: ``validate`` names any fault, and a valid word that is not "0"
and does not start with '(' has no position. A unique word grows the
table once, to its length and its deepest depth plus one, and is walked
again. ``unrank`` finds the length of an index on the stream of Motzkin
numbers up to M_RANK_LIMIT, which holds no table, so an index of
M_RANK_LIMIT or more asks for length RANK_LIMIT + 1 and is refused before
anything is built.

``validate`` is defined here beside the alphabet it checks, and
``motzkin.words`` binds both, so this module imports nothing of the
listing.
"""

import operator
import threading
from bisect import bisect_right
from itertools import accumulate, repeat

from . import sequences
from .errors import BadSymbolError, PrefixViolationError, UnbalancedError  # the faults validate names
from .errors import InternalError, LimitExceededError, MotzkinWordError, NotUniqueError

# The alphabet both walks read, and below it the word check. ``words``
# binds all four from here, so each is defined once; the listing reads
# nothing else of this module.
ZERO = "0"
OPEN = "("
CLOSE = ")"


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


# The completion table stays for the life of the process. The deepest
# word of this length, "(" * 500 + ")" * 500, needs 502 columns and
# O(n^3) bits: 32 MB of table (tracemalloc; the process peaks at 46 MB).
# The shallow M_1000 - 1 needs three columns, 0.4 MB (15 MB of process).
RANK_LIMIT = 1000

# The completion table up to length N = len(_COLUMNS[0]) - 1 and depth
# bound D = len(_COLUMNS) - 1, shared by every call; it starts at length 0
# with D = 1. Only _grow rebinds it, to a whole new table, and no published
# table changes, so a reader's snapshot is always a whole table and
# readers need no lock.
_COLUMNS: list[list[int]] = [[1], []]
_GROWING = threading.Lock()


def _grow(length: int, depth: int = 0) -> list[list[int]]:
    """The completion table up to length ``length`` and depth ``depth`` at
    least: columns h = 0..D, where column h counts the ways to finish from
    h open parentheses in exactly r = 0..N - h symbols.

    One check, under _GROWING, returns the published table unchanged when
    it already covers the request. A growth in length takes column 0 whole
    from ``sequences.motzkin_numbers``; every column h >= 1 follows from
    columns h - 1 and h - 2 by c(h, r) =
    c(h - 1, r + 1) - c(h - 1, r) - c(h - 2, r). The growth extends every
    column to the new length and adds the missing depths. Each pad entry
    built, c(h, r) with h > r, counts the ways to close more parentheses
    than symbols are left, so it must be 0; otherwise InternalError is
    raised and nothing is published. Only then is the new table published
    whole, still under _GROWING, so a caller holds either the old table
    or the new one. A growth in length copies every column it extends,
    so growing a deep table one length at a time costs the whole table
    per step. Raises LimitExceededError for a length above RANK_LIMIT,
    before anything is built.
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
    ``depth`` if it must. Raises TypeError for an argument that is not an
    integer, and ValueError for a negative depth or remaining.
    """
    depth, remaining = operator.index(depth), operator.index(remaining)
    if depth < 0 or remaining < 0:
        raise ValueError("depth and remaining must be nonnegative")
    if depth > remaining:
        return 0
    return _grow(depth + remaining, depth)[depth][remaining]


def _position(word: str, columns: list[list[int]]) -> int | None:
    """The lexicographic index of a word that starts with '0' or '(' among
    all words of its length, or None when the walk cannot finish.

    At each step, skip the blocks of the smaller symbols. The same walk
    checks the word under ``validate``'s rule. The depth never exceeds the
    symbols read, so in a word no longer than the table every block read
    lies in its column, pad zeros included, when the column is there. The
    walk refuses a word that breaks the rule, a word longer than the table
    and a read past the depth bound."""
    if len(word) >= len(columns[0]):
        return None
    position = depth = 0
    try:
        for remaining, symbol in zip(range(len(word) - 1, -1, -1), word):
            if symbol == OPEN:
                position += columns[depth][remaining]
                depth += 1
            elif symbol == CLOSE:
                if not depth:
                    return None
                position += columns[depth][remaining] + columns[depth + 1][remaining]
                depth -= 1
            elif symbol != ZERO:
                return None
    except IndexError:
        return None
    return None if depth else position


def rank(word: str) -> int:
    """Zero-based position of a unique word in the series.

    Raises NotUniqueError for the empty word, inherited words, and
    anything that is not a Motzkin word, then LimitExceededError for a
    word longer than RANK_LIMIT.
    """
    unique = word == ZERO or word[:1] == OPEN
    position = _position(word, _COLUMNS) if unique else None
    if position is None:
        try:
            validate(word)
        except MotzkinWordError as exc:
            raise NotUniqueError(f"not a Motzkin word: {exc}") from exc
        if not unique:
            raise NotUniqueError(f"{word!r} has no position in the series")
        deepest = max(accumulate((symbol == OPEN) - (symbol == CLOSE) for symbol in word))
        position = _position(word, _grow(len(word), deepest + 1))
        if position is None:
            raise InternalError(f"rank refused the unique word {word!r}")
    return position


def unrank(index: int) -> str:
    """The unique word at ``index``; inverse of ``rank``.

    Raises TypeError for an index that is not an integer, ValueError for
    a negative index, and LimitExceededError when the word would be
    longer than RANK_LIMIT, that is for an index at or beyond
    M_RANK_LIMIT.
    """
    index = operator.index(index)
    if index < 0:
        raise ValueError("index must be nonnegative")

    # Indexes below completion_count(0, n) = M_n have length <= n. The
    # table grows to the length of an index it does not cover: the first
    # n with M_n > index, read off the stream of Motzkin numbers, or
    # RANK_LIMIT + 1, which _grow refuses.
    columns = _COLUMNS
    if columns[0][-1] <= index:
        motzkin = enumerate(sequences.motzkin_stream(RANK_LIMIT))
        columns = _grow(next((n for n, m in motzkin if m > index), RANK_LIMIT + 1))
    n = bisect_right(columns[0], index, lo=1)

    # The series index is the lexicographic index among all n-words: at
    # each step, the offset falls in the '0' block of the column at the
    # current depth, the '(' block of the next column or, past both, the
    # ')' block. A block that no word can take reads 0, so the offset
    # never falls in it. The walk holds both columns.
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
