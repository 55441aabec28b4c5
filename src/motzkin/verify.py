"""The cross-check matrix that ``motzkin verify`` prints.

Each line compares two *sides*: callables that take no argument and
return, or yield, the same entries when the two routes agree. ``_lines``
declares every line once, as its name, its two sides and its span.
``verification_checks`` runs them in that order, and
``tests/test_independence.py`` runs the same sides one at a time to
audit which package functions the two sides of each line share.

Both sides of a line run in full, with no short cut, so a fault late
in either still raises. A side looks each library function up through
its module when it runs, so a patched module attribute is what runs.
Only the ``verify`` subcommand loads this module, and ``cli.build_parser``
for the caps in its help.
"""

from collections.abc import Iterator
from functools import cache
from itertools import chain, pairwise, repeat, zip_longest

# Above this length the verify census would enumerate millions of words;
# checks that need exhaustive listings are capped here.
CENSUS_LIMIT = 14
ROUNDTRIP_LIMIT = 10


def _lines(max_n: int) -> Iterator[tuple]:
    """Yield (name, left side, right side, span) for every line, in print
    order.

    Each call declares fresh sides. A table that several lines read is
    built once per declaration, by the first side that reads it. A span
    may name ``{count}``, the number of entries the line compared.
    """
    # Without a bytecode cache each module is compiled as it loads, and the
    # process's memory peak is the largest compile plus what is already
    # loaded. symdiff's compile is the largest, so it loads first.
    from . import symdiff
    from . import ranking, sequences, series, words

    def ints(build, method):
        return build(max_n, method).integer_coefficients()

    # M_0..M_max_n, U_0..U_max_n and the two series that two lines read each.
    m = cache(lambda: sequences.motzkin_numbers(max_n))
    u = cache(lambda: sequences.difference_numbers(max_n, "subtraction"))
    functional = cache(lambda: ints(series.motzkin_series, "functional"))
    nat = cache(lambda: ints(series.nat_series, "product"))
    span = f"n <= {max_n}"

    # Word counts per filter at each of the census's `size` lengths,
    # 0..min(max_n, CENSUS_LIMIT). No word shorter than 2 is inherited;
    # at n >= 2 the inherited words are '0' and a word of length n - 1.
    size = min(max_n, CENSUS_LIMIT) + 1
    census_span = f"n <= {size - 1}"

    def census(kind):
        return lambda: [sum(map(len, words.word_blocks(n, kind))) for n in range(size)]

    # The unique words up to length `roundtrip_max`, in series order. Each
    # left side streams the listing, one block at a time; each right side
    # reads only the index range, so the two sides share no package function.
    roundtrip_max = min(max_n, ROUNDTRIP_LIMIT)
    roundtrip_span = f"lengths <= {roundtrip_max}, {{count}} words"

    def listing():
        blocks = (block for n in range(1, roundtrip_max + 1) for block in words.word_blocks(n, "unique"))
        return chain.from_iterable(blocks)

    # U_1 + ... + U_roundtrip_max, the number of unique words that the
    # listing must hold.
    def count():
        return sum(u()[1 : roundtrip_max + 1])

    def walks():
        # unrank(i) == listed[i] and rank(unrank(i)) == i together say
        # rank(listed[i]) == i.
        return ((ranking.rank(word), word) for word in map(ranking.unrank, range(count())))

    def order_signs():
        # The empty word sorts before every word of length 1. Each pair is
        # compared both ways and each word with itself, so a constant or
        # one-sided compare fails the line.
        pairs = pairwise(chain([""], listing()))
        return ((words.compare(a, b), words.compare(b, a), words.compare(b, b)) for a, b in pairs)

    yield "motzkin-recurrence-vs-functional-series", m, functional, span
    yield "motzkin-functional-vs-closed-form", functional, lambda: ints(series.motzkin_series, "closed_form"), span
    yield "difference-subtraction-vs-convolution", u, lambda: sequences.difference_numbers(max_n, "convolution"), span
    yield "nat-product-vs-linear", nat, lambda: ints(series.nat_series, "linear"), span
    yield "nat-series-vs-difference-table", nat, u, span
    yield "symdiff-vs-difference-table", lambda: symdiff.nat_coefficients(max_n), u, span
    yield "census-all-vs-motzkin-table", census("all"), lambda: m()[:size], census_span
    yield "census-unique-vs-difference-table", census("unique"), lambda: u()[:size], census_span
    yield "census-inherited-vs-shifted-motzkin", census("inherited"), lambda: [0, 0, *m()[1:]][:size], census_span
    yield "rank-unrank-roundtrip", lambda: enumerate(listing()), walks, roundtrip_span
    yield "unrank-order-coherence", order_signs, lambda: repeat((-1, 1, 0), count()), roundtrip_span


def verification_checks(max_n: int) -> Iterator[tuple[str, bool, str]]:
    """Yield (name, passed, detail) for each line of the matrix."""
    for name, left, right, span in _lines(max_n):
        passed, count = True, 0
        # Both sides run to their end; one that ends first fails the line.
        for count, (x, y) in enumerate(zip_longest(left(), right(), fillvalue=object()), 1):
            passed &= x == y
        yield name, passed, span.format(count=count)
