"""Command line front end.

Every library operation is reachable from a subcommand, and ``verify``
cross-checks the independent computation routes against each other.
Output is plain newline-terminated text, deterministic for identical
invocations, and integers print in full at any size. Exit status: 0
success, 1 usage or input error, or a reader that closed the output
pipe early (silently), 2 when ``verify`` reports any FAIL line, 3 when
an internal invariant fails (``error: INTERNAL: ...`` or
``error: DEGENERATE: ...``).
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Iterator

from .errors import InternalError, MotzkinError

# Above this length the verify census would enumerate millions of words;
# checks that need exhaustive listings are capped here.
CENSUS_LIMIT = 14
ROUNDTRIP_LIMIT = 10

# CLI flag -> library method, per target; each target's first flag is
# its default.
_SERIES_METHODS = {
    "motzkin": {"functional": "functional", "closed": "closed_form"},
    "nat": {"product": "product", "linear": "linear"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motzkin",
        description="Motzkin words, their counting sequences, and generating functions, all in exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("numbers", help="print the Motzkin numbers M_0..M_N")
    p.add_argument("--max", type=int, required=True, metavar="N")
    p.add_argument("--bfile", action="store_true", help="print 'n value' pairs (b-file format)")
    p.set_defaults(handler=_cmd_numbers)

    p = sub.add_parser("diff", help="print the difference numbers U_0..U_N")
    p.add_argument("--max", type=int, required=True, metavar="N")
    p.add_argument("--method", choices=("subtraction", "convolution"), default="subtraction")
    p.add_argument("--bfile", action="store_true", help="print 'n value' pairs (b-file format)")
    p.set_defaults(handler=_cmd_diff)

    p = sub.add_parser("enumerate", help="list all Motzkin words of one length in series order")
    p.add_argument("--length", type=int, required=True, metavar="N")
    p.add_argument("--filter", choices=("all", "unique", "inherited"), default="all")
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("rank", help="position of a unique word in the series")
    p.add_argument("--word", required=True, metavar="W")
    p.set_defaults(handler=_cmd_rank)

    p = sub.add_parser("unrank", help="series element at an index")
    p.add_argument("--index", type=int, required=True, metavar="I")
    p.set_defaults(handler=_cmd_unrank)

    p = sub.add_parser("series", help="generating function coefficients 0..N")
    p.add_argument("--target", choices=("motzkin", "nat"), required=True)
    p.add_argument("--order", type=int, required=True, metavar="N")
    p.add_argument("--method", choices=[flag for methods in _SERIES_METHODS.values() for flag in methods])
    p.set_defaults(handler=_cmd_series)

    p = sub.add_parser("symdiff", help="difference numbers via the symbolic derivative cycle")
    p.add_argument("--max", type=int, required=True, metavar="K")
    p.set_defaults(handler=_cmd_symdiff)

    p = sub.add_parser(
        "verify",
        help="cross-check all computation routes; census and round-trip "
        f"checks are capped at lengths {CENSUS_LIMIT} and {ROUNDTRIP_LIMIT}",
    )
    p.add_argument("--max", type=int, default=12, metavar="N")
    p.set_defaults(handler=_cmd_verify)

    return parser


def _print_table(values: list[int], bfile: bool) -> None:
    for n, value in enumerate(values):
        print(f"{n} {value}" if bfile else value)


# Each handler imports only the module it runs, so a process loads no
# more of the package than its subcommand needs.
def _cmd_numbers(args: argparse.Namespace) -> int:
    from . import sequences

    _print_table(sequences.motzkin_numbers(args.max), args.bfile)
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    from . import sequences

    _print_table(sequences.difference_numbers(args.max, args.method), args.bfile)
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    # One write per block, to the stdout of the moment (it may be
    # redirected after import); the listing is never held whole.
    from . import words

    count = 0
    for block in words.word_blocks(args.length, args.filter):
        sys.stdout.write("\n".join(block) + "\n")
        count += len(block)
    print(f"count={count}")
    return 0


def _cmd_rank(args: argparse.Namespace) -> int:
    from . import words

    print(words.rank(args.word))
    return 0


def _cmd_unrank(args: argparse.Namespace) -> int:
    from . import words

    print(words.unrank(args.index))
    return 0


def _cmd_series(args: argparse.Namespace) -> int:
    from . import series

    methods = _SERIES_METHODS[args.target]
    flag = args.method or next(iter(methods))
    if flag not in methods:
        raise ValueError(f"method '{flag}' does not apply to target '{args.target}'")
    # Looked up per call, so a rebound module attribute is what runs.
    build = series.motzkin_series if args.target == "motzkin" else series.nat_series
    _print_table(build(args.order, methods[flag]).integer_coefficients(), False)
    return 0


def _cmd_symdiff(args: argparse.Namespace) -> int:
    from . import symdiff

    _print_table(symdiff.nat_coefficients(args.max), False)
    return 0


def verification_checks(max_n: int) -> Iterator[tuple[str, bool, str]]:
    """Yield (name, passed, detail) for the full cross-check matrix."""
    from . import sequences, series, symdiff, words

    motzkin = sequences.motzkin_numbers(max_n)
    diff_sub = sequences.difference_numbers(max_n, "subtraction")
    diff_conv = sequences.difference_numbers(max_n, "convolution")
    functional = series.motzkin_series(max_n, "functional").integer_coefficients()
    closed = series.motzkin_series(max_n, "closed_form").integer_coefficients()
    nat_product = series.nat_series(max_n, "product").integer_coefficients()
    nat_linear = series.nat_series(max_n, "linear").integer_coefficients()
    cycle = symdiff.nat_coefficients(max_n)

    span = f"n <= {max_n}"
    yield "motzkin-recurrence-vs-functional-series", motzkin == functional, span
    yield "motzkin-functional-vs-closed-form", functional == closed, span
    yield "difference-subtraction-vs-convolution", diff_sub == diff_conv, span
    yield "nat-product-vs-linear", nat_product == nat_linear, span
    yield "nat-series-vs-difference-table", nat_product == diff_sub, span
    yield "symdiff-vs-difference-table", cycle == diff_sub, span

    # Word counts per filter at each of the census's `size` lengths,
    # 0..min(max_n, CENSUS_LIMIT). No word shorter than 2 is inherited;
    # at n >= 2 the inherited words are '0' and a word of length n - 1.
    size = min(max_n, CENSUS_LIMIT) + 1
    counts = {kind: [sum(map(len, words.word_blocks(n, kind))) for n in range(size)] for kind in words.FILTERS}
    census_span = f"n <= {size - 1}"
    yield "census-all-vs-motzkin-table", counts["all"] == motzkin[:size], census_span
    yield "census-unique-vs-difference-table", counts["unique"] == diff_sub[:size], census_span
    yield "census-inherited-vs-shifted-motzkin", counts["inherited"] == [0, 0, *motzkin[1:]][:size], census_span

    roundtrip_max = min(max_n, ROUNDTRIP_LIMIT)
    roundtrip_ok = order_ok = True
    index = 0
    # The empty word sorts before every word of length 1. Each pair is
    # compared both ways and each word with itself, so a constant or
    # one-sided compare fails the line.
    previous = ""
    for n in range(1, roundtrip_max + 1):
        for word in words.enumerate_words(n, "unique"):
            roundtrip_ok &= words.rank(word) == index and words.unrank(index) == word
            signs = words.compare(previous, word), words.compare(word, previous), words.compare(word, word)
            order_ok &= signs == (-1, 1, 0)
            previous = word
            index += 1
    roundtrip_span = f"lengths <= {roundtrip_max}, {index} words"
    yield "rank-unrank-roundtrip", roundtrip_ok, roundtrip_span
    yield "unrank-order-coherence", order_ok, roundtrip_span


def _cmd_verify(args: argparse.Namespace) -> int:
    failed = False
    for name, ok, detail in verification_checks(args.max):
        print(f"{'PASS' if ok else 'FAIL'} {name} ({detail})")
        failed |= not ok
    return 2 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    # M_9025 is the first Motzkin number with more than 4300 digits, the
    # interpreter's default int-to-str limit. Lift it for the handler
    # only: --index above was parsed under it, and in-process callers
    # get theirs back.
    lift = hasattr(sys, "set_int_max_str_digits")
    if lift:
        digit_limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        status = args.handler(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader is gone (``| head``). Point stdout at devnull so the
        # interpreter's flush at exit has nowhere to fail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (MotzkinError, ValueError) as exc:
        code = getattr(exc, "code", "USAGE")
        print(f"error: {code}: {exc}", file=sys.stderr)
        return 1
    except InternalError as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return 3
    finally:
        if lift:
            sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
