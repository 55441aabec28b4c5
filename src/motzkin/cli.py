"""Command line front end.

Every library operation is reachable from a subcommand, and ``verify``
cross-checks the independent computation routes against each other.
Output is plain newline-terminated text, deterministic for identical
invocations, and integers print in full at any size. Exit status: 0
success, 1 usage or input error, or a reader that closed the output
pipe early (silently), 2 when ``verify`` reports any FAIL line, 3 when
an internal invariant fails (``error: INTERNAL: ...`` or
``error: DEGENERATE: ...``).

Every call is a new process, so start and exit are paid per request.
``_COMMANDS`` declares each subcommand's flags once. ``main`` reads a
plain command line, a subcommand and then each of its flags spelled in
full at most once with a valid value, straight from that table, without
loading argparse. Any other line (help, an abbreviation, ``--flag=value``,
a repeat, a bad value or a missing flag) goes to ``build_parser``, the
argparse tree built from the same table, so help and usage errors read
as they always have. ``main`` returns the exit status; ``run``, the
entry point of the ``motzkin`` script and of ``python -m motzkin.cli``,
then runs the ``atexit`` handlers, flushes both streams and ends the
process with ``os._exit``, skipping the interpreter's teardown.
"""

import atexit
import os
import sys
from collections.abc import Iterator
from types import SimpleNamespace

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


def _print_table(values: list[int], bfile: bool) -> None:
    for n, value in enumerate(values):
        print(f"{n} {value}" if bfile else value)


# Each handler imports only the module it runs, so a process loads no
# more of the package than its subcommand needs.
def _cmd_numbers(args: SimpleNamespace) -> int:
    from . import sequences

    _print_table(sequences.motzkin_numbers(args.max), args.bfile)
    return 0


def _cmd_diff(args: SimpleNamespace) -> int:
    from . import sequences

    _print_table(sequences.difference_numbers(args.max, args.method), args.bfile)
    return 0


def _cmd_enumerate(args: SimpleNamespace) -> int:
    # One write per block, to the stdout of the moment (it may be
    # redirected after import); the listing is never held whole.
    from . import words

    count = 0
    for block in words.word_blocks(args.length, args.filter):
        sys.stdout.write("\n".join(block) + "\n")
        count += len(block)
    print(f"count={count}")
    return 0


def _cmd_rank(args: SimpleNamespace) -> int:
    from . import ranking

    print(ranking.rank(args.word))
    return 0


def _cmd_unrank(args: SimpleNamespace) -> int:
    from . import ranking

    print(ranking.unrank(args.index))
    return 0


def _cmd_series(args: SimpleNamespace) -> int:
    from . import series

    methods = _SERIES_METHODS[args.target]
    flag = args.method or next(iter(methods))
    if flag not in methods:
        raise ValueError(f"method '{flag}' does not apply to target '{args.target}'")
    # Looked up per call, so a rebound module attribute is what runs.
    build = series.motzkin_series if args.target == "motzkin" else series.nat_series
    _print_table(build(args.order, methods[flag]).integer_coefficients(), False)
    return 0


def _cmd_symdiff(args: SimpleNamespace) -> int:
    from . import symdiff

    _print_table(symdiff.nat_coefficients(args.max), False)
    return 0


def verification_checks(max_n: int) -> Iterator[tuple[str, bool, str]]:
    """Yield (name, passed, detail) for the full cross-check matrix."""
    from . import ranking, sequences, series, symdiff, words

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
            roundtrip_ok &= ranking.rank(word) == index and ranking.unrank(index) == word
            signs = words.compare(previous, word), words.compare(word, previous), words.compare(word, word)
            order_ok &= signs == (-1, 1, 0)
            previous = word
            index += 1
    roundtrip_span = f"lengths <= {roundtrip_max}, {index} words"
    yield "rank-unrank-roundtrip", roundtrip_ok, roundtrip_span
    yield "unrank-order-coherence", order_ok, roundtrip_span


def _cmd_verify(args: SimpleNamespace) -> int:
    failed = False
    for name, ok, detail in verification_checks(args.max):
        print(f"{'PASS' if ok else 'FAIL'} {name} ({detail})")
        failed |= not ok
    return 2 if failed else 0


_BFILE = {"action": "store_true", "default": False, "help": "print 'n value' pairs (b-file format)"}

# Subcommand -> (handler, help, flags), in the order --help lists them.
# Each flag maps to the keyword arguments of ``add_argument``; the plain
# parser reads the same table, so the two cannot disagree on a flag.
_COMMANDS = {
    "numbers": (
        _cmd_numbers,
        "print the Motzkin numbers M_0..M_N",
        {"--max": {"type": int, "required": True, "metavar": "N"}, "--bfile": _BFILE},
    ),
    "diff": (
        _cmd_diff,
        "print the difference numbers U_0..U_N",
        {
            "--max": {"type": int, "required": True, "metavar": "N"},
            "--method": {"choices": ("subtraction", "convolution"), "default": "subtraction"},
            "--bfile": _BFILE,
        },
    ),
    "enumerate": (
        _cmd_enumerate,
        "list all Motzkin words of one length in series order",
        {
            "--length": {"type": int, "required": True, "metavar": "N"},
            "--filter": {"choices": ("all", "unique", "inherited"), "default": "all"},
        },
    ),
    "rank": (_cmd_rank, "position of a unique word in the series", {"--word": {"required": True, "metavar": "W"}}),
    "unrank": (_cmd_unrank, "series element at an index", {"--index": {"type": int, "required": True, "metavar": "I"}}),
    "series": (
        _cmd_series,
        "generating function coefficients 0..N",
        {
            "--target": {"choices": ("motzkin", "nat"), "required": True},
            "--order": {"type": int, "required": True, "metavar": "N"},
            "--method": {"choices": [flag for methods in _SERIES_METHODS.values() for flag in methods]},
        },
    ),
    "symdiff": (
        _cmd_symdiff,
        "difference numbers via the symbolic derivative cycle",
        {"--max": {"type": int, "required": True, "metavar": "K"}},
    ),
    "verify": (
        _cmd_verify,
        "cross-check all computation routes; census and round-trip "
        f"checks are capped at lengths {CENSUS_LIMIT} and {ROUNDTRIP_LIMIT}",
        {"--max": {"type": int, "default": 12, "metavar": "N"}},
    ),
}


def build_parser():
    """The argparse tree of every subcommand, built from ``_COMMANDS``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="motzkin",
        description="Motzkin words, their counting sequences, and generating functions, all in exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for flag, spec in flags.items():
            command.add_argument(flag, **spec)
    return parser


def _plain_fields(argv: list[str]) -> dict | None:
    """The parsed fields of a plain command line, as argparse would give
    them, or None to leave the line to argparse.

    A plain line is a subcommand, then each of its flags spelled in full
    at most once, each flag that takes a value followed by one that does
    not start with '-' unless it is a negative integer, and every value
    of the right type and among the choices, with no required flag
    missing. Anything else, such as help, an abbreviation, a
    ``--flag=value`` or a repeated flag, is declined, so that argparse
    handles and reports it as before.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    flags = _COMMANDS[argv[0]][2]
    fields = {"command": argv[0]}
    tokens = iter(argv[1:])
    for flag in tokens:
        spec = flags.get(flag)
        dest = flag[2:]
        if spec is None or dest in fields:
            return None
        if spec.get("action") == "store_true":
            fields[dest] = True
            continue
        value = next(tokens, None)
        if value is None or value.startswith("-") and not (value[1:].isascii() and value[1:].isdigit()):
            return None
        if "type" in spec:
            try:
                value = spec["type"](value)
            except ValueError:
                return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        fields[dest] = value
    for flag, spec in flags.items():
        dest = flag[2:]
        if dest not in fields:
            if spec.get("required"):
                return None
            fields[dest] = spec.get("default")
    return fields


def main(argv: list[str] | None = None) -> int:
    """Run one command line (default ``sys.argv[1:]``); return its exit status."""
    argv = sys.argv[1:] if argv is None else list(argv)
    fields = _plain_fields(argv)
    if fields is None:
        try:
            fields = vars(build_parser().parse_args(argv))
        except SystemExit as exc:
            return 0 if exc.code in (0, None) else 1
    handler = _COMMANDS[fields["command"]][0]
    # M_9025 is the first Motzkin number with more than 4300 digits, the
    # interpreter's default int-to-str limit. Lift it for the handler
    # only: --index above was parsed under it, and in-process callers
    # get theirs back.
    lift = hasattr(sys, "set_int_max_str_digits")
    if lift:
        digit_limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        status = handler(SimpleNamespace(**fields))
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader is gone (``| head``). Point stdout at devnull so the
        # flush at exit has nowhere to fail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (MotzkinError, ValueError, InternalError) as exc:
        print(f"error: {getattr(exc, 'code', 'USAGE')}: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, InternalError) else 1
    finally:
        if lift:
            sys.set_int_max_str_digits(digit_limit)


def run() -> None:
    """Entry point of the ``motzkin`` script and of ``python -m motzkin.cli``.

    Runs ``main()``, then the ``atexit`` handlers, flushes stdout and
    stderr and ends the process with ``os._exit``, skipping the
    interpreter's teardown of every module, which a short-lived process
    does not need. If a flush fails, the process exits through
    ``sys.exit`` instead, as it did before, so the interpreter reports it.
    """
    status = main()
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError, AttributeError):
        # A reader that is gone, a closed stream, or none at all (None
        # when the process started without that descriptor).
        sys.exit(status)
    os._exit(status)


if __name__ == "__main__":
    run()
