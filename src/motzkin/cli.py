"""Command line front end.

Every library operation is reachable from a subcommand, and ``verify``
cross-checks the independent computation routes against each other.
Output is plain newline-terminated text, deterministic for identical
invocations, and integers print in full at any size. Exit status: 0
success, 1 usage or input error, a reader that closed the output pipe
early (silently) or output that could not be written (``error: OUTPUT:
...``, such as a full device), 2 when ``verify`` reports any FAIL line,
3 when an internal invariant fails (``error: INTERNAL: ...`` or
``error: DEGENERATE: ...``). A process started without stdout or
stderr writes nothing in place of the missing stream and keeps its
status.

Every call is a new process, so start and exit are paid per request.
``_COMMANDS`` declares each subcommand's flags once. ``main`` reads a
plain command line, a subcommand and then each of its flags spelled in
full at most once with a valid value, straight from that table, without
loading argparse. Any other line (help, an abbreviation, ``--flag=value``,
a repeat, a bad value or a missing flag) goes to ``build_parser``, the
argparse tree built from the same table, so help and usage errors are
argparse's own. A handler only computes and writes: it returns nothing,
or 2 from ``verify`` for a FAIL line. ``main`` alone turns that, and what
a handler raises, into the exit status it returns; ``run``, the
entry point of the ``motzkin`` script and of ``python -m motzkin.cli``,
then runs the ``atexit`` handlers, flushes both streams and ends the
process with ``os._exit``, skipping the interpreter's teardown.
"""

import atexit
import os
import sys
from collections.abc import Iterable, Iterator
from types import SimpleNamespace

from .errors import InternalError, MotzkinError

# CLI flag -> library method, per target; each target's first flag is
# its default.
_SERIES_METHODS = {
    "motzkin": {"functional": "functional", "closed": "closed_form"},
    "nat": {"product": "product", "linear": "linear"},
}


def _print_table(values: Iterable[int], bfile: bool = False) -> None:
    # One write per line, to the stdout of the moment: print makes two,
    # the value and then the newline, each a system call when unbuffered.
    for n, value in enumerate(values):
        sys.stdout.write(f"{n} {value}\n" if bfile else f"{value}\n")


# Each handler imports only the module it runs, so a process loads no
# more of the package than its subcommand needs.
def _cmd_numbers(args: SimpleNamespace) -> None:
    from . import sequences

    _print_table(sequences.motzkin_stream(args.max), args.bfile)


def _cmd_diff(args: SimpleNamespace) -> None:
    from . import sequences

    _print_table(sequences.difference_numbers(args.max, args.method), args.bfile)


def _cmd_enumerate(args: SimpleNamespace) -> None:
    # One write per block, to the stdout of the moment (it may be
    # redirected after import); the listing is never held whole.
    from . import words

    count = 0
    for block in words.word_blocks(args.length, args.filter):
        sys.stdout.write("\n".join(block) + "\n")
        count += len(block)
    print(f"count={count}")


def _cmd_rank(args: SimpleNamespace) -> None:
    from . import ranking

    print(ranking.rank(args.word))


def _cmd_unrank(args: SimpleNamespace) -> None:
    from . import ranking

    print(ranking.unrank(args.index))


def _cmd_series(args: SimpleNamespace) -> None:
    from . import series

    methods = _SERIES_METHODS[args.target]
    flag = args.method or next(iter(methods))
    if flag not in methods:
        raise ValueError(f"method '{flag}' does not apply to target '{args.target}'")
    # Looked up per call, so a rebound module attribute is what runs.
    build = series.motzkin_series if args.target == "motzkin" else series.nat_series
    _print_table(build(args.order, methods[flag]).integer_coefficients())


def _cmd_symdiff(args: SimpleNamespace) -> None:
    from . import symdiff

    _print_table(symdiff.nat_coefficients(args.max))


# The matrix lives in ``motzkin.verify``, which only this subcommand
# loads; the benchmark's tracer wraps this name.
def verification_checks(max_n: int) -> Iterator[tuple[str, bool, str]]:
    from . import verify

    yield from verify.verification_checks(max_n)


def _cmd_verify(args: SimpleNamespace) -> int | None:
    failed = False
    for name, ok, detail in verification_checks(args.max):
        print(f"{'PASS' if ok else 'FAIL'} {name} ({detail})")
        failed |= not ok
    return 2 if failed else None


_BFILE = {"action": "store_true", "default": False, "help": "print 'n value' pairs (b-file format)"}

# Subcommand -> (handler, help, flags), in the order --help lists them;
# ``build_parser`` fills the verify caps into the help. Each flag maps
# to the keyword arguments of ``add_argument``; the plain parser reads
# the same table, so the two cannot disagree on a flag.
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
        "checks are capped at lengths {CENSUS_LIMIT} and {ROUNDTRIP_LIMIT}",
        {"--max": {"type": int, "default": 12, "metavar": "N"}},
    ),
}


def build_parser():
    """The argparse tree of every subcommand, built from ``_COMMANDS``."""
    import argparse

    from . import verify

    parser = argparse.ArgumentParser(
        prog="motzkin",
        description="Motzkin words, their counting sequences, and generating functions, all in exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text.format_map(vars(verify)))
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
    handles and reports it.
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
    digit_limit = sys.get_int_max_str_digits()
    try:
        try:
            fields = _plain_fields(argv) or vars(build_parser().parse_args(argv))
        except SystemExit as exc:
            # Help, or a usage error; either has written its text.
            status = 0 if exc.code in (0, None) else 1
        else:
            # M_9025 is the first Motzkin number with more than 4300 digits,
            # the interpreter's default int-to-str limit. Lift it for the
            # handler only: --index was parsed under it, and in-process
            # callers get theirs back.
            sys.set_int_max_str_digits(0)
            status = _COMMANDS[fields["command"]][0](SimpleNamespace(**fields)) or 0
        sys.stdout.flush()
        return status
    except OSError as exc:
        # The output failed: a reader that is gone (``| head``), which
        # stays silent, or a device that is full. Point stdout at devnull
        # so the flush at exit has nowhere to fail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if not isinstance(exc, BrokenPipeError):
            print(f"error: OUTPUT: {exc.strerror}", file=sys.stderr)
        return 1
    except (MotzkinError, ValueError, InternalError) as exc:
        print(f"error: {getattr(exc, 'code', 'USAGE')}: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, InternalError) else 1
    finally:
        sys.set_int_max_str_digits(digit_limit)


def run() -> None:
    """Entry point of the ``motzkin`` script and of ``python -m motzkin.cli``.

    Runs ``main()``, then the ``atexit`` handlers, flushes stdout and
    stderr and ends the process with ``os._exit``, skipping the
    interpreter's teardown of every module, which a short-lived process
    does not need. A process started without descriptor 1 or 2 writes
    what would go there to devnull and keeps its status.
    """
    for name in ("stdout", "stderr"):
        if getattr(sys, name) is None:
            setattr(sys, name, open(os.devnull, "w"))
    status = main()
    atexit._run_exitfuncs()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(status)


if __name__ == "__main__":
    run()
