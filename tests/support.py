"""Helpers that several test files share. Import them with ``from
support import ...``; ``tests/`` is not a package, so pytest puts it on
the path.

``motzkin.ranking`` keeps one completion table for the life of the
process, and it only grows. A test that needs the table a fresh process
starts with calls ``cold(monkeypatch)``, which installs ``cold_table()``
for that test alone. A test starts a child interpreter only to observe
what only a process shows: its exit status and streams, the modules it
loads, its memory peak, or the state it starts with. Every child starts
through ``python``: this interpreter, ``src`` on its path, and a
timeout, decided here once."""

import os
import subprocess
import sys
from pathlib import Path

from motzkin import cli, ranking
from motzkin.series import TruncatedSeries
from motzkin.symdiff import IntPoly, SqrtFraction

SRC = Path(__file__).resolve().parent.parent / "src"

# The deepest word at the rank bound, which reads every depth of the table.
DEEPEST_WORD = "(" * (ranking.RANK_LIMIT // 2) + ")" * (ranking.RANK_LIMIT // 2)


def child_env(unbuffered=False):
    """The environment of a child interpreter: ``src`` on its path, the
    help width fixed at 80 columns, and stdout buffered unless
    ``unbuffered``."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "COLUMNS": "80"}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def python(*args, unbuffered=False, **kwargs):
    """Run ``python *args`` in a child with ``child_env`` and a 120 s
    timeout; capture each stream the caller does not pass."""
    kwargs.setdefault("stdout", subprocess.PIPE)
    kwargs.setdefault("stderr", subprocess.PIPE)
    return subprocess.run([sys.executable, *args], env=child_env(unbuffered), timeout=120, **kwargs)


def cold_table():
    """A new completion table at length 0, as a fresh process holds it."""
    return [[1], []]


def cold(monkeypatch):
    """Install ``cold_table()`` as ``ranking``'s completion table until the
    test ends, and return it."""
    table = cold_table()
    monkeypatch.setattr(ranking, "_COLUMNS", table)
    return table


def run(capsys, *argv):
    """Run one command line in this process; return its status, stdout
    and stderr."""
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def drawn_word(length, pick, prefix="", depth=0):
    """``prefix``, standing at ``depth``, then ``length`` more symbols, drawn
    by a walk that never calls into the package: each symbol is the
    ``pick(k)``-th of the k symbols that can still be closed, in series
    order. The one drawer of random words for every test file."""
    symbols = [prefix]
    for remaining in range(length - 1, -1, -1):
        allowed = [(s, d) for s, d in (("0", 0), ("(", 1), (")", -1)) if 0 <= depth + d <= remaining]
        symbol, step = allowed[pick(len(allowed))]
        symbols.append(symbol)
        depth += step
    return "".join(symbols)


def cycled(picks):
    """A ``pick`` for ``drawn_word`` that takes ``picks`` in order, each
    modulo the count of symbols it chooses among."""
    picks = iter(picks)
    return lambda count: next(picks) % count


def formal_derivative(series):
    """The term-by-term derivative of a truncated series, one order lower."""
    coeffs = series.coefficients
    return TruncatedSeries((n + 1) * coeffs[n + 1] for n in range(len(coeffs) - 1))


def random_fraction(rng):
    """A fraction whose four polynomials have degree 3 or less and
    coefficients in -6..6, drawn from ``rng`` until its denominator is
    evaluable at zero. The one drawer of random fractions for every test
    file."""

    def poly():
        return IntPoly(rng.randrange(-6, 7) for _ in range(4))

    while True:
        f = SqrtFraction(poly(), poly(), poly(), poly())
        if f.c.at_zero() + f.d.at_zero() != 0:
            return f
