"""Helpers that several test files share. Import them with ``from
support import ...``; ``tests/`` is not a package, so pytest puts it on
the path.

Every child interpreter in the suite starts through ``python``: this
interpreter, ``src`` on its path, and a timeout, decided here once."""

import os
import subprocess
import sys
from pathlib import Path

from motzkin import cli
from motzkin.series import TruncatedSeries

SRC = Path(__file__).resolve().parent.parent / "src"


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


def run(capsys, *argv):
    """Run one command line in this process; return its status, stdout
    and stderr."""
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def formal_derivative(series):
    """The term-by-term derivative of a truncated series, one order lower."""
    coeffs = series.coefficients
    return TruncatedSeries((n + 1) * coeffs[n + 1] for n in range(len(coeffs) - 1))
