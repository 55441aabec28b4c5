"""Exact arithmetic toolkit for Motzkin words.

Counting sequences, ordered enumeration with rank/unrank, truncated
power series realizations of the generating functions, and symbolic
derivative extraction of the difference numbers, all cross-checkable
against each other.

Importing the package loads only the error types. Every other public
name loads its defining submodule on first use (PEP 562), so a process
pays only for the submodules it touches.
"""

from .errors import *  # noqa: F403

# Every other public name, by the submodule that defines it; __getattr__
# imports the submodule on first use and caches the name in globals().
_SUBMODULES = {
    "difference_numbers": "sequences",
    "motzkin_numbers": "sequences",
    "TruncatedSeries": "series",
    "motzkin_series": "series",
    "nat_series": "series",
    "DerivativeCursor": "symdiff",
    "IntPoly": "symdiff",
    "SqrtFraction": "symdiff",
    "content_reduce": "symdiff",
    "derivative_step": "symdiff",
    "evaluate_at_zero": "symdiff",
    "initial_fraction": "symdiff",
    "nat_coefficients": "symdiff",
    "ENUMERATION_LIMIT": "words",
    "classify": "words",
    "compare": "words",
    "enumerate_words": "words",
    "sort_key": "words",
    "word_blocks": "words",
    "RANK_LIMIT": "ranking",
    "completion_count": "ranking",
    "rank": "ranking",
    "unrank": "ranking",
    "validate": "ranking",
}


def __getattr__(name: str):
    if name not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{_SUBMODULES[name]}"), name)
    globals()[name] = value
    return value


__version__ = "0.1.0"

# Computed, so a public name is listed in one place: the lazy names
# above and the classes defined in motzkin.errors, which the import at
# the top binds here as the submodule ``errors``.
__all__ = sorted([*_SUBMODULES, *(name for name, value in vars(errors).items() if isinstance(value, type))])
