"""Exact arithmetic toolkit for Motzkin words.

Counting sequences, ordered enumeration with rank/unrank, truncated
power series realizations of the generating functions, and symbolic
derivative extraction of the difference numbers, all cross-checkable
against each other.
"""

from .errors import (
    BadConstantTermError,
    BadSymbolError,
    DegenerateFractionError,
    InternalError,
    LimitExceededError,
    MotzkinError,
    MotzkinWordError,
    NotUniqueError,
    PrefixViolationError,
    UnbalancedError,
    ZeroConstantTermError,
    ZeroDenominatorError,
)
from .sequences import difference_numbers, motzkin_numbers
from .series import TruncatedSeries, motzkin_series, nat_series
from .symdiff import (
    DerivativeCursor,
    IntPoly,
    SqrtFraction,
    content_reduce,
    derivative_step,
    evaluate_at_zero,
    fraction_series,
    initial_fraction,
    nat_coefficients,
)
from .words import (
    ENUMERATION_LIMIT,
    classify,
    compare,
    completion_count,
    enumerate_words,
    rank,
    sort_key,
    unrank,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "BadConstantTermError",
    "BadSymbolError",
    "DegenerateFractionError",
    "DerivativeCursor",
    "ENUMERATION_LIMIT",
    "IntPoly",
    "InternalError",
    "LimitExceededError",
    "MotzkinError",
    "MotzkinWordError",
    "NotUniqueError",
    "PrefixViolationError",
    "SqrtFraction",
    "TruncatedSeries",
    "UnbalancedError",
    "ZeroConstantTermError",
    "ZeroDenominatorError",
    "classify",
    "compare",
    "completion_count",
    "content_reduce",
    "derivative_step",
    "difference_numbers",
    "enumerate_words",
    "evaluate_at_zero",
    "fraction_series",
    "initial_fraction",
    "motzkin_numbers",
    "motzkin_series",
    "nat_coefficients",
    "nat_series",
    "rank",
    "sort_key",
    "unrank",
    "validate",
]
