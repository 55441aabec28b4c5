"""Exception types shared across the package.

Every error carries a stable machine-readable ``code`` so the command
line front end can report failures uniformly.
"""


class MotzkinError(Exception):
    """Base class for domain and input errors."""

    code = "ERROR"


class MotzkinWordError(MotzkinError):
    """A string failed Motzkin word validation."""

    code = "INVALID_WORD"


class BadSymbolError(MotzkinWordError):
    """A character outside the alphabet '0', '(', ')'."""

    code = "BAD_SYMBOL"


class UnbalancedError(MotzkinWordError):
    """Opening and closing parentheses do not match up overall."""

    code = "UNBALANCED"


class PrefixViolationError(MotzkinWordError):
    """Some prefix closes more parentheses than it opened."""

    code = "PREFIX_VIOLATION"


class NotUniqueError(MotzkinError):
    """The word has no position in the ordered series of unique words."""

    code = "NOT_UNIQUE"


class LimitExceededError(MotzkinError):
    """A request beyond a practical bound: exhaustive enumeration past
    ENUMERATION_LIMIT, or ``rank``, ``unrank`` or ``completion_count``
    past the completion-table bound RANK_LIMIT."""

    code = "LIMIT_EXCEEDED"


class ZeroConstantTermError(MotzkinError):
    """Series division by a divisor whose constant term is zero."""

    code = "ZERO_CONSTANT_TERM"


class BadConstantTermError(MotzkinError):
    """Series square root of an operand whose constant term is not one."""

    code = "BAD_CONSTANT_TERM"


class ZeroDenominatorError(MotzkinError):
    """Fraction evaluation at zero with a vanishing denominator."""

    code = "ZERO_DENOMINATOR"


class InternalError(RuntimeError):
    """An exact arithmetic invariant failed; a bug, not bad input."""

    code = "INTERNAL"


class DegenerateFractionError(InternalError):
    """A derivative produced a fraction that cannot be evaluated at zero.

    Cannot occur for fractions that satisfy their invariants; treated as
    an internal failure rather than a domain error.
    """

    code = "DEGENERATE"
