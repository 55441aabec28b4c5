"""Reference implementations that only tests call. Import them with
``from reference import ...``, as ``support``.

Each is an oracle for a package route, kept outside ``src`` so that the
route it checks and the code it checks against share no module:
``fraction_series`` expands a ``motzkin.symdiff`` fraction through
``motzkin.series``, which ``symdiff`` never loads. The package's other
test-only code, ``symdiff.derivative_step``, ``IntPoly.exact_div`` and
``TruncatedSeries.__truediv__``, joins these once the benchmark's tracer
stops naming it."""

from motzkin.series import TruncatedSeries
from motzkin.symdiff import RADICAND, IntPoly, SqrtFraction


def fraction_series(fraction: SqrtFraction, order: int) -> TruncatedSeries:
    """Expand a fraction as a truncated power series by substituting the
    series square root for W; independent check on the symbolic cycle."""
    root = TruncatedSeries.from_coefficients(RADICAND.coefficients, order).sqrt()

    def lift(poly: IntPoly) -> TruncatedSeries:
        return TruncatedSeries.from_coefficients(poly.coefficients, order)

    numerator = lift(fraction.a) + lift(fraction.b) * root
    denominator = lift(fraction.c) + lift(fraction.d) * root
    return numerator / denominator
