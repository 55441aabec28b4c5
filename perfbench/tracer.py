"""Span tracer that measures the package's layers from outside.

``Tracer.install`` replaces public functions and methods on their
defining module or class with wrappers that record a span per call
(name, start, end, parent span, request id) and the exact work counts
named in ``LAYER_METRICS``. The package resolves these names through
module globals and class attributes at call time, so internal calls are
captured too: ``words.rank`` validates its input twice, and both
``words.validate`` calls show. Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter

# Traced functions by module; "Class.__method__" names a method.
TARGETS = {
    "cli": ("main", "verification_checks"),
    "sequences": ("motzkin_numbers", "difference_numbers"),
    "series": (
        "motzkin_series",
        "nat_series",
        "TruncatedSeries.__mul__",
        "TruncatedSeries.__truediv__",
        "TruncatedSeries.sqrt",
    ),
    "symdiff": (
        "nat_coefficients",
        "DerivativeCursor.advance",
        "derivative_step",
        "content_reduce",
        "IntPoly.__mul__",
        "IntPoly.exact_div",
    ),
    "words": ("enumerate_words", "rank", "unrank", "validate"),
}


def span_name(module: str, path: str) -> str:
    return f"{module}.{path.replace('__', '')}"


_TRACED = [span_name(module, path) for module, paths in TARGETS.items() for path in paths]

# Every per-layer metric the traced run reports: (name, unit, better).
LAYER_METRICS = (
    [("proc.python_start_s", "s", "lower"), ("proc.import_s", "s", "lower")]
    + [(f"{name}.{kind}", unit, "lower") for name in _TRACED for kind, unit in (("calls", "count"), ("self_s", "s"))]
    + [
        ("cli.output_bytes", "bytes", "lower"),
        ("cli.errors", "count", "lower"),
        ("sequences.motzkin_numbers.entries", "count", "lower"),
        ("series.coef_products", "count", "lower"),
        ("symdiff.IntPoly.mul.coef_products", "count", "lower"),
        ("symdiff.max_degree", "count", "lower"),
        ("symdiff.max_coeff_bits", "bits", "lower"),
        ("words.enumerate_words.words_out", "count", "lower"),
        ("words.errors", "count", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
)


# Series kernels: coefficient n of a product takes n + 1 products, of a
# quotient n, of a square root n - 1; a scalar operand takes one per term.
def _count_series_mul(tracer, args, result) -> None:
    self, other = args
    if not hasattr(other, "coefficients"):
        tracer.counts["series.coef_products"] += self.order + 1
    else:
        order = min(self.order, other.order)
        tracer.counts["series.coef_products"] += (order + 1) * (order + 2) // 2


def _count_series_div(tracer, args, result) -> None:
    self, other = args
    if not hasattr(other, "coefficients"):
        tracer.counts["series.coef_products"] += self.order + 1
    else:
        order = min(self.order, other.order)
        tracer.counts["series.coef_products"] += order * (order + 1) // 2


def _count_series_sqrt(tracer, args, result) -> None:
    order = args[0].order
    tracer.counts["series.coef_products"] += order * (order - 1) // 2


def _count_poly_mul(tracer, args, result) -> None:
    self, other = args
    width = len(other.coefficients) if hasattr(other, "coefficients") else 1
    tracer.counts["symdiff.IntPoly.mul.coef_products"] += len(self.coefficients) * width


def _gauge_cursor(tracer, args, result) -> None:
    polys = (result.a, result.b, result.c, result.d)
    degree = max(p.degree for p in polys)
    bits = max((abs(c).bit_length() for p in polys for c in p.coefficients), default=0)
    tracer.maxima["symdiff.max_degree"] = max(tracer.maxima["symdiff.max_degree"], degree)
    tracer.maxima["symdiff.max_coeff_bits"] = max(tracer.maxima["symdiff.max_coeff_bits"], bits)


def _count_entries(tracer, args, result) -> None:
    tracer.counts["sequences.motzkin_numbers.entries"] += len(result)


def _count_words(tracer, args, result) -> None:
    tracer.counts["words.enumerate_words.words_out"] += len(result)


def _count_cli_errors(tracer, args, result) -> None:
    tracer.counts["cli.errors"] += result != 0


_HOOKS = {
    "series.TruncatedSeries.mul": _count_series_mul,
    "series.TruncatedSeries.truediv": _count_series_div,
    "series.TruncatedSeries.sqrt": _count_series_sqrt,
    "symdiff.IntPoly.mul": _count_poly_mul,
    "symdiff.DerivativeCursor.advance": _gauge_cursor,
    "sequences.motzkin_numbers": _count_entries,
    "words.enumerate_words": _count_words,
    "cli.main": _count_cli_errors,
}


class Tracer:
    """In-memory spans and counters for one traced replay."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, name, start_ns, end_ns, parent_id, request_id)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.request_id: int | None = None
        self._stack: list[tuple[int, str]] = []
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        from motzkin.errors import MotzkinError

        self._domain_error = MotzkinError
        for module_name, paths in TARGETS.items():
            module = importlib.import_module(f"motzkin.{module_name}")
            for path in paths:
                *owners, attr = path.split(".")
                owner = functools.reduce(getattr, owners, module)
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(span_name(module_name, path), original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _open(self, name: str) -> tuple[int, tuple[int, str] | None, int]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append((span_id, name))
        return span_id, parent, time.perf_counter_ns()

    def _close(self, name: str, span_id: int, parent, start: int) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        self.spans.append((span_id, name, start, end, parent[0] if parent else None, self.request_id))

    def _note_error(self, name: str, parent, exc: BaseException) -> None:
        # A domain error counts once, where it leaves the words layer.
        outermost = parent is None or not parent[1].startswith("words.")
        if name.startswith("words.") and outermost and isinstance(exc, self._domain_error):
            self.counts["words.errors"] += 1

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)

        if inspect.isgeneratorfunction(fn):
            # One span per resumption, so the consumer's work between
            # items is not charged to the generator.
            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                self.calls[name] += 1
                inner = fn(*args, **kwargs)
                while True:
                    span_id, parent, start = self._open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(name, span_id, parent, start)
                    yield item

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[name] += 1
            span_id, parent, start = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._note_error(name, parent, exc)
                raise
            finally:
                self._close(name, span_id, parent, start)
            if hook:
                hook(self, args, result)
            return result

        return traced

    def layer_values(self) -> dict[str, float]:
        """Calls and self time per traced function, plus the exact counts."""
        covered: Counter = Counter()
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        self_ns: Counter = Counter()
        for span_id, name, start, end, _, _ in self.spans:
            self_ns[name] += end - start - covered[span_id]
        values: dict[str, float] = {}
        for name in _TRACED:
            values[f"{name}.calls"] = self.calls[name]
            values[f"{name}.self_s"] = self_ns[name] / 1e9
        values.update(self.counts)
        values.update(self.maxima)
        return values

    def write(self, path) -> None:
        fields = ["id", "name", "start_ns", "end_ns", "parent", "request"]
        with open(path, "w") as handle:
            json.dump({"fields": fields, "spans": self.spans}, handle)
