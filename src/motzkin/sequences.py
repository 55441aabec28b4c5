"""Motzkin numbers and Motzkin difference numbers, exact at any index.

Python integers are unbounded, so the tables never overflow; exactness
at large indexes is the point of recomputing these classic sequences
here rather than hard-coding a prefix. The Motzkin numbers come from the
three-term recurrence of Donaghey & Shapiro ("Motzkin numbers", JCTA 23,
1977; OEIS A001006), so the convolution in the ``convolution``
difference method and in the functional series checks it independently.
The recurrence runs in one place, ``motzkin_stream``, which holds two
values; ``motzkin_numbers`` is its table, for the readers that index it.
"""

from collections.abc import Iterator
from operator import mul

from .errors import InternalError


def motzkin_stream(n_max: int) -> Iterator[int]:
    """Yield ``M_0, ..., M_n_max``, holding two values at a time.

    ``M_0 = M_1 = 1`` and ``(n+2) M_n = (2n+1) M_{n-1} + 3(n-1) M_{n-2}``.
    The n-th value counts the Motzkin words of length n. The first
    ``next`` raises ValueError for a negative ``n_max``, before any value;
    InternalError is raised if a division by ``n+2`` is not exact. Proof:
    from ``M_n = sum C(n,2k) C_k``, certificate
    ``G(k) = -4k(k+1)/n C(n,2k) C_k`` (``tests/test_certificates.py``).
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    older, value = 1, 1
    yield from (1, 1)[: n_max + 1]
    for n in range(2, n_max + 1):
        new, remainder = divmod((2 * n + 1) * value + 3 * (n - 1) * older, n + 2)
        if remainder:
            raise InternalError(f"recurrence not exact at n={n}")
        older, value = value, new
        yield value


def motzkin_numbers(n_max: int) -> list[int]:
    """Return the table ``[M_0, ..., M_n_max]``: ``motzkin_stream`` as a
    list, with the same errors."""
    return list(motzkin_stream(n_max))


DIFFERENCE_METHODS = ("subtraction", "convolution")


def difference_numbers(n_max: int, method: str = "subtraction") -> list[int]:
    """Return the table ``[U_0, ..., U_n_max]`` of difference numbers.

    ``U_0 = 0`` and ``U_1 = 1`` always; the n-th entry counts the unique
    Motzkin words of length n (words that are "0" or start with '(').
    For n >= 2 the two methods compute the same value two ways:

    * ``subtraction``: ``U_n = M_n - M_{n-1}``
    * ``convolution``: ``U_n = sum(M_k * M_{n-2-k}, k=0..n-2)``
    """
    if method not in DIFFERENCE_METHODS:
        raise ValueError(f"unknown method {method!r}")
    motzkin = motzkin_numbers(n_max)  # also rejects a negative n_max
    values = [0, 1][: n_max + 1]
    if method == "subtraction":
        for n in range(2, n_max + 1):
            values.append(motzkin[n] - motzkin[n - 1])
    else:
        # The sum is symmetric in k <-> n-2-k: add its first h terms twice,
        # and the middle term M_h^2 once when it has one (n even).
        for n in range(2, n_max + 1):
            h = (n - 1) // 2
            total = 2 * sum(map(mul, motzkin[:h], reversed(motzkin[n - 1 - h : n - 1])))
            values.append(total + motzkin[h] ** 2 if n % 2 == 0 else total)
    return values
