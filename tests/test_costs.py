"""Cost gates: each kernel's time as a multiple of an in-process probe.

The host this suite runs on changes speed from hour to hour, so a bound
in seconds would either flake or be too loose to catch a regression.
Each gate times a fixed probe in the same process, interleaved with the
kernel, and bounds the ratio of the two, each taken as the best of
``ROUNDS``. The probe squares one big integer a fixed number of times,
the work of the table and series kernels, and runs one loop of small
ints, the work of the walks. A failing gate names its kernel, the ratio
and the probe time.

Each bound is twice the largest ratio measured in its calibration runs:
separate processes over two sessions, on Python 3.11, 3.12 and 3.13,
with and without ``-X dev``, standalone and inside a whole tier-1 run;
the changelog records those runs.
"""

import gc
import random
import time

import pytest

from motzkin import ranking, sequences, series, symdiff

ROUNDS = 3
_BASE = 3**40000


def probe() -> None:
    """Fixed work: big-int squarings, then a loop of small ints."""
    for _ in range(8):
        _BASE * _BASE
    total = 0
    for step in range(60000):
        total += step * step & 255


def kernels():
    """Kernel name -> a call of it on fixed arguments. The walks each make
    one pass over 24 seeded words or indexes of length 400, on a table
    that already holds them."""
    motzkin = sequences.motzkin_numbers(400)
    rng = random.Random(400)
    indexes = [rng.randrange(motzkin[399], motzkin[400]) for _ in range(24)]
    found = [ranking.unrank(index) for index in indexes]
    return {
        "rank": lambda: [ranking.rank(word) for word in found],
        "unrank": lambda: [ranking.unrank(index) for index in indexes],
        "nat_coefficients": lambda: symdiff.nat_coefficients(200),
        "difference_numbers": lambda: sequences.difference_numbers(1500, "convolution"),
        "motzkin_series_functional": lambda: series.motzkin_series(800, "functional"),
        "motzkin_series_closed_form": lambda: series.motzkin_series(800, "closed_form"),
    }


def best_ratio(kernel) -> tuple[float, float]:
    """(best kernel time / best probe time, best probe time in seconds),
    from ``ROUNDS`` interleaved rounds of probe then kernel.

    The cyclic collector is off while they run, as in ``timeit``: its
    passes cost more the more objects the test process holds."""
    probe_best = kernel_best = float("inf")
    collecting = gc.isenabled()
    gc.disable()
    try:
        for _ in range(ROUNDS):
            start = time.perf_counter()
            probe()
            middle = time.perf_counter()
            kernel()
            end = time.perf_counter()
            probe_best = min(probe_best, middle - start)
            kernel_best = min(kernel_best, end - middle)
    finally:
        if collecting:
            gc.enable()
    return kernel_best / probe_best, probe_best


BOUNDS = {
    "rank": 0.34,
    "unrank": 0.43,
    "nat_coefficients": 100,
    "difference_numbers": 120,
    "motzkin_series_functional": 12,
    "motzkin_series_closed_form": 14,
}


@pytest.mark.parametrize("name", BOUNDS)
def test_kernel_stays_within_its_probe_ratio(name):
    ratio, probe_seconds = best_ratio(kernels()[name])
    bound = BOUNDS[name]
    assert ratio <= bound, f"{name}: {ratio:.2f} probes, above the bound {bound} (probe {probe_seconds * 1e3:.1f} ms)"
