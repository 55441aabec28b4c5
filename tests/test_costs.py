"""Cost gates: each kernel's time as a multiple of an in-process probe.

This is the one place where tier-1 bounds time; only the acceptance
criteria keep their own bounds in seconds, as their text states them.
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
the changelog records those runs. That margin hides a 2x slip, so the
three self-convolutions are also held to an exact count of their
products.
"""

import gc
import os
import random
import time
from contextlib import redirect_stdout

import pytest
from support import DEEPEST_WORD, cold_table

from motzkin import cli, ranking, sequences, series, symdiff

ROUNDS = 3
_BASE = 3**40000


def probe() -> None:
    """Fixed work: big-int squarings, then a loop of small ints."""
    for _ in range(8):
        _BASE * _BASE
    total = 0
    for step in range(60000):
        total += step * step & 255


def from_cold(walk, *arguments):
    """``walk`` on each argument in turn, from a cold completion table."""
    ranking._COLUMNS = cold_table()
    return [walk(argument) for argument in arguments]


def listing():
    """``enumerate --length 16``, its listing written to the null device."""
    with open(os.devnull, "w") as sink, redirect_stdout(sink):
        assert cli.main(["enumerate", "--length", "16"]) == 0


def kernels():
    """Kernel name -> a call of it on fixed arguments. The walks each make
    one pass over 24 seeded words or indexes of length 400, on a table
    that already holds them, so a table rebuilt per call fails them. The
    growth kernels start each round from a cold table: one ranks
    "(0...0)" at every length up to the bound in ascending order, so each
    word grows the table by one length; the other ranks the deepest word
    at the bound, then unranks its index, which deepens the table one
    column at a time."""
    motzkin = sequences.motzkin_numbers(400)
    rng = random.Random(400)
    indexes = [rng.randrange(motzkin[399], motzkin[400]) for _ in range(24)]
    found = [ranking.unrank(index) for index in indexes]
    ascending = ["(" + "0" * (n - 2) + ")" for n in range(2, ranking.RANK_LIMIT + 1)]
    return {
        "rank": lambda: [ranking.rank(word) for word in found],
        "unrank": lambda: [ranking.unrank(index) for index in indexes],
        "nat_coefficients": lambda: symdiff.nat_coefficients(200),
        "difference_numbers": lambda: sequences.difference_numbers(1500, "convolution"),
        "motzkin_series_functional": lambda: series.motzkin_series(800, "functional"),
        "motzkin_series_closed_form": lambda: series.motzkin_series(800, "closed_form"),
        "motzkin_numbers": lambda: sequences.motzkin_numbers(5000),
        "nat_series_product": lambda: series.nat_series(800, "product"),
        "nat_series_linear": lambda: series.nat_series(800, "linear"),
        "enumerate": listing,
        "ascending_growth": lambda: from_cold(ranking.rank, *ascending),
        "deepest_word": lambda: from_cold(ranking.unrank, *from_cold(ranking.rank, DEEPEST_WORD)),
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
    "motzkin_series_functional": 14,
    "motzkin_series_closed_form": 14,
    "motzkin_numbers": 1.7,
    "nat_series_product": 41,
    "nat_series_linear": 18,
    "enumerate": 13,
    "ascending_growth": 77,
    "deepest_word": 33,
}


@pytest.mark.parametrize("name", BOUNDS)
def test_kernel_stays_within_its_probe_ratio(monkeypatch, name):
    # The growth kernels install cold tables; the process's own table
    # comes back when the test ends.
    monkeypatch.setattr(ranking, "_COLUMNS", ranking._COLUMNS)
    ratio, probe_seconds = best_ratio(kernels()[name])
    bound = BOUNDS[name]
    assert ratio <= bound, f"{name}: {ratio:.2f} probes, above the bound {bound} (probe {probe_seconds * 1e3:.1f} ms)"


# Products of the self-convolutions: each index n forms (n - 1) // 2
# pairs once, and the middle square is a power, not a product. The sums
# run over n = 2..60 for the table, 1..60 for the functional solver and
# 1..62 for the closed form's root. A loop that formed every pair twice
# would make about twice as many.
PRODUCTS = {
    "difference_numbers": (lambda: sequences.difference_numbers(60, "convolution"), 870),
    "motzkin_series_functional": (lambda: series.motzkin_series(60, "functional"), 870),
    "motzkin_series_closed_form": (lambda: series.motzkin_series(60, "closed_form"), 930),
}


@pytest.mark.parametrize("name", PRODUCTS)
def test_self_convolutions_form_each_pair_once(monkeypatch, name):
    build, products = PRODUCTS[name]
    made = 0

    def counted(a, b):
        nonlocal made
        made += 1
        return a * b

    for module in (sequences, series):
        monkeypatch.setattr(module, "mul", counted)
    build()
    assert made == products
