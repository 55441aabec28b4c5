import time

import pytest

from motzkin import sequences
from motzkin.series import motzkin_series

# OEIS A001006 prefix.
MOTZKIN_PREFIX = [1, 1, 2, 4, 9, 21, 51, 127, 323, 835, 2188, 5798, 15511, 41835]
DIFFERENCE_PREFIX = [0, 1, 1, 2, 5, 12, 30, 76, 196, 512, 1353, 3610, 9713, 26324, 71799]


def test_motzkin_prefix():
    assert sequences.motzkin_numbers(13) == MOTZKIN_PREFIX


def test_motzkin_small():
    assert sequences.motzkin_numbers(0) == [1]
    assert sequences.motzkin_numbers(4) == [1, 1, 2, 4, 9]


def test_motzkin_rejects_negative():
    with pytest.raises(ValueError):
        sequences.motzkin_numbers(-1)


def test_motzkin_prefix_stability():
    tables = [sequences.motzkin_numbers(n) for n in range(30)]
    for shorter, longer in zip(tables, tables[1:]):
        assert longer[: len(shorter)] == shorter


def test_motzkin_strictly_increasing_from_two():
    values = sequences.motzkin_numbers(50)
    assert all(values[n] > values[n - 1] for n in range(2, 51))


def test_difference_prefix_both_methods():
    assert sequences.difference_numbers(14, "subtraction") == DIFFERENCE_PREFIX
    assert sequences.difference_numbers(14, "convolution") == DIFFERENCE_PREFIX


def test_difference_base_cases():
    for method in ("subtraction", "convolution"):
        assert sequences.difference_numbers(0, method) == [0]
        assert sequences.difference_numbers(1, method) == [0, 1]


def test_difference_example_subtraction():
    assert sequences.difference_numbers(6, "subtraction") == [0, 1, 1, 2, 5, 12, 30]


def test_difference_methods_agree_to_400():
    assert sequences.difference_numbers(400, "subtraction") == sequences.difference_numbers(400, "convolution")


def test_motzkin_matches_functional_series_to_400():
    assert sequences.motzkin_numbers(400) == motzkin_series(400, "functional").integer_coefficients()


def test_motzkin_table_is_linear_time():
    # An O(n^2) convolution table takes seconds here; the recurrence takes milliseconds.
    start = time.perf_counter()
    sequences.motzkin_numbers(5000)
    assert time.perf_counter() - start < 1.0


def test_difference_rejects_bad_method():
    with pytest.raises(ValueError):
        sequences.difference_numbers(5, "magic")
