import random
from itertools import product

import pytest

from motzkin import (
    BadSymbolError,
    LimitExceededError,
    NotUniqueError,
    PrefixViolationError,
    UnbalancedError,
)
from motzkin import sequences, words

# First twelve elements of the series of unique words.
SERIES_PREFIX = ["0", "()", "(0)", "()0", "(00)", "(0)0", "(())", "()00", "()()", "(000)", "(00)0", "(0())"]


def brute_force_words(n):
    """Oracle: filter all 3^n strings with an independent validity check."""
    out = []
    for symbols in product("0()", repeat=n):
        depth = 0
        for s in symbols:
            depth += {"0": 0, "(": 1, ")": -1}[s]
            if depth < 0:
                break
        else:
            if depth == 0:
                out.append("".join(symbols))
    return out


class TestValidate:
    def test_accepts_series_member(self):
        assert words.validate("(0)0") == "(0)0"

    def test_accepts_empty_word(self):
        assert words.validate("") == ""

    def test_prefix_violation(self):
        with pytest.raises(PrefixViolationError):
            words.validate(")(")

    def test_unbalanced(self):
        with pytest.raises(UnbalancedError):
            words.validate("((")

    def test_bad_symbol(self):
        with pytest.raises(BadSymbolError):
            words.validate("(a)")


class TestClassify:
    def test_zero_is_unique(self):
        assert words.classify("0") == "unique"

    def test_leading_zero_is_inherited(self):
        assert words.classify("00") == "inherited"

    def test_empty(self):
        assert words.classify("") == "empty"

    def test_open_words_are_unique(self):
        assert words.classify("(0)0") == "unique"


class TestCompare:
    def test_lexicographic_within_length(self):
        assert words.compare("(0)", "()0") == -1

    def test_length_major(self):
        assert words.compare("0", "()") == -1

    def test_equal(self):
        assert words.compare("(())", "(())") == 0

    def test_greater(self):
        assert words.compare("()0", "(0)") == 1

    def test_matches_brute_force_order(self):
        listing = words.enumerate_words(4, "all")
        assert listing == sorted(brute_force_words(4), key=words.sort_key)


class TestCompletionCount:
    def test_motzkin_identity(self):
        assert words.completion_count(0, 4) == 9
        motzkin = sequences.motzkin_numbers(300)
        assert [words.completion_count(0, n) for n in range(13)] == motzkin[:13]
        for n in (50, 137, 211, 300):
            assert words.completion_count(0, n) == motzkin[n]

    def test_single_close(self):
        assert words.completion_count(1, 1) == 1

    def test_brute_force(self):
        # Oracle: walk every suffix and count the ones that finish cleanly.
        def finishes(start_depth, symbols):
            depth = start_depth
            for s in symbols:
                depth += {"0": 0, "(": 1, ")": -1}[s]
                if depth < 0:
                    return False
            return depth == 0

        for depth in range(5):
            for remaining in range(8):
                expected = sum(
                    finishes(depth, suffix) for suffix in product("0()", repeat=remaining)
                )
                assert words.completion_count(depth, remaining) == expected

    def test_unreachable_depth(self):
        assert words.completion_count(5, 3) == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            words.completion_count(-1, 3)


class TestEnumerate:
    def test_unique_length_three(self):
        assert words.enumerate_words(3, "unique") == ["(0)", "()0"]

    def test_length_zero(self):
        assert words.enumerate_words(0, "all") == [""]
        assert words.enumerate_words(0, "unique") == []
        assert words.enumerate_words(0, "inherited") == []

    def test_length_two_all(self):
        assert words.enumerate_words(2, "all") == ["00", "()"]

    def test_matches_brute_force(self):
        motzkin = sequences.motzkin_numbers(8)
        diff = sequences.difference_numbers(8)
        for n in range(9):
            expected = sorted(brute_force_words(n), key=words.sort_key)
            listing = words.enumerate_words(n, "all")
            assert listing == expected
            assert len(listing) == motzkin[n]
            if n >= 1:
                assert len(words.enumerate_words(n, "unique")) == diff[n]
            if n >= 2:
                assert len(words.enumerate_words(n, "inherited")) == motzkin[n - 1]

    def test_partition_into_unique_and_inherited(self):
        for n in range(2, 9):
            unique = words.enumerate_words(n, "unique")
            inherited = words.enumerate_words(n, "inherited")
            assert sorted(unique + inherited, key=words.sort_key) == words.enumerate_words(n, "all")

    def test_zero_padding_closure(self):
        for n in range(2, 10):
            padded = ["0" + w for w in words.enumerate_words(n - 1, "all")]
            assert padded == words.enumerate_words(n, "inherited")

    def test_limit(self):
        with pytest.raises(LimitExceededError):
            words.enumerate_words(words.ENUMERATION_LIMIT + 1)

    def test_rejects_bad_filter(self):
        with pytest.raises(ValueError):
            words.enumerate_words(3, "palindromic")


class TestRank:
    def test_series_anchors(self):
        assert words.rank("0") == 0
        assert words.rank("()0") == 3
        assert words.rank("(0())") == 11

    def test_rejects_empty(self):
        with pytest.raises(NotUniqueError):
            words.rank("")

    def test_rejects_inherited(self):
        with pytest.raises(NotUniqueError):
            words.rank("00")

    def test_rejects_invalid(self):
        with pytest.raises(NotUniqueError):
            words.rank(")(")


class TestUnrank:
    def test_series_anchors(self):
        assert words.unrank(6) == "(())"
        assert words.unrank(9) == "(000)"
        assert words.unrank(0) == "0"

    def test_series_prefix(self):
        assert [words.unrank(i) for i in range(12)] == SERIES_PREFIX

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            words.unrank(-1)

    def test_large_index(self):
        word = words.unrank(10**6)
        assert words.rank(word) == 10**6


class TestBijection:
    def test_roundtrip_through_length_ten(self):
        index = 0
        for n in range(1, 11):
            for word in words.enumerate_words(n, "unique"):
                assert words.rank(word) == index
                assert words.unrank(index) == word
                index += 1
        assert index == sum(sequences.difference_numbers(10))

    def test_order_coherence(self):
        bound = sum(sequences.difference_numbers(10))
        listing = [words.unrank(i) for i in range(bound)]
        for previous, current in zip(listing, listing[1:]):
            assert words.compare(previous, current) == -1

    def test_roundtrip_at_long_lengths(self):
        # Unique words of length n hold the indexes M_(n-1) <= i < M_n.
        rng = random.Random(2002)
        motzkin = sequences.motzkin_numbers(300)
        for n in range(20, 301, 20):
            first, end = motzkin[n - 1], motzkin[n]
            for index in (first, rng.randrange(first, end), end - 1):
                word = words.unrank(index)
                assert len(word) == n
                assert words.classify(word) == "unique"
                assert words.rank(word) == index

    def test_enumerate_matches_unrank_blocks(self):
        offset = 0
        for n in range(1, 9):
            block = words.enumerate_words(n, "unique")
            assert block == [words.unrank(offset + i) for i in range(len(block))]
            offset += len(block)
