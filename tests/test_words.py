import gc
import json
import random
import sys
import threading
import tracemalloc
from collections import Counter
from itertools import accumulate, product

import pytest
import support
from support import DEEPEST_WORD, cold_table, python

from motzkin import (
    BadSymbolError,
    InternalError,
    LimitExceededError,
    MotzkinError,
    MotzkinWordError,
    NotUniqueError,
    PrefixViolationError,
    UnbalancedError,
)
from motzkin import cli, ranking, sequences, words


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


def _reference_extend(out, prefix, depth, remaining):
    """Append to ``out``, in series order, every valid completion of
    ``prefix`` (at ``depth``) by ``remaining`` more symbols."""
    if remaining == 0:
        out.append("".join(prefix))
        return
    for symbol, step in (("0", 0), ("(", 1), (")", -1)):
        new_depth = depth + step
        if new_depth < 0 or new_depth > remaining - 1:
            continue
        prefix.append(symbol)
        _reference_extend(out, prefix, new_depth, remaining - 1)
        prefix.pop()


def reference_words(n, kind):
    """Reference listing: one recursive call per node of the word tree."""
    out = []
    if kind == "all":
        _reference_extend(out, [], 0, n)
    elif n == 1:
        out = ["0"] if kind == "unique" else []
    elif n >= 2:
        _reference_extend(out, ["(" if kind == "unique" else "0"], 1 if kind == "unique" else 0, n - 1)
    return out


def random_unique_word(rng, n):
    """A random unique word of length n: each symbol after the first is
    any one that can still be closed."""
    return "0" if n == 1 else support.drawn_word(n - 1, rng.randrange, "(", 1)


def reference_rows(n):
    """Rows 0..n of the completion table, built here: rows[r][h] counts
    the ways to close h open parentheses in exactly r symbols."""
    rows = [[1]]
    for r in range(n):
        padded = [0, *rows[-1], 0, 0]
        rows.append([padded[h] + padded[h + 1] + padded[h + 2] for h in range(r + 2)])
    return rows


def table_layout(top, depth):
    """The exact completion table at length ``top`` and depth bound
    ``depth``: column h = 0..depth holds c(h, 0), ..., c(h, top - h), pad
    zeros at r < h included, as built by reference_rows."""
    reference = reference_rows(top)
    return [[reference[r][h] if h <= r else 0 for r in range(top + 1 - h)] for h in range(depth + 1)]


def deepest(word):
    """The most parentheses open after any prefix of ``word``."""
    return max(accumulate(REFERENCE_DELTA[symbol] for symbol in word))


REFERENCE_DELTA = {"0": 0, "(": 1, ")": -1}


def reference_rank(word, rows):
    """Lexicographic index of ``word`` among the words of its length: at
    each step, add the completions of every smaller symbol that can still
    be closed."""
    n = len(word)
    position = depth = 0
    for i, symbol in enumerate(word):
        remaining = n - i - 1
        for candidate in "0()":
            if candidate == symbol:
                break
            new_depth = depth + REFERENCE_DELTA[candidate]
            if 0 <= new_depth <= remaining:
                position += rows[remaining][new_depth]
        depth += REFERENCE_DELTA[symbol]
    return position


def reference_unrank(index, rows):
    """The word at lexicographic ``index`` of the shortest length n with
    rows[n][0] > index: at each step, take the first symbol whose block
    of completions holds the offset."""
    n = next(n for n, row in enumerate(rows) if row[0] > index)
    offset, depth, symbols = index, 0, []
    for remaining in range(n - 1, -1, -1):
        for candidate in "0()":
            new_depth = depth + REFERENCE_DELTA[candidate]
            if new_depth < 0 or new_depth > remaining:
                continue
            block = rows[remaining][new_depth]
            if offset < block:
                symbols.append(candidate)
                depth = new_depth
                break
            offset -= block
    return "".join(symbols)


def run_fresh(function, argument):
    """Run PEAK_PROBE in a new interpreter on ``words.<function>`` and
    ``argument``; return its report: the result and the peak RSS in MB."""
    result = python("-c", PEAK_PROBE, function, input=json.dumps(argument), text=True, check=True)
    return json.loads(result.stdout)


@pytest.fixture
def cold(monkeypatch):
    """The completion table a fresh process holds, installed for this test."""
    return support.cold(monkeypatch)


# validate's verdicts as first recorded: the error type and message of
# the first fault from the left, or None for a word.
VALIDATE_VERDICTS = [
    ("", None, None),
    ("(0)0", None, None),
    (")", PrefixViolationError, "prefix ')' closes below depth zero"),
    (")x", PrefixViolationError, "prefix ')' closes below depth zero"),
    ("x)", BadSymbolError, "symbol 'x' at position 0"),
    ("(()", UnbalancedError, "1 unmatched '(' in '(()'"),
    ("0a(", BadSymbolError, "symbol 'a' at position 1"),
    ("())(", PrefixViolationError, "prefix '())' closes below depth zero"),
]


def checked_walk_verdict(word, rows):
    """``rank`` as first written: classify the word, then take its
    position from reference_rank. Returns the position, or the error type
    and message."""
    try:
        kind = words.classify(word)
    except MotzkinWordError as exc:
        return NotUniqueError, f"not a Motzkin word: {exc}"
    if kind != "unique":
        return NotUniqueError, f"{word!r} has no position in the series"
    return reference_rank(word, rows)


# rank's verdicts as first recorded: every fault is NotUniqueError, with
# the first fault from the left, even above RANK_LIMIT.
RANK_VERDICTS = [
    (")(", NotUniqueError, "not a Motzkin word: prefix ')' closes below depth zero"),
    ("())(", NotUniqueError, "not a Motzkin word: prefix '())' closes below depth zero"),
    ("(((", NotUniqueError, "not a Motzkin word: 3 unmatched '(' in '((('"),
    ("(0", NotUniqueError, "not a Motzkin word: 1 unmatched '(' in '(0'"),
    ("0(", NotUniqueError, "not a Motzkin word: 1 unmatched '(' in '0('"),
    ("()x", NotUniqueError, "not a Motzkin word: symbol 'x' at position 2"),
    ("00", NotUniqueError, "'00' has no position in the series"),
    ("", NotUniqueError, "'' has no position in the series"),
    ("(" * 1001, NotUniqueError, f"not a Motzkin word: 1001 unmatched '(' in {'(' * 1001!r}"),
    ("0" * 1001, NotUniqueError, f"{'0' * 1001!r} has no position in the series"),
]


class TestValidate:
    @pytest.mark.parametrize("text, error, message", VALIDATE_VERDICTS)
    def test_verdict(self, text, error, message):
        if error is None:
            assert words.validate(text) == text
            return
        with pytest.raises(MotzkinWordError) as caught:
            words.validate(text)
        assert type(caught.value) is error
        assert str(caught.value) == message


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
    def test_matches_brute_force_order(self):
        listing = words.enumerate_words(4, "all")
        assert listing == sorted(brute_force_words(4), key=words.sort_key)

    @pytest.mark.parametrize("text, error, message", [verdict for verdict in VALIDATE_VERDICTS if verdict[1]])
    def test_faults_raise_validates_verdict(self, text, error, message):
        # Each word's first fault, as validate names it; compare checks its
        # first argument first.
        for call in (lambda: words.sort_key(text), lambda: words.compare(text, ")"), lambda: words.compare("0", text)):
            with pytest.raises(MotzkinWordError) as caught:
                call()
            assert type(caught.value) is error
            assert str(caught.value) == message


class TestCompletionCount:
    def test_motzkin_identity(self):
        assert ranking.completion_count(0, 4) == 9
        motzkin = sequences.motzkin_numbers(300)
        assert [ranking.completion_count(0, n) for n in range(13)] == motzkin[:13]
        for n in (50, 137, 211, 300):
            assert ranking.completion_count(0, n) == motzkin[n]

    def test_single_close(self):
        assert ranking.completion_count(1, 1) == 1

    def test_brute_force(self, cold):
        # Oracle: walk every suffix of each length once; a suffix finishes
        # from depth h when its running sum never falls below -h and ends
        # at -h. Every pair with depth + remaining <= 12, from a cold table.
        for remaining in range(13):
            finishing = Counter()
            for suffix in product((0, 1, -1), repeat=remaining):
                finishing[-sum(suffix), -min(accumulate(suffix, initial=0))] += 1
            for depth in range(13 - remaining):
                expected = sum(count for (end, low), count in finishing.items() if end == depth and low <= depth)
                assert ranking.completion_count(depth, remaining) == expected

    def test_unreachable_depth(self, cold):
        # A depth above the symbols left counts 0 at any size, and builds
        # nothing. Nor does a read that the cold table already holds.
        for depth, remaining in [(5, 3), (1, 0), (ranking.RANK_LIMIT + 1, ranking.RANK_LIMIT), (10**6, 2)]:
            assert ranking.completion_count(depth, remaining) == 0
        assert ranking._COLUMNS is cold == cold_table()
        assert (ranking.completion_count(0, 0), ranking.unrank(0)) == (1, "0")
        assert ranking._COLUMNS is cold == cold_table()

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ranking.completion_count(-1, 3)

    @pytest.mark.parametrize("depth, remaining", [(2.5, 1), (5.0, 1.0), (1.0, 5.0), (0, 4.0)])
    def test_rejects_a_float(self, depth, remaining, cold):
        # The first two once counted 0 and the third failed inside
        # sequences; none may build anything.
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            ranking.completion_count(depth, remaining)
        assert ranking._COLUMNS is cold == cold_table()

    def test_limit(self):
        # A state at depth h with r symbols left lies on a word of at least
        # h + r symbols, so h + r is bounded, not r alone.
        rows = reference_rows(ranking.RANK_LIMIT)
        for depth in (0, 1, 2, 333, 499, 500):
            remaining = ranking.RANK_LIMIT - depth
            assert ranking.completion_count(depth, remaining) == rows[remaining][depth]
            with pytest.raises(LimitExceededError) as caught:
                ranking.completion_count(depth, remaining + 1)
            assert str(caught.value) == f"length {ranking.RANK_LIMIT + 1} exceeds the rank bound {ranking.RANK_LIMIT}"


class TestEnumerate:
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

    def test_the_shared_drawer_reaches_every_word(self):
        # support.drawn_word draws the random words of three suites: over
        # every pick list it draws each word of a length and nothing else,
        # and after "(" at depth 1, each unique word.
        for n in range(9):
            drawn = {support.drawn_word(n, support.cycled(p)) for p in product(range(3), repeat=n)}
            assert drawn == set(words.enumerate_words(n))
        for n in range(2, 9):
            drawn = {support.drawn_word(n - 1, support.cycled(p), "(", 1) for p in product(range(3), repeat=n - 1)}
            assert drawn == set(words.enumerate_words(n, "unique"))

    def test_partition_into_unique_and_inherited(self):
        for n in range(2, 9):
            unique = words.enumerate_words(n, "unique")
            inherited = words.enumerate_words(n, "inherited")
            assert sorted(unique + inherited, key=words.sort_key) == words.enumerate_words(n, "all")

    def test_zero_padding_closure(self):
        for n in range(2, 10):
            padded = ["0" + w for w in words.enumerate_words(n - 1, "all")]
            assert padded == words.enumerate_words(n, "inherited")

    def test_blocks_match_the_reference_dfs(self):
        for n in range(15):
            for kind in words.FILTERS:
                blocks = list(words.word_blocks(n, kind))
                assert all(blocks)
                assert [w for block in blocks for w in block] == reference_words(n, kind)

    def test_blocks_validate_at_call_time(self):
        with pytest.raises(LimitExceededError):
            words.word_blocks(words.ENUMERATION_LIMIT + 1)
        with pytest.raises(ValueError):
            words.word_blocks(3, "palindromic")
        with pytest.raises(ValueError):
            words.word_blocks(-1)
        with pytest.raises(TypeError):
            words.word_blocks(3.0)

    def test_listing_freed_without_cyclic_gc(self):
        # A listing must be freed by reference counting alone, as soon as
        # its last reference goes; the 15,511 words of length 12 hold 1 MB.
        gc.disable()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert len(words.enumerate_words(12)) == 15511
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
            gc.enable()
        assert held < 100_000


class TestRank:
    @pytest.mark.parametrize(
        "word, error, message",
        RANK_VERDICTS,
        ids=[word if len(word) < 8 else f"{word[0]}*{len(word)}" for word, _, _ in RANK_VERDICTS],
    )
    def test_verdict(self, word, error, message):
        with pytest.raises(MotzkinError) as caught:
            words.rank(word)
        assert type(caught.value) is error
        assert str(caught.value) == message

    @pytest.mark.parametrize("table", ["cold", "warm", "deep"])
    def test_matches_the_checked_walk_on_every_short_string(self, table, cold):
        # Every string over "0()x" of length <= 8, against classify and
        # then the block-sum walk; a cold table starts each call at length 0.
        # A deep table covers every depth these words reach, so no read
        # past it hides an open end: the end depth alone refuses "((".
        rows = reference_rows(8)
        if table == "warm":
            ranking.completion_count(0, 8)
        if table == "deep":
            ranking._grow(8, 9)
        before = ranking._COLUMNS
        for n in range(9):
            for symbols in product("0()x", repeat=n):
                word = "".join(symbols)
                if table == "cold":
                    # A plain reset: the fixture's monkeypatch restores the
                    # table after the test, with no undo entry per word.
                    ranking._COLUMNS = before = cold_table()
                expected = checked_walk_verdict(word, rows)
                try:
                    assert words.rank(word) == expected
                except MotzkinError as exc:
                    assert (type(exc), str(exc)) == expected
                    if table == "cold":
                        assert ranking._COLUMNS is before == cold_table()
                    if table == "deep":
                        assert ranking._COLUMNS is before

    @pytest.mark.parametrize("word, calls", [("((()))", [(6, 4)]), ("(0)", [(3, 2)])])
    def test_cold_rank_grows_the_table_once(self, word, calls, cold, monkeypatch):
        # One growth, to the word's length and one past its deepest depth.
        original = ranking._grow
        seen = []

        def grow(length, depth=0):
            seen.append((length, depth))
            return original(length, depth)

        monkeypatch.setattr(ranking, "_grow", grow)
        assert words.rank(word) == reference_rank(word, reference_rows(len(word)))
        assert seen == calls

    def test_malformed_words_grow_no_table(self, cold):
        for word in (")(" * 500, "(" * 999 + "0"):
            with pytest.raises(MotzkinError) as caught:
                words.rank(word)
            assert type(caught.value) is NotUniqueError
        assert ranking._COLUMNS is cold == cold_table()

    def test_a_refused_unique_word_is_an_internal_error(self, cold, monkeypatch):
        # A walk that refuses a word validate accepts is a fault of the
        # table, not of the word.
        monkeypatch.setattr(ranking, "_position", lambda word, columns: None)
        with pytest.raises(InternalError, match=r"^rank refused the unique word '\(\)'$"):
            ranking.rank("()")

    def test_closing_runs_match_the_reference_walk(self):
        # In each of these words a ')' runs at one more depth than the
        # symbols left after it, where its '(' block is a pad zero.
        rows = reference_rows(ranking.RANK_LIMIT)
        for k in range(1, 501):
            for word in ("(" * k + ")" * k, "(" * k + "0" + ")" * k, "(" + "0" * k + ")"):
                if len(word) > ranking.RANK_LIMIT:
                    with pytest.raises(LimitExceededError):
                        words.rank(word)
                else:
                    assert words.rank(word) == reference_rank(word, rows)

    @pytest.mark.parametrize("table", ["cold", "warm", "deep"])
    def test_unclosable_zero_is_refused(self, table, cold):
        # The second '0' leaves 300 open with 299 symbols left.
        word = "(" * 300 + "00" + ")" * 299
        if table == "warm":
            ranking.completion_count(0, len(word))
        if table == "deep":
            words.rank("(" * 300 + ")" * 300)
        before = ranking._COLUMNS
        with pytest.raises(NotUniqueError) as caught:
            words.rank(word)
        assert str(caught.value) == f"not a Motzkin word: 1 unmatched '(' in {word!r}"
        if table == "cold":
            assert ranking._COLUMNS is cold == cold_table()
        elif table == "warm":
            # The walk read past depth 1, but the word builds no column.
            assert len(ranking._COLUMNS) == 2
        else:
            # These fit the table's length and depth, so the walk reaches
            # the end and only the open end refuses them.
            for opened, unmatched in (("0" * 300, 300), ("0" * 299 + ")", 299)):
                word = "(" * 300 + opened
                with pytest.raises(NotUniqueError) as caught:
                    words.rank(word)
                assert str(caught.value) == f"not a Motzkin word: {unmatched} unmatched '(' in {word!r}"
            assert ranking._COLUMNS is before


class TestUnrank:
    @pytest.mark.parametrize("table", ["cold", "warm"])
    def test_rejects_a_float(self, table, cold):
        # A warm table once answered 8.9 with the word at index 8.
        if table == "warm":
            ranking.completion_count(0, 4)
        with pytest.raises(TypeError):
            words.unrank(8.9)
        if table == "cold":
            assert ranking._COLUMNS is cold == cold_table()

    def test_cold_call_builds_the_table_to_its_length(self, cold):
        # unrank reads the length off the stream of Motzkin numbers, and the
        # table grows to that length and to each depth the walk reaches.
        index = sequences.motzkin_numbers(400)[-1] - 1
        word = words.unrank(index)
        assert word == reference_unrank(index, reference_rows(400))
        assert len(word) == 400
        assert ranking._COLUMNS == table_layout(400, len(ranking._COLUMNS) - 1)

    def test_cold_call_builds_one_motzkin_table(self, cold, monkeypatch):
        # Column 0 is the one table of Motzkin numbers a cold unrank
        # builds; the length comes from the stream, which holds none.
        index = sequences.motzkin_numbers(400)[-1] - 1
        calls = []
        original = sequences.motzkin_numbers
        monkeypatch.setattr(sequences, "motzkin_numbers", lambda n_max: calls.append(n_max) or original(n_max))
        assert len(words.unrank(index)) == 400
        assert calls == [400]


# Calls words.<argv[1]> on the argument read from stdin on a cold table;
# prints its result and the peak RSS of the process in MB. It reads
# VmHWM, the peak of this program alone: ru_maxrss keeps the high-water
# mark of the process that started it across exec, 150 MB and more
# under the test runner.
PEAK_PROBE = """
import json, sys
from motzkin import words
argument = json.load(sys.stdin)
result = getattr(words, sys.argv[1])(argument)
with open("/proc/self/status") as status:
    peak = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")) / 1024
print(json.dumps({"result": result, "peak_mb": peak}))
"""


class TestRankLimit:
    def test_unrank_stops_at_the_limit_block(self):
        motzkin = sequences.motzkin_numbers(ranking.RANK_LIMIT)
        with pytest.raises(LimitExceededError):
            words.unrank(motzkin[-1])
        with pytest.raises(LimitExceededError):
            words.unrank(10**3000)
        last = words.unrank(motzkin[-1] - 1)
        assert len(ranking._COLUMNS[0]) == ranking.RANK_LIMIT + 1
        assert len(last) == ranking.RANK_LIMIT
        assert words.rank(last) == motzkin[-1] - 1

    def test_unrank_refuses_far_indexes_without_building(self, cold):
        # Every index of M_RANK_LIMIT or more is refused without growing the
        # table.
        first_refused = sequences.motzkin_numbers(ranking.RANK_LIMIT)[-1]
        for index in (10**3000, 3**ranking.RANK_LIMIT, first_refused):
            with pytest.raises(LimitExceededError) as caught:
                words.unrank(index)
            assert str(caught.value) == "length 1001 exceeds the rank bound 1000"
        assert ranking._COLUMNS is cold == cold_table()

    @pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
    def test_unrank_of_the_last_index_peaks_below_20_mb(self):
        # M_1000 - 1 is "()()...()", which reads depth 2 at most, so its
        # table holds three counts a row.
        last = sequences.motzkin_numbers(ranking.RANK_LIMIT)[-1] - 1
        report = run_fresh("unrank", last)
        assert report["result"] == "()" * (ranking.RANK_LIMIT // 2)
        assert report["peak_mb"] < 20

    @pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
    def test_deepest_word_peaks_below_60_mb(self):
        # The deepest word at the bound needs every depth, the largest table
        # either walk can build; each direction from a cold table. Its time
        # is the deepest_word cost gate.
        ranked = run_fresh("rank", DEEPEST_WORD)
        unranked = run_fresh("unrank", ranked["result"])
        assert unranked["result"] == DEEPEST_WORD
        for report in (ranked, unranked):
            assert report["peak_mb"] < 60


class TestSharedTable:
    def test_a_fresh_process_holds_the_cold_table(self):
        # The table the cold fixture installs is the one a process starts with.
        done = python("-c", "from motzkin import ranking; print(ranking._COLUMNS)", text=True, check=True)
        assert done.stdout == f"{cold_table()!r}\n"

    def test_call_order_does_not_matter(self, monkeypatch):
        # From a cold table, one word and one index per length, descending
        # and then ascending; from a cold table again, the other way round.
        rng = random.Random(300)
        motzkin = sequences.motzkin_numbers(300)
        lengths = range(20, 301, 20)
        cases = [[n, random_unique_word(rng, n), rng.randrange(motzkin[n - 1], motzkin[n])] for n in lengths]

        def run(descending):
            return sorted([n, words.rank(w), words.unrank(i)] for n, w, i in sorted(cases, reverse=descending))

        runs = []
        for first in (True, False):
            support.cold(monkeypatch)
            runs += [run(first), run(not first)]
        assert all(run == runs[0] for run in runs)
        for (n, word, index), (length, position, unranked) in zip(cases, runs[0]):
            assert length == n
            assert motzkin[n - 1] <= position < motzkin[n]
            assert len(unranked) == n and unranked[0] == "("
            assert words.rank(unranked) == index
            assert words.unrank(position) == word

    def test_concurrent_growth(self, cold):
        # Four threads start together on a cold table and rank/unrank at
        # interleaved lengths.
        rng = random.Random(400)
        motzkin = sequences.motzkin_numbers(400)
        lengths = list(range(20, 401, 20))
        jobs = []
        for t in range(4):
            mine = lengths[t::4][:: -1 if t % 2 else 1]
            calls = []
            for n in mine:
                calls.append(["unrank", rng.randrange(motzkin[n - 1], motzkin[n])])
                calls.append(["rank", random_unique_word(rng, n)])
            jobs.append(calls)
        results = [None] * len(jobs)
        barrier = threading.Barrier(len(jobs))

        def work(t):
            barrier.wait()
            results[t] = [words.rank(a) if op == "rank" else words.unrank(a) for op, a in jobs[t]]

        # Daemon threads, so one that hangs fails the test without holding
        # the test run open.
        threads = [threading.Thread(target=work, args=(t,), daemon=True) for t in range(len(jobs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        columns = ranking._COLUMNS
        rows = reference_rows(400)
        expected = [[reference_rank(a, rows) if op == "rank" else reference_unrank(a, rows) for op, a in calls] for calls in jobs]
        assert results == expected
        # The depth bound is one past the deepest depth of any word walked.
        walked = [a if op == "rank" else word for calls, answers in zip(jobs, expected) for (op, a), word in zip(calls, answers)]
        assert len(columns) - 1 == 1 + max(map(deepest, walked))
        assert columns == table_layout(400, len(columns) - 1)
        assert [ranking.completion_count(0, n) for n in range(401)] == motzkin

    @pytest.mark.parametrize("order", ["length-first", "depth-first", "interleaved"])
    def test_growth_order_does_not_change_the_table(self, order, cold):
        # Lengths and depths grow down from M_n in one routine; whatever the
        # order, every entry held must be the upward build's.
        top, depth = 60, 20
        if order == "length-first":
            steps = [(top, 1), (top, depth)]
        elif order == "depth-first":
            steps = [(2 * h, h) for h in range(1, depth + 1)] + [(top, depth)]
        else:
            rng = random.Random(60)
            lengths = sorted(rng.sample(range(1, top), 9)) + [top]
            depths = sorted(rng.sample(range(1, depth), 9)) + [depth]
            steps = [(n, min(h, (n + 2) // 2)) for n, h in zip(lengths, depths)]
        for length, deepest_read in steps:
            ranking._grow(length, deepest_read)
            assert ranking._COLUMNS == table_layout(length, deepest_read)

    def test_deepening_keeps_the_columns_it_holds(self, cold):
        # unrank deepens the table one column at a time inside its walk, so
        # a growth in depth alone must reuse every column it holds, not copy
        # it, and a request the table covers must return it unchanged.
        shallow = ranking._grow(60, 3)
        deep = ranking._grow(60, 8)
        assert all(deep[h] is shallow[h] for h in range(4))
        assert deep == table_layout(60, 8)
        assert ranking._grow(40, 2) is deep

    def test_a_growth_in_length_keeps_the_depth_bound(self, cold):
        # A shallow request that grows the length must extend every column
        # the table holds, not drop the deeper ones.
        ranking._grow(10, 6)
        grown = ranking._grow(20)
        assert len(grown) - 1 == 6
        assert grown == table_layout(20, 6)

    def test_growth_builds_under_its_lock(self, cold, monkeypatch):
        # Column 0 is read while the table is built, so recording whether
        # _GROWING is held then shows a lost lock on every run, where
        # test_concurrent_growth shows it only when the threads interleave.
        original = sequences.motzkin_numbers
        held = []

        def recording(n_max):
            held.append(ranking._GROWING.locked())
            return original(n_max)

        monkeypatch.setattr(sequences, "motzkin_numbers", recording)
        ranking._grow(30, 4)
        assert held == [True]

    @pytest.mark.parametrize("first", ["", "(((())))"], ids=["by-column", "by-diagonal"])
    def test_wrong_motzkin_number_fails_a_pad(self, first, cold, monkeypatch, capsys):
        # The table starts each length from M_n and counts down; with M_9
        # one too high, the first pad entry that reads it is 1. From a cold
        # table, deepening to depth 6 at length 10 finds it; after a word of
        # length 8 and depth 4 the table is 5 deep, and growing it to length
        # 10 finds it. Either way the failed growth publishes nothing.
        original = sequences.motzkin_numbers
        monkeypatch.setattr(sequences, "motzkin_numbers", lambda n_max: [m + (n == 9) for n, m in enumerate(original(n_max))])
        word = "(" * 5 + ")" * 5
        if first:
            words.rank(first)
        else:
            ranking._grow(len(word))
        before = ranking._COLUMNS
        contents = [list(column) for column in before]
        with pytest.raises(InternalError) as caught:
            words.rank(word)
        assert str(caught.value) == "c(5, 4) = 1, not 0"
        assert ranking._COLUMNS is before
        assert ranking._COLUMNS == contents
        ranking._COLUMNS = cold_table()
        assert cli.main(["rank", "--word", word]) == 3
        assert capsys.readouterr().err.startswith("error: INTERNAL: ")


class TestBijection:
    def test_matches_the_reference_walk_at_long_lengths(self):
        # The block's first and last index at every length, whose words
        # "(0...0)" and "((...))" end in ')'s at one more depth than the
        # symbols left, and at every 20th length 13 random indexes and 15
        # random words, against the per-candidate walk.
        rng = random.Random(2020)
        rows = reference_rows(400)
        for n in range(2, 401):
            first, end = rows[n - 1][0], rows[n][0]
            indexes = [first, end - 1]
            if n % 20 == 0:
                indexes += [rng.randrange(first, end) for _ in range(13)]
            for index in indexes:
                word = reference_unrank(index, rows)
                assert len(word) == n and word[0] == "("
                assert words.unrank(index) == word
                assert words.rank(word) == index
                if n % 20 == 0:
                    other = random_unique_word(rng, n)
                    assert words.rank(other) == reference_rank(other, rows)

    def test_enumerate_matches_unrank_blocks(self):
        offset = 0
        for n in range(1, 9):
            block = words.enumerate_words(n, "unique")
            assert block == [words.unrank(offset + i) for i in range(len(block))]
            # A series index of length n is also the word's lexicographic
            # index among all n-words.
            listing = words.enumerate_words(n, "all")
            for i in range(offset, offset + len(block)):
                assert listing[i] == words.unrank(i)
                assert words.rank(words.unrank(i)) == i
            offset += len(block)
