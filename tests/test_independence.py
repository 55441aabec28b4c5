"""The routes that ``verify`` checks against each other must share no
code, or one fault could pass both sides of a line. The listing in
``motzkin.words`` and the completion table with its walks in
``motzkin.ranking`` are two routes to one series, and every line's two
sides call only the shared functions its allowlist names."""

import ast
import json
import os
import sys
from pathlib import Path

import pytest
from support import python

from motzkin import ranking, verify, words

# The one thing the listing takes from ranking: the alphabet's three
# one-character strings, which words binds from there so that each is
# defined once.
ALPHABET = {"ZERO", "OPEN", "CLOSE"}


def names_read(code):
    """Every global and attribute name that ``code``, or code nested in
    it, reads."""
    found = set(code.co_names)
    for constant in code.co_consts:
        if hasattr(constant, "co_names"):
            found |= names_read(constant)
    return found


def defined_in_ranking():
    """The names that ranking's own top-level statements define."""
    defined = set()
    for node in ast.parse(Path(ranking.__file__).read_text()).body:
        if isinstance(node, ast.FunctionDef):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined.update(target.id for target in node.targets)
        elif isinstance(node, ast.AnnAssign):
            defined.add(node.target.id)
    return defined


# On a cold table, ranks a valid word longer than the table, an inherited
# word, a malformed word, the deepest word of length 600 and a word of that
# length that ends open on the table it grew, and unranks one index,
# through the package's lazy names; prints each result or error message
# and the modules loaded.
COLD_CALLS = """
import json, sys, motzkin
results = []
for word in ["(0)", "0()", "())(", "(" * 300 + ")" * 300, "(" * 300 + "0" * 300]:
    try:
        results.append(motzkin.rank(word))
    except motzkin.NotUniqueError as exc:
        results.append(str(exc))
results.append(motzkin.unrank(6))
print(json.dumps({"results": results, "modules": sorted(sys.modules)}))
"""


def test_ranking_loads_no_listing():
    result = python("-c", COLD_CALLS, text=True, check=True)
    report = json.loads(result.stdout)
    assert report["results"] == [
        2,
        "'0()' has no position in the series",
        "not a Motzkin word: prefix '())' closes below depth zero",
        ranking.rank("(" * 300 + ")" * 300),
        f"not a Motzkin word: 300 unmatched '(' in {'(' * 300 + '0' * 300!r}",
        "(())",
    ]
    assert "motzkin.ranking" in report["modules"]
    assert "motzkin.words" not in report["modules"]


def test_listing_names_nothing_of_the_table_or_walks():
    defined = defined_in_ranking()
    assert {"RANK_LIMIT", "_COLUMNS", "_GROWING", "_grow", "completion_count", "_position", "rank", "unrank"} <= defined
    for function in (words.word_blocks, words._blocks, words.enumerate_words):
        assert not names_read(function.__code__) & (defined - ALPHABET), function.__name__


def test_words_binds_from_ranking_only_the_alphabet_validate_and_the_walks():
    # The walks' table and its bound are reached through ranking alone.
    bound = {name for name in defined_in_ranking() if name in vars(words) and vars(words)[name] is vars(ranking)[name]}
    assert bound == ALPHABET | {"validate", "rank", "unrank"}
    assert not {"completion_count", "RANK_LIMIT"} & vars(words).keys()


# Line -> {package function both sides call: why the line still checks
# something}. Every declared line has an entry; an empty one means the
# two sides share no package function.
SHARED = {
    "motzkin-recurrence-vs-functional-series": {},
    "motzkin-functional-vs-closed-form": {
        "series.motzkin_series": "the method dispatch; each method builds its coefficients its own way",
        "series.TruncatedSeries.__init__": "stores the coefficients it is given",
        "series.TruncatedSeries.integer_coefficients": "reads the coefficients out as ints, checking each",
    },
    "difference-subtraction-vs-convolution": {
        "sequences.difference_numbers": "the method dispatch; each method has its own loop",
        "sequences.motzkin_numbers": "both forms read M; the line checks its recurrence against its convolution",
        "sequences.motzkin_stream": "the recurrence that motzkin_numbers lists",
    },
    "nat-product-vs-linear": {
        "series.nat_series": "the form dispatch; each form has its own arithmetic",
        "series.motzkin_series": "both forms start from the functional M: the line checks the arithmetic on it",
        "series.TruncatedSeries.__mul__": "M * M against (1 - x) * M; nat-series-vs-difference-table checks M * M",
        "series.TruncatedSeries.order": "the truncation order of each product",
        "series.TruncatedSeries.__init__": "stores the coefficients it is given",
        "series.TruncatedSeries.integer_coefficients": "reads the coefficients out as ints, checking each",
    },
    "nat-series-vs-difference-table": {},
    "symdiff-vs-difference-table": {},
    "census-all-vs-motzkin-table": {},
    "census-unique-vs-difference-table": {},
    "census-inherited-vs-shifted-motzkin": {},
    "rank-unrank-roundtrip": {},
    "unrank-order-coherence": {},
}

LINES = [name for name, *_ in verify._lines(0)]
COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}


def package_calls(side):
    """The package functions outside ``motzkin.verify`` that running
    ``side`` to its end calls, as 'module.qualname'. A comprehension or
    generator expression counts as the function that holds it, since
    3.12 runs list comprehensions inline and 3.11 in frames of their own."""
    package = os.path.dirname(verify.__file__)
    called = set()

    def hook(frame, event, arg):
        code = frame.f_code
        if event == "call" and os.path.dirname(code.co_filename) == package and code.co_filename != verify.__file__:
            name = code.co_qualname
            if code.co_name in COMPREHENSIONS:
                name = name.rpartition(".<locals>.")[0]
            called.add(f"{Path(code.co_filename).stem}.{name}")

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        for _ in side():
            pass
    finally:
        sys.setprofile(previous)
    return called


def test_allowlist_names_the_declared_lines():
    assert list(SHARED) == LINES


@pytest.mark.parametrize("index", range(len(LINES)), ids=LINES)
def test_sides_share_only_their_allowlist(monkeypatch, index):
    assert LINES[index] in SHARED, "a new line needs an allowlist entry"
    # Each side runs from a fresh declaration, on a cold completion
    # table, so no table built by another side hides a call.
    calls = []
    for side in (1, 2):
        monkeypatch.setattr(ranking, "_COLUMNS", [[1], []])
        calls.append(package_calls(list(verify._lines(24))[index][side]))
    assert calls[0] & calls[1] == set(SHARED[LINES[index]])
