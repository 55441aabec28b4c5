"""The listing in ``motzkin.words`` and the completion table with its
walks in ``motzkin.ranking`` are two routes to one series, which
``verify`` checks against each other. They must share no code, or one
fault could pass both checks."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from motzkin import ranking, words

SRC = Path(__file__).resolve().parent.parent / "src"

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
# word and a malformed word, and unranks one index, through the package's
# lazy names; prints each result or error message and the modules loaded.
COLD_CALLS = """
import json, sys, motzkin
results = []
for word in ["(0)", "0()", "())("]:
    try:
        results.append(motzkin.rank(word))
    except motzkin.NotUniqueError as exc:
        results.append(str(exc))
results.append(motzkin.unrank(6))
print(json.dumps({"results": results, "modules": sorted(sys.modules)}))
"""


def test_ranking_loads_no_listing():
    result = subprocess.run(
        [sys.executable, "-c", COLD_CALLS],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    report = json.loads(result.stdout)
    assert report["results"] == [
        2,
        "'0()' has no position in the series",
        "not a Motzkin word: prefix '())' closes below depth zero",
        "(())",
    ]
    assert "motzkin.ranking" in report["modules"]
    assert "motzkin.words" not in report["modules"]


def test_listing_names_nothing_of_the_table_or_walks():
    defined = defined_in_ranking()
    assert {"RANK_LIMIT", "_COLUMNS", "_GROWING", "_grow", "completion_count", "_position", "rank", "unrank"} <= defined
    for function in (words.word_blocks, words._blocks, words.enumerate_words):
        assert not names_read(function.__code__) & (defined - ALPHABET), function.__name__
