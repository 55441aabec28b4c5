"""The listing in ``motzkin.words`` and the completion table with its
walks in ``motzkin.ranking`` are two routes to one series, which
``verify`` checks against each other. They must share no code, or one
fault could pass both checks."""

import ast
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


def test_ranking_loads_no_listing():
    script = "import sys, motzkin.ranking; print(' '.join(sys.modules))"
    result = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = set(result.stdout.split())
    assert "motzkin.ranking" in loaded
    assert "motzkin.words" not in loaded


def test_listing_names_nothing_of_the_table_or_walks():
    defined = defined_in_ranking()
    assert {"RANK_LIMIT", "_COLUMNS", "_GROWING", "_grow", "completion_count", "_position", "rank", "unrank"} <= defined
    for function in (words.word_blocks, words._blocks, words.enumerate_words):
        assert not names_read(function.__code__) & (defined - ALPHABET), function.__name__
