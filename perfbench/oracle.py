"""Independent correctness oracle for the benchmark.

Nothing here imports ``motzkin``. The Motzkin numbers come from the
three-term recurrence ``(n+2) M_n = (2n+1) M_{n-1} + 3(n-1) M_{n-2}``
(Donaghey & Shapiro, JCTA 23, 1977), which the package does not use, and
words are checked by bracket reduction on whole listings at once.
"""

from __future__ import annotations

MOTZKIN_PREFIX = (1, 1, 2, 4, 9, 21, 51, 127, 323, 835, 2188)
DIFFERENCE_PREFIX = (0, 1, 1, 2, 5, 12, 30, 76, 196, 512, 1353)

# Maps the alphabet '0' < '(' < ')' onto letters whose code points sort
# the same way, so plain string comparison realises the series order.
_ORDER_TABLE = str.maketrans("0()", "abc")
_ALPHABET_DELETE = str.maketrans("", "", "0()\n")


class Oracle:
    """Motzkin and difference numbers up to a growing bound."""

    def __init__(self) -> None:
        self._m = [1, 1]

    def motzkin(self, n_max: int) -> list[int]:
        m = self._m
        for n in range(len(m), n_max + 1):
            value, rem = divmod((2 * n + 1) * m[n - 1] + 3 * (n - 1) * m[n - 2], n + 2)
            if rem:
                raise ArithmeticError(f"recurrence not integral at n={n}")
            m.append(value)
        return m[: n_max + 1]

    def difference(self, n_max: int) -> list[int]:
        m = self.motzkin(n_max)
        return [0, 1][: n_max + 1] + [m[n] - m[n - 1] for n in range(2, n_max + 1)]

    def block(self, length: int) -> tuple[int, int]:
        """Half-open index range of the unique words of ``length`` in the series."""
        if length == 1:
            return 0, 1
        m = self.motzkin(length)
        return m[length - 1], m[length]

    def length_of_index(self, index: int) -> int:
        length = 1
        while self.block(length)[1] <= index:
            length += 1
        return length

    def self_check(self) -> bool:
        return tuple(self.motzkin(10)) == MOTZKIN_PREFIX and tuple(self.difference(10)) == DIFFERENCE_PREFIX


def all_valid(words: list[str]) -> bool:
    """True when every entry is a Motzkin word (empty allowed).

    Deleting '0' and then repeatedly deleting adjacent "()" empties a
    string exactly when it is a balanced bracket word; newlines keep the
    entries apart, so one pass over the joined text checks them all.
    """
    text = "\n".join(words)
    if text.translate(_ALPHABET_DELETE):
        return False
    text = text.replace("0", "")
    while "()" in text:
        text = text.replace("()", "")
    return not text.strip("\n")


def word_class(word: str) -> str:
    """'empty', 'unique' or 'inherited' for a valid word."""
    if not word:
        return "empty"
    return "unique" if word == "0" or word[0] == "(" else "inherited"


def strictly_increasing(words: list[str]) -> bool:
    """Whether the words ascend in series order: shorter words first,
    then '0' < '(' < ')'."""
    keys = "\n".join(words).translate(_ORDER_TABLE).split("\n")
    return all(len(a) < len(b) or (len(a) == len(b) and a < b) for a, b in zip(keys, keys[1:]))


def expected_count(oracle: Oracle, length: int, kind: str) -> int:
    """Number of words of ``length`` in the enumeration filter ``kind``."""
    if kind == "all":
        return oracle.motzkin(length)[length]
    if kind == "unique":
        return oracle.difference(length)[length]
    return oracle.motzkin(length - 1)[length - 1] if length >= 2 else 0
