"""Golden contract: the CLI's exit codes and output bytes are fixed.

Each case runs ``cli.main`` in process and compares its exit code and
the SHA-256 digests of stdout and stderr with values recorded before the
refactors they guard, so a change that keeps the contract passes here
unchanged and one that alters any byte fails. Error cases name their
expected stderr line in a comment. ``--help`` and argparse usage errors
are left out: CI installs the newest patch of each Python release, and
argparse's wording may change between patches.
"""

import hashlib

import pytest
from support import run

from motzkin import sequences

EMPTY = hashlib.sha256(b"").hexdigest()
LONG_WORD = "(" + "(0)" * 130 + "0()" * 3 + ")"
NESTED_WORD = "(" * 500 + ")" * 500
# The first index and the shortest word past the rank bound.
FIRST_REFUSED_INDEX = sequences.motzkin_numbers(1000)[-1]
REFUSED_WORD = "(" + "0" * 999 + ")"

# (command line, exit code, stdout digest, stderr digest)
CASES = [
    ("numbers --max 1000 --bfile", 0,
        "55c119c7e81a013f1024e375736156d726011ca7dd9ba88f6dc36ab74aee2572", EMPTY),
    ("diff --max 400 --method convolution", 0,
        "627a25412eb0cadd54db0889657cc08b854a95f9b516dc647f9b3c724d314762", EMPTY),
    ("series --target motzkin --order 250 --method functional", 0,
        "9fe381e926ae065eaf5bc42875f2112467ecad4db92324519e324752782da206", EMPTY),
    ("series --target motzkin --order 250 --method closed", 0,
        "9fe381e926ae065eaf5bc42875f2112467ecad4db92324519e324752782da206", EMPTY),
    ("series --target nat --order 250 --method product", 0,
        "46c1eeffbea0885375d5c9254dd177273c6f62fed7c0830e3aa667fbc9baddc0", EMPTY),
    ("series --target nat --order 250 --method linear", 0,
        "46c1eeffbea0885375d5c9254dd177273c6f62fed7c0830e3aa667fbc9baddc0", EMPTY),
    ("symdiff --max 60", 0,
        "2b328049bad0c608583a86c4ddce1ac9bbe55ed65e1d537d28fc6b4b3bb10dd7", EMPTY),
    ("verify --max 4", 0,
        "b98fdf56fdf1330c1c41c9f1026c7dcbc867ef90c0c78a4756902d25e80aa16f", EMPTY),
    ("verify --max 24", 0,
        "8d5050e5b7eabf0455c0a7ee7bb05fa2158e3e37d2922f4934be2d939172a15e", EMPTY),
    ("enumerate --length 12 --filter all", 0,
        "cfa52db3f4fe474f1ceb3cf0b60c3433c42daeb5530ce304245e8f2dbb3f8983", EMPTY),
    ("enumerate --length 12 --filter unique", 0,
        "d602d06b1aa5e2a97c5dec25ba887f8dc383b6c5dfd205daa8b4aa96979d0ec9", EMPTY),
    ("enumerate --length 12 --filter inherited", 0,
        "00f83214dd5d88553db314a1f09cde519c81bb9c632ce79f3ef7c3df192b14f9", EMPTY),
    (f"unrank --index {3**390}", 0,
        "2529e3b28d5ed8711e96ab762c81a0c857ef98ebf4e758fbd9ff1fbdf321163d", EMPTY),
    (f"rank --word {LONG_WORD}", 0,
        "b3d75b2439e0bafca2d9626f0a3ced3a9d2328e4eb0c4d26b086de60ce4607f1", EMPTY),
    (f"rank --word {NESTED_WORD}", 0,
        "99bfe5c20db5c2e96e1bade21a19d566953977cd993550f8961a4ddd8022f590", EMPTY),
    ("diff --max 1 --method convolution", 0,
        "82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae", EMPTY),
    ("enumerate --length 1 --filter unique", 0,
        "eb4565f1fb416c3d650c647d6783a41b3b3d15cba01c8699f886b7aef4ad8758", EMPTY),
    ("enumerate --length 0", 0,
        "f940b325d835f25f3a26d03bdf21e79688e95ba8a5973d4fb78fb2813ae6139c", EMPTY),
    ("symdiff --max 0", 0,
        "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa", EMPTY),
    ("verify --max 0", 0,
        "4ffe8a334e72dff708ccf027cbfc9e7a8fc8b479957116f6f575f3549e37254f", EMPTY),
    ("verify --max 1", 0,
        "f30769738b85752972380bc1a45db2d1b6c4266fdcc5f16f093ad17d0deb61f3", EMPTY),
    ("verify --max 2", 0,
        "36866f3ecdbba532539ff78f4e90d738428c441ec316386ec1833f4f8792cb5b", EMPTY),
    # count=0: no word shorter than 2 is inherited
    ("enumerate --length 1 --filter inherited", 0,
        "d950b4e86f37941c3520e2f6072e72fac7dd04015e53cf27644030cfef1c1216", EMPTY),
    # error: NOT_UNIQUE: '0()' has no position in the series
    ("rank --word 0()", 1,
        EMPTY, "b8305aeb70018bd1e5194c798df00c27df16b828b708e62e1ac4d18e3b64f9f5"),
    # error: NOT_UNIQUE: not a Motzkin word: 1 unmatched '(' in '(()'
    ("rank --word (()", 1,
        EMPTY, "ec8cd117edb16e14490279dbcf0f5af7049c0119bf3cd93234990439edfbc1d1"),
    # error: NOT_UNIQUE: not a Motzkin word: 1 unmatched '(' in '(((00))'
    ("rank --word (((00))", 1,
        EMPTY, "5dad2bf746fd4949b4308436015714a7105c465c6611c8c2ce39e03bcdd49528"),
    # error: LIMIT_EXCEEDED: length 17 exceeds the enumeration bound 16
    ("enumerate --length 17", 1,
        EMPTY, "ed7d8fb1837724285b34c1345c0000dcea76ee5dc177df6c04c87c630e1358d7"),
    # error: LIMIT_EXCEEDED: length 1001 exceeds the rank bound 1000
    (f"unrank --index {3**1000}", 1,
        EMPTY, "aa1f4e0c5e5e518c784032afa1c9a145cacd00c5f92168623be5f90050051fb5"),
    # error: LIMIT_EXCEEDED: length 1001 exceeds the rank bound 1000
    (f"unrank --index {FIRST_REFUSED_INDEX}", 1,
        EMPTY, "aa1f4e0c5e5e518c784032afa1c9a145cacd00c5f92168623be5f90050051fb5"),
    # error: LIMIT_EXCEEDED: length 1001 exceeds the rank bound 1000
    (f"rank --word {REFUSED_WORD}", 1,
        EMPTY, "aa1f4e0c5e5e518c784032afa1c9a145cacd00c5f92168623be5f90050051fb5"),
    # error: USAGE: method 'closed' does not apply to target 'nat'
    ("series --target nat --order 5 --method closed", 1,
        EMPTY, "92d0c91883f3f303e402146d3f3b1aff046687fd00bc4bd44f207bac48f2bf50"),
    # error: USAGE: n_max must be nonnegative
    ("numbers --max -2", 1,
        EMPTY, "7fc110c38be848a33f37b7be880249d4bbcc9becec4371cc103cba079ea5caa3"),
    # error: USAGE: n_max must be nonnegative
    ("diff --max -1", 1,
        EMPTY, "7fc110c38be848a33f37b7be880249d4bbcc9becec4371cc103cba079ea5caa3"),
    # error: USAGE: order must be nonnegative
    ("series --target motzkin --order -1", 1,
        EMPTY, "e4d761ff8c97d824203b1462c1d0b9cf5ed363114aa9bed7545a4c9770be0dce"),
    # error: USAGE: n_max must be nonnegative
    ("verify --max -1", 1,
        EMPTY, "7fc110c38be848a33f37b7be880249d4bbcc9becec4371cc103cba079ea5caa3"),
    # error: USAGE: k_max must be nonnegative
    ("symdiff --max -1", 1,
        EMPTY, "a7367bf6b7915afd4070083db1ff03fc8e1cd0eba64468ef98ae1d9a2dc2ece1"),
    # error: USAGE: length must be nonnegative
    ("enumerate --length -1", 1,
        EMPTY, "627b743978938a72a0a30f3d1ec0abba0693fc1f00f4815acf1e7bef6128ad8a"),
    # error: USAGE: index must be nonnegative
    ("unrank --index -1", 1,
        EMPTY, "48692bbadd6ded329cb659b7c7a5539bcfa13f617bae6d4efc895d1d8c42411b"),
]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def case_id(command: str) -> str:
    return "-".join(command.replace("--", "").split())[:60]


@pytest.mark.parametrize("command, code, out_digest, err_digest", CASES, ids=[case_id(case[0]) for case in CASES])
def test_output_is_unchanged(capsys, command, code, out_digest, err_digest):
    status, out, err = run(capsys, *command.split())
    assert (status, digest(out), digest(err)) == (code, out_digest, err_digest)
