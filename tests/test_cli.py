import argparse
import importlib
import os
import re
import subprocess
import sys
import tracemalloc

import pytest
from support import SRC, child_env, python, run

import motzkin
from motzkin import DegenerateFractionError, InternalError, cli, errors, sequences, series, symdiff, words


class TestNumbers:
    def test_plain(self, capsys):
        code, out, _ = run(capsys, "numbers", "--max", "13")
        assert code == 0
        assert out == "".join(f"{v}\n" for v in sequences.motzkin_numbers(13))

    def test_bfile(self, capsys):
        code, out, _ = run(capsys, "numbers", "--max", "3", "--bfile")
        assert code == 0
        assert out == "0 1\n1 1\n2 2\n3 4\n"

    def test_one_write_per_line(self, monkeypatch):
        # Unbuffered, each write is a system call.
        class Recorder(list):
            write = list.append

            def flush(self):
                pass

        monkeypatch.setattr(sys, "stdout", Recorder())
        assert cli.main(["numbers", "--max", "5", "--bfile"]) == 0
        assert sys.stdout == ["0 1\n", "1 1\n", "2 2\n", "3 4\n", "4 9\n", "5 21\n"]


class TestDiff:
    def test_anchor(self, capsys):
        code, out, _ = run(capsys, "diff", "--max", "6")
        assert code == 0
        assert out == "0\n1\n1\n2\n5\n12\n30\n"

    def test_methods_and_bfile(self, capsys):
        for method in ("subtraction", "convolution"):
            code, out, _ = run(capsys, "diff", "--max", "4", "--method", method, "--bfile")
            assert code == 0
            assert out == "0 0\n1 1\n2 1\n3 2\n4 5\n"


class TestEnumerate:
    def test_unique(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--length", "3", "--filter", "unique")
        assert code == 0
        assert out == "(0)\n()0\ncount=2\n"


class CountingSink:
    """A stdout stand-in that keeps only the line count and the last
    few characters written."""

    def __init__(self):
        self.lines = 0
        self.tail = ""

    def write(self, text):
        self.lines += text.count("\n")
        self.tail = (self.tail + text)[-32:]
        return len(text)

    def flush(self):
        pass


def traced_peak(call):
    """Peak bytes traced by tracemalloc while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStreaming:
    def test_listing_matches_the_list_api(self, capsys):
        for kind in words.FILTERS:
            code, out, _ = run(capsys, "enumerate", "--length", "10", "--filter", kind)
            listing = words.enumerate_words(10, kind)
            assert code == 0
            assert out == "".join(f"{w}\n" for w in listing) + f"count={len(listing)}\n"

    def test_enumerate_holds_no_listing(self, monkeypatch):
        # 853,467 words of length 16; the whole listing takes about 60 MB.
        sink = CountingSink()
        monkeypatch.setattr(sys, "stdout", sink)
        peak = traced_peak(lambda: cli.main(["enumerate", "--length", "16"]))
        assert sink.lines == 853467 + 1
        assert sink.tail.endswith(")\ncount=853467\n")
        assert peak < 2_000_000

    def test_numbers_holds_no_table(self, monkeypatch):
        # M_0..M_3000 take about 1 MB as a list; the stream holds two values.
        sink = CountingSink()
        monkeypatch.setattr(sys, "stdout", sink)
        peak = traced_peak(lambda: cli.main(["numbers", "--max", "3000"]))
        assert sink.lines == 3001
        assert sink.tail.endswith(str(sequences.motzkin_numbers(3000)[-1])[-20:] + "\n")
        assert peak < 100_000

    def test_verify_census_holds_no_listing(self):
        checks = []
        peak = traced_peak(lambda: checks.extend(cli.verification_checks(24)))
        assert checks and all(ok for _, ok, _ in checks)
        assert peak < 2_000_000


class TestRankUnrank:
    def test_rank(self, capsys):
        code, out, _ = run(capsys, "rank", "--word", "(0())")
        assert code == 0
        assert out == "11\n"

    def test_rank_rejects_inherited(self, capsys):
        code, _, err = run(capsys, "rank", "--word", "00")
        assert code == 1
        assert "NOT_UNIQUE" in err

    def test_rank_rejects_invalid(self, capsys):
        code, _, err = run(capsys, "rank", "--word", ")(")
        assert code == 1
        assert "NOT_UNIQUE" in err

    def test_rank_rejects_empty(self, capsys):
        code, _, err = run(capsys, "rank", "--word", "")
        assert code == 1
        assert "NOT_UNIQUE" in err

    def test_unrank(self, capsys):
        code, out, _ = run(capsys, "unrank", "--index", "6")
        assert code == 0
        assert out == "(())\n"

    def test_roundtrip(self, capsys):
        code, out, _ = run(capsys, "unrank", "--index", "481")
        word = out.strip()
        code2, out2, _ = run(capsys, "rank", "--word", word)
        assert (code, code2) == (0, 0)
        assert out2 == "481\n"


class TestSeries:
    def test_motzkin_default(self, capsys):
        code, out, _ = run(capsys, "series", "--target", "motzkin", "--order", "6")
        assert code == 0
        assert out == "1\n1\n2\n4\n9\n21\n51\n"

    def test_nat_methods(self, capsys):
        for method in ("product", "linear"):
            code, out, _ = run(capsys, "series", "--target", "nat", "--order", "6", "--method", method)
            assert code == 0
            assert out == "0\n1\n1\n2\n5\n12\n30\n"

    def test_motzkin_closed(self, capsys):
        code, out, _ = run(capsys, "series", "--target", "motzkin", "--order", "4", "--method", "closed")
        assert code == 0
        assert out == "1\n1\n2\n4\n9\n"

    def test_method_target_mismatch(self, capsys):
        code, out, err = run(capsys, "series", "--target", "motzkin", "--order", "4", "--method", "linear")
        assert (code, out) == (1, "")
        assert err == "error: USAGE: method 'linear' does not apply to target 'motzkin'\n"
        code, out, err = run(capsys, "series", "--target", "nat", "--order", "4", "--method", "closed")
        assert (code, out) == (1, "")
        assert err == "error: USAGE: method 'closed' does not apply to target 'nat'\n"

    def test_calls_through_the_module_attribute(self, capsys, monkeypatch):
        # Wrappers that rebind series.nat_series must see every CLI call.
        calls = []

        def fake(order, form):
            calls.append((order, form))
            return series.TruncatedSeries([7, 8])

        monkeypatch.setattr(series, "nat_series", fake)
        code, out, _ = run(capsys, "series", "--target", "nat", "--order", "1")
        assert (code, out, calls) == (0, "7\n8\n", [(1, "product")])


class TestSymdiff:
    def test_anchor(self, capsys):
        code, out, _ = run(capsys, "symdiff", "--max", "12")
        assert code == 0
        assert out == "0\n1\n1\n2\n5\n12\n30\n76\n196\n512\n1353\n3610\n9713\n"


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert cli.main(["conjecture"]) == 1

    def test_unknown_flag(self, capsys):
        assert cli.main(["numbers", "--max", "3", "--fancy"]) == 1

    def test_missing_required(self, capsys):
        assert cli.main(["numbers"]) == 1
        assert capsys.readouterr().err.endswith("error: the following arguments are required: --max\n")

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0


HELP = ("_HelpAction", ["-h", "--help"], "help", None, False, "==SUPPRESS==", None, None, "show this help message and exit")
BFILE = ("_StoreTrueAction", ["--bfile"], "bfile", None, False, False, None, None, "print 'n value' pairs (b-file format)")

# Every action of every parser as first recorded: (class, option strings,
# dest, type, required, default, choices, metavar, help). The help text
# around them differs between Python versions, so only these are pinned.
DECLARATIONS = {
    "": [HELP],
    "numbers": [HELP, ("_StoreAction", ["--max"], "max", "int", True, None, None, "N", None), BFILE],
    "diff": [
        HELP,
        ("_StoreAction", ["--max"], "max", "int", True, None, None, "N", None),
        ("_StoreAction", ["--method"], "method", None, False, "subtraction", ["subtraction", "convolution"], None, None),
        BFILE,
    ],
    "enumerate": [
        HELP,
        ("_StoreAction", ["--length"], "length", "int", True, None, None, "N", None),
        ("_StoreAction", ["--filter"], "filter", None, False, "all", ["all", "unique", "inherited"], None, None),
    ],
    "rank": [HELP, ("_StoreAction", ["--word"], "word", None, True, None, None, "W", None)],
    "unrank": [HELP, ("_StoreAction", ["--index"], "index", "int", True, None, None, "I", None)],
    "series": [
        HELP,
        ("_StoreAction", ["--target"], "target", None, True, None, ["motzkin", "nat"], None, None),
        ("_StoreAction", ["--order"], "order", "int", True, None, None, "N", None),
        ("_StoreAction", ["--method"], "method", None, False, None, ["functional", "closed", "product", "linear"], None, None),
    ],
    "symdiff": [HELP, ("_StoreAction", ["--max"], "max", "int", True, None, None, "K", None)],
    "verify": [HELP, ("_StoreAction", ["--max"], "max", "int", False, 12, None, "N", None)],
}

COMMAND_HELP = [
    ("numbers", "print the Motzkin numbers M_0..M_N"),
    ("diff", "print the difference numbers U_0..U_N"),
    ("enumerate", "list all Motzkin words of one length in series order"),
    ("rank", "position of a unique word in the series"),
    ("unrank", "series element at an index"),
    ("series", "generating function coefficients 0..N"),
    ("symdiff", "difference numbers via the symbolic derivative cycle"),
    ("verify", "cross-check all computation routes; census and round-trip checks are capped at lengths 14 and 10"),
]

# One plain command line per subcommand, each flag given.
PLAIN_LINES = [
    ["numbers", "--max", "3", "--bfile"],
    ["diff", "--bfile", "--method", "convolution", "--max", "3"],
    ["enumerate", "--length", "3", "--filter", "unique"],
    ["rank", "--word", "()"],
    ["unrank", "--index", "5"],
    ["series", "--method", "linear", "--target", "nat", "--order", "3"],
    ["symdiff", "--max", "3"],
    ["verify", "--max", "3"],
]


def declarations(parser):
    return [
        (
            type(action).__name__,
            action.option_strings,
            action.dest,
            getattr(action.type, "__name__", action.type),
            action.required,
            action.default,
            None if action.choices is None else list(action.choices),
            action.metavar,
            action.help,
        )
        for action in parser._actions
        if not isinstance(action, argparse._SubParsersAction)
    ]


class TestParser:
    def test_declarations_are_pinned(self):
        parser = cli.build_parser()
        commands = next(action for action in parser._actions if isinstance(action, argparse._SubParsersAction))
        assert [(action.dest, action.help) for action in commands._choices_actions] == COMMAND_HELP
        found = {"": declarations(parser)} | {name: declarations(sub) for name, sub in commands.choices.items()}
        assert found == DECLARATIONS

    @pytest.mark.parametrize("argv", [*PLAIN_LINES, ["numbers", "--max", "-2"], ["verify"], ["diff", "--max", "٣"]])
    def test_plain_lines_parse_as_argparse_does(self, argv):
        assert cli._plain_fields(argv) == vars(cli.build_parser().parse_args(argv))

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["-h"],
            ["numbers", "--help"],
            ["num", "--max", "3"],
            ["numbers", "--ma", "3"],
            ["numbers", "--max=3"],
            ["numbers", "--max", "3", "--max", "4"],
            ["numbers", "--max", "3", "--bfile", "--bfile"],
            ["numbers", "--max", "x"],
            ["numbers", "--max"],
            ["numbers"],
            ["numbers", "--max", "3", "extra"],
            ["diff", "--max", "3", "--method", "sub"],
            ["rank", "--word", "-()"],
            ["rank", "--word", "--index"],
            ["unrank", "--index", "9" * 5000],
        ],
    )
    def test_other_lines_are_left_to_argparse(self, argv):
        assert cli._plain_fields(argv) is None

    @pytest.mark.parametrize("argv", [["numbers", "--ma", "5"], ["numbers", "--max=5"], ["numbers", "--max", "1", "--max", "5"]])
    def test_argparse_forms_still_work(self, capsys, argv):
        assert run(capsys, *argv) == run(capsys, "numbers", "--max", "5")

    def test_subcommand_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "numbers", "--help")
        assert code == 0
        assert out.startswith("usage: motzkin numbers ")


class TestInternalErrors:
    @pytest.mark.parametrize("error, code", [(InternalError, "INTERNAL"), (DegenerateFractionError, "DEGENERATE")])
    def test_reported_without_traceback(self, capsys, monkeypatch, error, code):
        def broken(k_max):
            raise error("invariant failed")

        monkeypatch.setattr(symdiff, "nat_coefficients", broken)
        status, out, err = run(capsys, "symdiff", "--max", "3")
        assert status == 3
        assert out == ""
        assert err == f"error: {code}: invariant failed\n"
        assert "Traceback" not in err


class TestClosedPipe:
    @pytest.mark.parametrize("argv", [["enumerate", "--length", "14"], ["numbers", "--max", "5000"]])
    def test_reader_gone_exits_one_silently(self, argv):
        # Each listing is megabytes, far beyond a pipe buffer, so the
        # writer meets the closed pipe.
        proc = subprocess.Popen(
            [sys.executable, "-m", "motzkin.cli", *argv],
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 1
        assert err == b""


def script_run(setup, argv):
    """Run ``setup`` in a new process, then the script entry on ``argv``
    as ``python -m motzkin.cli`` runs it."""
    probe = "\n".join(
        [
            "import runpy, sys",
            setup,
            f"sys.argv = ['motzkin', *{argv!r}]",
            "runpy.run_module('motzkin.cli', run_name='__main__')",
        ]
    )
    return python("-c", probe)


class TestExitPath:
    # The script exits through run(): main(), the atexit handlers, a flush
    # of both streams, then os._exit without the interpreter's teardown.
    @pytest.mark.parametrize(
        "argv",
        [["numbers", "--max", "5", "--bfile"], ["rank", "--word", "0()"], ["numbers", "--max", "x"], ["series", "--help"]],
        ids=["success", "domain-error", "usage-error", "help"],
    )
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_process_matches_main(self, argv, unbuffered, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = run(capsys, *argv)
        done = python("-m", "motzkin.cli", *argv, unbuffered=unbuffered)
        assert (done.returncode, done.stdout, done.stderr) == (code, out.encode(), err.encode())

    def test_atexit_handlers_run_and_no_teardown_follows(self):
        # The handler writes to a buffered stdout after main() returns; its
        # line shows that the handlers run before the final flush. A global
        # whose __del__ writes to stderr would speak in the teardown.
        setup = "\n".join(
            [
                "import atexit, os",
                "atexit.register(print, 'handler ran')",
                "Noisy = type('Noisy', (), {'__del__': lambda self: os.write(2, b'teardown')})",
                "noisy = Noisy()",
            ]
        )
        done = script_run(setup, ["numbers", "--max", "2"])
        assert (done.returncode, done.stdout, done.stderr) == (0, b"1\n1\n2\nhandler ran\n", b"")

    # Statuses 2 and 3 leave the process as main returns them. Each patch
    # leaves the completion table alone: in a new process its first growth
    # would read a patched motzkin_numbers and end in the pad check's 3.
    def test_a_fail_line_exits_two(self):
        setup = "\n".join(
            [
                "from motzkin import sequences",
                "original = sequences.difference_numbers",
                "sequences.difference_numbers = lambda n_max, method: "
                "[value + (method == 'convolution') for value in original(n_max, method)]",
            ]
        )
        done = script_run(setup, ["verify", "--max", "12"])
        assert (done.returncode, done.stderr) == (2, b"")
        lines = done.stdout.decode().splitlines()
        assert len(lines) == 11
        assert [line for line in lines if not line.startswith("PASS ")] == [
            "FAIL difference-subtraction-vs-convolution (n <= 12)"
        ]

    def test_an_internal_error_exits_three(self):
        setup = "\n".join(
            [
                "from motzkin import InternalError, sequences",
                "def motzkin_stream(n_max):",
                "    raise InternalError('probe fault')",
                "sequences.motzkin_stream = motzkin_stream",
            ]
        )
        done = script_run(setup, ["numbers", "--max", "3"])
        assert (done.returncode, done.stdout, done.stderr) == (3, b"", b"error: INTERNAL: probe fault\n")

    @pytest.mark.parametrize("closed", [1, 2], ids=["stdout", "stderr"])
    @pytest.mark.parametrize(
        "argv, status", [(["numbers", "--max", "3"], 0), (["rank", "--word", "00"], 1), (["numbers", "--max", "x"], 1)]
    )
    def test_no_stderr_keeps_the_status(self, argv, status, closed, capsys):
        # Started without descriptor 1 or 2, the process has sys.stdout or
        # sys.stderr None; either way it ends with the status and no traceback,
        # and without stderr nothing of an error reaches stdout.
        done = python("-m", "motzkin.cli", *argv, preexec_fn=lambda: os.close(closed))
        assert done.returncode == status
        assert b"Traceback" not in done.stderr
        if closed == 2:
            assert done.stdout == run(capsys, *argv)[1].encode()

    # A full device fails the first write when unbuffered; buffered, a
    # short listing or help text fails only in main's flush. Each ends in
    # one coded line. Unbuffered help is left out: argparse drops a write
    # that fails.
    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize(
        "argv, unbuffered",
        [
            (["numbers", "--max", "3"], False),
            (["enumerate", "--length", "12"], False),
            (["numbers", "--max", "3"], True),
            (["enumerate", "--length", "12"], True),
            (["--help"], False),
        ],
        ids=["buffered-argv0", "buffered-argv1", "unbuffered-argv0", "unbuffered-argv1", "buffered-help"],
    )
    def test_full_device_is_an_output_error(self, argv, unbuffered):
        with open("/dev/full", "wb") as full:
            done = python("-m", "motzkin.cli", *argv, unbuffered=unbuffered, stdout=full)
        assert (done.returncode, done.stderr) == (1, b"error: OUTPUT: No space left on device\n")

    def test_help_into_a_closed_pipe_exits_one_silently(self):
        # Help text waits in a buffered stdout whose reader is gone; main's
        # flush fails as a listing's would.
        read, write = os.pipe()
        os.close(read)
        try:
            done = python("-m", "motzkin.cli", "--help", stdout=write)
        finally:
            os.close(write)
        assert (done.returncode, done.stderr) == (1, b"")


class TestLargeIntegers:
    def test_prints_beyond_the_digit_limit(self, capsys, monkeypatch):
        monkeypatch.setattr(sequences, "motzkin_stream", lambda max_n: iter([10**5000]))
        before = sys.get_int_max_str_digits()
        code, out, err = run(capsys, "numbers", "--max", "0")
        assert (code, out, err) == (0, "1" + "0" * 5000 + "\n", "")
        assert sys.get_int_max_str_digits() == before
        # A handler that fails gives back the caller's own limit too.
        sys.set_int_max_str_digits(5000)
        try:
            code, out, err = run(capsys, "rank", "--word", "((")
            assert sys.get_int_max_str_digits() == 5000
        finally:
            sys.set_int_max_str_digits(before)
        assert (code, out) == (1, "")
        assert err.startswith("error: NOT_UNIQUE: ")

    def test_index_parsing_keeps_the_digit_limit(self, capsys):
        code, out, err = run(capsys, "unrank", "--index", "9" * 5000)
        assert (code, out) == (1, "")
        assert "invalid int value" in err


def loaded_after(probe):
    """Run ``probe`` under ``python -S`` (no site preloads) and return the
    set of module names it prints."""
    script = f"import sys\n{probe}\nprint(' '.join(sys.modules))"
    result = python("-S", "-c", script, text=True, check=True)
    return frozenset(result.stdout.split())


def startup_table():
    """The README's startup table: subcommand -> every ``motzkin.*``
    module its process loads, ``cli`` and ``errors`` included."""
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Startup", 1)[1].split("\n#", 1)[0]
    table = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            commands, modules = line.split("|")[1:3]
            loaded = {"motzkin.cli", "motzkin.errors", *(f"motzkin.{name}" for name in re.findall(r"`(\w+)`", modules))}
            table.update(dict.fromkeys(re.findall(r"`(\w+)`", commands), loaded))
    return table


# One process per line: each plain line, the other three series methods
# and a refused rank.
STARTUP_LINES = {argv[0]: argv for argv in PLAIN_LINES} | {
    "series-functional": ["series", "--target", "motzkin", "--method", "functional", "--order", "3"],
    "series-closed": ["series", "--target", "motzkin", "--method", "closed", "--order", "3"],
    "series-product": ["series", "--target", "nat", "--method", "product", "--order", "3"],
    "rank-refused": ["rank", "--word", "())("],
}


class TestStartup:
    # Every CLI call is a fresh process, so import weight is startup time.
    def test_import_loads_no_dataclasses_or_inspect(self):
        assert not {"dataclasses", "inspect"} & loaded_after("import motzkin")

    def test_import_loads_only_the_errors(self):
        loaded = loaded_after("import motzkin")
        assert {name for name in loaded if name.startswith("motzkin.")} == {"motzkin.errors"}
        assert not {"fractions", "decimal", "typing"} & loaded

    # Each line loads exactly its row of the README's startup table, and
    # not argparse (nor the gettext and locale it loads), typing, or the
    # fractions and decimal modules that no CLI route needs.
    @pytest.mark.parametrize("argv", STARTUP_LINES.values(), ids=STARTUP_LINES)
    def test_line_loads_exactly_its_startup_row(self, argv):
        loaded = loaded_after(f"from motzkin import cli\ncli.main({argv!r})")
        assert {name for name in loaded if name.startswith("motzkin.")} == startup_table()[argv[0]]
        assert not {"argparse", "gettext", "locale", "typing", "fractions", "decimal"} & loaded

    def test_coefficient_check_loads_fractions_itself(self):
        # A fresh process has not imported fractions before the check runs;
        # a failed assert in the probe fails the subprocess.
        probe = "\n".join(
            [
                "from motzkin.series import TruncatedSeries",
                "try:",
                "    TruncatedSeries.from_coefficients([1.5])",
                "except TypeError as error:",
                "    assert str(error) == 'coefficient 0 is 1.5, not an int or Fraction', error",
                "else:",
                "    raise AssertionError('a float was accepted')",
                "from fractions import Fraction",
                "assert TruncatedSeries.from_coefficients([Fraction(1, 2)]).coefficients == (Fraction(1, 2),)",
            ]
        )
        loaded_after(probe)

    @pytest.mark.parametrize("name", motzkin.__all__)
    def test_public_name_is_the_defining_module_object(self, name):
        # The defining module is the one named by the object itself, or
        # for a plain value the one the lazy-name table names.
        value = getattr(motzkin, name)
        home = getattr(value, "__module__", None) or f"motzkin.{motzkin._SUBMODULES.get(name, 'errors')}"
        assert value is vars(importlib.import_module(home))[name]

    def test_star_import_binds_all_from_the_defining_modules(self):
        namespace = {}
        exec("from motzkin import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == motzkin.__all__
        for name, value in namespace.items():
            home = importlib.import_module(f"motzkin.{motzkin._SUBMODULES.get(name, 'errors')}")
            assert value is vars(home)[name]
        error_classes = {name: value for name, value in vars(errors).items() if isinstance(value, type)}
        assert {name: namespace[name] for name in error_classes} == error_classes

    def test_all_lists_the_lazy_names_and_the_errors(self):
        error_names = {name for name, value in vars(errors).items() if isinstance(value, type)}
        assert len(set(motzkin.__all__)) == len(motzkin.__all__)
        assert set(motzkin.__all__) == set(motzkin._SUBMODULES) | error_names

    def test_readme_layout_lists_each_lazy_name_in_its_module_row(self):
        readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
        rows = {line.split("|")[1].strip(" `"): line for line in readme.splitlines() if line.startswith("| `motzkin.")}
        missing = [name for name, module in motzkin._SUBMODULES.items() if f"`{name}`" not in rows[f"motzkin.{module}"]]
        assert missing == []

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError):
            motzkin.no_such_name

    # The command table keeps its own literals, so parsing imports no
    # library module; these keep them equal to the libraries' lists. Both
    # parsers read the table, and test_declarations_are_pinned pins the
    # argparse tree built from it.
    def test_filter_choices_are_the_word_filters(self):
        assert tuple(cli._COMMANDS["enumerate"][2]["--filter"]["choices"]) == words.FILTERS

    def test_method_choices_are_the_library_methods(self):
        assert tuple(cli._COMMANDS["diff"][2]["--method"]["choices"]) == sequences.DIFFERENCE_METHODS
        assert tuple(cli._SERIES_METHODS["motzkin"].values()) == series.MOTZKIN_METHODS
        assert tuple(cli._SERIES_METHODS["nat"].values()) == series.NAT_FORMS


class TestDeterminism:
    def test_identical_invocations(self, capsys):
        _, first, _ = run(capsys, "verify", "--max", "6")
        _, second, _ = run(capsys, "verify", "--max", "6")
        assert first == second


class TestVerify:
    def test_passes_at_twelve(self, capsys):
        code, out, _ = run(capsys, "verify", "--max", "12")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 11
        assert all(line.startswith("PASS ") for line in lines)
