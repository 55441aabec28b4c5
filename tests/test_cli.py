import argparse
import importlib
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import motzkin
from motzkin import DegenerateFractionError, InternalError, cli, errors, sequences, series, symdiff, words


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestNumbers:
    def test_plain(self, capsys):
        code, out, _ = run(capsys, "numbers", "--max", "13")
        assert code == 0
        assert out == "".join(f"{v}\n" for v in sequences.motzkin_numbers(13))

    def test_bfile(self, capsys):
        code, out, _ = run(capsys, "numbers", "--max", "3", "--bfile")
        assert code == 0
        assert out == "0 1\n1 1\n2 2\n3 4\n"

    def test_negative_max(self, capsys):
        code, _, err = run(capsys, "numbers", "--max", "-2")
        assert code == 1
        assert "error" in err


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

    def test_empty_word_listing(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--length", "0")
        assert code == 0
        assert out == "\ncount=1\n"

    def test_limit_exceeded(self, capsys):
        code, _, err = run(capsys, "enumerate", "--length", str(words.ENUMERATION_LIMIT + 1))
        assert code == 1
        assert "LIMIT_EXCEEDED" in err


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

    def test_verify_census_holds_no_listing(self):
        checks = []
        peak = traced_peak(lambda: checks.extend(cli.verification_checks(24)))
        assert checks and all(ok for _, ok, _ in checks)
        assert peak < 2_000_000

    def test_enumerate_length_sixteen_is_fast(self, monkeypatch):
        monkeypatch.setattr(sys, "stdout", CountingSink())
        start = time.perf_counter()
        assert cli.main(["enumerate", "--length", "16"]) == 0
        assert time.perf_counter() - start < 0.25


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

    def test_rank_limit(self, capsys):
        code, out, err = run(capsys, "rank", "--word", "(" + "0" * (words.RANK_LIMIT - 1) + ")")
        assert (code, out) == (1, "")
        assert err.startswith("error: LIMIT_EXCEEDED: ") and err.count("\n") == 1

    def test_unrank_limit(self, capsys):
        index = sequences.motzkin_numbers(words.RANK_LIMIT)[-1]
        code, out, err = run(capsys, "unrank", "--index", str(index))
        assert (code, out) == (1, "")
        assert err.startswith("error: LIMIT_EXCEEDED: ") and err.count("\n") == 1

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

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0


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


SRC = Path(__file__).resolve().parent.parent / "src"


class TestClosedPipe:
    @pytest.mark.parametrize("argv", [["enumerate", "--length", "14"], ["numbers", "--max", "5000"]])
    def test_reader_gone_exits_one_silently(self, argv):
        # Each listing is megabytes, far beyond a pipe buffer, so the
        # writer meets the closed pipe.
        proc = subprocess.Popen(
            [sys.executable, "-m", "motzkin.cli", *argv],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 1
        assert err == b""


class TestLargeIntegers:
    def test_prints_beyond_the_digit_limit(self, capsys, monkeypatch):
        monkeypatch.setattr(sequences, "motzkin_numbers", lambda max_n: [10**5000])
        # Interpreters older than the digit limit have no getter.
        digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
        before = digit_limit()
        code, out, err = run(capsys, "numbers", "--max", "0")
        assert (code, out, err) == (0, "1" + "0" * 5000 + "\n", "")
        assert digit_limit() == before

    def test_index_parsing_keeps_the_digit_limit(self, capsys):
        code, out, err = run(capsys, "unrank", "--index", "9" * 5000)
        assert (code, out) == (1, "")
        assert "invalid int value" in err


def loaded_after(probe):
    """Run ``probe`` under ``python -S`` (no site preloads) and return the
    set of module names it prints."""
    script = f"import sys\n{probe}\nprint(' '.join(sys.modules))"
    result = subprocess.run(
        [sys.executable, "-S", "-c", script],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    return set(result.stdout.split())


PACKAGE_MODULES = {f"motzkin.{name}" for name in ("cli", "errors", "sequences", "series", "symdiff", "words")}


class TestStartup:
    # Every CLI call is a fresh process, so import weight is startup time.
    def test_import_loads_no_dataclasses_or_inspect(self):
        assert not {"dataclasses", "inspect"} & loaded_after("import motzkin")

    def test_import_loads_only_the_errors(self):
        loaded = loaded_after("import motzkin")
        assert PACKAGE_MODULES & loaded == {"motzkin.errors"}
        assert not {"fractions", "decimal", "typing"} & loaded

    def test_numbers_loads_only_the_tables(self):
        loaded = loaded_after("from motzkin import cli\ncli.main(['numbers', '--max', '3'])")
        assert not {"motzkin.series", "motzkin.symdiff", "motzkin.words", "fractions"} & loaded

    @pytest.mark.parametrize(
        "argv",
        [
            ["numbers", "--max", "3"],
            ["enumerate", "--length", "3"],
            ["rank", "--word", "()"],
            ["series", "--target", "nat", "--order", "3"],
            ["symdiff", "--max", "3"],
            ["verify", "--max", "3"],
        ],
    )
    def test_no_command_loads_typing(self, argv):
        assert "typing" not in loaded_after(f"from motzkin import cli\ncli.main({argv!r})")

    # No CLI route forms a Fraction, so none loads fractions, nor the
    # decimal module that fractions imports.
    @pytest.mark.parametrize(
        "argv",
        [
            ["series", "--target", "motzkin", "--method", "functional", "--order", "3"],
            ["series", "--target", "motzkin", "--method", "closed", "--order", "3"],
            ["series", "--target", "nat", "--method", "product", "--order", "3"],
            ["series", "--target", "nat", "--method", "linear", "--order", "3"],
            ["symdiff", "--max", "3"],
            ["verify", "--max", "3"],
        ],
    )
    def test_exact_routes_load_no_fractions(self, argv):
        assert not {"fractions", "decimal"} & loaded_after(f"from motzkin import cli\ncli.main({argv!r})")

    def test_symdiff_loads_no_series(self):
        assert "motzkin.series" not in loaded_after("from motzkin import cli\ncli.main(['symdiff', '--max', '3'])")

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
        # for a plain value the one submodule that holds it.
        submodules = [importlib.import_module(module) for module in sorted(PACKAGE_MODULES)]
        holders = [module for module in submodules if name in vars(module)]
        value = vars(holders[0])[name]
        home = getattr(value, "__module__", None)
        owner = sys.modules[home] if home else holders[0]
        assert home or len(holders) == 1
        assert getattr(motzkin, name) is vars(owner)[name]

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

    def test_filter_choices_are_the_word_filters(self):
        parser = cli.build_parser()
        commands = next(action for action in parser._actions if isinstance(action, argparse._SubParsersAction))
        listing = commands.choices["enumerate"]
        choices = next(action.choices for action in listing._actions if action.dest == "filter")
        assert tuple(choices) == words.FILTERS

    def test_method_choices_are_the_library_methods(self):
        # The parser keeps its own literals, so parsing imports no library
        # module; this keeps them equal to the libraries' lists.
        parser = cli.build_parser()
        commands = next(action for action in parser._actions if isinstance(action, argparse._SubParsersAction))
        diff = commands.choices["diff"]
        choices = next(action.choices for action in diff._actions if action.dest == "method")
        assert tuple(choices) == sequences.DIFFERENCE_METHODS
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
