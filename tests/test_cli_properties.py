"""Property test of the CLI's plain parser against argparse: on command
lines drawn from the subcommands' grammar, with the forms that only
argparse reads mixed in, the plain parser either gives argparse's fields
or declines, and it declines every line argparse refuses."""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from motzkin import cli

PROPERTY = settings(deadline=None, database=None, max_examples=400)

INTS = st.integers(-30, 10**6).map(str)
# Values that are no int, outside every choice, or that look like options.
ODD_VALUES = st.sampled_from(
    ["", "x", "1.5", "-1.5", "-", "--", "-x", "--max", "-h", " 3", "3 ", "+4", "1_0", "٣", "-٣", "-3\n", "9" * 5000]
)
# Sample values of the one flag that takes any string, --word.
WORDS = st.sampled_from(["()", "(0)", "0", "0()", "-0", "numbers"])


def flag_values(spec):
    """The values of one flag of ``cli._COMMANDS``; None for a switch."""
    if spec.get("action") == "store_true":
        return None
    if "choices" in spec:
        return st.sampled_from(spec["choices"])
    return INTS if spec.get("type") is int else WORDS


# Each subcommand's flags and the values they take, in the table's order.
GRAMMAR = {command: {flag: flag_values(spec) for flag, spec in flags.items()} for command, (_, _, flags) in cli._COMMANDS.items()}
EVERY_FLAG = sorted({flag for flags in GRAMMAR.values() for flag in flags})
# How one flag is written: as the plain parser reads it, or in a form
# that only argparse reads or refuses.
FORMS = ["exact", "exact", "exact", "exact", "abbreviated", "equals", "no value", "help"]


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from([*GRAMMAR, "num", "conjecture", "-h", "--help", None]))
    flags = GRAMMAR.get(command, {})
    # The command's own flags in any order, some left out, some repeated,
    # and now and then a flag of another command.
    names = [name for name in draw(st.permutations(sorted(flags))) if draw(st.integers(0, 5))]
    names += draw(st.lists(st.sampled_from(EVERY_FLAG), max_size=2))
    names = draw(st.permutations(names))
    argv = [] if command is None else [command]
    for name in names:
        values = flags[name] if flags.get(name) is not None else INTS
        value = draw(st.one_of(values, ODD_VALUES) if draw(st.integers(0, 3)) == 0 else values)
        form = draw(st.sampled_from(FORMS))
        if form == "help":
            argv.append("-h")
        elif name in flags and flags[name] is None or form == "no value":
            argv.append(name)
        elif form == "equals":
            argv.append(f"{name}={value}")
        elif form == "abbreviated":
            argv += [name[: draw(st.integers(3, len(name) - 1))], value]
        else:
            argv += [name, value]
    return argv


def argparse_fields(argv):
    """argparse's fields for ``argv``, or None where it exits."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


def typed(fields):
    return {name: (type(value), value) for name, value in fields.items()}


@PROPERTY
@given(command_lines())
def test_plain_parser_gives_argparse_fields_or_declines(argv):
    plain = cli._plain_fields(argv)
    expected = argparse_fields(argv)
    hypothesis.event("declined" if plain is None else "plain")
    if expected is None:
        assert plain is None
    elif plain is not None:
        assert typed(plain) == typed(expected)


@PROPERTY
@given(st.data())
def test_every_flag_once_in_any_order_is_plain(data):
    # Each flag spelled out once, with a value of its grammar: the plain
    # parser accepts the line whenever argparse does.
    command = data.draw(st.sampled_from(sorted(GRAMMAR)))
    argv = [command]
    for name in data.draw(st.permutations(sorted(GRAMMAR[command]))):
        values = GRAMMAR[command][name]
        argv += [name] if values is None else [name, data.draw(values)]
    expected = argparse_fields(argv)
    plain = cli._plain_fields(argv)
    assert (plain is None) == (expected is None)
    if expected is not None:
        assert typed(plain) == typed(expected)
