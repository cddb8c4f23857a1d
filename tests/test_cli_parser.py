"""``cli.main`` builds only the called command's arguments, ``-h`` among
them.  The reference parser, built here from the same table with plain
argparse, has ``-h`` and every command's arguments on every subparser;
``main`` must give the same exit code, stdout and stderr with either
parser on every golden argv, on argv that argparse itself refuses and on
argv drawn by the CLI fuzz's strategies."""

import argparse
import contextlib
import gc
import gettext
import io
import re
import shutil
import weakref
from collections import Counter

import pytest
from golden.write_outputs import INPUTS, all_argv
from hypothesis import given, settings
from test_cli_fuzz import argvs

from letterlink import cli

COMMANDS = list(cli._COMMANDS)
build_parser = cli.build_parser


def subparsers(parser: argparse.ArgumentParser) -> dict:
    """Each command's subparser, by name."""
    (action,) = [a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def reference_parser(command) -> argparse.ArgumentParser:
    """The parser with ``-h`` and every command's arguments on every
    subparser, whatever ``command`` is; only its description is read from
    ``build_parser``."""
    parser = argparse.ArgumentParser(prog="letterlink",
                                     description=build_parser(None).description)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments) in cli._COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        cli._add_common(p)
    return parser


def outcome(argv: list[str]) -> tuple:
    """Exit code, stdout and stderr of ``cli.main(argv)``, times left out."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:   # argparse refused the argv or printed help
            code = exc.code
    stdout = re.sub(r'"timing_ms": [0-9.e+-]+', '"timing_ms": 0', out.getvalue())
    stdout = re.sub(r"^timing: [0-9.e+-]+ ms$", "timing: 0 ms", stdout, flags=re.M)
    return code, stdout, err.getvalue()


def assert_same_with_both_parsers(argv, monkeypatch):
    built = outcome(argv)
    with monkeypatch.context() as m:
        m.setattr(cli, "build_parser", reference_parser)
        assert outcome(argv) == built, argv


GOLDEN = [[INPUTS[a[1:]] if a.startswith("@") else a for a in argv]
          for argv in all_argv()]

EDGES = [
    [], ["-h"], ["--help"], ["bogus"], ["eval"], ["-"], ["-1", "fox"],
    ["--json", "eval", "--symbol", "a", "--word", "a"],
    ["-x", "fox", "--word", "a", "--seq", "a"],
    ["--", "eval", "--symbol", "a", "--word", "a"],
    ["eval", "--", "--symbol", "a", "--word", "a"],
    ["eval", "--symbol", "a", "--word", "a", "extra"],
    ["eval", "--symbol", "a", "--word", "a", "fox"],
    ["fox", "--word", "-a", "--seq", "a"],
    ["fox", "--word=a", "--seq", "a", "--jso"],
    ["basis", "--weight", "-1", "--gens", "a"],
    ["selfcheck", "--scale", "huge"],
] + [[c, "-h"] for c in COMMANDS]


@pytest.mark.parametrize("argv", GOLDEN, ids=[
    f"{i:03d}-{argv[0] if argv else 'no-command'}" for i, argv in enumerate(GOLDEN)])
def test_golden_argv(argv, monkeypatch):
    assert_same_with_both_parsers(argv, monkeypatch)


@pytest.mark.parametrize("argv", EDGES, ids=lambda argv: " ".join(argv) or "no-argument")
def test_edge_argv(argv, monkeypatch):
    assert_same_with_both_parsers(argv, monkeypatch)


@given(argvs())
@settings(derandomize=True, deadline=None, max_examples=60)
def test_fuzzed_argv(argv):
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_same_with_both_parsers(argv, monkeypatch)


@pytest.mark.parametrize("command", COMMANDS + [None, "bogus"])
def test_only_the_named_command_gets_arguments(command):
    parser = build_parser(command)
    assert parser.format_help() == reference_parser(command).format_help()
    for name, p in subparsers(parser).items():
        options = [a.option_strings for a in p._actions]
        if name == command:
            assert options[0] == ["-h", "--help"]
            assert options[-2:] == [["--json"], ["--timing"]]
            assert len(options) > 3
        else:
            assert p._actions == []


def test_a_build_probes_the_locale_and_the_terminal_a_fixed_number_of_times(
        monkeypatch):
    # argparse looks up each parser's translated strings with gettext.find
    # and asks each help formatter for the terminal's size
    calls = Counter()

    def counted(module, name):
        probe = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return probe(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(gettext, "find")
    counted(shutil, "get_terminal_size")
    build_parser("eval")
    assert calls == {"find": 24, "get_terminal_size": 6}


def test_no_parser_outlives_its_call(monkeypatch):
    built = []

    def spy(command):
        parser = build_parser(command)
        built.append(weakref.ref(parser))
        return parser

    monkeypatch.setattr(cli, "build_parser", spy)
    assert outcome(["eval", "--symbol", "a", "--word", "a"]) == (0, "1\n", "")
    gc.collect()
    assert len(built) == 1 and built[0]() is None
