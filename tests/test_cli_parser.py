"""``cli.main`` builds only the called command's arguments.  The reference
parser, built here from the same table, has every command's arguments;
``main`` must give the same exit code, stdout and stderr with either
parser on every golden argv, on argv that argparse itself refuses and on
argv drawn by the CLI fuzz's strategies."""

import argparse
import contextlib
import gc
import io
import re
import weakref

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
    """The parser with every command's arguments, whatever ``command`` is."""
    parser = build_parser(None)
    for name, p in subparsers(parser).items():
        cli._COMMANDS[name][1](p)
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
            assert options == [["-h", "--help"]]


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
