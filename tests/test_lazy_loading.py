"""One loading rule for the package: every module but ``errors`` and ``cli``
is put in ``sys.modules`` at once with its code not yet run, a package
attribute runs its module's code at the first access, and each CLI command
runs the code of the modules it uses only.  Each test runs in a fresh
interpreter, since this one has loaded every module already."""

import json
import os
import subprocess
import sys

import pytest

import letterlink
import letterlink.cli

LAZY = ("diagram", "selfcheck")
LAYERS = ("cli", "words", "symbols", "linking", "eil", "lie", "fox", "linalg",
          "diagram", "selfcheck")

# each command on one small input, as in the README
COMMANDS = {
    "eval": ["eval", "--symbol", "((a)b)a", "--word", "[a a,[b,a c]]"],
    "fox": ["fox", "--word", "[a a,[b,a c]]", "--seq", "a,b,a"],
    "reduce": ["reduce", "--graph", "{v1:a,v2:b,v3:c; v1->v2, v2->v3}"],
    "distinct": ["distinct", "--graph", "{v1:a, v2:a, v3:b; v1->v2, v2->v3}"],
    "pair": ["pair", "--graph", "{v1:a,v2:b; v1->v2}", "--lie", "[a,b]"],
    "basis": ["basis", "--weight", "5", "--gens", "a,b", "--multidegree", "3,2"],
    "matrix": ["matrix", "--weight", "5", "--gens", "a,b", "--multidegree", "3,2"],
    "coords": ["coords", "--word", "a b a^-1 b^-1", "--weight", "2"],
    "diagram": ["diagram", "--word", "[a a,[b,a c]]", "--symbol", "((a)b)a"],
    "selfcheck": ["selfcheck", "--json"],
}
ARGV = {**COMMANDS, "eval --graph": [
    "eval", "--graph", "{v1:a,v2:b; v1->v2}", "--word", "[a a,[b,a c]]"]}

# the modules whose code a bare import of the CLI runs
CLI = {"errors", "words", "cli"}
# with those, the modules whose code each command runs: its own and theirs.
# The graph commands evaluate no symbol list and no Magnus coefficient, so
# eil and lie load linking and fox only where a call needs them.
EIL = {"eil", "lie", "linalg", "symbols"}
RUNS = {
    "eval": {"symbols", "linking"},
    "eval --graph": EIL | {"linking"},
    "fox": {"fox", "symbols"},
    "reduce": EIL,
    "distinct": EIL,
    "pair": EIL,
    "basis": {"lie", "symbols"},
    "matrix": EIL,
    "coords": {"lie", "fox", "symbols"},
    "diagram": {"diagram", "symbols", "linking"},
    "selfcheck": EIL | {"linking", "fox", "selfcheck"},
}

# prints the exit code of each argv in sys.argv[1], the letterlink modules
# whose code has run after the import and after each call, and those in
# sys.modules
RUN_AND_REPORT = """
import contextlib, io, json, sys, types
import letterlink.cli as cli
def ours():
    return {name[len("letterlink."):]: type(module) is types.ModuleType
            for name, module in sys.modules.items()
            if name.startswith("letterlink.")}
def ran():
    return sorted(name for name, loaded in ours().items() if loaded)
codes, runs = [], [ran()]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
    runs.append(ran())
print(json.dumps([codes, runs, sorted(ours())]))
"""


def python(*args, timeout=None):
    src = os.path.dirname(os.path.dirname(letterlink.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, env=env,
                          timeout=timeout)


def report(*argvs):
    """The exit code of each argv, run in turn in one fresh interpreter, and
    the modules whose code had run after the import and after each call."""
    done = python("-c", RUN_AND_REPORT, json.dumps(argvs))
    assert (done.returncode, done.stderr) == (0, "")
    codes, runs, registered = json.loads(done.stdout)
    assert registered == sorted({"errors", *LAYERS})
    return codes, [set(ran) for ran in runs]


def run_and_report(*argvs):
    codes, runs = report(*argvs)
    return codes, runs[-1]


def test_importing_the_cli_loads_neither():
    assert run_and_report() == ([], CLI)


@pytest.mark.parametrize("command", [c for c in ARGV if c not in LAZY])
def test_other_commands_load_neither(command):
    assert not RUNS[command] & set(LAZY)
    assert run_and_report(ARGV[command]) == ([0], CLI | RUNS[command])


@pytest.mark.parametrize("command", LAZY)
def test_each_lazy_command_loads_its_own_module_only(command):
    assert set(LAZY) & RUNS[command] == {command}
    assert run_and_report(COMMANDS[command]) == ([0], CLI | RUNS[command])


@pytest.mark.parametrize("first, second, deferred", [
    ("matrix", "eval --graph", "linking"), ("basis", "coords", "fox")])
def test_a_module_a_command_does_not_need_loads_at_the_first_call_that_does(
        first, second, deferred):
    codes, runs = report(ARGV[first], ARGV[second])
    assert codes == [0, 0]
    assert deferred not in runs[1]
    assert runs[2] - runs[1] == {deferred}


def test_the_package_api_reaches_both():
    # an attribute of the package is a loaded module or a name of one
    done = python("-c", """
import pickle, sys, types
import letterlink
lazy = lambda: [type(sys.modules["letterlink." + n]) is not types.ModuleType
                for n in ("diagram", "selfcheck")]
assert {"diagram", "selfcheck"} <= set(dir(letterlink)) and lazy() == [True, True]
from letterlink import diagram
assert lazy() == [False, True] and type(diagram) is types.ModuleType
assert len(letterlink.selfcheck.CHECKS) == 12 and lazy() == [False, False]
fn = letterlink.selfcheck._outcome
assert pickle.loads(pickle.dumps(fn)) is fn
assert diagram.render_diagram.__module__ == "letterlink.diagram"
assert letterlink.lie_coordinates is sys.modules["letterlink.lie"].lie_coordinates
""")
    assert (done.returncode, done.stderr) == (0, "")


# every public name that dir(letterlink) listed when all but diagram and
# selfcheck were imported with the package
PUBLIC = """
BracketTree Cobounding CompactWord Evaluator GraphSum GroupRingElement
InconsistentSystem InvalidArgument InvalidEdge InvalidMultidegree
InvalidSymbol LabelMismatch Letter LetterLinkError LieElement List
MixedGrading NonzeroCount NotATree NotInGamma ParseError SameGenerator
Symbol SymbolGraph SymbolSum TooLarge UndefinedInvariant UndefinedReduction
UnknownGenerator Word augmentation commutator configuration_pairing count
default_order diagram distinct_reduce eil enumerate_coboundings
enumerate_distinct_vertex_graphs equivalent errors eval_graph eval_symbol
eval_symbol_sum extended_pairing fox fox_derivative fox_eval free_reduce
graph_of_symbol importlib iterated_fox leibniz_terms lie lie_coordinates
lie_image_of_bracket_word linalg link link_via_cobounding linking
lyndon_basis parse_compact parse_graph parse_lie parse_symbol parse_word
prefix_potential preimages_of_symbol random_gamma_element reduce_at
reduce_full relabel relabel_symbol selfcheck standard_list symbol_list
symbols sys words
""".split()


def test_every_public_name_is_listed_and_reachable():
    done = python("-c", """
import json, sys, types
import letterlink
names = json.loads(sys.argv[1])
assert set(names) <= set(dir(letterlink)), set(names) - set(dir(letterlink))
star = {}
exec("from letterlink import *", star)
assert set(names) <= set(star), set(names) - set(star)
for name in names:
    value = getattr(letterlink, name)
    if isinstance(value, types.ModuleType):
        assert sys.modules[value.__name__] is value, name
    else:
        assert value.__name__ == name, name
        assert getattr(sys.modules[value.__module__], name) is value, name
""", json.dumps(PUBLIC))
    assert (done.returncode, done.stderr) == (0, "")


def test_a_fresh_import_after_a_purge_runs_both():
    # as benchmarks/run.py imports the program before each setup
    done = python("-c", RUN_AND_REPORT.replace("import letterlink.cli as cli", """
import importlib
import letterlink.cli
for name in [n for n in sys.modules if n.split(".")[0] == "letterlink"]:
    del sys.modules[name]
cli = importlib.import_module("letterlink.cli")
"""), json.dumps([COMMANDS["diagram"], COMMANDS["selfcheck"]]))
    assert (done.returncode, done.stderr) == (0, "")
    codes, runs, _ = json.loads(done.stdout)
    assert codes == [0, 0] and set(LAZY) <= set(runs[-1])


def test_a_module_taken_from_the_package_survives_a_purge():
    # as benchmarks/oracles.Oracle keeps its modules across the purges of
    # benchmarks/run.py; eil and lie, kept from before the purge, load
    # linking and fox after it, and take the words of the old module
    done = python("-c", """
import importlib, sys
from letterlink import eil, lie, symbols, words
for name in [n for n in sys.modules if n.split(".")[0] == "letterlink"]:
    del sys.modules[name]
importlib.import_module("letterlink.cli")
graph = eil.parse_graph("{v1:a, v2:b; v1->v2}")
print(eil.reduce_full(graph, eil.default_order(graph)), symbols.parse_symbol("(a)b"))
w = words.Word((words.Letter("a", 1), words.Letter("b", 1),
                words.Letter("a", -1), words.Letter("b", -1)))
print(eil.eval_graph(graph, w), lie.lie_coordinates(w, 2))
""")
    assert (done.returncode, done.stderr, done.stdout) == (
        0, "", "1*(a)b (a)b\n1 [a,b]\n")


def test_threads_that_first_touch_the_package_at_once_get_loaded_modules():
    # on Python 3.10 and 3.11 LazyLoader takes no lock of its own; the
    # package's lock orders first touches through the package
    done = python("-c", """
import sys, threading
sys.setswitchinterval(1e-6)
import letterlink
names = ["selfcheck", "diagram", "eil", "lie_coordinates", "fox_eval",
         "parse_symbol", "linalg", "Word"]
start, got, errors = threading.Barrier(8), [], []
def touch():
    start.wait()
    try:
        got.append([getattr(letterlink, name) for name in names])
    except Exception as exc:
        errors.append(repr(exc))
threads = [threading.Thread(target=touch) for _ in range(8)]
for t in threads:
    t.start()
for t in threads:
    t.join(30)
assert not errors and not any(t.is_alive() for t in threads), errors
assert len(got) == 8 and all(values == got[0] for values in got)
assert got[0][3] is sys.modules["letterlink.lie"].lie_coordinates
assert len(letterlink.selfcheck.CHECKS) == 12
""", timeout=60)
    assert (done.returncode, done.stderr) == (0, "")


def test_threads_that_first_need_linking_and_fox_at_once_get_equal_values():
    # eil.eval_graph and lie.lie_coordinates load linking and fox through
    # the package, under its lock
    done = python("-c", """
import sys, threading, types
sys.setswitchinterval(1e-6)
from letterlink import eil, lie, words
loaded = lambda: [type(sys.modules["letterlink." + n]) is types.ModuleType
                  for n in ("linking", "fox")]
assert loaded() == [False, False]
graph = eil.parse_graph("{v1:a, v2:b, v3:c; v1->v2, v2->v3}")
w = words.parse_word("[a a,[b,a c]]")
start, got, errors = threading.Barrier(8), [], []
def touch():
    start.wait()
    try:
        got.append((eil.eval_graph(graph, w), lie.lie_coordinates(w, 3)))
    except Exception as exc:
        errors.append(repr(exc))
threads = [threading.Thread(target=touch) for _ in range(8)]
for t in threads:
    t.start()
for t in threads:
    t.join(30)
assert not errors and not any(t.is_alive() for t in threads), errors
assert loaded() == [True, True]
assert len(got) == 8 and all(values == got[0] for values in got)
print(got[0][0], got[0][1])
""", timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "2 -2*[a,[a,b]] + 2*[a,[b,c]]\n"


@pytest.mark.parametrize("command", ["eval", "diagram", "coords", "fox",
                                     "eval --graph", "reduce"])
def test_run_as_a_module_without_a_warning(command, capsys):
    # cli is not registered by the package, so runpy finds it unloaded
    done = python("-W", "error", "-m", "letterlink.cli", *ARGV[command])
    assert (done.returncode, done.stderr) == (0, "")
    assert letterlink.cli.main(ARGV[command]) == 0
    assert done.stdout == capsys.readouterr().out
