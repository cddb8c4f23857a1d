"""`diagram` and `selfcheck` are registered by the package but loaded at
their first attribute access.  Each test runs in a fresh interpreter, since
this one has loaded both already."""

import json
import os
import subprocess
import sys

import pytest

import letterlink

LAZY = ("diagram", "selfcheck")

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

# prints the exit code of each argv in sys.argv[1], then whether each lazily
# loaded module has been loaded
RUN_AND_REPORT = """
import contextlib, io, json, sys, types
import letterlink.cli as cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
loaded = {name: type(sys.modules["letterlink." + name]) is types.ModuleType
          for name in ("diagram", "selfcheck")}
print(json.dumps([codes, loaded]))
"""


def python(*args):
    src = os.path.dirname(os.path.dirname(letterlink.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, env=env)


def run_and_report(*argvs):
    done = python("-c", RUN_AND_REPORT, json.dumps(argvs))
    assert (done.returncode, done.stderr) == (0, "")
    return json.loads(done.stdout)


def test_importing_the_cli_loads_neither():
    assert run_and_report() == [[], {"diagram": False, "selfcheck": False}]


@pytest.mark.parametrize("command", [c for c in COMMANDS if c not in LAZY])
def test_other_commands_load_neither(command):
    assert (run_and_report(COMMANDS[command])
            == [[0], {"diagram": False, "selfcheck": False}])


@pytest.mark.parametrize("command", LAZY)
def test_each_lazy_command_loads_its_own_module_only(command):
    assert (run_and_report(COMMANDS[command])
            == [[0], {name: name == command for name in LAZY}])


def test_the_package_api_reaches_both():
    done = python("-c", """
import pickle, sys, types
import letterlink
lazy = lambda: [type(sys.modules["letterlink." + n]) is not types.ModuleType
                for n in ("diagram", "selfcheck")]
assert {"diagram", "selfcheck"} <= set(dir(letterlink)) and lazy() == [True, True]
from letterlink import diagram, selfcheck
assert lazy() == [True, True]
assert len(letterlink.selfcheck.CHECKS) == 12 and lazy() == [True, False]
fn = selfcheck._run_check
assert pickle.loads(pickle.dumps(fn)) is fn
assert diagram.render_diagram.__module__ == "letterlink.diagram"
assert lazy() == [False, False]
""")
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
    assert json.loads(done.stdout) == [[0, 0], {"diagram": True, "selfcheck": True}]


@pytest.mark.parametrize("command", ["eval", "diagram"])
def test_run_as_a_module_without_a_warning(command):
    # cli itself is imported eagerly, so runpy finds it unloaded
    done = python("-W", "error", "-m", "letterlink.cli", *COMMANDS[command])
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.startswith("4\n" if command == "eval" else "-- (a)b --\n")
