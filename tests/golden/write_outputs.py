"""Write ``outputs.json``, the golden output corpus of the CLI.

Each entry holds an argv, the exit code, stderr and stdout of
``letterlink.cli.main`` run on it in process.  ``--json`` output is stored
without its ``timing_ms``.  A stdout or stderr longer than ``SHORT`` bytes
is stored as its length and SHA-256.  For an argv that argparse itself
refuses, only the exit code is stored: argparse's usage text depends on
the terminal width and the Python version.  An argv entry of the form
``@name`` stands for ``inputs[name]``, which keeps the large graphs out of
every entry that uses them.

``tests/test_golden.py`` runs every entry again.  An entry whose output
changes on purpose is a behaviour change: name it in CHANGES.md, with its
reason, when you run this script again.

    PYTHONPATH=src python3 tests/golden/write_outputs.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shlex
from pathlib import Path

from letterlink.cli import main as cli_main

HERE = Path(__file__).parent
OUTPUTS = HERE / "outputs.json"
README = HERE.parents[1] / "README.md"

# stdout and stderr up to this many bytes are stored in full
SHORT = 2048


def ab_path(n: int) -> str:
    """A path of ``n`` vertices labelled a, b, a, ..., edges pointing on."""
    return ("{" + ", ".join(f"v{i + 1}:{'ab'[i % 2]}" for i in range(n)) + "; "
            + ", ".join(f"v{i + 1}->v{i + 2}" for i in range(n - 1)) + "}")


def b_star(n: int) -> str:
    """A star of ``n`` leaves labelled b, each pointing to a centre a."""
    return ("{" + ", ".join(f"v{i + 1}:b" for i in range(n)) + f", v{n + 1}:a; "
            + ", ".join(f"v{i + 1}->v{n + 1}" for i in range(n)) + "}")


INPUTS = {
    "path-1500": ab_path(1500),
    "star-1500": b_star(1500),
}


def readme_cli_lines() -> list[list[str]]:
    """The argv of every line of the README's CLI block."""
    block = README.read_text().split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1]
    return [shlex.split(line, comments=True)[1:]
            for line in block.split("```", 1)[0].splitlines()
            if line.startswith("letterlink ")]


WORKED = "[a a,[b,a c]]"

# argv run as text and with --json
COMMANDS = [
    # eval
    ["eval", "--symbol", "((a)b)a", "--word", WORKED],
    ["eval", "--symbol", "(a)b", "--word", "a b a^-1 b^-1"],
    ["eval", "--symbol", "(a)b", "--word", "a b"],
    ["eval", "--symbol", "a", "--word", ""],
    ["eval", "--symbol", "a", "--word", "a^99999999999999999999999"],
    ["eval", "--symbol", "((a)b)a", "--word", f"{WORKED}^{10 ** 100}"],
    ["eval", "--symbol", "((a)(b)c)a", "--word", "[[a,b],[a c,b^-2]]^37 [a,c]"],
    ["eval", "--symbol", "(((a)b)c)d", "--word", "[[[a,b],c],d]^5 a^-3 [b,d]"],
    ["eval", "--graph", "{v1:a, v2:b; v1->v2}", "--word", "a b a^-1 b^-1"],
    ["eval", "--graph", "{v1:a, v2:b, v3:c; v1->v2, v3->v2}",
     "--word", "[[a,b],c] [[c,b],a]^2"],
    ["eval", "--graph", "{v1:(a)b, v2:c; v2->v1}", "--word", "[[a,b],c]^3"],
    ["eval", "--graph", "@path-1500", "--word", "[a,b]^200"],
    # fox
    ["fox", "--word", WORKED, "--seq", "a,b,a"],
    ["fox", "--word", WORKED, "--seq", "a,b,a", "--full"],
    ["fox", "--word", "[[a,b],[a,c]]^3", "--seq", "a,b,a,c"],
    ["fox", "--word", "a b c a^-1", "--seq", "a", "--full"],
    # reduce
    ["reduce", "--graph", "{v1:a,v2:b,v3:c; v1->v2, v2->v3}", "--order", "v2,v1"],
    ["reduce", "--graph", "{v1:a,v2:b,v3:c; v1->v2, v2->v3}"],
    ["reduce", "--graph", "{v1:a, v2:b, v3:c, v4:d; v1->v2, v3->v1, v1->v4}",
     "--order", "v1,v2,v3"],
    ["reduce", "--graph", "{v1:(a)b, v2:c, v3:(d)e; v1->v2, v3->v2}"],
    ["reduce", "--graph", "@path-1500"],
    ["reduce", "--graph", "@star-1500"],
    # distinct
    ["distinct", "--graph", "{v1:a, v2:a, v3:b; v1->v2, v2->v3}"],
    ["distinct", "--graph", "{v1:a, v2:b, v3:a, v4:b; v1->v2, v3->v2, v3->v4}"],
    ["distinct", "--graph", "{v1:a, v2:a, v3:b, v4:b, v5:c, v6:c; "
     "v1->v2, v2->v3, v3->v4, v4->v5, v5->v6}"],
    ["distinct", "--graph", "{v1:a, v2:a, v3:a, v4:a, v5:b, v6:b, v7:b; "
     "v1->v2, v2->v3, v3->v5, v5->v6, v4->v6, v7->v4}"],
    # pair
    ["pair", "--graph", "{v1:a,v2:b; v1->v2}", "--lie", "[a,b]"],
    ["pair", "--graph", "{v1:a, v2:b, v3:c, v4:d, v5:e; v1->v5, v2->v5, v3->v5, v4->v5}",
     "--lie", "[[[[a,b],c],d],e]"],
    ["pair", "--graph", "{v1:a, v2:a, v3:b; v1->v2, v2->v3}",
     "--lie", "3*[a,[a,b]] - 1/2*[[a,b],a]"],
    ["pair", "--graphsum", "1/2 * {v1:a,v2:b; v1->v2} - {v1:b,v2:a; v1->v2}",
     "--lie", "[a,b] + 2*[b,a]"],
    ["pair", "--graphsum", "@path-1500", "--lie", "a"],
    ["pair", "--graphsum", "@star-1500", "--lie", "[a,b]"],
    # basis
    ["basis", "--weight", "5", "--gens", "a,b", "--multidegree", "3,2"],
    ["basis", "--weight", "3", "--gens", "b,a"],
    ["basis", "--weight", "5", "--gens", "a,b,c"],
    ["basis", "--weight", "7", "--gens", "a,b,c", "--multidegree", "3,2,2"],
    ["basis", "--weight", "3", "--gens", "a", "--multidegree", "2"],
    # matrix
    ["matrix", "--weight", "5", "--gens", "a,b", "--multidegree", "3,2"],
    ["matrix", "--weight", "5", "--gens", "a,b", "--multidegree", "4,1"],
    ["matrix", "--weight", "4", "--gens", "a,b,c", "--multidegree", "2,1,1"],
    ["matrix", "--weight", "6", "--gens", "a,b,c", "--multidegree", "2,2,2"],
    ["matrix", "--weight", "7", "--gens", "a,b", "--multidegree", "4,3"],
    ["matrix", "--weight", "15", "--gens", "a,b", "--multidegree", "14,1"],
    # coords
    ["coords", "--word", "a b a^-1 b^-1", "--weight", "2"],
    ["coords", "--word", WORKED, "--weight", "3"],
    ["coords", "--word", "[[[[a,b],c],a],b] [[a,c],[b,c]]^-2", "--weight", "4"],
    ["coords", "--word", "[[[[a,b],c],a],b] [[[a,c],b],[a,b]]^3", "--weight", "5"],
    ["coords", "--word", "[[[a,b],[a,c]],[b,c]] [[[[a,c],c],b],[a,b]]^2", "--weight", "6"],
    ["coords", "--word", "[[[[a,b],c],[a,c]],[b,[a,b]]] [[[[[a,b],b],c],c],[a,c]]",
     "--weight", "7"],
    ["coords", "--word", "[[[a,b],[a,c]],[[b,c],[a,b]]] [[[[a,b],c],[[a,c],b]],[c,a]]^-1",
     "--weight", "8"],
    # diagram
    ["diagram", "--word", WORKED, "--symbol", "((a)b)a"],
    ["diagram", "--word", "a b a^-1 b^-1", "--symbol", "(a)b"],
    ["diagram", "--word", "a b", "--symbol", "(a)b"],
    ["diagram", "--word", "", "--symbol", "a"],
    ["diagram", "--word", "[a a,[b,a c]]^4 [[a,b],[a,c]]^2 [[b,c],a]^3",
     "--symbol", "((a)b)a"],
    ["diagram", "--word", "[[a,b],[a c,b^-2]]^4 [a b,[c,a]]^3 [[a,c],b]^2",
     "--symbol", "((a)(b)c)a"],
]

# argv run as text only: the long full derivatives, errors and selfcheck
TEXT_ONLY = [
    ["fox", "--word", "a^400", "--seq", "a,a", "--full"],
    ["fox", "--word", "[a,b]^100", "--seq", "a,b", "--full"],
    # exit 1: validation and size errors
    ["fox", "--word", "a^99999999999999999999999", "--seq", "a"],
    ["coords", "--word", "a^99999999999999999999999", "--weight", "2"],
    ["eval", "--symbol", "(((a)b)c)d", "--word", "a^" + "9" * 4300],
    ["reduce", "--graph", "{v1:a, v2:b; v1->v2, v2->v1}"],
    ["reduce", "--graph", "{v1:a, v2:a; v1->v2}"],
    ["reduce", "--graph", "{v1:a,v2:b,v3:c; v1->v2, v2->v3}", "--order", "v1,v9"],
    ["distinct", "--graph", "{v1:(a)b, v2:c; v1->v2}"],
    ["pair", "--graph", "{v1:a,v2:b; v1->v2}", "--lie", "[a,b] + a"],
    ["coords", "--word", "a b", "--weight", "2"],
    ["diagram", "--word", "a^99999999999999999999999", "--symbol", "a"],
    # exit 2: parse errors with positions
    ["eval", "--symbol", "(a)b$", "--word", "a"],
    ["eval", "--symbol", "a", "--word", "[a,b"],
    ["eval", "--symbol", "a", "--word", "(" * 101 + "a" + ")" * 101],
    ["fox", "--word", "a b", "--seq", "a,b c"],
    ["fox", "--word", "a b", "--seq", " , "],
    ["reduce", "--graph", "{v1:a v2:b}"],
    ["reduce", "--graph", "{v1:a, v2:b; v1->v3}"],
    ["reduce", "--graph", "{v1:a,v2:b; v1->v2}", "--order", "v1,2"],
    ["pair", "--graph", "{v1:a,v2:b; v1->v2}", "--lie", "1/0*[a,b]"],
    ["pair", "--graphsum", "2 * {v1:a,v2:b; v1->v2} +", "--lie", "[a,b]"],
    ["basis", "--weight", "5", "--gens", "a,b,a"],
    ["basis", "--weight", "0", "--gens", "a,b"],
    ["basis", "--weight", "5", "--gens", "a,b", "--multidegree", "+3,2"],
    ["basis", "--weight", "5", "--gens", "a,b", "--multidegree", "3,-2"],
    ["matrix", "--weight", "5", "--gens", "a,b", "--multidegree", "3,3"],
    ["matrix", "--weight", "5", "--gens", "a,b", "--multidegree", "5"],
    ["coords", "--word", "a b", "--weight", "-1"],
    # argparse's own errors: only the exit code is stored
    [],
    ["frobnicate"],
    ["eval", "--word", "a"],
    ["eval", "--symbol", "a", "--graph", "{v1:a}", "--word", "a"],
    ["basis", "--weight", "five", "--gens", "a"],
    ["selfcheck", "--scale", "huge"],
    # the acceptance suite
    ["selfcheck"],
    ["selfcheck", "--seed", "3"],
    ["selfcheck", "--json"],
    ["selfcheck", "--seed", "3", "--json"],
]

# argv run as text and with --json, after TEXT_ONLY so that the entries
# above keep their indices: the (3,2,2) basis, which builds in about 0.1 s
LATER = [
    ["distinct", "--graph", "{v1:a, v2:b, v3:c, v4:a, v5:b, v6:c, v7:a; "
     "v1->v2, v2->v3, v3->v4, v4->v5, v5->v6, v6->v7}"],
    ["matrix", "--weight", "7", "--gens", "a,b,c", "--multidegree", "3,2,2"],
]


def all_argv() -> list[list[str]]:
    def with_json(argvs):
        return [a for argv in argvs for a in (argv, argv + ["--json"])]

    return with_json(readme_cli_lines() + COMMANDS) + TEXT_ONLY + with_json(LATER)


def _stored(text: str):
    data = text.encode()
    if len(data) <= SHORT:
        return text
    return {"length": len(data), "sha256": hashlib.sha256(data).hexdigest()}


def observe(argv: list[str], inputs: dict[str, str]) -> dict:
    """The entry of ``argv``, as ``cli.main`` gives it now."""
    out, err = io.StringIO(), io.StringIO()
    usage = False
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main([inputs[a[1:]] if a.startswith("@") else a
                             for a in argv])
        except SystemExit as exc:   # argparse refused the argv
            code, usage = exc.code, True
    entry = {"argv": argv, "exit": code}
    if usage:
        return entry
    stdout = out.getvalue()
    if "--json" in argv and stdout:
        data = json.loads(stdout)
        del data["timing_ms"]
        stdout = json.dumps(data) + "\n"
    entry["stderr"] = _stored(err.getvalue())
    entry["stdout"] = _stored(stdout)
    return entry


def main() -> None:
    corpus = {"inputs": INPUTS,
              "entries": [observe(argv, INPUTS) for argv in all_argv()]}
    OUTPUTS.write_text(json.dumps(corpus, indent=1) + "\n")
    print(f"{len(corpus['entries'])} entries written to {OUTPUTS}")


if __name__ == "__main__":
    main()
