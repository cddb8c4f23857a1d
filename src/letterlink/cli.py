"""Command-line front end.

Exit codes: 0 success, 1 undefined values or validation errors, 2 parse
errors.  With ``--json`` each invocation emits one envelope object::

    {"command": ..., "input": ..., "value": ..., "undefined_at": ..., "timing_ms": ...}

Rationals are serialized as "p/q" strings.

Each call builds its own argparse parser.  It registers every command by
name and help, so ``letterlink -h``, the usage lines and argparse's
refusals read as if every command's arguments were built, but it adds
arguments, ``-h`` among them, to the called command only (``build_parser``);
building all ten took most of a tiny call.  Nothing is kept from one call
to the next; the README's "Start-up" section says why.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import words
from .errors import LetterLinkError, ParseError, TooLarge, UndefinedInvariant


# the least integer whose decimal form int() and str() refuse
_UNPRINTABLE = 10 ** words._DIGIT_LIMIT


def _printable(n: int) -> int:
    if abs(n) >= _UNPRINTABLE:
        raise TooLarge(f"a value of more than {words._DIGIT_LIMIT} digits")
    return n


def _plain(value):
    """JSON-friendly form: exact integers stay ints, rationals become 'p/q'.
    A value past ``words._DIGIT_LIMIT`` digits raises TooLarge."""
    if isinstance(value, Fraction):
        _printable(value.numerator)
        _printable(value.denominator)
        return int(value) if value.denominator == 1 else f"{value}"
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, int):
        return _printable(value)
    return value


def _format(value) -> str:
    plain = _plain(value)
    if isinstance(plain, list):
        return json.dumps(plain, separators=(",", ":"))
    return str(plain)


class _Envelope:
    def __init__(self, command: str, inputs: dict, as_json: bool, timing: bool):
        self.data = {
            "command": command,
            "input": inputs,
            "value": None,
            "undefined_at": None,
        }
        self.as_json = as_json
        self.timing = timing
        self.lines: list[str] = []
        self.start = time.perf_counter()

    def set_value(self, value, text: str | None = None):
        self.data["value"] = _plain(value)
        self.lines.append(text if text is not None else _format(value))

    def set_undefined(self, exc: UndefinedInvariant):
        self.data["undefined_at"] = f"{exc.subsymbol} (count={exc.count})"
        self.lines.append(str(exc))

    def emit(self) -> int:
        self.data["timing_ms"] = round(
            (time.perf_counter() - self.start) * 1000, 3
        )
        if self.as_json:
            print(json.dumps(self.data))
        else:
            for line in self.lines:
                print(line)
            if self.timing:
                print(f"timing: {self.data['timing_ms']} ms")
        return 1 if self.data["undefined_at"] is not None else 0


def _integer(text: str) -> int:
    """An integer option: an optional '-' and ASCII digits, as in the grammars.
    Digits past int()'s limit are refused with the same message."""
    if words._INT_RE.fullmatch(text.strip()) is not None:
        try:
            return int(text)
        except ValueError:   # more than sys.get_int_max_str_digits() digits
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--json", action="store_true", help="emit a JSON envelope")
    parser.add_argument("--timing", action="store_true",
                        help="report the computation time")


def _eval_arguments(p: argparse.ArgumentParser):
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--symbol")
    group.add_argument("--graph")
    p.add_argument("--word", required=True)


def _fox_arguments(p: argparse.ArgumentParser):
    p.add_argument("--word", required=True)
    p.add_argument("--seq", required=True, help="comma-separated generators, e.g. a,b,a")
    p.add_argument("--full", action="store_true",
                   help="print the group-ring element instead of its augmentation")


def _reduce_arguments(p: argparse.ArgumentParser):
    p.add_argument("--graph", required=True)
    p.add_argument("--order", help="comma-separated vertex ids (default: automatic)")


def _distinct_arguments(p: argparse.ArgumentParser):
    p.add_argument("--graph", required=True)


def _pair_arguments(p: argparse.ArgumentParser):
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--graph")
    group.add_argument("--graphsum")
    p.add_argument("--lie", required=True)


def _basis_arguments(p: argparse.ArgumentParser):
    p.add_argument("--weight", type=_integer, required=True)
    p.add_argument("--gens", required=True)
    p.add_argument("--multidegree", help="comma-separated counts matching --gens")


def _matrix_arguments(p: argparse.ArgumentParser):
    p.add_argument("--weight", type=_integer, required=True)
    p.add_argument("--gens", required=True)
    p.add_argument("--multidegree", required=True)


def _coords_arguments(p: argparse.ArgumentParser):
    p.add_argument("--word", required=True)
    p.add_argument("--weight", type=_integer, required=True)


def _diagram_arguments(p: argparse.ArgumentParser):
    p.add_argument("--word", required=True)
    p.add_argument("--symbol", required=True)


def _selfcheck_arguments(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=_integer, default=0)
    p.add_argument("--scale", choices=("small", "full"), default="small")


# each command, in the order ``letterlink -h`` lists them: its help text and
# the function that adds its own arguments
_COMMANDS = {
    "eval": ("evaluate a symbol or graph on a word", _eval_arguments),
    "fox": ("iterated derivative of a word", _fox_arguments),
    "reduce": ("reduce a graph to a sum of symbols", _reduce_arguments),
    "distinct": ("rewrite over distinct-vertex graphs", _distinct_arguments),
    "pair": ("configuration pairing of graphs with brackets", _pair_arguments),
    "basis": ("Lyndon bracket basis of a weight", _basis_arguments),
    "matrix": ("pairing matrix of dual graphs vs basis trees", _matrix_arguments),
    "coords": ("graded Lie coordinates of a word", _coords_arguments),
    "diagram": ("render the by-hand evaluation diagram", _diagram_arguments),
    "selfcheck": ("run the acceptance suite", _selfcheck_arguments),
}


def build_parser(command: str | None) -> argparse.ArgumentParser:
    """The parser of ``letterlink``, with every command registered by name
    and help, but arguments (``-h``, ``--json`` and ``--timing`` too) added
    to ``command``'s subparser only; ``command`` may name no command at all.
    argparse dispatches to that subparser alone, so no other can print."""
    parser = argparse.ArgumentParser(
        prog="letterlink",
        description="letter-linking invariants, graph reductions, and the "
        "free differential calculus on free-group words",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, add_help=name == command)
        if name == command:
            add_arguments(p)
            _add_common(p)
    return parser


def _entries(text: str, pattern, what: str):
    """The comma-separated entries of ``text`` and their offsets, empty ones
    skipped; an entry that is not one token of ``pattern`` is a parse error."""
    sc = words.Scanner(text)
    for position in sc.entries(""):
        entry = sc.match(pattern)
        if entry is None:
            sc.fail(what)
        yield entry, position


def _distinct_gens(text: str) -> list[str]:
    """The generators of ``--gens``; a generator named twice is a parse
    error at its second occurrence."""
    gens: list[str] = []
    for g, position in _entries(text, words.GENERATOR_RE, "identifier"):
        if g in gens:
            raise ParseError(f"generator {g!r} is repeated in --gens", position)
        gens.append(g)
    return gens


def _multidegree_from(gens: list[str], counts_text: str) -> dict[str, int]:
    counts = []
    for count, position in _entries(counts_text, words._INT_RE, "count"):
        if len(count.lstrip("-")) > words._DIGIT_LIMIT:
            raise ParseError(f"a count of more than {words._DIGIT_LIMIT} digits",
                             position)
        counts.append((int(count), position))
    if len(counts) != len(gens):
        raise ParseError("multidegree length differs from --gens", 0)
    for c, position in counts:
        if c < 0:
            raise ParseError(f"negative count {c} in the multidegree", position)
    if not any(c for c, _ in counts):
        raise ParseError("multidegree counts sum to zero", 0)
    return {g: c for g, (c, _) in zip(gens, counts)}


def _run(args) -> int:
    env = _Envelope(args.command, {k: v for k, v in vars(args).items()
                                   if k not in ("command", "json", "timing") and v is not None},
                    args.json, args.timing)
    if args.command in ("basis", "coords") and args.weight < 1:
        raise ParseError("--weight must be at least 1", 0)
    if args.command == "eval":
        w = words.parse_compact(args.word)
        try:
            if args.symbol is not None:
                from . import linking, symbols
                value = linking.eval_symbol(symbols.parse_symbol(args.symbol), w)
            else:
                from . import eil
                value = eil.eval_graph(eil.parse_graph(args.graph), w)
            env.set_value(value)
        except UndefinedInvariant as exc:
            env.set_undefined(exc)
    elif args.command == "fox":
        from . import fox
        w = words.parse_word(args.word)
        seq = [g for g, _ in _entries(args.seq, words.GENERATOR_RE, "identifier")]
        if not seq:
            raise ParseError("--seq names no generator", 0)
        env.set_value(str(fox.iterated_fox(w, seq)) if args.full
                      else fox.fox_eval(w, seq))
    elif args.command == "reduce":
        from . import eil
        graph = eil.parse_graph(args.graph)
        order = ([v for v, _ in _entries(args.order, eil._VERTEX_ID_RE, "vertex id")]
                 if args.order is not None else eil.default_order(graph))
        total = eil.reduce_full(graph, order)
        env.set_value([[_plain(c), str(s)] for c, s in total], str(total))
    elif args.command == "distinct":
        from . import eil
        graph = eil.parse_graph(args.graph, ambient=True)
        total = eil.distinct_reduce(graph)
        env.set_value([[_plain(c), str(g)] for c, g in total], str(total))
    elif args.command == "pair":
        from . import eil, lie
        lie_part = lie.parse_lie(args.lie)
        if args.graph is not None:
            graphs = eil.parse_graph(args.graph, ambient=True)
        else:
            graphs = eil.parse_graph_sum(args.graphsum)
        env.set_value(lie.extended_pairing(graphs, lie_part))
    elif args.command == "basis":
        from . import lie
        gens = _distinct_gens(args.gens)
        md = (None if args.multidegree is None
              else _multidegree_from(gens, args.multidegree))
        texts = [str(t) for t in lie.lyndon_basis(args.weight, gens, md)]
        env.set_value(texts, "\n".join(texts))
    elif args.command == "matrix":
        from . import eil
        gens = _distinct_gens(args.gens)
        md = _multidegree_from(gens, args.multidegree)
        if sum(md.values()) != args.weight:
            raise ParseError("multidegree does not sum to --weight", 0)
        env.set_value(eil.dual_matrix(gens, md))
    elif args.command == "coords":
        from . import lie
        w = words.parse_word(args.word)
        element = lie.lie_coordinates(w, args.weight)
        env.set_value([[_plain(c), str(t)] for c, t in element.items()],
                      str(element))
    elif args.command == "diagram":
        from . import diagram, symbols
        w = words.parse_word(args.word)
        sym = symbols.parse_symbol(args.symbol)
        text, value, failure = diagram.render_diagram(w, sym)
        if failure is not None:
            env.set_undefined(failure)
            env.lines = [text]
        else:
            env.set_value(value, text)
    elif args.command == "selfcheck":
        from . import selfcheck
        results = selfcheck.run_all(seed=args.seed, scale=args.scale)
        all_ok = all(ok for _, ok, _ in results)
        report = [f"{'PASS' if ok else 'FAIL'}  {name}: {detail}"
                  for name, ok, detail in results]
        env.set_value(
            [{"name": name, "passed": ok, "detail": detail}
             for name, ok, detail in results],
            "\n".join(report),
        )
        code = env.emit()
        return code if all_ok else 1
    return env.emit()


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # the top-level parser has no option that takes a value, so argparse
    # dispatches on the first entry that does not start with '-', or refuses
    # the argv at the top level before it dispatches
    command = next((a for a in argv if not a.startswith("-")), None)
    args = build_parser(command).parse_args(argv)
    try:
        return _run(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except LetterLinkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
