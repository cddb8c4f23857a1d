"""Answer checks for benchmark tasks, run outside the timed region.

Each check predicts the answer along a route other than the one the
command takes:

* words in a lower-central-series subgroup are sums of their factors, so a
  k-node chain symbol, and the derivative ``d_(s1..sk)``, take the value
  sum(power * coefficient of s1..sk in the Lie polynomial of the core);
  the polynomial is expanded here, without the package;
* a letter-labelled graph on a commutator core takes the configuration
  pairing with the core's bracket tree (graph calculus against ``lie``);
* ``pair`` is checked the other way round, by evaluating the graph;
* ``reduce`` and ``distinct`` must pair with every Lyndon tree of the
  multidegree as the input graph does; ``distinct`` output has no
  homogeneous edge;
* ``coords`` is the sum of the Lie images of the factors;
* ``matrix`` is square of the Witt dimension and nonsingular, ``basis``
  has the Witt dimension, ``selfcheck`` passes.

An ``undefined at`` answer is correct only where the check predicts it.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import factorial, gcd

from gen import Task, expand, render_bracket


def lie_polynomial(expr) -> dict[tuple[str, ...], int]:
    """Noncommutative polynomial of a bracket: [X, Y] = XY - YX."""
    if isinstance(expr, str):
        return {(expr,): 1}
    x, y = lie_polynomial(expr[0]), lie_polynomial(expr[1])
    out: dict[tuple[str, ...], int] = {}
    for p, cp in x.items():
        for q, cq in y.items():
            out[p + q] = out.get(p + q, 0) + cp * cq
            out[q + p] = out.get(q + p, 0) - cp * cq
    return out


def magnus_value(factors, seq) -> int:
    """Coefficient of ``seq`` in the leading Magnus term of the word."""
    key = tuple(seq)
    return sum(f.power * lie_polynomial(f.core).get(key, 0) for f in factors)


def _mobius(n: int) -> int:
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def witt_dimension(counts: list[int]) -> int:
    """Dimension of the free Lie algebra in one multidegree."""
    n = sum(counts)
    g = 0
    for c in counts:
        g = gcd(g, c)
    total = 0
    for d in range(1, g + 1):
        if g % d == 0:
            ways = factorial(n // d)
            for c in counts:
                ways //= factorial(c // d)
            total += _mobius(d) * ways
    return total // n


def weight_dimension(weight: int, gens: int) -> int:
    return sum(_mobius(d) * gens ** (weight // d)
               for d in range(1, weight + 1) if weight % d == 0) // weight


def determinant(rows: list[list[Fraction]]) -> Fraction:
    m = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for c in range(len(m)):
        pivot = next((r for r in range(c, len(m)) if m[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


def plain(value):
    """The CLI's JSON form of an exact number."""
    value = Fraction(value)
    return int(value) if value.denominator == 1 else str(value)


class Oracle:
    """Checks answers, using the package's modules only along a route other
    than the one the checked command takes."""

    def __init__(self):
        from letterlink import eil, lie, symbols, words
        self.eil, self.lie, self.symbols, self.words = eil, lie, symbols, words

    # --- helpers on package objects ---

    def word(self, letters):
        W = self.words
        return W.Word(tuple(W.Letter(g, s) for g, s in letters))

    def graph(self, labels, edges, ambient=False):
        Symbol = self.symbols.Symbol
        vertices = {f"v{i + 1}": Symbol(lab) for i, lab in enumerate(labels)}
        return self.eil.SymbolGraph.build(
            vertices, [(f"v{u + 1}", f"v{v + 1}") for u, v in edges],
            ambient=ambient)

    def expanded_graph(self, labels, edges):
        """Replace each ``(x)y`` label by a y-vertex with an x-leaf pointing
        to it, as containment graphs are drawn."""
        letters, out_edges = [], list(edges)
        for text in labels:
            letters.append(text[-1])
        for i, text in enumerate(labels):
            if text.startswith("("):
                letters.append(text[1])
                out_edges.append((len(letters) - 1, i))
        return self.graph(letters, out_edges)

    def pairing_row(self, graph, trees):
        return [Fraction(self.lie.graph_tree_pairing(graph, t)) for t in trees]

    # --- expectations ---

    def check(self, task: Task, code, data) -> str | None:
        return getattr(self, "_" + task.kind.replace("-", "_"))(task, code, data)

    def _defined(self, code, data, value):
        if code != 0 or data.get("undefined_at") is not None:
            return f"exit {code}, undefined_at {data.get('undefined_at')!r}"
        if data.get("value") != value:
            return f"value {data.get('value')!r} != {value!r}"
        return None

    def _same_pairings(self, got, expected):
        if got != expected:
            return f"pairings with the Lyndon trees {got} != {expected}"
        return None

    def _eval_symbol(self, task, code, data):
        return self._defined(code, data, magnus_value(task.data["factors"],
                                                      task.data["seq"]))

    def _fox(self, task, code, data):
        return self._eval_symbol(task, code, data)

    def _eval_undefined(self, task, code, data):
        expected = f"{task.data['seq'][0]} (count={task.data['extra']})"
        if code != 1 or data.get("undefined_at") != expected:
            return f"exit {code}, undefined_at {data.get('undefined_at')!r} != {expected!r}"
        return None

    def _eval_graph(self, task, code, data):
        g = self.graph(task.data["labels"], task.data["edges"])
        total = sum(f.power * self.lie.graph_tree_pairing(g, self.lie.bracket_tree(f.core))
                    for f in task.data["factors"])
        return self._defined(code, data, plain(total))

    def _pair(self, task, code, data):
        g = self.graph(task.data["labels"], task.data["edges"])
        w = self.word(expand(task.data["tree"]))
        return self._defined(code, data, plain(self.eil.eval_graph(g, w)))

    def _coords(self, task, code, data):
        total = self.lie.LieElement()
        for f in task.data["factors"]:
            image = self.lie.lie_image_of_bracket_word(render_bracket(f.core))
            total = total + image.scale(f.power)
        expected = [[plain(c), str(t)] for c, t in total.items()]
        return self._defined(code, data, expected)

    def _reduce(self, task, code, data):
        if code != 0 or not isinstance(data.get("value"), list):
            return f"exit {code}"
        target = self.expanded_graph(task.data["labels"], task.data["edges"])
        trees = self.lie.lyndon_trees_of_multidegree(target.multidegree())
        # a spot check on at most eight trees: with symbol labels the
        # multidegree reaches weight 10, where the full check takes seconds
        trees = trees[::max(1, len(trees) // 8)][:8]
        got = [Fraction(0)] * len(trees)
        for coeff, text in data["value"]:
            sym = self.symbols.parse_symbol(text)
            graph, _ = self.eil.graph_of_symbol(sym)
            for i, p in enumerate(self.pairing_row(graph, trees)):
                got[i] += Fraction(coeff) * p
        return self._same_pairings(got, self.pairing_row(target, trees))

    def _distinct(self, task, code, data):
        if code != 0 or not isinstance(data.get("value"), list):
            return f"exit {code}"
        g = self.graph(task.data["labels"], task.data["edges"], ambient=True)
        trees = self.lie.lyndon_trees_of_multidegree(g.multidegree())
        got = [Fraction(0)] * len(trees)
        for coeff, text in data["value"]:
            h = self.eil.parse_graph(text, ambient=True)
            labels = h.labels
            if any(labels[t].letter == labels[u].letter for t, u in h.edges):
                return f"output term {text} has a homogeneous edge"
            for i, p in enumerate(self.pairing_row(h, trees)):
                got[i] += Fraction(coeff) * p
        return self._same_pairings(got, self.pairing_row(g, trees))

    def _matrix(self, task, code, data):
        counts = task.data["counts"]
        n = witt_dimension([counts[g] for g in sorted(counts)])
        rows = data.get("value")
        if code != 0 or not isinstance(rows, list):
            return f"exit {code}"
        if len(rows) != n or any(len(r) != n for r in rows):
            return f"matrix is not {n}x{n}"
        if determinant(rows) == 0:
            return "matrix is singular"
        documented = {(3, 2): [[4, -2], [4, 4]], (2, 3): [[6, -2], [0, 4]]}
        key = (counts.get("a"), counts.get("b"))
        if len(counts) == 2 and key in documented and rows != documented[key]:
            return f"weight-5 matrix {rows} != {documented[key]}"
        return None

    def _basis(self, task, code, data):
        trees = data.get("value")
        weight, gens = task.data["weight"], task.data["gens"]
        if code != 0 or not isinstance(trees, list):
            return f"exit {code}"
        if len(set(trees)) != len(trees):
            return "repeated trees"
        if len(trees) != weight_dimension(weight, len(gens)):
            return f"{len(trees)} trees, expected {weight_dimension(weight, len(gens))}"
        for text in trees:
            letters = [ch for ch in text if ch.isalpha()]
            if len(letters) != weight or not set(letters) <= set(gens):
                return f"tree {text} has the wrong leaves"
        return None

    def _selfcheck(self, task, code, data):
        checks = data.get("value") or []
        failing = [c["name"] for c in checks if not c.get("passed")]
        if code != 0 or failing or len(checks) != 12:
            return f"exit {code}, failing {failing}"
        return None


def envelope(out: str) -> tuple[dict | None, str]:
    """The JSON envelope without its timing, and a key for deduplication."""
    try:
        data = json.loads(out)
    except ValueError:
        return None, out
    if not isinstance(data, dict):
        return None, out
    data.pop("timing_ms", None)
    return data, json.dumps(data, sort_keys=True)


def verify(oracle: Oracle, tasks: list[Task], outcomes) -> tuple[int, list[str]]:
    """Check every outcome ``(task index, exit code, stdout, stderr)``.

    Outcomes repeat (the same task runs once per pass), so each distinct
    answer is checked once.  Returns the number of failed invocations and
    a description of each distinct failure.
    """
    verdicts: dict[tuple, str | None] = {}
    failed = 0
    problems = []
    for index, code, out, err in outcomes:
        data, key = envelope(out)
        full_key = (index, code, key, err)
        if full_key not in verdicts:
            task = tasks[index]
            if err:
                verdict = f"stderr {err.strip()[:200]!r}"
            elif data is None or data.get("command") != task.command:
                verdict = f"no envelope for {task.command}: {out[:200]!r}"
            else:
                verdict = oracle.check(task, code, data)
            verdicts[full_key] = verdict
            if verdict is not None:
                problems.append(f"{task.point} {' '.join(task.argv)[:160]}: {verdict}")
        if verdicts[full_key] is not None:
            failed += 1
    return failed, problems
