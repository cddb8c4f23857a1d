"""Seeded inputs for the benchmark workloads.

Everything here is self-contained: it never calls the package's own
generators (``random_gamma_element``, ``random_bracket``), so a change to
``letterlink.words`` cannot change what a workload runs.  Each word in a
lower-central-series subgroup is kept as its factors (conjugator, core
commutator, power), which the oracles use to predict the answers.

A workload is a list of :class:`Task` objects, one pass.  Every size point
(a named input size, such as ``fox-256``) appears a fixed number of times
per pass; the seed chooses letters, shapes and conjugators but never sizes,
so the cost of a pass hardly depends on the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

GENS = ("a", "b", "c")


@dataclass
class Factor:
    """``conj * core^power * conj^-1`` with ``core`` a nested-pair commutator."""

    conj: tuple[tuple[str, int], ...]
    core: object
    power: int


@dataclass
class Task:
    point: str                 # named size point, e.g. "fox-256"
    argv: list[str]            # CLI arguments, ending in --json
    kind: str                  # which oracle checks the answer
    data: dict = field(default_factory=dict)

    @property
    def command(self) -> str:
        return self.argv[0]


# --- free-group words --------------------------------------------------------


def bracket(rng: random.Random, weight: int, gens) -> object:
    """Random commutator shape: a generator name or a (left, right) pair;
    no node brackets a subtree with an identical copy of itself."""
    if weight == 1:
        return rng.choice(gens)
    while True:
        split = rng.randint(1, weight - 1)
        left = bracket(rng, split, gens)
        right = bracket(rng, weight - split, gens)
        if left != right:
            return (left, right)


def inverse(letters):
    return tuple((g, -s) for g, s in reversed(letters))


def expand(expr) -> tuple[tuple[str, int], ...]:
    """Letters of the commutator ``[u, v] = u v u^-1 v^-1``, unreduced."""
    if isinstance(expr, str):
        return ((expr, 1),)
    u, v = expand(expr[0]), expand(expr[1])
    return u + v + inverse(u) + inverse(v)


def render_bracket(expr) -> str:
    if isinstance(expr, str):
        return expr
    return f"[{render_bracket(expr[0])},{render_bracket(expr[1])}]"


def render_letters(letters) -> str:
    return " ".join(g if s > 0 else f"{g}^-1" for g, s in letters)


def factor_letters(f: Factor):
    core = expand(f.core)
    body = core * f.power if f.power > 0 else inverse(core) * -f.power
    return f.conj + body + inverse(f.conj)


def word_letters(factors) -> tuple[tuple[str, int], ...]:
    out: list = []
    for f in factors:
        out.extend(factor_letters(f))
    return tuple(out)


def word_length(factors) -> int:
    return sum(2 * len(f.conj) + abs(f.power) * len(expand(f.core))
               for f in factors)


def render_compact(factors) -> str:
    """Text with ``^`` and ``[ , ]``, so the parser has to expand it."""
    parts = []
    for f in factors:
        conj = render_letters(f.conj)
        if conj:
            parts.append(f"({conj})")
        core = render_bracket(f.core)
        parts.append(core if f.power == 1 else f"{core}^{f.power}")
        if conj:
            parts.append(f"({conj})^-1")
    return " ".join(parts)


def render_expanded(factors) -> str:
    """The same word written out letter by letter."""
    return render_letters(word_letters(factors))


def random_letters(rng: random.Random, n: int, gens):
    return tuple((rng.choice(gens), rng.choice((1, -1))) for _ in range(n))


def gamma_word(rng: random.Random, weight: int, gens, factors: int,
               length: int | None = None, max_conj: int = 3) -> list[Factor]:
    """Product of conjugated weight-``weight`` commutators.  With ``length``
    the powers are chosen so that the expanded word has about that many
    letters; otherwise each power is +-1."""
    out = []
    for i in range(factors):
        core = bracket(rng, weight, gens)
        conj = random_letters(rng, rng.randint(0, max_conj), gens)
        sign = rng.choice((1, -1))
        if length is None:
            power = sign
        else:
            share = (length - word_length(out)) // (factors - i)
            power = sign * max(1, round((share - 2 * len(conj))
                                        / len(expand(core))))
        out.append(Factor(conj, core, power))
    return out


def left_normed(rng: random.Random, weight: int, gens) -> object:
    """``[..[[x1, x2], x3].., xk]`` with x_i = pi(gens[i mod |gens|]) for a
    random permutation pi: the letter counts of every such core are the
    same up to relabelling, and so is the cost of differentiating it."""
    pi = list(gens)
    rng.shuffle(pi)
    expr = pi[0]
    for i in range(1, weight):
        expr = (expr, pi[i % len(pi)])
    return expr


def conjugator(rng: random.Random, n: int, gens, avoid: str | None = None):
    """n positive letters, the generators in turn from a random one,
    shuffled, not starting with ``avoid``.  Random signs would let
    conjugators cancel into the cores by chance, and the cost of Fox
    derivatives swings with the cancellation (by 30% between seeds)."""
    start = rng.randrange(len(gens))
    letters = [gens[(start + i) % len(gens)] for i in range(n)]
    rng.shuffle(letters)
    if letters and letters[0] == avoid:
        other = next((i for i, g in enumerate(letters) if g != avoid), None)
        if other is None:
            letters[0] = gens[(gens.index(avoid) + 1) % len(gens)]
        else:
            letters[0], letters[other] = letters[other], letters[0]
    return tuple((g, 1) for g in letters)


def core_length(weight: int) -> int:
    """Letters in a left-normed commutator of this weight."""
    return 1 if weight == 1 else 2 * (core_length(weight - 1) + 1)


def gamma_word_of_length(rng: random.Random, weight: int, gens, cores: int,
                         letters: int) -> list[Factor]:
    """``cores`` conjugated left-normed commutators with powers +-1 and
    conjugators of near-equal length: a freely reduced word of ``letters``
    letters in which every generator of ``gens`` occurs.  The layout is
    fixed so that the cost of a size point hardly depends on the seed."""
    half, odd = divmod(letters - cores * core_length(weight), 2)
    if odd or half < 0:
        raise ValueError(f"{cores} weight-{weight} cores do not fill {letters} letters")
    while True:
        factors: list[Factor] = []
        for i in range(cores):
            # conj^-1 ends with the inverse of its first letter; the next
            # conjugator must not start with that letter
            avoid = factors[-1].conj[0][0] if factors and factors[-1].conj else None
            factors.append(Factor(conjugator(rng, half // cores + (i < half % cores),
                                             gens, avoid),
                                  left_normed(rng, weight, gens), rng.choice((1, -1))))
        word = word_letters(factors)
        if ({g for g, _ in word} == set(gens)
                and all(x != (y[0], -y[1]) for x, y in zip(word, word[1:]))):
            return factors


# --- symbols and graphs --------------------------------------------------------


def chain_sequence(rng: random.Random, k: int, gens) -> list[str]:
    """Generators s1..sk with neighbours distinct (a valid chain symbol)."""
    seq = [rng.choice(gens)]
    while len(seq) < k:
        seq.append(rng.choice([g for g in gens if g != seq[-1]]))
    return seq


def chain_symbol(seq) -> str:
    """``((s1)s2)...sk``: its value on a weight-k word is d_(s1,...,sk)."""
    text = seq[0]
    for g in seq[1:]:
        text = f"({text}){g}"
    return text


def random_tree(rng: random.Random, k: int) -> list[tuple[int, int]]:
    """Edges of a uniformly random labelled tree on 0..k-1 (Pruefer)."""
    if k == 1:
        return []
    code = [rng.randrange(k) for _ in range(k - 2)]
    degree = [1] * k
    for x in code:
        degree[x] += 1
    edges = []
    for x in code:
        leaf = min(i for i in range(k) if degree[i] == 1)
        edges.append((leaf, x))
        degree[leaf] -= 1
        degree[x] -= 1
    u, v = [i for i in range(k) if degree[i] == 1]
    edges.append((u, v))
    return edges


def orient(rng: random.Random, edges):
    return [(u, v) if rng.random() < 0.5 else (v, u) for u, v in edges]


def render_graph(labels: list[str], edges) -> str:
    vs = ", ".join(f"v{i + 1}:{lab}" for i, lab in enumerate(labels))
    if not edges:
        return "{" + vs + "}"
    es = ", ".join(f"v{u + 1}->v{v + 1}" for u, v in edges)
    return "{" + vs + "; " + es + "}"


def eil_graph(rng: random.Random, k: int, gens) -> tuple[list[str], list]:
    """Letter-labelled tree on k vertices with no homogeneous edge."""
    edges = orient(rng, random_tree(rng, k))
    while True:
        labels = [rng.choice(gens) for _ in range(k)]
        if all(labels[u] != labels[v] for u, v in edges):
            return labels, edges


def ambient_graph(rng: random.Random, counts: dict[str, int]):
    """Tree with a fixed label multiset and at least one homogeneous edge."""
    pool = [g for g in sorted(counts) for _ in range(counts[g])]
    while True:
        edges = orient(rng, random_tree(rng, len(pool)))
        labels = pool[:]
        rng.shuffle(labels)
        if any(labels[u] == labels[v] for u, v in edges):
            return labels, edges


def symbol_graph(rng: random.Random, k: int, gens):
    """Tree on k vertices labelled by letters or one-child symbols ``(x)y``,
    adjacent free letters distinct."""
    labels, edges = eil_graph(rng, k, gens)
    texts = []
    for lab in labels:
        if rng.random() < 0.4:
            child = rng.choice([g for g in gens if g != lab])
            texts.append(f"({child}){lab}")
        else:
            texts.append(lab)
    return texts, edges


# --- workloads -------------------------------------------------------------------


def _json(argv):
    return argv + ["--json"]


def _eval_symbol_task(rng, point, k, gens, length):
    seq = chain_sequence(rng, k, gens)
    factors = gamma_word(rng, k, gens, rng.randint(1, 3), length=length)
    return Task(point, _json(["eval", "--symbol", chain_symbol(seq),
                              "--word", render_compact(factors)]),
                "eval-symbol", {"seq": seq, "factors": factors})


def _eval_graph_task(rng, point, k, gens, length):
    labels, edges = eil_graph(rng, k, gens)
    factors = gamma_word(rng, k, gens, rng.randint(1, 3), length=length)
    return Task(point, _json(["eval", "--graph", render_graph(labels, edges),
                              "--word", render_compact(factors)]),
                "eval-graph", {"labels": labels, "edges": edges,
                               "factors": factors})


def long_words(rng: random.Random) -> list[Task]:
    # Symbols and graphs of 2-5 nodes, in turn.  The 1e3-letter tasks hold
    # the median, the 1e4-letter ones p90.
    tasks = []
    for i in range(36):
        tasks.append(_eval_symbol_task(rng, "eval-sym-1e3", 2 + i % 4, GENS, 1000))
    for i in range(12):
        tasks.append(_eval_graph_task(rng, "eval-graph-1e3", 2 + i % 4, GENS, 1000))
    for i in range(8):
        tasks.append(_eval_symbol_task(rng, "eval-sym-1e4", 2 + i % 4, GENS, 10_000))
    for i in range(4):
        tasks.append(_eval_graph_task(rng, "eval-graph-1e4", 2 + i % 4, GENS, 10_000))
    # The largest word sets the peak memory, so its layout is fixed up to a
    # relabelling of the generators: [[x,y],z]^(+-10000) and the symbol
    # ((x)y)z, 100000 letters.
    core = left_normed(rng, 3, GENS)
    seq = [core[0][0], core[0][1], core[1]]
    factors = [Factor((), core, rng.choice((1, -1)) * 10_000)]
    tasks.append(Task("eval-sym-1e5", _json(["eval", "--symbol", chain_symbol(seq),
                                            "--word", render_compact(factors)]),
                      "eval-symbol", {"seq": seq, "factors": factors}))
    return tasks


def lyndon_sequences(weight: int, gens) -> list[tuple[str, ...]]:
    """Lyndon words of one length (Duval), as generator sequences."""
    out = []
    w = [-1]
    while w:
        w[-1] += 1
        if len(w) == weight:
            out.append(tuple(gens[i] for i in w))
        m = len(w)
        while len(w) < weight:
            w.append(w[len(w) - m])
        while w and w[-1] == len(gens) - 1:
            w.pop()
    return out


def _coords_task(rng, point, weight, gens, cores, letters):
    factors = gamma_word_of_length(rng, weight, gens, cores, letters)
    return Task(point, _json(["coords", "--word", render_expanded(factors),
                              "--weight", str(weight)]),
                "coords", {"factors": factors, "weight": weight})


def _fox_task(rng, point, weight, gens, cores, letters, index):
    factors = gamma_word_of_length(rng, weight, gens, cores, letters)
    seqs = lyndon_sequences(weight, gens)
    seq = seqs[index % len(seqs)]
    return Task(point, _json(["fox", "--word", render_expanded(factors),
                              "--seq", ",".join(seq)]),
                "fox", {"factors": factors, "seq": list(seq)})


# (point, weight, generators, cores, letters, tasks per pass).  The counts
# put the median in the middle of the fox-64 tasks and p90 inside
# coords-w4-g3, away from the boundary between two kinds of task, and keep
# the single coords-w5-g3 call below a quarter of the pass.
_COORDS_POINTS = (
    ("fox-16", 3, 2, 1, 16, 47),
    ("fox-64", 3, 2, 4, 64, 24),
    ("fox-256", 4, 2, 8, 256, 4),
    ("coords-w3-g2", 3, 2, 2, 32, 10),
    ("coords-w3-g3", 3, 3, 2, 32, 10),
    ("coords-w4-g2", 4, 2, 2, 48, 4),
    ("coords-w4-g3", 4, 3, 2, 48, 16),
    ("coords-w5-g2", 5, 2, 1, 64, 2),
    ("coords-w5-g3", 5, 3, 1, 76, 1),
)


def coords(rng: random.Random) -> list[Task]:
    tasks = []
    for point, weight, ngens, cores, letters, repeats in _COORDS_POINTS:
        for i in range(repeats):
            if point.startswith("fox"):
                # the sequences are taken in turn: the cost of a derivative
                # depends on the sequence, and a random pick would vary it
                tasks.append(_fox_task(rng, point, weight, GENS[:ngens], cores,
                                       letters, i))
            else:
                tasks.append(_coords_task(rng, point, weight, GENS[:ngens],
                                          cores, letters))
    return tasks


# (point, label counts, tasks per pass)
_DISTINCT_POINTS = (
    ("distinct-v4", {"a": 2, "b": 1, "c": 1}, 12),
    ("distinct-v5", {"a": 2, "b": 2, "c": 1}, 12),
    ("distinct-v6", {"a": 2, "b": 2, "c": 2}, 8),
    ("distinct-v7", {"a": 3, "b": 2, "c": 2}, 1),
)

_MATRIX_POINTS = (
    ("matrix-w5", {"a": 3, "b": 2}),
    ("matrix-w5", {"a": 2, "b": 3}),
    ("matrix-w5", {"a": 2, "b": 2, "c": 1}),
    ("matrix-w6", {"a": 4, "b": 2}),
    ("matrix-w6", {"a": 3, "b": 3}),
    ("matrix-w6", {"a": 2, "b": 2, "c": 2}),
    # (3,2,2) also has 7 vertices but takes 3-4.5 s, too long for a pass
    ("matrix-w7", {"a": 4, "b": 3}),
)


def _distinct_task(rng, point, counts):
    labels, edges = ambient_graph(rng, counts)
    return Task(point, _json(["distinct", "--graph", render_graph(labels, edges)]),
                "distinct", {"labels": labels, "edges": edges})


def _matrix_task(point, counts):
    gens = sorted(counts)
    return Task(point, _json(["matrix", "--weight", str(sum(counts.values())),
                              "--gens", ",".join(gens), "--multidegree",
                              ",".join(str(counts[g]) for g in gens)]),
                "matrix", {"counts": dict(counts)})


def _reduce_task(rng, point, k, gens):
    labels, edges = symbol_graph(rng, k, gens)
    return Task(point, _json(["reduce", "--graph", render_graph(labels, edges)]),
                "reduce", {"labels": labels, "edges": edges})


def graphs(rng: random.Random) -> list[Task]:
    tasks = []
    for point, counts, repeats in _DISTINCT_POINTS:
        for _ in range(repeats):
            tasks.append(_distinct_task(rng, point, counts))
    for point, counts in _MATRIX_POINTS:
        tasks.append(_matrix_task(point, counts))
    for i in range(24):
        tasks.append(_reduce_task(rng, f"reduce-v{4 + i % 3}", 4 + i % 3, GENS))
    # One fixed selfcheck seed: over seeds 1-8 one call took 2.0 to 4.0 s,
    # a swing that would outweigh every other task of the pass.
    tasks.append(Task("selfcheck-small", ["selfcheck", "--scale", "small",
                                          "--seed", "0", "--json"],
                      "selfcheck", {}))
    return tasks


def small_mixed(rng: random.Random) -> list[Task]:
    """Tiny calls of every command except selfcheck, which cannot be tiny."""
    tasks = []
    for i in range(20):
        k = 2 + i % 3
        tasks.append(_eval_symbol_task(rng, "small-eval-sym", k, GENS, None))
        tasks.append(_eval_graph_task(rng, "small-eval-graph", k, GENS, None))
    for i in range(4):
        # a word outside the subgroup: the innermost letter has a nonzero
        # exponent sum, so the invariant is undefined there
        seq = chain_sequence(rng, 3, GENS)
        factors = gamma_word(rng, 3, GENS, 1)
        extra = rng.choice((1, -1, 2))
        text = f"{render_compact(factors)} {seq[0]}^{extra}"
        tasks.append(Task("small-eval-undefined",
                          _json(["eval", "--symbol", chain_symbol(seq),
                                 "--word", text]),
                          "eval-undefined",
                          {"seq": seq, "factors": factors, "extra": extra}))
    for i in range(20):
        weight = 2 + i % 3
        factors = gamma_word_of_length(rng, weight, GENS[:2 + i % 2], 1,
                                       core_length(weight) + 2 + 2 * (i % 3))
        seq = chain_sequence(rng, weight, GENS[:2 + i % 2])
        tasks.append(Task("small-fox", _json(["fox", "--word", render_expanded(factors),
                                              "--seq", ",".join(seq)]),
                          "fox", {"factors": factors, "seq": seq}))
    for i in range(20):
        tasks.append(_reduce_task(rng, "small-reduce", 2 + i % 3, GENS))
    for counts in ({"a": 2, "b": 1}, {"a": 2, "b": 2}, {"a": 3, "b": 1},
                   {"a": 2, "b": 1, "c": 1}) * 3:
        tasks.append(_distinct_task(rng, "small-distinct", counts))
    for i in range(20):
        k = 2 + i % 3
        labels, edges = eil_graph(rng, k, GENS)
        tree = bracket(rng, k, GENS)
        tasks.append(Task("small-pair", _json(["pair", "--graph", render_graph(labels, edges),
                                               "--lie", render_bracket(tree)]),
                          "pair", {"labels": labels, "edges": edges, "tree": tree}))
    for i in range(10):
        weight = 2 + i % 3
        gens = GENS[:2 + i % 2]
        argv = ["basis", "--weight", str(weight), "--gens", ",".join(gens)]
        tasks.append(Task("small-basis", _json(argv), "basis",
                          {"weight": weight, "gens": list(gens)}))
    for counts in ({"a": 2, "b": 1}, {"a": 1, "b": 2}, {"a": 3, "b": 1},
                   {"a": 2, "b": 2}, {"a": 1, "b": 1, "c": 1},
                   {"a": 2, "b": 1, "c": 1}):
        tasks.append(_matrix_task("small-matrix", counts))
    for i in range(20):
        weight = 2 + i % 3
        gens = GENS[:2 + i % 2]
        tasks.append(_coords_task(rng, "small-coords", weight, gens, 1,
                                  core_length(weight) + 2 + 2 * (i % 3)))
    for i, letters in enumerate((20, 40, 60, 80, 100, 130) * 5):
        k = 2 + i % 3
        seq = chain_sequence(rng, k, GENS)
        factors = gamma_word(rng, k, GENS, 2, length=letters, max_conj=2)
        tasks.append(Task(f"diagram-{letters}",
                          _json(["diagram", "--word", render_compact(factors),
                                 "--symbol", chain_symbol(seq)]),
                          "eval-symbol", {"seq": seq, "factors": factors}))
    return tasks


WORKLOADS = ("long-words", "coords", "graphs", "small-mixed")


def workload(name: str, seed: int) -> list[Task]:
    """One pass of a workload: the same seed gives the same tasks, in a
    seeded order."""
    rng = random.Random(f"{name}:{seed}")
    if name == "long-words":
        tasks = long_words(rng)
    elif name == "coords":
        tasks = coords(rng)
    elif name == "graphs":
        tasks = graphs(rng)
    elif name == "small-mixed":
        tasks = small_mixed(rng)
    else:
        raise ValueError(f"unknown workload {name!r}")
    rng.shuffle(tasks)
    return tasks
