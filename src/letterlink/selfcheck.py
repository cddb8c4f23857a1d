"""Acceptance checks: the package's exit criteria, runnable from the CLI
(`letterlink selfcheck`) and wrapped one-to-one by the test suite.

Every check is exact (integer or rational equality, zero tolerance) and
deterministic for a fixed seed.  Check k draws from its own
``random.Random(seed + k)``, so the checks are independent of each other.

``run_all`` runs them in this process and in forked children, one process
per usable CPU up to one per check.  Every process pulls check numbers
from one pipe, the costliest checks first, one at a time until the pipe is
empty, so the caller takes its share of the checks as the children do.
``run_all`` runs them in this process alone, in order, when fewer than two
CPUs are usable, when the caller runs more than one thread (a forked child
could wait forever on a lock another thread held), or when this process
cannot fork children.  Its result, and so the ``selfcheck`` output and
exit code, is the same either way, and an error a check raises reaches
the caller unchanged; when several checks fail, it is the first in check
order.  A child hands back, with each result, the distinct-vertex bases
its check built (``eil.distinct_basis``), and they are kept here as if
the check had run here, so a later call builds none of them again.  A
child that ends without reporting a check it took makes ``run_all`` raise
RuntimeError naming the checks with no result, and every child is reaped
before ``run_all`` returns or raises.  A tracer installed here sees the
inner calls of the checks this process runs, and the checks the children
run only as time spent in ``run_all``.
"""

from __future__ import annotations

import itertools
import os
import pickle
import random
import signal
import threading
from fractions import Fraction
from math import lcm
from operator import add, mul

from . import eil, fox, lie, linking, symbols, words
from .errors import (InvalidArgument, InvalidEdge, InvalidSymbol, UndefinedInvariant,
                     UndefinedReduction)
from .words import Word

WORKED_WORD_TEXT = "[a a, [b, a c]]"

WORKED_REDUCTION_INPUT = (
    "{v1:b, v2:a, v3:a, v4:c, v5:d; v1->v2, v2->v3, v3->v4, v3->v5}"
)
WORKED_REDUCTION_TARGET = (
    (Fraction(1, 2),
     "{v1:b, v2:a, v3:a, v4:c, v5:d; v1->v2, v2->v4, v4->v3, v5->v2}"),
    (Fraction(-1, 2),
     "{v1:b, v2:a, v3:a, v4:c, v5:d; v1->v2, v5->v3, v3->v4, v2->v5}"),
    (Fraction(-1, 2),
     "{v1:a, v2:b, v3:a, v4:c, v5:d; v1->v2, v2->v3, v4->v3, v5->v3}"),
)


def _worked_words() -> tuple[Word, Word]:
    raw = words.parse_word(WORKED_WORD_TEXT)
    return raw, words.free_reduce(raw)


def _random_symbol(rng: random.Random, alphabet: list[str],
                   depth_budget: int, forbid: str | None = None) -> symbols.Symbol:
    letter = rng.choice([g for g in alphabet if g != forbid])
    if depth_budget <= 0 or rng.random() < 0.35:
        return symbols.Symbol(letter)
    kids = []
    budget = depth_budget - 1
    for _ in range(rng.randint(1, 2)):
        child = _random_symbol(rng, alphabet, rng.randint(0, budget), forbid=letter)
        kids.append(child)
        budget -= child.node_count()
        if budget <= 0:
            break
    return symbols.Symbol(letter, tuple(kids))


def _random_zero_count_list(rng: random.Random, w: Word, gen: str) -> linking.List | None:
    positions = [j for j, l in enumerate(w.letters, 1) if l.gen == gen]
    if len(positions) < 2:
        return None
    assoc = {j: rng.randint(-2, 2) for j in positions}
    c = linking.count(linking.List(w, gen, assoc))
    j = positions[-1]
    assoc[j] = assoc.get(j, 0) - c * w.letters[j - 1].sign
    lst = linking.List(w, gen, assoc)
    return lst if lst.assoc else None


def check_1_visual_example(seed=0, scale="small"):
    """Letter-linking value 4 with intermediate multiplicities (2,3,1)."""
    raw, reduced = _worked_words()
    sym = symbols.parse_symbol("((a)b)a")
    problems = []
    for w in (reduced, raw):
        value = linking.eval_symbol(sym, w)
        if value != 4:
            problems.append(f"value {value} != 4 on {w}")
    lb = linking.link(linking.standard_list(reduced, "a"),
                      linking.standard_list(reduced, "b"))
    b_positions = [j for j, l in enumerate(reduced.letters, 1) if l.gen == "b"]
    mults = [lb.multiplicity(j) for j in b_positions]
    if mults != [2, 3, 1, 0]:
        problems.append(f"b multiplicities {mults} != [2, 3, 1, 0]")
    return not problems, "; ".join(problems) or "value 4, multiplicities (2,3,1,0)"


def _group_ring(termlist: list[tuple[int, str]]) -> fox.GroupRingElement:
    out = fox.GroupRingElement()
    for coeff, text in termlist:
        out.add(coeff, words.parse_word(text))
    return out


def check_2_fox_example(seed=0, scale="small"):
    """Iterated derivatives match the worked calculation term for term."""
    expected_da = _group_ring([
        (1, ""), (1, "a"), (1, "a a b"),
        (-1, "a a b a c b^-1 c^-1 a^-1"),
        (-1, "a a b a c b^-1 c^-1 a^-1 a^-1"),
        (-1, "a a b a c b^-1 c^-1 a^-1 a^-1 c b c^-1 a^-1"),
    ])
    expected_dba = _group_ring([
        (-2, "a a"), (3, "a a b a c b^-1"),
        (-1, "a a b a c b^-1 c^-1 a^-1 a^-1 c"),
    ])
    expected_daba = _group_ring([
        (2, "a a b"),
        (1, "a a b a c b^-1 c^-1 a^-1"),
        (1, "a a b a c b^-1 c^-1 a^-1 a^-1"),
    ])
    problems = []
    for w in _worked_words():
        if fox.iterated_fox(w, ["a"]) != expected_da:
            problems.append("d_a mismatch")
        if fox.iterated_fox(w, ["b", "a"]) != expected_dba:
            problems.append("d_b d_a mismatch")
        if fox.iterated_fox(w, ["a", "b", "a"]) != expected_daba:
            problems.append("d_a d_b d_a mismatch")
        if fox.fox_eval(w, ["a", "b", "a"]) != 4:
            problems.append("value != 4")
    return not problems, "; ".join(sorted(set(problems))) or "derivative chain and value 4"


def _star_graph() -> eil.SymbolGraph:
    return eil.parse_graph(
        "{v1:a, v2:a, v3:a, v4:a, v5:b; v1->v5, v2->v5, v3->v5, v4->v5}"
    )


def check_3_star_24(seed=0, scale="small"):
    value = lie.extended_pairing(_star_graph(), lie.parse_lie("[a,[a,[a,[a,b]]]]"))
    return value == 24, f"pairing = {value}"


def check_4_weight5_matrices(seed=0, scale="small"):
    # the rows `letterlink matrix --gens a,b` prints
    m32, m23 = (eil.dual_matrix(["a", "b"], md)
                for md in ({"a": 3, "b": 2}, {"a": 2, "b": 3}))
    det = lambda m: m[0][0] * m[1][1] - m[0][1] * m[1][0]
    ok = (m32 == [[4, -2], [4, 4]] and m23 == [[6, -2], [0, 4]]
          and det(m32) == 24 and det(m23) == 24)
    return ok, f"(3,2): {m32}, (2,3): {m23}, dets {det(m32)}, {det(m23)}"


def _full_column_rank(multidegree: dict[str, int]) -> bool:
    # the rows `distinct` solves over and `matrix` picks its rows from
    basis = eil.distinct_basis(multidegree)
    return basis.elimination.rank == len(basis.trees)


def check_5_surjectivity(seed=0, scale="small"):
    failures = []
    for weight in range(1, 6):
        for na in range(weight + 1):
            md = {"a": na, "b": weight - na}
            if not _full_column_rank(md):
                failures.append(str(md))
    for weight in range(1, 5):
        for na in range(weight + 1):
            for nb in range(weight - na + 1):
                md = {"a": na, "b": nb, "c": weight - na - nb}
                if not _full_column_rank(md):
                    failures.append(str(md))
    return not failures, ("full column rank on all multidegrees"
                          if not failures else f"rank deficits: {failures}")


def _named_edges(edges, flips) -> list[tuple[str, str]]:
    """Edges on 0..k-1 as edges between v1..vk, each reversed where its flip
    is true."""
    return [(f"v{v + 1}", f"v{u + 1}") if flip else (f"v{u + 1}", f"v{v + 1}")
            for (u, v), flip in zip(edges, flips)]


def _random_tree(rng: random.Random, k: int) -> list[tuple[int, int]]:
    """A uniformly random labeled tree on 0..k-1, k >= 2: the same tree, from
    the same random draw, as ``rng.choice(list(eil._prufer_trees(k)))``."""
    index = rng.randrange(k ** (k - 2))
    code = []
    for _ in range(k - 2):
        index, digit = divmod(index, k)
        code.append(digit)
    return eil._prufer_decode(k, code[::-1])


def _unique_label_graphs(n: int) -> list[eil.SymbolGraph]:
    gens = [f"x{i + 1}" for i in range(n)]
    out = []
    for edges in eil._prufer_trees(n):
        for flips in itertools.product((False, True), repeat=len(edges)):
            out.append(eil.SymbolGraph.build(
                {f"v{i + 1}": symbols.Symbol(gens[i]) for i in range(n)},
                _named_edges(edges, flips)))
    return out


def _unique_commutators(n: int):
    gens = tuple(f"x{i + 1}" for i in range(n))
    out = []
    for perm in itertools.permutations(gens):
        out.extend(words.all_bracketings(perm))
    return out


def _combined_rows(terms, width: int) -> tuple[list[int], int]:
    """The sum of the rows of ``width`` entries in (rational coefficient,
    row) ``terms``, each times its coefficient, entry by entry, as
    numerators over the coefficients' least common denominator, and that
    denominator."""
    terms = list(terms)
    den = lcm(*(c.denominator for c, _ in terms))
    out = [0] * width
    for c, row in terms:
        scale = c.numerator * (den // c.denominator)
        out = list(map(add, out, map(mul, itertools.repeat(scale), row)))
    return out, den


def _symbol_values(sums: list[symbols.SymbolSum],
                   evaluators) -> dict[str, tuple[int, ...]]:
    """By canonical string, the invariants of each symbol of the ``sums``
    on the word of each of the ``evaluators``, which evaluate each distinct
    symbol once."""
    syms = {}
    for terms in sums:
        syms.update(terms.reps)
    return dict(zip(syms, zip(*([ev.value(sym) for sym in syms.values()]
                                for ev in evaluators))))


def _sum_row(terms: symbols.SymbolSum, values: dict[str, tuple[int, ...]],
             width: int) -> tuple[list[int], int]:
    """``Evaluator.value_sum`` of ``terms`` on each word of ``values`` (see
    ``_symbol_values``), as numerators over the least common denominator of
    its coefficients, and that denominator."""
    return _combined_rows(((c, values[key]) for key, c in terms.terms.items()), width)


def check_6_exhaustive_duality(seed=0, scale="small"):
    checked = 0
    for n in range(1, 5):
        commutators = _unique_commutators(n)
        trees = [lie.bracket_tree(e) for e in commutators]
        graphs = _unique_label_graphs(n)
        pairings = lie.pairing_matrix(graphs, trees)
        reductions = [eil.reduce_full(g, eil.default_order(g)) for g in graphs]
        values = _symbol_values(reductions, (
            linking.Evaluator(words.expand_bracket(e)) for e in commutators))
        for graph, row, reduction in zip(graphs, pairings, reductions):
            lhs, den = _sum_row(reduction, values, len(row))
            if lhs != [rhs * den for rhs in row]:
                tree, num, rhs = next((tree, num, rhs) for tree, num, rhs
                                      in zip(trees, lhs, row) if num != rhs * den)
                return False, (f"mismatch at n={n}, {graph}, {tree}: "
                               f"{Fraction(num, den)} != {rhs}")
            checked += len(row)
    return True, f"{checked} graph/commutator pairs agree"


def _random_symbol_graph(rng: random.Random, max_vertices: int) -> eil.SymbolGraph:
    alphabet = ["a", "b", "c"]
    k = rng.randint(2, max_vertices)
    edges = _random_tree(rng, k)
    while True:
        labels = {}
        for i in range(k):
            labels[f"v{i + 1}"] = _random_symbol(rng, alphabet,
                                                 rng.choice((0, 0, 1)))
        try:
            return eil.SymbolGraph.build(labels, _named_edges(
                edges, (rng.random() < 0.5 for _ in edges)))
        except InvalidEdge:
            continue


def _order_reductions(graph: eil.SymbolGraph):
    """(order, ``eil.reduce_full(graph, order)``) for each order of all
    vertices but one that ``reduce_full`` accepts, in the sequence of
    ``itertools.permutations``.  The orders are walked depth first, so each
    prefix is reduced once, and no order is tried past a prefix whose last
    step is undefined."""
    ids = graph.ids()

    def walk(prefix: tuple[str, ...], terms):
        if len(prefix) == len(ids) - 1:
            total = symbols.SymbolSum()
            for sign, g in terms:   # each graph has one vertex left
                total.add(sign, g.vertices[0][1])
            yield prefix, total
            return
        for v in ids:
            if v in prefix:
                continue
            try:
                reduced = [(sign * s, h) for sign, g in terms
                           for s, h in eil.reduce_at(g, v)]
            except UndefinedReduction:
                continue
            yield from walk(prefix + (v,), reduced)

    return walk((), [(1, graph)])


def check_7_order_independence(seed=0, scale="small"):
    rng = random.Random(seed + 7)
    graphs = 25 if scale == "small" else 50
    words_each = 10
    checked = 0
    for _ in range(graphs):
        graph = _random_symbol_graph(rng, 5)
        ids = graph.ids()
        depth_total = sum(sym.depth for sym in graph.labels.values()) + len(ids) - 1
        sample = [words.random_gamma_element(depth_total, ["a", "b", "c"],
                                             budget=6, seed=rng)
                  for _ in range(words_each)]
        reductions = list(_order_reductions(graph))
        values = _symbol_values([r for _, r in reductions],
                                map(linking.Evaluator, sample))
        baseline = None
        for order, reduction in reductions:
            sums, den = _sum_row(reduction, values, words_each)
            if baseline is None:
                baseline, base_den = sums, den
            elif [x * base_den for x in sums] != [y * den for y in baseline]:
                return False, f"order {order} disagrees on {graph}"
            checked += 1
    return True, f"{graphs} graphs, {checked} valid orders agree"


def check_8_cobounding_independence(seed=0, scale="small"):
    rng = random.Random(seed + 8)
    target_count = 200 if scale == "small" else 400
    tried = 0
    while tried < target_count:
        w = words.random_word(["a", "b"], rng.randint(2, 12), rng)
        lst = _random_zero_count_list(rng, w, "a")
        if lst is None:
            continue
        pos, neg = linking._signed_tokens(lst)
        if not pos or len(pos) + len(neg) > 8:
            continue
        tried += 1
        target = linking.standard_list(w, "b")
        if rng.random() < 0.5:
            assoc = {j: rng.randint(-2, 2) for j in target.assoc}
            target = linking.List(w, "b", assoc)
        fast = linking.link(lst, target)
        for cob in linking.enumerate_coboundings(lst, bound=8):
            oracle = linking.link_via_cobounding(cob, target)
            if oracle != fast:
                return False, f"cobounding {cob.intervals} disagrees on {w}"
    return True, f"{tried} words, every cobounding matches the potential"


def check_9_vanishing(seed=0, scale="small"):
    rng = random.Random(seed + 9)
    trials = 50 if scale == "small" else 100
    alphabet = ["a", "b", "c"]
    for _ in range(trials):
        sym = _random_symbol(rng, alphabet, rng.randint(0, 3))
        w = words.random_gamma_element(sym.depth + 1, alphabet, seed=rng)
        value = linking.eval_symbol(sym, w)
        if value != 0:
            return False, f"{sym} on {w} gives {value}"
    return True, f"{trials} deep words all evaluate to zero"


def _check_additivity(rng, trials):
    for _ in range(trials):
        sym = _random_symbol(rng, ["a", "b", "c"], rng.randint(0, 2))
        u = words.random_gamma_element(sym.depth, ["a", "b", "c"], seed=rng)
        v = words.random_gamma_element(sym.depth, ["a", "b", "c"], seed=rng)
        on_product = linking.eval_symbol(sym, u * v)
        on_u = linking.eval_symbol(sym, u)
        if on_product != on_u + linking.eval_symbol(sym, v):
            return f"additivity fails for {sym}"
        if linking.eval_symbol(sym, u.inverse()) != -on_u:
            return f"inverse fails for {sym}"
    return None


def _check_cobracket(rng, trials):
    for _ in range(trials):
        s = _random_symbol(rng, ["a", "b", "c"], rng.randint(0, 2))
        t = _random_symbol(rng, ["a", "b", "c"], rng.randint(0, 2), forbid=s.letter)
        depth_max = max(s.depth, t.depth)
        v = words.random_gamma_element(depth_max, ["a", "b", "c"], seed=rng)
        w = words.random_gamma_element(depth_max, ["a", "b", "c"], seed=rng)
        grafted = symbols.Symbol(t.letter, t.children + (s,))
        lhs = linking.eval_symbol(grafted, words.commutator(v, w))
        on_v, on_w = linking.Evaluator(v), linking.Evaluator(w)
        rhs = (on_v.value(s) * on_w.value(t) - on_v.value(t) * on_w.value(s))
        if lhs != rhs:
            return f"cobracket fails for ({s}){t}"
    return None


def _check_leibniz(rng, trials):
    for k in (2, 3, 4):
        done = 0
        while done < trials:
            letters = rng.sample(["a", "b", "c", "d"], k)
            terms = symbols.leibniz_terms([symbols.Symbol(l) for l in letters])
            u = words.random_word(["a", "b", "c", "d"], rng.randint(1, 5), rng)
            v = words.random_word(["a", "b", "c", "d"], rng.randint(1, 5), rng)
            w = words.commutator(u, v)
            try:
                value = linking.eval_symbol_sum(terms, w)
            except UndefinedInvariant:
                continue
            done += 1
            if value != 0:
                return f"k={k} sum is {value} on {w}"
    return None


def _check_three_list(rng, trials):
    done = 0
    while done < trials:
        w = words.random_word(["a", "b", "c"], rng.randint(4, 12), rng)
        lists = [_random_zero_count_list(rng, w, g) for g in ("a", "b", "c")]
        if any(l is None for l in lists):
            continue
        la, lb, lc = lists
        ab = linking.link(la, lb)
        ba = linking.link(lb, la)
        if linking.count(ab) != 0 or linking.count(ba) != 0:
            continue
        done += 1
        ga = linking.prefix_potential(la)
        gb = linking.prefix_potential(lb)
        left = {j: m * ga[j] * gb[j] for j, m in lc.assoc.items()}
        left = {j: v for j, v in left.items() if v}
        right: dict[int, int] = {}
        for part in (linking.link(ba, lc), linking.link(ab, lc)):
            for j, v in part.assoc.items():
                right[j] = right.get(j, 0) + v
        right = {j: v for j, v in right.items() if v}
        if left != right:
            return f"three-list fails on {w}"
    return None


def _check_fox_axioms(rng, trials):
    def random_element():
        out = fox.GroupRingElement()
        for _ in range(rng.randint(1, 3)):
            w = words.random_word(["a", "b", "c"], rng.randint(0, 5), rng)
            out.add(rng.randint(-2, 2), w)
        return out

    for _ in range(trials):
        x, y = random_element(), random_element()
        gen = rng.choice(["a", "b", "c"])
        lhs = fox.fox_derivative(x * y, gen)
        rhs = (fox.fox_derivative(x, gen).scale(fox.augmentation(y))
               + x * fox.fox_derivative(y, gen))
        if lhs != rhs:
            return "derivation law fails"
        if fox.fox_derivative(x + y, gen) != (
            fox.fox_derivative(x, gen) + fox.fox_derivative(y, gen)
        ):
            return "additivity fails"
    return None


def _check_bracket_cut(rng, trials):
    for _ in range(trials):
        i, j = rng.randint(1, 2), rng.randint(1, 2)
        seq = [rng.choice(["a", "b", "c"]) for _ in range(i + j)]
        u = words.expand_bracket(words.random_bracket(i, ["a", "b", "c"], rng))
        v = words.expand_bracket(words.random_bracket(j, ["a", "b", "c"], rng))
        lhs = fox.fox_eval(words.commutator(u, v), seq)
        rhs = (fox.fox_eval(u, seq[:i]) * fox.fox_eval(v, seq[i:])
               - fox.fox_eval(u, seq[j:]) * fox.fox_eval(v, seq[:j]))
        if lhs != rhs:
            return f"bracket cut rule fails for {seq}"
    return None


def _random_unique_letter_symbol(rng, letters: list[str]) -> symbols.Symbol:
    pool = letters[:]
    rng.shuffle(pool)

    def build(pool: list[str]) -> symbols.Symbol:
        if len(pool) == 1:
            return symbols.Symbol(pool[0])
        rest = pool[1:]
        kids = []
        while rest:
            take = rng.randint(1, len(rest))
            kids.append(build(rest[:take]))
            rest = rest[take:]
        return symbols.Symbol(pool[0], tuple(kids))

    return build(pool)


def _check_lifts(rng, trials):
    done = 0
    while done < trials:
        n = rng.randint(2, 5)
        source = [f"s{i + 1}" for i in range(n)]
        target = ["a", "b"] if n <= 3 else ["a", "b", "c"]
        collapse = {g: rng.choice(target) for g in source}
        shape = rng.choice(words.all_bracketings(tuple(rng.sample(source, n))))
        w = words.expand_bracket(shape)
        sym = _random_unique_letter_symbol(rng, source)
        try:
            collapsed_sym = symbols.relabel_symbol(collapse, sym)
        except InvalidSymbol:
            continue
        done += 1
        lhs = linking.eval_symbol(collapsed_sym, words.relabel(collapse, w))
        fibers: dict[str, list[str]] = {}
        for g in source:
            fibers.setdefault(collapse[g], []).append(g)
        fiber_lists = list(fibers.values())
        ev = linking.Evaluator(w)
        rhs = 0
        for combo in itertools.product(
            *[itertools.permutations(f) for f in fiber_lists]
        ):
            perm = {}
            for orig, image in zip(fiber_lists, combo):
                perm.update(dict(zip(orig, image)))
            rhs += ev.value(symbols.relabel_symbol(perm, sym))
        if lhs != rhs:
            return f"lift sum fails for {sym} under {collapse}"
    return None


def check_10_identity_suite(seed=0, scale="small"):
    rng = random.Random(seed + 10)
    trials = 50 if scale == "small" else 100
    checks = [
        ("additivity/inverse", _check_additivity),
        ("cobracket", _check_cobracket),
        ("leibniz", _check_leibniz),
        ("three-list", _check_three_list),
        ("fox axioms", _check_fox_axioms),
        ("bracket cut rule", _check_bracket_cut),
        ("lifts", _check_lifts),
    ]
    for name, fn in checks:
        problem = fn(rng, trials)
        if problem:
            return False, f"{name}: {problem}"
    return True, f"{len(checks)} identity families x {trials} instances"


def _pairing_row(terms: list[tuple[object, eil.SymbolGraph]], trees) -> list[Fraction]:
    """``lie.extended_pairing`` of the graph sum with (coefficient, graph)
    ``terms`` and each tree, from one ``lie.pairing_matrix`` call."""
    rows = lie.pairing_matrix([g for _, g in terms], trees)
    nums, den = _combined_rows(zip([c for c, _ in terms], rows), len(trees))
    return [Fraction(num, den) for num in nums]


def check_11_distinct_reduce(seed=0, scale="small"):
    rng = random.Random(seed + 11)
    g = eil.parse_graph(WORKED_REDUCTION_INPUT, ambient=True)
    reduced = eil.distinct_reduce(g)
    expected = eil.GraphSum()
    for c, text in WORKED_REDUCTION_TARGET:
        expected.add(c, eil.parse_graph(text))
    trees = lie.lyndon_trees_of_multidegree(g.multidegree())
    value, output, target = [_pairing_row(terms, trees) for terms
                             in ([(1, g)], reduced.items(), expected.items())]
    for tree, v, out, tgt in zip(trees, value, output, target):
        if out != v:
            return False, f"worked example output differs on {tree}"
        if tgt != v:
            return False, f"worked example target differs on {tree}"
    trials = 20 if scale == "small" else 40
    done = 0
    while done < trials:
        k = rng.randint(3, 6)
        labels = [rng.choice(["a", "b", "c"]) for _ in range(k)]
        edges = _random_tree(rng, k)
        if not any(labels[u] == labels[v] for u, v in edges):
            continue
        graph = eil.SymbolGraph.build(
            {f"v{i + 1}": symbols.Symbol(labels[i]) for i in range(k)},
            _named_edges(edges, (rng.random() < 0.5 for _ in edges)),
            ambient=True)
        done += 1
        reduced = eil.distinct_reduce(graph)
        trees = lie.lyndon_trees_of_multidegree(graph.multidegree())
        for tree, v, out in zip(trees, _pairing_row([(1, graph)], trees),
                                _pairing_row(reduced.items(), trees)):
            if v != out:
                return False, f"functional mismatch for {graph} on {tree}"
        for coeff, term in reduced:
            if any(term.labels[t].letter == term.labels[h].letter
                   for t, h in term.edges):
                return False, f"output term {term} has a homogeneous edge"
    return True, f"worked example + {trials} random graphs pair equally"


def check_12_depth2_agreement(seed=0, scale="small"):
    rng = random.Random(seed + 12)
    trials = 50 if scale == "small" else 100
    sym = symbols.parse_symbol("(a)b")
    for _ in range(trials):
        u = words.random_word(["a", "b", "c"], rng.randint(1, 5), rng)
        v = words.random_word(["a", "b", "c"], rng.randint(1, 5), rng)
        w = words.commutator(u, v)
        lhs = fox.fox_eval(w, ["a", "b"])
        rhs = linking.eval_symbol(sym, w)
        if lhs != rhs:
            return False, f"{lhs} != {rhs} on {w}"
    return True, f"{trials} commutator words agree"


CHECKS = [
    ("1 letter-linking value 4 with multiplicities (2,3,1)", check_1_visual_example),
    ("2 iterated derivatives match the worked chain, value 4", check_2_fox_example),
    ("3 four-star pairs with its bracket to 24", check_3_star_24),
    ("4 weight-5 pairing matrices and determinants", check_4_weight5_matrices),
    ("5 distinct-vertex graphs give full column rank", check_5_surjectivity),
    ("6 exhaustive graph/commutator duality, n <= 4", check_6_exhaustive_duality),
    ("7 reduction-order independence", check_7_order_independence),
    ("8 cobounding-choice independence", check_8_cobounding_independence),
    ("9 vanishing on deep central-series words", check_9_vanishing),
    ("10 identity suite", check_10_identity_suite),
    ("11 distinct-vertex reduction functional equality", check_11_distinct_reduce),
    ("12 depth-2 derivative/linking agreement", check_12_depth2_agreement),
]


def _run_check(index: int, seed: int, scale: str) -> tuple[str, bool, str]:
    name, fn = CHECKS[index]
    ok, detail = fn(seed=seed, scale=scale)
    return name, ok, detail


# the costliest checks, by number, costliest first: medians of about 92,
# 82, 78, 30 and 16 ms of CPU, warm and in process, at seed 0, small
# scale, on a shared 2-CPU VM, the others under 5 ms.  Taking the longest
# checks first finishes sooner (Graham's LPT rule): two processes split
# them as 10, 8, 11 and the rest against 7 and 6.
_HEAVIEST_FIRST = (10, 7, 6, 8, 11)


def _outcome(index: int, seed: int, scale: str):
    """``_run_check``'s result, or the exception it raised."""
    try:
        return _run_check(index, seed, scale)
    except Exception as error:
        return error


def _pull(tasks: int):
    """The check indices read from the task pipe ``tasks``, one at a time,
    until it is empty."""
    while task := os.read(tasks, 1):
        yield task[0]


def _report(tasks: int, out: int, seed: int, scale: str):
    """In a forked child: run the checks pulled from ``tasks``, write to
    the pipe ``out`` one pickled (index, result or exception, new bases)
    record per check, the new bases being the (key, basis) pairs that the
    check added to the child's ``eil.distinct_basis`` cache, and leave
    through os._exit, which runs none of the caller's exit handlers and
    flushes none of its buffers."""
    code = 1
    try:
        with open(out, "wb") as pipe:
            for i in _pull(tasks):
                before = set(eil._bases)
                outcome = _outcome(i, seed, scale)
                pipe.write(pickle.dumps((i, outcome, [
                    (key, basis) for key, basis in eil._bases.items()
                    if key not in before])))
                pipe.flush()
        code = 0
    finally:
        os._exit(code)


def _run_forked(procs: int, seed: int, scale: str) -> list:
    """The outcome (see ``_outcome``) of every check, in ``CHECKS`` order,
    from this process and ``procs - 1`` forked children that pull the
    checks from one task pipe; the children's new bases are kept here.
    Raises RuntimeError, naming them, if some checks were not reported."""
    heavy = [k - 1 for k in _HEAVIEST_FIRST if k <= len(CHECKS)]
    tasks, fill = os.pipe()
    # one byte per check, all written before any process reads, so a read
    # of one byte never waits and an empty read means no check is left
    os.write(fill, bytes(heavy + [i for i in range(len(CHECKS)) if i not in heavy]))
    os.close(fill)
    outcomes, bases, pids, readers = {}, [], [], []
    try:
        for _ in range(procs - 1):
            reader, writer = os.pipe()
            readers.append(reader)
            try:
                pid = os.fork()
                if pid == 0:
                    _report(tasks, writer, seed, scale)    # never returns
            finally:
                os.close(writer)
            pids.append(pid)
        for i in _pull(tasks):
            outcomes[i] = _outcome(i, seed, scale)
        for reader in readers:
            with open(reader, "rb", closefd=False) as pipe:
                while True:
                    try:
                        i, outcome, new = pickle.load(pipe)
                    except (EOFError, pickle.UnpicklingError):
                        break       # the child has exited, maybe inside a record
                    outcomes[i] = outcome
                    bases += new
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(tasks)
        for reader in readers:
            os.close(reader)
        for pid in pids:
            os.waitpid(pid, 0)
    for key, basis in bases:
        eil._keep_basis(key, basis)
    lost = [CHECKS[i][0] for i in range(len(CHECKS)) if i not in outcomes]
    if lost:
        raise RuntimeError(f"no result from check(s) {'; '.join(lost)}: "
                           "a selfcheck child process ended early")
    return [outcomes[i] for i in range(len(CHECKS))]


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_all(seed: int = 0, scale: str = "small") -> list[tuple[str, bool, str]]:
    """(name, passed, detail) of every check, in ``CHECKS`` order, each
    from the same ``_run_check`` call in this process or in a forked child
    (see the module docstring).  Raises InvalidArgument, before any check
    runs, unless ``seed`` is an int and ``scale`` is "small" or "full"."""
    if type(seed) is not int:
        raise InvalidArgument(f"seed {seed!r} is not an int")
    if scale not in ("small", "full"):
        raise InvalidArgument(f"scale {scale!r} is not 'small' or 'full'")
    procs = min(len(CHECKS), _usable_cpus())
    if procs < 2 or threading.active_count() > 1 or not hasattr(os, "fork"):
        return [_run_check(i, seed, scale) for i in range(len(CHECKS))]
    outcomes = _run_forked(procs, seed, scale)
    for outcome in outcomes:
        if isinstance(outcome, BaseException):
            raise outcome
    return outcomes
