"""Lists, coboundings, linking, and the letter-linking evaluator.

A list is stored by its associated function: a map from (1-based) word
positions to integer multiplicities, supported on occurrences of a single
generator.  This is the canonical representative of its simple-equivalence
class, so all derived counts are representation-free.

For a zero-count list L the prefix potential g(j) = sum over positions
p < j of f_L(p) * sign(x_p) equals, at every position carrying a different
generator, the signed interval coverage of any cobounding of L; linking is
then pointwise multiplication by the target's associated function.

`Evaluator`, behind `eval_symbol`, `eval_symbol_sum`, `symbol_list` and the
diagrams, indexes its word once (each generator's occurrence positions and
signs) and keeps each node's list as an int list over its letter's
occurrences.  A child's potential is the running sum of the child's signed
values, read at the parent's occurrences through the number of the child's
occurrences before each (kept per pair of letters).  Lists and counts are
filled along ``Symbol.postorder``, up to the first undefined sub-symbol,
and memoized per word by canonical sub-symbol, potentials by sub-symbol
and parent letter.  The
interval-building oracle (`enumerate_coboundings` + `link_via_cobounding`)
is kept for cross-checking.

`eval_symbol` and `eval_symbol_sum` also take a `words.CompactWord`.  One
longer than ``LEAF_LETTERS`` letters is folded, not expanded: the signed
placement counts of every pruning of every subtree of the symbols form a
group homomorphism (Chen's identity for tree-ordered sums), so the counts
of a product compose from its factors' counts, ``u^N`` takes O(log N)
products, and each short leaf is counted by one scan of the CompactWord
subtree, in place, without building its letters.  A pruning is an index
(its letter and its children's indices), and the fold's counts are a
list by that index; no Symbol or canonical string is built for a
pruning.  On either counts `_check_defined`, one loop over the
post-order reading a count per node (by canonical string in `Evaluator`,
by pruning index in the fold), names the first undefined sub-symbol.
The fold is refused with TooLarge when a count could pass
``words._DIGIT_LIMIT`` digits.  It has one budget: `_Prunings` charges
each pruning its product terms as it enters, the subtrees first, and
symbols whose charges pass ``TERM_LIMIT`` are evaluated on the expanded
word instead.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import accumulate, permutations, product, repeat
from math import lcm, log10, prod
from operator import add, itemgetter, mul
from typing import Callable, Iterable

from .errors import (
    InvalidArgument,
    NonzeroCount,
    SameGenerator,
    TooLarge,
    UndefinedInvariant,
)
from .symbols import Symbol
from .words import _DIGIT_LIMIT, CompactWord, Word, _exact

# subtrees of a CompactWord of at most this many letters are evaluated on
# their letters; longer products, powers and commutators are folded
LEAF_LETTERS = 256
# most product terms a fold composes; symbols with more prunings are
# evaluated on the expanded word
TERM_LIMIT = 4096


class List:
    """A homogeneous signed occurrence list over a word, stored canonically."""

    __slots__ = ("word", "gen", "assoc")

    def __init__(self, word: Word, gen: str, assoc: dict[int, int]):
        self.word = word
        self.gen = gen
        self.assoc = {j: m for j, m in assoc.items() if m != 0}
        letters = word.letters
        for j in self.assoc:
            if not (0 < j <= len(letters) and letters[j - 1].gen == gen):
                # letter_at refuses a position outside the word
                raise InvalidArgument(
                    f"position {j} carries {word.letter_at(j).gen!r}, not {gen!r}"
                )

    def multiplicity(self, position: int) -> int:
        return self.assoc.get(position, 0)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, List)
            and self.word == other.word
            and self.gen == other.gen
            and self.assoc == other.assoc
        )

    def __repr__(self) -> str:
        entries = ", ".join(f"{j}:{m}" for j, m in sorted(self.assoc.items()))
        return f"List({self.gen}; {{{entries}}})"


@dataclass(frozen=True)
class Cobounding:
    """Oriented intervals pairing up the occurrences of a zero-count list.

    Intervals are closed position ranges (start, end, orientation); the
    orientation is the total sign of the leftmost endpoint.
    """

    list: List
    intervals: tuple[tuple[int, int, int], ...]


def standard_list(w: Word, gen: str) -> List:
    return List(w, gen, {j: 1 for j, l in enumerate(w.letters, 1) if l.gen == gen})


def count(lst: List) -> int:
    letters = lst.word.letters
    return sum(m * letters[j - 1].sign for j, m in lst.assoc.items())


def prefix_potential(lst: List) -> dict[int, int]:
    """Potential before each position, for positions 1..len(word)+1.

    Requires count zero; raises NonzeroCount otherwise.  At positions of
    letters other than the list's generator this equals the signed interval
    coverage of every cobounding.
    """
    c = count(lst)
    if c != 0:
        raise NonzeroCount(c)
    steps = (lst.assoc.get(j, 0) * l.sign for j, l in enumerate(lst.word.letters, 1))
    return dict(enumerate(accumulate(steps, initial=0), 1))


def link(cobounded: List, target: List) -> List:
    """The linking list: cobound the first list, intersect with the second."""
    if cobounded.gen == target.gen:
        raise SameGenerator(f"both lists are over {target.gen!r}")
    if cobounded.word != target.word:
        raise InvalidArgument("lists must be drawn from the same word")
    g = prefix_potential(cobounded)
    return List(target.word, target.gen,
                {j: m * g[j] for j, m in target.assoc.items()})


def _signed_tokens(lst: List) -> tuple[list[int], list[int]]:
    """Expand the associated function into per-occurrence tokens, split by
    total sign; positions repeat with multiplicity."""
    pos, neg = [], []
    for j, m in sorted(lst.assoc.items()):
        total = (1 if m > 0 else -1) * lst.word.letters[j - 1].sign
        bucket = pos if total > 0 else neg
        bucket.extend([j] * abs(m))
    return pos, neg


def enumerate_coboundings(lst: List, bound: int = 10) -> list[Cobounding]:
    """All pairings of the occurrences into oppositely-signed intervals.

    Enumerates perfect matchings of the occurrence tokens; with
    multiplicities, distinct matchings may yield equal interval multisets
    and are still listed separately.
    """
    c = count(lst)
    if c != 0:
        raise NonzeroCount(c)
    pos, neg = _signed_tokens(lst)
    if len(pos) + len(neg) > bound:
        raise TooLarge(f"{len(pos) + len(neg)} occurrences exceeds bound {bound}")
    out = []
    for matched in permutations(neg):
        intervals = []
        for p, n in zip(pos, matched):
            left, right = min(p, n), max(p, n)
            orientation = 1 if p < n else -1
            intervals.append((left, right, orientation))
        out.append(Cobounding(lst, tuple(sorted(intervals))))
    return out


def link_via_cobounding(cob: Cobounding, target: List) -> List:
    """Literal interval-intersection form of linking, for cross-checks."""
    if cob.list.gen == target.gen:
        raise SameGenerator(f"both lists are over {target.gen!r}")
    assoc = {}
    for j, m in target.assoc.items():
        coverage = sum(o for (a, b, o) in cob.intervals if a <= j <= b)
        assoc[j] = m * coverage
    return List(target.word, target.gen, assoc)


class Evaluator:
    """Symbol lists on one word, memoized with their counts by canonical
    sub-symbol; share one across every symbol evaluated on the word."""

    def __init__(self, w: Word):
        # told by its letters, not its class, so that a Word of a reloaded
        # ``words`` module is still read
        if not isinstance(getattr(w, "letters", None), tuple):
            raise InvalidArgument(f"word of type {type(w).__name__}, not Word")
        self._gens = list(map(itemgetter(0), w.letters))
        self._signs = list(map(itemgetter(1), w.letters))
        self._index: dict[str, tuple[list[int], list[int]]] = {}
        # (child letter, parent letter) -> for each occurrence of the parent,
        # the number of occurrences of the child before it
        self._ranks: dict[tuple[str, str], list[int]] = {}
        self._memo: dict[str, list[int]] = {}
        self._counts: dict[str, int] = {}
        # (key, parent letter) -> the key's potential, as `_potential` reads it
        self._potentials: dict[tuple[str, str], list[int]] = {}

    def occurrences(self, gen: str) -> tuple[list[int], list[int]]:
        """The 0-based positions of ``gen`` in the word and the signs there."""
        entry = self._index.get(gen)
        if entry is None:
            positions = [i for i, g in enumerate(self._gens) if g == gen]
            entry = (positions, list(map(self._signs.__getitem__, positions)))
            self._index[gen] = entry
        return entry

    def values(self, sym: Symbol) -> list[int]:
        """The symbol list, aligned with ``occurrences(sym.letter)``."""
        self.value(sym)
        return self._memo[sym.canonical()]

    def value(self, sym: Symbol) -> int:
        """The letter-linking invariant: the count of the symbol list.
        Raises UndefinedInvariant as `_check_defined` does, with the nodes
        after the undefined one left unfilled; a memoized node is not
        filled again."""
        return _check_defined(sym, self._count)

    def value_sum(self, terms: Iterable[tuple[object, Symbol]]) -> Fraction:
        """Sum of coeff * invariant; undefined if any term is.  Each
        coefficient is made exact before its term's invariant is evaluated,
        and the sum is `_combined_rows` of the invariants, one entry each."""
        (num,), den = _combined_rows(
            ((_exact(coeff), (self.value(sym),)) for coeff, sym in terms), 1)
        return Fraction(num, den)

    def _count(self, node: Symbol) -> int:
        """The count of ``node``, whose children are memoized; its list and
        count are memoized first unless they are."""
        key = node.canonical()
        c = self._counts.get(key)
        if c is None:
            positions, signs = self.occurrences(node.letter)
            values = None if node.children else [1] * len(positions)
            for child in node.children:
                potential = self._potential(child.canonical(), child.letter,
                                            node.letter)
                values = (potential if values is None
                          else list(map(mul, values, potential)))
            self._memo[key] = values
            c = self._counts[key] = sum(map(mul, values, signs))
        return c

    def _potential(self, key: str, gen: str, parent: str) -> list[int]:
        """Prefix potential of the zero-count list of the memoized ``key``,
        over ``gen``, read at the occurrences of ``parent``, a different
        letter: the running sum of the signed values, indexed by each
        occurrence's rank among ``gen``'s.  Kept per key and parent letter."""
        out = self._potentials.get((key, parent))
        if out is None:
            positions, signs = self.occurrences(gen)
            ranks = self._ranks.get((gen, parent))
            if ranks is None:
                ranks = self._ranks[gen, parent] = [
                    bisect_left(positions, p) for p in self.occurrences(parent)[0]]
            running = list(accumulate(map(mul, self._memo[key], signs), initial=0))
            out = self._potentials[key, parent] = list(map(running.__getitem__, ranks))
        return out


class _Prunings:
    """Every pruning of every subtree of ``syms``, and the product that
    composes their placement counts over a concatenation (Chen's identity
    for tree-ordered sums).

    A pruning is kept as its index: ``letters[i]`` is its root letter and
    ``children[i]`` the indices of the prunings below the root; no Symbol
    is built for it.  ``nodes`` maps the id of each node of ``syms`` to the
    index of its subtree.  Index 0 is the empty pruning, whose count is 1.

    The placements of a pruning P on ``uv`` split by the set D of nodes
    placed in ``u``: D is closed under taking children, so it is a union of
    whole subtrees, and P minus D is a pruning that keeps P's root.
    ``terms[i]`` lists, for each D, the indices of D's maximal subtrees and
    of P minus D, D = P first.

    A pruning is charged its number of terms, one more than its prunings
    that keep the root, as it enters, and TooLarge is raised once ``size``,
    the sum of the charges, passes ``TERM_LIMIT``: first every subtree of
    ``syms``, then each P minus D as a split list names it.  A pruning
    enters after its children, so the lists are built once each, in index
    order, from the children's lists: per child, the child whole in D or
    one of the child's splits.
    """

    def __init__(self, syms: Iterable[Symbol]):
        self.letters: list[str | None] = [None]
        self.children: list[list[int]] = [[]]
        self.terms: list[list[tuple[tuple[int, ...], int]]] = [[]]
        self.size = 0
        self.nodes: dict[int, int] = {}
        self._kept = [0]  # prunings that keep the root
        # root letter -> (index, indices of the children) of each pruning
        self.by_letter: dict[str, list[tuple[int, tuple[int, ...]]]] = {}
        # (root letter, sorted indices of the children) -> index: equal
        # exactly when the canonical strings are, which it never builds
        self._index: dict[tuple[str, tuple[int, ...]], int] = {}
        nodes = self.nodes
        for sym in syms:
            for node in sym.postorder():
                if id(node) not in nodes:
                    nodes[id(node)] = self._enter(
                        node.letter, [nodes[id(c)] for c in node.children])
        while len(self.terms) < len(self.letters):
            i = len(self.terms)
            letter, splits = self.letters[i], [((i,), 0)]
            for combo in product(*map(self.terms.__getitem__,
                                      self.children[i])):
                insides, rests = zip(*combo) if combo else ((), ())
                splits.append((sum(insides, ()),
                               self._enter(letter, [r for r in rests if r])))
            self.terms.append(splits)

    def _enter(self, letter: str, children: list[int]) -> int:
        """The index of the pruning with root ``letter`` over the prunings
        at ``children``; a new one is charged, then recorded."""
        key = (letter, tuple(sorted(children)))
        i = self._index.get(key)
        if i is None:
            kept = prod(self._kept[c] + 1 for c in children)
            self.size += kept + 1
            if self.size > TERM_LIMIT:
                raise TooLarge(f"more than {TERM_LIMIT} product terms")
            i = self._index[key] = len(self.letters)
            self.letters.append(letter)
            self.children.append(children)
            self.by_letter.setdefault(letter, []).append((i, tuple(children)))
            self._kept.append(kept)
        return i

    def multiply(self, x: list[int], y: list[int]) -> list[int]:
        """The counts on ``uv`` from the counts ``x`` on u and ``y`` on v."""
        out = [1]
        for terms in self.terms[1:]:
            total = 0
            for inside, rest in terms:
                t = y[rest]
                if t:
                    for j in inside:
                        t *= x[j]
                    total += t
            out.append(total)
        return out

    def power(self, x: list[int], n: int) -> list[int]:
        """The counts on ``u^n``, n >= 1, from the counts ``x`` on u."""
        out = None
        while True:
            if n & 1:
                out = x if out is None else self.multiply(out, x)
            n >>= 1
            if not n:
                return out
            x = self.multiply(x, x)


class _Fold:
    """Placement counts of every pruning in a ``_Prunings`` over a
    CompactWord, as a list by pruning index, composed over its products,
    powers and commutators.

    A subtree of at most ``LEAF_LETTERS`` letters, and every run, is a leaf,
    and so is each stretch of consecutive short factors of a product, cut
    at ``LEAF_LETTERS`` letters: `_scan` counts it in place, without
    building its letters.  Inverting a subtree reverses its runs and flips
    their signs, so ``u^-1`` and ``[u,v]^-1 = [v,u]`` are folded as written;
    ``u^N`` is repeated squaring.  The counts are a group homomorphism,
    because a child's letter differs from its parent's and ``x x^-1``
    therefore adds no count.
    """

    def __init__(self, w: CompactWord, prunings: _Prunings):
        self._prunings = prunings
        self._one = [1] + [0] * (len(prunings.letters) - 1)
        self._memo: dict[tuple[int, bool], list[int]] = {}
        self._counts = self._fold(w, False)

    value, value_sum = Evaluator.value, Evaluator.value_sum

    def _count(self, node: Symbol) -> int:
        """Every count is folded in advance, by pruning index."""
        return self._counts[self._prunings.nodes[id(node)]]

    def _fold(self, node: CompactWord, inverted: bool) -> list[int]:
        key = (id(node), inverted)
        out = self._memo.get(key)
        if out is not None:
            return out
        kind, parts, algebra = node.kind, node.parts, self._prunings
        if kind == "run" or node.length <= LEAF_LETTERS:
            out = self._scan(node, inverted, self._one[:])
        elif kind == "product":
            vectors, leaf, filled = [], None, 0
            for f in parts[::-1] if inverted else parts:
                if f.length > LEAF_LETTERS:
                    vectors.append(self._fold(f, inverted))
                    leaf = None
                    continue
                if leaf is None or filled + f.length > LEAF_LETTERS:
                    leaf, filled = self._one[:], 0
                    vectors.append(leaf)
                self._scan(f, inverted, leaf)
                filled += f.length
            out = reduce(algebra.multiply, vectors)
        elif kind == "power":
            out = algebra.power(
                self._fold(parts[0], inverted != (node.exponent < 0)),
                abs(node.exponent))
        else:
            u, v = parts[::-1] if inverted else parts
            out = algebra.multiply(
                algebra.multiply(self._fold(u, False), self._fold(v, False)),
                algebra.multiply(self._fold(u, True), self._fold(v, True)))
        self._memo[key] = out
        return out

    def _scan(self, node: CompactWord, inverted: bool,
              counts: list[int]) -> list[int]:
        """``counts`` continued in place over the letters of ``node``, or of
        its inverse, and returned: at a letter, each pruning rooted there
        gains its sign times its children's counts so far.  A run is read
        forward, or backward with its signs flipped; a product reads its
        factors, a power its base ``|n|`` times, and ``[u,v]`` reads u, v,
        ``u^-1``, ``v^-1``.  A child's letter differs from its parent's, so
        no count read at a letter changes there."""
        kind, parts = node.kind, node.parts
        if kind == "run":
            by_letter = self._prunings.by_letter
            flip = -1 if inverted else 1
            for gen, sign in parts[::flip]:
                for i, children in by_letter.get(gen, ()):
                    t = sign * flip
                    for c in children:
                        t *= counts[c]
                    counts[i] += t
        elif kind == "product":
            for f in parts[::-1] if inverted else parts:
                self._scan(f, inverted, counts)
        elif kind == "power":
            base = parts[0]
            for _ in range(abs(node.exponent) if base.length else 0):
                self._scan(base, inverted != (node.exponent < 0), counts)
        else:
            u, v = parts[::-1] if inverted else parts
            for f, inv in ((u, False), (v, False), (u, True), (v, True)):
                self._scan(f, inv, counts)
        return counts


def _check_defined(sym: Symbol, count: Callable[[Symbol], int]) -> int:
    """The count of ``sym``, read by ``count``.  Raises UndefinedInvariant
    at the first proper sub-symbol, in post-order (leftmost, innermost),
    whose count is nonzero.  ``count`` is called on each node in
    post-order, so it can fill the counts along the walk; no node after the
    undefined one is read."""
    for node in sym.postorder()[:-1]:
        c = count(node)
        if c:
            raise UndefinedInvariant(node, c)
    return count(sym)


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
        out = list(map(add, out, map(mul, repeat(scale), row)))
    return out, den


def _evaluator(w: Word | CompactWord, terms: Iterable[tuple[object, Symbol]]
               ) -> tuple[Evaluator | _Fold, list[tuple[object, Symbol]]]:
    """The (coefficient, symbol) ``terms`` as a list, and the fold of their
    symbols when ``w`` is a CompactWord longer than one leaf, else the
    Evaluator on its letters; also the Evaluator when the symbols' prunings
    pass the budget of ``_Prunings``.

    Terms that are not an iterable of pairs are refused with
    InvalidArgument, and so is a symbol without a letter and a tuple of
    children: it is told by its fields, not its class, as `Evaluator` tells
    a word, so that a Symbol of a reloaded ``symbols`` module is still
    read."""
    try:
        items = iter(terms)
    except TypeError:
        raise InvalidArgument(
            f"terms of type {type(terms).__name__}, not an iterable of "
            f"(coefficient, symbol) pairs") from None
    checked = []
    for term in items:
        try:
            coeff, sym = term
        except (TypeError, ValueError):
            raise InvalidArgument(f"term of type {type(term).__name__}, not a "
                                  f"(coefficient, symbol) pair") from None
        if not (hasattr(sym, "letter")
                and isinstance(getattr(sym, "children", None), tuple)):
            raise InvalidArgument(f"symbol of type {type(sym).__name__}, "
                                  f"not Symbol")
        checked.append((coeff, sym))
    if not isinstance(w, CompactWord):
        return Evaluator(w), checked
    if w.kind == "run" or w.length <= LEAF_LETTERS:
        return Evaluator(w.expand()), checked
    syms = [sym for _, sym in checked]
    try:
        prunings = _Prunings(syms)
    except TooLarge:
        return Evaluator(w.expand()), checked
    nodes = max((sym.node_count() for sym in syms), default=0)
    if nodes * log10(w.length) > _DIGIT_LIMIT:
        raise TooLarge(f"a {nodes}-node symbol on a word of about "
                       f"10^{int(log10(w.length))} letters can count past "
                       f"{_DIGIT_LIMIT} digits")
    return _Fold(w, prunings), checked


def symbol_list(sym: Symbol, w: Word) -> List:
    """The iterated linking list of a symbol on a word.

    Raises UndefinedInvariant naming the first (leftmost, innermost)
    sub-symbol whose count is nonzero.
    """
    ev = Evaluator(w)
    values = ev.values(sym)
    positions, _ = ev.occurrences(sym.letter)
    return List(w, sym.letter, {p + 1: v for p, v in zip(positions, values)})


def eval_symbol(sym: Symbol, w: Word | CompactWord) -> int:
    """The letter-linking invariant of ``sym`` on ``w``."""
    return _evaluator(w, [(1, sym)])[0].value(sym)


def eval_symbol_sum(terms: Iterable[tuple[object, Symbol]],
                    w: Word | CompactWord) -> Fraction:
    """Linear extension: sum of coeff * invariant; undefined if any term is."""
    ev, terms = _evaluator(w, terms)
    return ev.value_sum(terms)
