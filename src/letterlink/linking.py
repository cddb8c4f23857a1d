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
occurrences.  A child's potential is the running sum of a zero array holding
the child's signed values, read at the parent's occurrences; lists are
memoized per word by canonical sub-symbol.  The interval-building oracle
(`enumerate_coboundings` + `link_via_cobounding`) is kept for cross-checking.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, permutations
from operator import itemgetter, mul
from typing import Iterable

from .errors import (
    InvalidArgument,
    NonzeroCount,
    SameGenerator,
    TooLarge,
    UndefinedInvariant,
)
from .symbols import Symbol
from .words import Word


class List:
    """A homogeneous signed occurrence list over a word, stored canonically."""

    __slots__ = ("word", "gen", "assoc")

    def __init__(self, word: Word, gen: str, assoc: dict[int, int]):
        self.word = word
        self.gen = gen
        self.assoc = {j: m for j, m in assoc.items() if m != 0}
        for j in self.assoc:
            if word.letter_at(j).gen != gen:
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
    return List(w, gen, {j: 1 for j in range(1, len(w) + 1)
                         if w.letter_at(j).gen == gen})


def count(lst: List) -> int:
    return sum(m * lst.word.letter_at(j).sign for j, m in lst.assoc.items())


def prefix_potential(lst: List) -> dict[int, int]:
    """Potential before each position, for positions 1..len(word)+1.

    Requires count zero; raises NonzeroCount otherwise.  At positions of
    letters other than the list's generator this equals the signed interval
    coverage of every cobounding.
    """
    c = count(lst)
    if c != 0:
        raise NonzeroCount(c)
    out: dict[int, int] = {}
    running = 0
    for j in range(1, len(lst.word) + 2):
        out[j] = running
        if j <= len(lst.word):
            running += lst.assoc.get(j, 0) * lst.word.letter_at(j).sign
    return out


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
        total = (1 if m > 0 else -1) * lst.word.letter_at(j).sign
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
        self._gens = list(map(itemgetter(0), w.letters))
        self._signs = list(map(itemgetter(1), w.letters))
        self._index: dict[str, tuple[list[int], list[int]]] = {}
        self._memo: dict[str, tuple[list[int], int]] = {}

    def occurrences(self, gen: str) -> tuple[list[int], list[int]]:
        """The 0-based positions of ``gen`` in the word and the signs there."""
        entry = self._index.get(gen)
        if entry is None:
            positions = [i for i, g in enumerate(self._gens) if g == gen]
            entry = (positions, list(map(self._signs.__getitem__, positions)))
            self._index[gen] = entry
        return entry

    def values(self, sym: Symbol, trace: list | None = None) -> list[int]:
        """The symbol list, aligned with ``occurrences(sym.letter)``.

        Raises UndefinedInvariant naming the first (leftmost, innermost)
        sub-symbol whose count is nonzero.  A ``trace`` list receives one
        ``(node, values, child_values)`` entry per non-leaf visit, in
        post-order, memo hits included.
        """
        return self._memo[self._visit(sym, trace)][0]

    def value(self, sym: Symbol) -> int:
        """The letter-linking invariant: the count of the symbol list."""
        return self._memo[self._visit(sym, None)][1]

    def value_sum(self, terms: Iterable[tuple[object, Symbol]]) -> Fraction:
        """Sum of coeff * invariant; undefined if any term is."""
        total = Fraction(0)
        for coeff, sym in terms:
            total += Fraction(coeff) * self.value(sym)
        return total

    def _visit(self, node: Symbol, trace: list | None) -> str:
        """Evaluate ``node`` unless memoized; return its canonical string."""
        memo = self._memo
        if not node.children:
            if node.letter not in memo:
                positions, signs = self.occurrences(node.letter)
                memo[node.letter] = ([1] * len(positions), sum(signs))
            return node.letter
        keys = []
        for child in node.children:
            key = self._visit(child, trace)
            c = memo[key][1]
            if c != 0:
                raise UndefinedInvariant(child, c)
            keys.append(key)
        key = "".join(sorted(f"({k})" for k in keys)) + node.letter
        entry = memo.get(key)
        if entry is None:
            at, signs = self.occurrences(node.letter)
            values = [1] * len(at)
            for child, k in zip(node.children, keys):
                values = list(map(mul, values,
                                  self._potential(child.letter, memo[k][0], at)))
            entry = memo[key] = (values, sum(map(mul, values, signs)))
        if trace is not None:
            trace.append((node, entry[0], [memo[k][0] for k in keys]))
        return key

    def _potential(self, gen: str, values: list[int], at: list[int]) -> list[int]:
        """Prefix potential of a zero-count list over ``gen``, read at the
        positions ``at``, none of which carries ``gen``."""
        positions, signs = self.occurrences(gen)
        running = [0] * len(self._gens)
        for p, v in zip(positions, map(mul, values, signs)):
            running[p] = v
        running = list(accumulate(running))
        return list(map(running.__getitem__, at))


def symbol_list(sym: Symbol, w: Word) -> List:
    """The iterated linking list of a symbol on a word.

    Raises UndefinedInvariant naming the first (leftmost, innermost)
    sub-symbol whose count is nonzero.
    """
    ev = Evaluator(w)
    values = ev.values(sym)
    positions, _ = ev.occurrences(sym.letter)
    return List(w, sym.letter, {p + 1: v for p, v in zip(positions, values)})


def eval_symbol(sym: Symbol, w: Word) -> int:
    """The letter-linking invariant of ``sym`` on ``w``."""
    return Evaluator(w).value(sym)


def eval_symbol_sum(terms: Iterable[tuple[object, Symbol]], w: Word) -> Fraction:
    """Linear extension: sum of coeff * invariant; undefined if any term is."""
    return Evaluator(w).value_sum(terms)
