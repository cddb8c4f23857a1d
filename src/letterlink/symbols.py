"""Parenthesized letter-linking expressions as rooted labeled trees.

A symbol has a free letter and a (possibly empty) ordered list of child
symbols; validity requires every child's free letter to differ from its
parent's.  Child order is presentational: ``equivalent`` and the canonical
string ignore it, while ``Symbol`` equality itself is structural so that
distinct labelings can coexist in sets.

The text form uses the grammar ``symbol := item+`` where exactly one item
is a bare identifier (the free letter) and every other item is a
parenthesized symbol, e.g. ``((a)b)a`` or ``(a)(c)b``.

``FormalSum`` holds the terms of all four sums: ``SymbolSum`` (keyed by
canonical string), ``eil.GraphSum`` (keyed by canonical encoding),
``lie.LieElement`` (keyed by the tree's text) and ``fox.GroupRingElement``
(keyed by the freely reduced word).  Each key keeps the first
representative added under it, and sums compare equal by their terms alone.
Every coefficient goes through ``words._exact``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Mapping

from .errors import InvalidSymbol, ParseError, UnknownGenerator
from .words import GENERATOR_RE, Scanner, _exact, _write_sum


@dataclass(frozen=True)
class Symbol:
    letter: str
    children: tuple["Symbol", ...] = ()

    def __post_init__(self):
        for child in self.children:
            if child.letter == self.letter:
                raise InvalidSymbol(
                    f"child free letter {child.letter!r} equals its parent's"
                )

    @property
    def depth(self) -> int:
        return self.node_count() - 1

    def node_count(self) -> int:
        return len(self.postorder())

    def postorder(self) -> list["Symbol"]:
        """Every node, children left to right, each before its parent: the
        one walk over a symbol.  Kept in the instance ``__dict__``, as the
        canonical string is."""
        if "_postorder" not in self.__dict__:
            out, stack = [], [self]
            while stack:  # the root, then each subtree last child first
                out.append(stack.pop())
                stack.extend(out[-1].children)
            self.__dict__["_postorder"] = out[::-1]
        return self.__dict__["_postorder"]

    def fold(self, make):
        """``make(node, results)`` at every node in post-order, ``results``
        being those of its children in order; the root's result."""
        stack: list = []
        for node in self.postorder():
            cut = len(stack) - len(node.children)
            stack[cut:] = [make(node, stack[cut:])]
        return stack[0]

    def canonical(self) -> str:
        """Canonical string: children sorted by encoding, free letter last.
        Computed once per node and kept in the instance ``__dict__``, outside
        the dataclass fields, so equality, hashing and repr do not see it."""
        out = self.__dict__.get("_canonical")
        if out is None:
            for node in self.postorder():
                if "_canonical" not in node.__dict__:
                    parts = sorted(f"({c.__dict__['_canonical']})"
                                   for c in node.children)
                    node.__dict__["_canonical"] = "".join(parts) + node.letter
            out = self.__dict__["_canonical"]
        return out

    def __str__(self) -> str:
        return self.canonical()


def parse_symbol(text: str) -> Symbol:
    return _read_symbol(Scanner(text), "")


def _read_symbol(sc: Scanner, closers: str) -> Symbol:
    """One level of a symbol, up to a character of ``closers`` or the end of
    the text; a graph reads its vertex labels with it in place."""
    free: str | None = None
    children: list[Symbol] = []
    while sc.char not in closers:
        if sc.open("("):
            children.append(_read_symbol(sc, ")"))
            sc.close(")")
            continue
        start = sc.pos
        name = sc.match(GENERATOR_RE)
        if name is None:
            sc.fail("identifier or '('")
        if free is not None:
            raise ParseError(f"second bare letter {name!r}", start,
                             expected="exactly one free letter per level")
        free = name
    if free is None:
        sc.fail("identifier", "level has no free letter")
    return Symbol(free, tuple(children))


def equivalent(a: Symbol, b: Symbol) -> bool:
    """True iff the labeled containment posets are isomorphic."""
    return a.canonical() == b.canonical()


def relabel_symbol(mapping: Mapping[str, str], sym: Symbol) -> Symbol:
    def make(node: Symbol, children: list[Symbol]) -> Symbol:
        if node.letter not in mapping:
            raise UnknownGenerator(node.letter)
        return Symbol(mapping[node.letter], tuple(children))

    return sym.fold(make)


def preimages_of_symbol(mapping: Mapping[str, str], sym: Symbol) -> list[Symbol]:
    """All labelings of the tree by source generators mapping to the given
    labels, filtered to valid symbols.  Returned as labelings of the ordered
    tree; equivalent symbols may repeat."""
    fibers: dict[str, list[str]] = {}
    for src, dst in mapping.items():
        fibers.setdefault(dst, []).append(src)
    for vals in fibers.values():
        vals.sort()

    def make(node: Symbol, child_options: list[list[Symbol]]) -> list[Symbol]:
        out = []
        for letter in fibers.get(node.letter, []):
            for combo in product(*child_options):
                try:
                    out.append(Symbol(letter, combo))
                except InvalidSymbol:
                    pass
        return out

    return sym.fold(make)


class FormalSum:
    """Exact combination of terms, keyed by a canonical form: built from an
    optional ``{term: coeff}`` mapping by adding each item.

    ``_normalize`` gives a term's key, the sign relating the term to its
    key, and a representative; the first representative added under a key
    is kept until the key's coefficient cancels.  ``int`` coefficients stay
    ``int`` and any other becomes a ``Fraction``.  Sums are equal when they
    are of the same class and have the same terms, whatever their
    representatives.
    """

    def __init__(self, terms: Mapping | None = None):
        self.terms: dict = {}
        self.reps: dict = {}
        for term, coeff in (terms or {}).items():
            self.add(coeff, term)

    def _normalize(self, term) -> tuple[object, int, object]:
        raise NotImplementedError

    def add(self, coeff, term) -> "FormalSum":
        coeff = _exact(coeff)
        if not coeff:
            return self
        key, sign, rep = self._normalize(term)
        if sign < 0:
            coeff = -coeff
        old = self.terms.get(key)
        new = coeff if old is None else old + coeff
        if new == 0:
            del self.terms[key], self.reps[key]
        else:
            self.terms[key] = new
            self.reps.setdefault(key, rep)
        return self

    def scale(self, k) -> "FormalSum":
        out = type(self)()
        k = _exact(k)
        if k:
            out.terms = {key: k * c for key, c in self.terms.items()}
            out.reps = dict(self.reps)
        return out

    def __add__(self, other: "FormalSum") -> "FormalSum":
        out = self.scale(1)
        for key, c in other.terms.items():   # each representative has sign +1
            out.add(c, other.reps[key])
        return out

    def __neg__(self) -> "FormalSum":
        return self.scale(-1)

    def __sub__(self, other: "FormalSum") -> "FormalSum":
        return self + -other

    def items(self) -> list[tuple[object, object]]:
        return [(self.terms[k], self.reps[k]) for k in sorted(self.terms)]

    def __iter__(self):
        return iter(self.items())

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.terms == other.terms

    def __str__(self) -> str:
        return _write_sum(self.items())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


class SymbolSum(FormalSum):
    """Combination of symbols, keyed by canonical string."""

    def _normalize(self, sym: Symbol) -> tuple[str, int, Symbol]:
        return sym.canonical(), 1, sym

    def __str__(self) -> str:
        return " + ".join(f"{c}*{s}" for c, s in self.items()) or "0"


def leibniz_terms(syms: list[Symbol]) -> SymbolSum:
    """The k-term sum whose letter-linking evaluation vanishes wherever all
    terms are defined: term i grafts every other symbol, parenthesized, onto
    symbol i's top level."""
    if len(syms) < 2:
        raise InvalidSymbol("need at least two symbols")
    letters = [s.letter for s in syms]
    if len(set(letters)) != len(letters):
        raise InvalidSymbol("free letters must be pairwise distinct")
    out = SymbolSum()
    for i, s in enumerate(syms):
        others = tuple(t for j, t in enumerate(syms) if j != i)
        out.add(1, Symbol(s.letter, s.children + others))
    return out
