"""The free differential calculus on free-group words.

Scalar values are Magnus coefficients: the augmentation of d_{a_1,...,a_k} w
is the coefficient of X_{a_1}...X_{a_k} in the expansion x -> 1 + X of w
(Fox 1953; Chen-Fox-Lyndon 1958).  The integral group ring serves only the
full derivative (``fox --full``) and, in tests and selfcheck, the oracle.

Group-ring keys are freely reduced once, as each term is added to a
``GroupRingElement`` (a ``symbols.FormalSum``): products and derivatives
collect unreduced words, and the element reduces them.  The augmentation
and every identity used here are representative-independent, and
reduction keeps term counts bounded.
"""

from __future__ import annotations

from typing import Iterable

from .errors import InvalidArgument
from .symbols import FormalSum
from .words import Word, free_reduce


class GroupRingElement(FormalSum):
    """Integer combination of freely reduced words, keyed by the reduced
    word and ordered by length, then text."""

    def _normalize(self, w: Word) -> tuple[Word, int, Word]:
        key = free_reduce(w)
        return key, 1, key

    def __mul__(self, other: "GroupRingElement") -> "GroupRingElement":
        out: dict[Word, int] = {}
        for u, cu in self.terms.items():
            for v, cv in other.terms.items():
                key = u * v
                out[key] = out.get(key, 0) + cu * cv
        return GroupRingElement(out)

    def items(self) -> list[tuple[int, Word]]:
        keys = sorted(self.terms, key=lambda w: (len(w), str(w)))
        return [(self.terms[w], w) for w in keys]


def augmentation(x: GroupRingElement) -> int:
    return sum(x.terms.values())


def fox_derivative(x: GroupRingElement, gen: str) -> GroupRingElement:
    """The unique derivation sending the generator to 1 and others to 0.

    On a word x_1..x_k this is the sum over occurrences of the generator of
    the prefix up to (exclusive for positive, inclusive negated for inverse)
    that occurrence.
    """
    out: dict[Word, int] = {}
    for w, coeff in x.terms.items():
        for j, letter in enumerate(w):
            if letter.gen != gen:
                continue
            if letter.sign > 0:
                key = w[:j]
                out[key] = out.get(key, 0) + coeff
            else:
                key = w[: j + 1]
                out[key] = out.get(key, 0) - coeff
    return GroupRingElement(out)


def iterated_fox(w: Word, seq: Iterable[str]) -> GroupRingElement:
    """d_{a_1,...,a_k} applied to a word: a_k first, then a_{k-1}, and so on."""
    seq = list(seq)
    if not seq:
        raise InvalidArgument("need at least one generator")
    x = GroupRingElement({w: 1})
    for gen in reversed(seq):
        x = fox_derivative(x, gen)
    return x


def fox_eval(w: Word, seq: Iterable[str]) -> int:
    """Augmentation of the iterated derivative d_{a_1,...,a_k} w: the Magnus
    coefficient of X_{a_1}...X_{a_k}, computed along with its prefixes."""
    seq = list(seq)
    if not seq:
        raise InvalidArgument("need at least one generator")
    # monomial j + 1 is monomial j followed by X_{seq[j]}
    return magnus_coefficients(w, [(0, "")] + list(enumerate(seq)))[-1]


def magnus_coefficients(w: Word, monomials: list[tuple[int, str]]) -> list[int]:
    """Magnus coefficients of ``w`` on a prefix-closed list of monomials.

    ``monomials[i] = (p, g)`` is monomial ``p < i`` followed by X_g; entry 0
    is the empty monomial.  One pass multiplies by each letter's expansion:
    g adds ``c[p]`` to ``c[i]`` for the monomials ending in X_g, last to
    first so the old ``c[p]`` is read; g^-1 = 1 - X_g + X_g^2 - ...
    subtracts the already updated ``c[p]``, first to last.
    """
    rising: dict[str, list[tuple[int, int]]] = {}
    for i, (p, gen) in enumerate(monomials[1:], 1):
        rising.setdefault(gen, []).append((i, p))
    falling = {gen: pairs[::-1] for gen, pairs in rising.items()}
    c = [1] + [0] * (len(monomials) - 1)
    for gen, sign in w:
        if gen not in rising:
            continue
        if sign > 0:
            for i, p in falling[gen]:
                c[i] += c[p]
        else:
            for i, p in rising[gen]:
                c[i] -= c[p]
    return c
