"""Bracket trees, the Lyndon basis, the configuration pairing, and
Lie-side coordinates.

Bracket trees are planar (left/right matters) and are not quotiented by
antisymmetry or Jacobi in storage; canonical coordinates go through the
Lyndon basis when needed.  The pairing with letter-labeled graphs maps
each graph edge to the deepest tree vertex under both endpoint leaves,
takes +1 when the tail's leaf sits left of the head's and -1 otherwise,
multiplies over edges if that map is bijective onto the internal vertices,
and otherwise gives zero.  For repeated labels the pairing sums over all
label-preserving bijections between graph vertices and tree leaves.

That sum is computed by recursion over the bracket tree (``pairing_matrix``),
which cuts one graph edge per internal vertex and never lists the
bijections; the bijection sum itself serves only as a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable

from .errors import (InvalidArgument, InvalidMultidegree, LabelMismatch,
                     MixedGrading, NotInGamma, TooLarge)
from .symbols import FormalSum
from .words import GENERATOR_RE, LENGTH_LIMIT, Scanner, Word, _read_sum


@dataclass(frozen=True)
class BracketTree:
    letter: str | None = None
    left: "BracketTree | None" = None
    right: "BracketTree | None" = None

    def is_leaf(self) -> bool:
        return self.letter is not None

    @property
    def weight(self) -> int:
        if self.is_leaf():
            return 1
        return self.left.weight + self.right.weight

    def leaves(self) -> list[str]:
        if self.is_leaf():
            return [self.letter]
        return self.left.leaves() + self.right.leaves()

    def multidegree(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for l in self.leaves():
            out[l] = out.get(l, 0) + 1
        return out

    def __str__(self) -> str:
        out, stack = [], [self]
        while stack:   # a tree or the text to print next
            node = stack.pop()
            if type(node) is str:
                out.append(node)
            elif node.is_leaf():
                out.append(node.letter)
            else:
                out.append("[")
                stack += "]", node.right, ",", node.left
        return "".join(out)


def bracket_tree(expr) -> BracketTree:
    """Convert a nested-pair commutator expression to a bracket tree."""
    if isinstance(expr, str):
        return BracketTree(letter=expr)
    left, right = expr
    return BracketTree(left=bracket_tree(left), right=bracket_tree(right))


class LieElement(FormalSum):
    """Weight-homogeneous rational combination of bracket trees, keyed by
    the tree's text; a term of another weight raises MixedGrading."""

    def _normalize(self, tree: BracketTree) -> tuple[str, int, BracketTree]:
        key = str(tree)
        weight, new = self.weight, key.count(",") + 1
        if weight is not None and new != weight:
            raise MixedGrading(f"mixed weights {sorted((weight, new))}")
        return key, 1, tree

    @property
    def weight(self) -> int | None:
        """One more than the commas in the text of any term."""
        for key in self.terms:
            return key.count(",") + 1
        return None


# --- parsing ---------------------------------------------------------------


def parse_lie(text: str) -> LieElement:
    """Parse ``[+|-] [coeff *] tree``, then terms each after ``+`` or ``-``,
    where a tree is an identifier or ``[tree,tree]`` and a coefficient is an
    unsigned ``fractions.Fraction`` string, with spaces allowed around ``/``.
    ``str`` of a nonzero ``LieElement`` is in this grammar and reads back.
    The terms of all weights but one must cancel, else MixedGrading names
    the weights left, whatever the order of the terms."""
    parts: dict[int, LieElement] = {}
    for coeff, tree in _read_sum(Scanner(text), _read_tree):
        parts.setdefault(tree.weight, LieElement()).add(coeff, tree)
    out, *rest = [e for e in parts.values() if e.terms] or [LieElement()]
    if rest:
        raise MixedGrading(f"mixed weights {sorted(e.weight for e in [out, *rest])}")
    return out


def _read_tree(sc: Scanner) -> BracketTree:
    if sc.open("["):
        left = _read_tree(sc)
        sc.expect(",")
        right = _read_tree(sc)
        sc.close("]")
        return BracketTree(left=left, right=right)
    name = sc.match(GENERATOR_RE)
    if name is None:
        sc.fail("identifier or '['")
    return BracketTree(letter=name)


# --- Lyndon basis ----------------------------------------------------------


def lyndon_words(length: int, alphabet: list[str],
                 content: dict[str, int] | None = None) -> list[tuple[str, ...]]:
    """Lyndon words of exactly the given length, in the lexicographic order
    that the order of ``alphabet`` induces; given a multidegree ``content``,
    only those of that content.  An iterative prenecklace walk with letter
    counts (Sawada, TCS 2003) that never takes a letter past its count.
    A length past ``words.LENGTH_LIMIT``, which no word the package builds
    passes, is refused with TooLarge before any list of its size is made."""
    gens = list(alphabet)
    k = len(gens)
    left = [length] * k
    if content is not None:
        content = dict(_multidegree_key(content))
        left = [content.pop(g, 0) for g in gens]
        if content:
            raise InvalidMultidegree(f"{sorted(content)} not in the alphabet {gens}")
    if length < 1 or content is not None and sum(left) != length:
        return []
    if length > LENGTH_LIMIT:
        raise TooLarge(f"Lyndon words of length {length} exceed bound {LENGTH_LIMIT}")
    if not k:
        return []
    out = []
    # w[1:t] is the prefix, period[t] its period and w[0] = 0 a sentinel.  A
    # content's words start with its least letter: stop before w[1] changes.
    # A Lyndon word of 2 or more letters ends in a letter greater than its
    # first, so not in the least letter: a nonempty prefix has no completion
    # once every letter left is the least one.  ``others`` counts the
    # letters left that are not.
    w, period = [0] * (length + 1), [1] * (length + 2)
    least = next(i for i, n in enumerate(left) if n)
    others = sum(left) - left[least]
    t, j, root = 1, 0, 1 if content is None else 2
    while True:
        if t > length:
            if period[t] == length:
                out.append(tuple(map(gens.__getitem__, w[1:])))
        elif t == 1 or others:
            while j < k and not left[j]:
                j += 1
            if j < k:   # position t takes j, at least w[t - p], p the period
                p = period[t] if j == w[t - period[t]] else t
                w[t] = j
                left[j] -= 1
                if j != least:
                    others -= 1
                t += 1
                period[t] = p
                j = w[t - p]
                continue
        t -= 1
        if t < root:
            return out
        left[w[t]] += 1
        if w[t] != least:
            others += 1
        j = w[t] + 1


def standard_bracketing(word: tuple[int, ...], names: list[str]) -> BracketTree:
    """Right standard bracketing of a Lyndon word of positions in ``names``,
    which name the leaves.

    Read right to left, keeping the Lyndon factorization of the suffix read
    so far, each factor with its bracketing: a new letter starts a factor,
    which absorbs the next one while it is smaller.  The factors never
    increase, so a factor u absorbs v only when u is a letter or the right
    part of u's own standard factorization is at least v; then (u, v) is the
    standard factorization of uv, which is bracketed as their pair."""
    stack: list[tuple[tuple, BracketTree]] = []   # the first factor last
    for letter in reversed(word):
        factor = (letter,)
        tree = BracketTree(letter=names[letter])
        while stack and factor < stack[-1][0]:
            right, right_tree = stack.pop()
            factor += right
            tree = BracketTree(left=tree, right=right_tree)
        stack.append((factor, tree))
    return stack[-1][1]


def lyndon_basis(weight: int, alphabet: Iterable[str],
                 content: dict[str, int] | None = None) -> list[BracketTree]:
    """The ``lyndon_words``, bracketed in the order of ``alphabet``."""
    if not isinstance(weight, int):
        raise InvalidArgument(f"weight {weight!r} is not an int")
    if weight < 1:
        raise InvalidArgument(f"weight {weight} is below 1")
    alphabet = list(alphabet)
    for i, gen in enumerate(alphabet):
        if gen in alphabet[:i]:
            raise InvalidArgument(f"generator {gen!r} is repeated in the alphabet")
    return [standard_bracketing(tuple(map(alphabet.index, w)), alphabet)
            for w in lyndon_words(weight, alphabet, content)]


def _multidegree_key(multidegree: dict[str, int]) -> tuple[tuple[str, int], ...]:
    """The multidegree as sorted (generator, count) pairs without the zero
    counts, once every generator is a nonempty string, every count a
    nonnegative int and the total at least 1."""
    if not isinstance(multidegree, dict):
        raise InvalidMultidegree("a multidegree maps generators to counts")
    for gen, c in multidegree.items():
        if type(gen) is not str or not gen:
            raise InvalidMultidegree(f"generator {gen!r} is not a nonempty string")
        if type(c) is not int:
            raise InvalidMultidegree(f"count {c!r} of {gen!r} is not an int")
        if c < 0:
            raise InvalidMultidegree("multidegree counts must be nonnegative")
    if not any(multidegree.values()):
        raise InvalidMultidegree("multidegree must have total count >= 1")
    return tuple((gen, c) for gen, c in sorted(multidegree.items()) if c)


def lyndon_trees_of_multidegree(multidegree: dict[str, int]) -> list[BracketTree]:
    """The Lyndon trees whose leaves hold each generator as often as the
    multidegree counts it."""
    content = dict(_multidegree_key(multidegree))
    return lyndon_basis(sum(content.values()), sorted(content), content)


# --- configuration pairing ---------------------------------------------------


def pairing_matrix(graphs, trees) -> list[list[int]]:
    """``graph_tree_pairing`` of every graph (rows) with every tree (columns).

    By recursion over the bracket tree: exactly one edge maps to the root,
    and cutting it leaves the vertex sets that go to the left and right
    subtrees.  The value at a node is the sum, over the edges of its vertex
    set whose tail side (sign +1) or head side (sign -1) has the letter
    content of the left subtree, of the sign times the values of the two
    sides.  A bijection counts iff the leaves of every subtree induce a
    connected subgraph, and these are exactly what the recursion reaches.
    Equal subtrees share one node, and each graph keeps one memo over all
    the trees.  A graph label with children is an InvalidArgument.
    """
    # A letter content is a sum of per-letter units spaced so that counts up
    # to the largest graph's size never carry.  A subtree with a larger
    # count may alias another content, but it cannot contribute: every leaf
    # it reaches must receive exactly one vertex of a set smaller than it.
    shift = max([len(g.vertices) for g in graphs], default=1).bit_length()
    unit: dict[str, int] = {}
    node_of: dict = {}   # leaf letter, or (left node, right node) -> node
    split: list = []     # None at a leaf, else (left, right, contents)
    content: list[int] = []

    def unit_of(letter: str) -> int:
        if letter not in unit:
            unit[letter] = 1 << (shift * len(unit))
        return unit[letter]

    def intern(tree: BracketTree) -> int:
        key = (tree.letter if tree.letter is not None
               else (intern(tree.left), intern(tree.right)))
        node = node_of.get(key)
        if node is None:
            node = node_of[key] = len(split)
            if tree.letter is not None:
                split.append(None)
                content.append(unit_of(key))
            else:
                left, right = key
                split.append((left, right, content[left], content[right]))
                content.append(content[left] + content[right])
        return node

    roots = [intern(t) for t in trees]
    return [_graph_row(g, roots, split, content, unit_of) for g in graphs]


def _graph_row(graph, roots, split, content, unit_of) -> list[int]:
    n = len(graph.vertices)
    index = {v: i for i, (v, _) in enumerate(graph.vertices)}
    for v, sym in graph.vertices:
        if sym.children:
            raise InvalidArgument(f"the pairing needs letter labels; {v} has {sym}")
    units = [unit_of(sym.letter) for _, sym in graph.vertices]
    edges = [(index[t], index[h]) for t, h in graph.edges]
    # Root the graph at vertex 0: the tail side of an edge in the whole
    # graph is the subtree below it or its complement, and inside any
    # connected vertex set s holding the edge it is s & that side.
    parent, order = _root_at_zero(
        [[index[u] for u in ns] for ns in graph.adjacency().values()])
    below = [1 << v for v in range(n)]
    for v in reversed(order):
        if v:
            below[parent[v]] |= below[v]
    full = (1 << n) - 1
    cuts = [((1 << t) | (1 << h), below[t] if parent[t] == h else full ^ below[h])
            for t, h in edges]
    content_of = {1 << v: u for v, u in enumerate(units)}
    # vertex set -> (tail side a, head side, content of a) per edge inside it
    pieces_of: dict[int, list[tuple[int, int, int]]] = {}
    memo: dict[int, int] = {}
    nodes = len(split)

    def pieces(s: int) -> list[tuple[int, int, int]]:
        out = pieces_of[s] = []
        for ends, side in cuts:
            if s & ends == ends:
                a = s & side
                c = content_of.get(a)
                if c is None:
                    c = content_of[a] = sum(units[v] for v in range(n) if a >> v & 1)
                out.append((a, s ^ a, c))
        return out

    def value(s: int, node: int) -> int:
        parts = split[node]
        if parts is None:
            return 1
        key = s * nodes + node
        if key in memo:
            return memo[key]
        left, right, left_content, right_content = parts
        total = 0
        cut = pieces_of.get(s)
        for a, b, c in pieces(s) if cut is None else cut:
            if c == left_content:
                x = value(a, left)
                if x:
                    total += x * value(b, right)
            if c == right_content:
                x = value(b, left)
                if x:
                    total -= x * value(a, right)
        memo[key] = total
        return total

    whole = sum(units)
    return [value(full, r) if content[r] == whole else 0 for r in roots]


def _root_at_zero(adj: list[list[int]]) -> tuple[list[int], list[int]]:
    """The parent of each vertex (-1 at vertex 0) of the tree with adjacency
    lists ``adj`` over vertex positions, rooted at vertex 0, and its
    vertices in a breadth-first order from there."""
    parent = [-1] * len(adj)
    order = [0]
    for v in order:
        for u in adj[v]:
            if u != parent[v]:
                parent[u] = v
                order.append(u)
    return parent, order


def configuration_pairing(graph, tree: BracketTree) -> int:
    """Pairing in the unique-label case: every label occurs once on each side."""
    labels = sorted(sym.letter for _, sym in graph.vertices)
    leaves = tree.leaves()
    if labels != sorted(leaves) or len(set(leaves)) != len(leaves):
        raise LabelMismatch(f"graph labels {labels} vs leaves {sorted(leaves)}")
    return pairing_matrix([graph], [tree])[0][0]


def graph_tree_pairing(graph, tree: BracketTree) -> int:
    """Single graph against single tree, summed over label-preserving
    bijections of vertices onto leaves; zero on multidegree mismatch."""
    return pairing_matrix([graph], [tree])[0][0]


def extended_pairing(graphs, lie_part) -> Fraction:
    """Bilinear extension of the pairing to graph sums and Lie elements.

    ``graphs`` is one graph or an ``eil.GraphSum``, ``lie_part`` one bracket
    tree or a ``LieElement``.
    """
    graph_terms = graphs.items() if hasattr(graphs, "items") else [(1, graphs)]
    tree_terms = (lie_part.items() if isinstance(lie_part, LieElement)
                  else [(1, lie_part)])
    matrix = pairing_matrix([g for _, g in graph_terms], [t for _, t in tree_terms])
    total = Fraction(0)
    for (cg, _), row in zip(graph_terms, matrix):
        for (ct, _), entry in zip(tree_terms, row):
            total += cg * ct * entry
    return total


def bracket_polynomial(tree: BracketTree) -> dict[tuple[str, ...], int]:
    """Word coefficients of a bracket tree expanded in the free associative
    algebra by [x, y] = xy - yx; words are tuples of generators."""
    if tree.is_leaf():
        return {(tree.letter,): 1}
    out: dict[tuple[str, ...], int] = {}
    right = bracket_polynomial(tree.right)
    for u, cu in bracket_polynomial(tree.left).items():
        for v, cv in right.items():
            out[u + v] = out.get(u + v, 0) + cu * cv
            out[v + u] = out.get(v + u, 0) - cu * cv
    return out


# --- Lie image and coordinates ----------------------------------------------

# most Magnus coefficients, all degrees together, in one table
MAGNUS_TERM_LIMIT = 1 << 20


def _to_lyndon(residual: dict[tuple[str, ...], int],
               alphabet: list[str]) -> LieElement:
    """Lyndon coordinates of a homogeneous Lie polynomial, from its word
    coefficients on the Lyndon words of its weight over the sorted
    ``alphabet``, which ``residual`` maps in lexicographic order (and uses up).

    The standard bracketing of a Lyndon word l has coefficient 1 on l and 0
    on smaller words (Reutenauer, *Free Lie Algebras*, Thm 5.1): the
    Lyndon-word/bracket matrix is lower unitriangular in lexicographic
    order, so forward substitution solves it without division.
    """
    out = LieElement()
    for l, c in residual.items():  # each value is final when it is reached
        if c:
            tree = standard_bracketing(tuple(map(alphabet.index, l)), alphabet)
            out.add(c, tree)
            for u, cu in bracket_polynomial(tree).items():
                if u in residual:
                    residual[u] -= c * cu
    return out


def lie_image_of_bracket_word(text: str) -> LieElement:
    """Lie image of a formal product of iterated commutators of generators,
    expressed in the Lyndon basis.  Refused with TooLarge before any Lyndon
    word is listed when the words of the weight number more than
    ``MAGNUS_TERM_LIMIT``."""
    sc = Scanner(text)
    factors: list[BracketTree] = []
    while sc.char:
        factors.append(_read_tree(sc))
    if not factors:
        return LieElement()
    weights = {t.weight for t in factors}
    if len(weights) != 1:
        raise MixedGrading(f"mixed weights {sorted(weights)}")
    alphabet = sorted({l for t in factors for l in t.leaves()})
    weight = weights.pop()
    if len(alphabet) ** weight > MAGNUS_TERM_LIMIT:
        raise TooLarge(f"{len(alphabet)}^{weight} words of weight {weight}")
    polys = [bracket_polynomial(t) for t in factors]
    return _to_lyndon({l: sum(p.get(l, 0) for p in polys)
                       for l in lyndon_words(weight, alphabet)}, alphabet)


def lie_coordinates(w: Word, weight: int) -> LieElement:
    """Lyndon coordinates of the class of ``w`` in its graded quotient.

    Read off the Magnus expansion of ``w`` truncated at ``weight``: all
    lower coefficients must vanish (else NotInGamma names the first nonzero
    one, by degree, then in ``itertools.product`` order), and the Lyndon
    words' coefficients give the coordinates.  Tables of depth 1, 2, 4, ...
    are tried, so a word failing at degree d needs no table deeper than 2d;
    the last one holds, at degree ``weight``, only the Lyndon words, the
    only coefficients ``_to_lyndon`` reads there.
    """
    if not isinstance(weight, int):
        raise InvalidArgument(f"weight {weight!r} is not an int")
    alphabet = sorted(w.generators())
    if not alphabet or weight < 1:
        return LieElement()
    depth = 0
    while depth < weight:
        checked, depth = depth, min(weight, max(1, 2 * depth))
        c, degrees, top = _magnus_table(w, alphabet, depth, weight)
        for lower in range(checked + 1, min(depth, weight - 1) + 1):
            for n, i in enumerate(degrees[lower]):
                if c[i]:   # the n-th sequence in product order: n in base k
                    k = len(alphabet)
                    raise NotInGamma(tuple(alphabet[n // k ** e % k]
                                           for e in reversed(range(lower))))
    return _to_lyndon({l: c[i] for l, i in top.items()}, alphabet)


def _magnus_table(w: Word, alphabet: list[str], depth: int, weight: int):
    """Magnus coefficients of ``w`` up to degree ``depth``: for each degree
    below ``weight`` all of them, with the range of their indices in
    ``itertools.product`` order; at degree ``weight`` only the Lyndon
    words' (each its prefix's monomial followed by its last letter), with
    a map from each, in lexicographic order, to its index.  Refused with
    TooLarge by the size of the full table, before any monomial is listed."""
    size = sum(len(alphabet) ** d for d in range(depth + 1))
    if size > MAGNUS_TERM_LIMIT:
        raise TooLarge(f"Magnus table of {size} coefficients")
    monomials, degrees, top = [(0, "")], [range(1)], {}
    for d in range(min(depth, weight - 1)):
        monomials += [(p, gen) for p in degrees[d] for gen in alphabet]
        degrees.append(range(degrees[d].stop, len(monomials)))
    if depth == weight:
        prefix = dict(zip(product(alphabet, repeat=weight - 1),
                          degrees[weight - 1]))
        for l in lyndon_words(weight, alphabet):
            top[l] = len(monomials)
            monomials.append((prefix[l[:-1]], l[-1]))
    from . import fox
    return fox.magnus_coefficients(w, monomials), degrees, top
