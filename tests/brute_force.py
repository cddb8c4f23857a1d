"""Brute-force oracles for the fast paths of words, linking, eil, lie, linalg
and fox.

These are the straightforward definitions: read word text one token at a
time, read lists, counts and potentials a word position at a time, invert
a word a letter at a time, expand, list and standard-bracket bracket
shapes by plain recursion, evaluate a symbol by prefix potentials kept as
maps over every word position, count the placements of a symbol's nodes
from every node's list or one placement at a time, count every pruning
on a word's built letters, rebuild each pruning's Symbol from its index,
walk a symbol (canonical string, size, definedness, splits and prunings)
by recursion, encode a tree rooted at each vertex by recursion over it,
scan every Prufer code and canonicalize each admissible tree, sum the
pairing over every label-preserving bijection, pick the ``matrix`` rows
one rank-increasing graph at a time, eliminate over Fraction,
tabulate every Magnus coefficient up to the weight, list every Lyndon word
of a length by Duval's generation, free-reduce every group-ring key as
soon as it is made, split a comma list with ``str.split``, check every
edge after each contraction, chain those contractions into a whole
reduction, and rescan every vertex for the next leaf of the default
order.  The tests check the
library's fast paths against them.
"""

from fractions import Fraction
from functools import cache
from itertools import chain, permutations, product

from letterlink import lie
from letterlink.eil import (DOCUMENTED_DUALS_32, SymbolGraph, _id_key,
                            _prufer_trees, parse_graph)
from letterlink.errors import (InconsistentSystem, InvalidArgument, NonzeroCount,
                               NotInGamma, TooLarge, UndefinedInvariant,
                               UndefinedReduction, UnknownGenerator)
from letterlink.fox import magnus_coefficients
from letterlink.linking import List
from letterlink.symbols import Symbol, SymbolSum
from letterlink.words import (_EMPTY_RUN, _INT_RE, GENERATOR_RE, CompactWord,
                              Letter, Scanner, Word, commutator, free_reduce)


# --- word text one token at a time ---------------------------------------------


def token_parse_compact(text, alphabet=None):
    """``words.parse_compact`` with every letter read as its own term."""
    allowed = set(alphabet) if alphabet is not None else None
    return _token_word(Scanner(text), allowed, "")


def _token_word(sc, allowed, closer):
    factors = []
    run = []
    while sc.char not in closer:
        term = _token_term(sc, allowed)
        for f in term.parts if term.kind == "product" else (term,):
            if not f.length:
                continue
            if f.kind == "run":
                run += f.parts
                continue
            if run:
                factors.append(CompactWord("run", tuple(run)))
                run = []
            factors.append(f)
    if run or not factors:
        factors.append(CompactWord("run", tuple(run)))
    return factors[0] if len(factors) == 1 else CompactWord("product",
                                                            tuple(factors))


def _token_term(sc, allowed):
    name = sc.match(GENERATOR_RE)
    if name is not None:
        if allowed is not None and name not in allowed:
            raise UnknownGenerator(name)
        base = CompactWord("run", (Letter(name, 1),))
    elif sc.open("["):
        u = _token_word(sc, allowed, ",")
        sc.expect(",")
        v = _token_word(sc, allowed, "]")
        sc.close("]")
        base = CompactWord("commutator", (u, v))
    elif sc.open("("):
        base = _token_word(sc, allowed, ")")
        sc.close(")")
    else:
        sc.fail("identifier, '[' or '('")
    if not sc.take("^"):
        return base
    exponent = sc.match(_INT_RE)
    if exponent is None:
        sc.fail("integer exponent")
    if not base.length:
        return base
    try:
        n = int(exponent)
    except ValueError:
        raise TooLarge(f"exponent of {len(exponent)} digits") from None
    if n == 0:
        return _EMPTY_RUN
    if n == 1:
        return base
    if n == -1 and base.kind == "run":
        return CompactWord("run", base.letters(True))
    return CompactWord("power", (base,), n)


# --- lists, counts and inverses read a position at a time -----------------------


def position_assoc(word, gen, assoc):
    """The associated function that ``List(word, gen, assoc)`` keeps: the
    nonzero multiplicities, each position read through ``Word.letter_at``."""
    out = {j: m for j, m in assoc.items() if m != 0}
    for j in out:
        if word.letter_at(j).gen != gen:
            raise InvalidArgument(
                f"position {j} carries {word.letter_at(j).gen!r}, not {gen!r}")
    return out


def position_standard_list(w, gen):
    return List(w, gen, {j: 1 for j in range(1, len(w) + 1)
                         if w.letter_at(j).gen == gen})


def position_count(lst):
    return sum(m * lst.word.letter_at(j).sign for j, m in lst.assoc.items())


def position_prefix_potential(lst):
    """The potential before each position 1..len(word)+1 of a zero-count
    list, summed a position at a time."""
    c = position_count(lst)
    if c != 0:
        raise NonzeroCount(c)
    out = {}
    running = 0
    for j in range(1, len(lst.word) + 2):
        out[j] = running
        if j <= len(lst.word):
            running += lst.assoc.get(j, 0) * lst.word.letter_at(j).sign
    return out


def letterwise_inverse(w):
    """The inverse word, one new letter per position."""
    return Word(tuple(l.inverse() for l in reversed(w.letters)))


def recursive_standard_bracketing(word, names):
    """Right standard bracketing of a Lyndon word of positions in ``names``,
    which name the leaves: split off its smallest proper suffix and bracket
    both parts afresh."""
    if len(word) == 1:
        return lie.BracketTree(letter=names[word[0]])
    i = min(range(1, len(word)), key=lambda i: word[i:])
    return lie.BracketTree(left=recursive_standard_bracketing(word[:i], names),
                           right=recursive_standard_bracketing(word[i:], names))


def commutator_expansion(expr):
    """The word of a bracket shape, a ``words.commutator`` of words at each
    pair."""
    if isinstance(expr, str):
        return Word((Letter(expr, 1),))
    left, right = expr
    return commutator(commutator_expansion(left), commutator_expansion(right))


def split_bracketings(labels):
    """All planar bracket shapes over ``labels``: at each split point in
    turn, every shape of the left part with every shape of the right part,
    both bracketed afresh."""
    if len(labels) == 1:
        return [labels[0]]
    return [(l, r) for i in range(1, len(labels))
            for l in split_bracketings(labels[:i])
            for r in split_bracketings(labels[i:])]


# --- symbol lists by per-position potentials --------------------------------


def position_symbol_list(sym, w, trace=None):
    """The iterated linking list of a symbol on a word, by recursion: each
    child's prefix potential is a map over all positions 1..len(w)+1, and
    the potentials multiply at the free letter's positions.  Raises
    UndefinedInvariant at the first (leftmost, innermost) sub-symbol whose
    count is nonzero.  A ``trace`` list receives each non-leaf node visited,
    in post-order, with its list."""
    if not sym.children:
        return position_standard_list(w, sym.letter)
    potentials = []
    for child in sym.children:
        child_list = position_symbol_list(child, w, trace)
        c = position_count(child_list)
        if c != 0:
            raise UndefinedInvariant(child, c)
        potentials.append(position_prefix_potential(child_list))
    assoc = {}
    for j in range(1, len(w) + 1):
        if w.letter_at(j).gen == sym.letter:
            value = 1
            for g in potentials:
                value *= g[j]
            assoc[j] = value
    out = List(w, sym.letter, assoc)
    if trace is not None:
        trace.append((sym, out))
    return out


def placements(ev, sym):
    """The signed count of placements of the symbol's nodes on the letters
    of ``ev``'s word, each child before its parent, whether or not the
    invariant is defined: the `linking.Evaluator` ``ev`` fills every node's
    list along the post-order, past an undefined sub-symbol too."""
    for node in sym.postorder():
        c = ev._count(node)
    return c


def enumerated_placements(sym, w):
    """The same count, one placement at a time: every node on every
    position of its letter, kept when each child sits before its parent,
    weighed by the product of the signs there."""
    nodes = recursive_postorder(sym)
    parent = {id(c): i for i, n in enumerate(nodes) for c in n.children}
    options = [[j for j, l in enumerate(w.letters) if l.gen == n.letter]
               for n in nodes]
    total = 0
    for spots in product(*options):
        if all(spots[i] < spots[parent[id(n)]]
               for i, n in enumerate(nodes) if id(n) in parent):
            sign = 1
            for j in spots:
                sign *= w.letters[j].sign
            total += sign
    return total


# --- symbol walks by recursion ------------------------------------------------


def recursive_postorder(sym):
    """Every node, each child's subtree in turn and then the node."""
    return [n for c in sym.children for n in recursive_postorder(c)] + [sym]


def recursive_canonical(sym):
    """The canonical string: the children's strings sorted, then the free
    letter."""
    return "".join(sorted(f"({recursive_canonical(c)})"
                          for c in sym.children)) + sym.letter


def recursive_node_count(sym):
    return 1 + sum(recursive_node_count(c) for c in sym.children)


def recursive_depth(sym):
    return sum(1 + recursive_depth(c) for c in sym.children)


def recursive_check_defined(sym, counts):
    """The count of ``sym`` in ``counts`` (by canonical string); raise
    UndefinedInvariant at the first proper sub-symbol, leftmost and
    innermost, whose count there is nonzero."""
    for child in sym.children:
        c = recursive_check_defined(child, counts)
        if c != 0:
            raise UndefinedInvariant(child, c)
    return counts[recursive_canonical(sym)]


def recursive_pruning_count(sym):
    """Prunings of ``sym`` that keep its root."""
    out = 1
    for child in sym.children:
        out *= 1 + recursive_pruning_count(child)
    return out


def recursive_splits(sym):
    """(maximal subtrees of D, ``sym`` minus D) for each set D of nodes that
    is closed under taking children and misses the root."""
    options = [[((c,), None)] + recursive_splits(c) for c in sym.children]
    return [(tuple(chain.from_iterable(inside for inside, _ in combo)),
             Symbol(sym.letter, tuple(rest for _, rest in combo if rest)))
            for combo in product(*options)]


def pruning_symbols(prunings):
    """The Symbol of each pruning of a `linking._Prunings`, None at the empty
    pruning: its letter over the Symbols of its children, by index."""
    out = [None]
    for letter, children in zip(prunings.letters[1:], prunings.children[1:]):
        out.append(Symbol(letter, tuple(map(out.__getitem__, children))))
    return out


def letter_leaf(prunings, letters):
    """The counts of every pruning of a `linking._Prunings` on a sequence of
    Letters, by index, in one pass over them: at a letter, each pruning
    rooted there gains its sign times its children's counts so far."""
    counts = [0] * len(prunings.letters)
    counts[0] = 1
    for gen, sign in letters:
        for i, children in prunings.by_letter.get(gen, ()):
            t = sign
            for c in children:
                t *= counts[c]
            counts[i] += t
    return counts


def recursive_prunings_size(syms, limit):
    """The size that ``linking._Prunings`` reaches on ``syms``: one more
    than the prunings that keep the root, summed over each distinct symbol
    that the splits reach.  None once it passes ``limit``, which is checked
    before the symbol's splits are listed."""
    seen, size = set(), 0

    def add(sym):
        nonlocal size
        key = recursive_canonical(sym)
        if key in seen:
            return True
        seen.add(key)
        size += recursive_pruning_count(sym) + 1
        return size <= limit and all(all(map(add, inside)) and add(rest)
                                     for inside, rest in recursive_splits(sym))

    return size if all(map(add, syms)) else None


# --- canonical forms by recursive AHU encoding ------------------------------


def memo_rooted_encodings(g):
    """The encoding of ``g`` rooted at each vertex, by recursion over the
    tree with one memo entry per directed edge."""
    labels = {v: sym.canonical() for v, sym in g.vertices}
    adj = g.adjacency()
    memo = {}

    def enc(v, parent):
        if (v, parent) not in memo:
            parts = sorted(enc(u, v) for u in adj[v] if u != parent)
            memo[v, parent] = "(" + labels[v] + "|" + "".join(parts) + ")"
        return memo[v, parent]

    return {v: enc(v, None) for v in labels}


def memo_canonical_form(g):
    """``eil.canonical_form`` from ``memo_rooted_encodings``: each edge
    turned to run from the smaller rooted encoding to the larger, the sign
    flipped once per edge turned."""
    rooted = memo_rooted_encodings(g)
    sign = 1
    edges = []
    for t, h in g.edges:
        if rooted[t] > rooted[h]:
            sign = -sign
            t, h = h, t
        edges.append((t, h))
    return min(rooted.values()), sign, SymbolGraph(g.vertices, tuple(edges))


def centre_key(letters, adj):
    """AHU encoding of a letter-labeled tree, given by its letters and
    adjacency lists over vertex positions, rooted at its centre (the
    smaller encoding of the two, for a bicentral tree)."""
    n = len(letters)
    degree = [len(ns) for ns in adj]
    layer = [v for v in range(n) if degree[v] <= 1]
    left = n
    while left > 2:
        left -= len(layer)
        nxt = []
        for v in layer:
            for u in adj[v]:
                degree[u] -= 1
                if degree[u] == 1:
                    nxt.append(u)
        layer = nxt

    def enc(v, parent):
        parts = sorted(enc(u, v) for u in adj[v] if u != parent)
        return f"({letters[v]}{''.join(parts)})"

    return min(enc(c, -1) for c in layer)


# --- distinct-vertex graphs by the Prufer scan -------------------------------


def prufer_scan_graphs(multidegree):
    """Distinct-vertex Eil graphs of the multidegree: the first tree of each
    class in a scan of all k^(k-2) Prufer codes, canonically oriented and
    sorted by encoding."""
    labels = []
    for gen in sorted(multidegree):
        labels.extend([gen] * multidegree[gen])
    k = len(labels)
    seen = {}
    for edges in _prufer_trees(k):
        if any(labels[a] == labels[b] for a, b in edges):
            continue
        vertices = {f"v{i + 1}": Symbol(labels[i]) for i in range(k)}
        g = SymbolGraph.build(
            vertices, [(f"v{a + 1}", f"v{b + 1}") for a, b in edges]
        )
        enc, _, rep = memo_canonical_form(g)
        seen.setdefault(enc, rep)
    return [seen[enc] for enc in sorted(seen)]


# --- the pairing as a sum over bijections ------------------------------------


def _tree_spans(tree):
    """Leaf labels in planar order plus the leaf-index span of each internal
    vertex (spans identify internal vertices uniquely)."""
    leaves = []
    internals = []

    def rec(node):
        if node.is_leaf():
            leaves.append(node.letter)
            return (len(leaves) - 1, len(leaves))
        lo, _ = rec(node.left)
        _, hi = rec(node.right)
        internals.append((lo, hi))
        return (lo, hi)

    rec(tree)
    return leaves, internals


def _gcv(internals, i, j):
    """The deepest internal vertex above leaves i and j."""
    best = None
    for lo, hi in internals:
        if lo <= i < hi and lo <= j < hi:
            if best is None or hi - lo < best[1] - best[0]:
                best = (lo, hi)
    return best


def _pair_assigned(edges, leaf_of_vertex, internals):
    """The pairing under one bijection: each edge maps to the deepest vertex
    above its endpoints' leaves, with sign +1 when the tail's leaf is left
    of the head's; nonzero only if that map is onto the internal vertices."""
    seen = set()
    sign = 1
    for tail, head in edges:
        i, j = leaf_of_vertex[tail], leaf_of_vertex[head]
        span = _gcv(internals, i, j)
        if span in seen:
            return 0
        seen.add(span)
        sign *= 1 if i < j else -1
    if len(seen) != len(internals):
        return 0
    return sign


def bijection_sum_pairing(graph, tree):
    """Sum of the pairing over the label-preserving bijections of graph
    vertices onto tree leaves; zero on multidegree mismatch."""
    leaves, internals = _tree_spans(tree)
    labels = {v: sym.letter for v, sym in graph.vertices}
    if sorted(labels.values()) != sorted(leaves):
        return 0
    by_letter_vertices = {}
    for v, letter in sorted(labels.items()):
        by_letter_vertices.setdefault(letter, []).append(v)
    by_letter_leaves = {}
    for i, letter in enumerate(leaves):
        by_letter_leaves.setdefault(letter, []).append(i)
    letters = sorted(by_letter_vertices)
    total = 0
    for combo in product(*(permutations(by_letter_leaves[l]) for l in letters)):
        leaf_of_vertex = {}
        for letter, perm in zip(letters, combo):
            for v, i in zip(by_letter_vertices[letter], perm):
                leaf_of_vertex[v] = i
        total += _pair_assigned(graph.edges, leaf_of_vertex, internals)
    return total


# --- rational Gauss-Jordan -----------------------------------------------------


def _eliminate(m, rhs):
    """Forward elimination with leftmost pivots; returns pivot columns."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        if rhs is not None:
            rhs[r], rhs[pivot_row] = rhs[pivot_row], rhs[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        if rhs is not None:
            rhs[r] *= inv
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
                if rhs is not None:
                    rhs[i] -= f * rhs[r]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return pivots


def fraction_rank(matrix):
    if not matrix or not matrix[0]:
        return 0
    return len(_eliminate([[Fraction(v) for v in row] for row in matrix], None))


def fraction_solve(matrix, rhs):
    """A particular solution with free variables zero, or InconsistentSystem."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    if rows == 0 or cols == 0:
        if any(Fraction(v) != 0 for v in rhs):
            raise InconsistentSystem("nonzero right-hand side, empty system")
        return [Fraction(0)] * cols
    m = [[Fraction(v) for v in row] for row in matrix]
    b = [Fraction(v) for v in rhs]
    pivots = _eliminate(m, b)
    for i in range(len(pivots), rows):
        if b[i] != 0:
            raise InconsistentSystem(f"residual {b[i]} in row {i}")
    x = [Fraction(0)] * cols
    for r, c in enumerate(pivots):
        x[c] = b[r]
    return x


# --- the rows of ``matrix``, one graph at a time --------------------------------


def dual_graphs(gens, multidegree):
    """The row graphs that ``eil.dual_matrix`` pairs with the Lyndon trees:
    the (3,2) duals of ``eil.DOCUMENTED_DUALS_32`` with a and b standing for
    the generators of counts 3 and 2; when one of two nonzero counts is 1,
    the star that joins each vertex of the other generator to the vertex
    of count 1; otherwise each graph of the Prufer scan whose bijection-sum
    pairing row raises the rank of the rows kept before it."""
    counts = [multidegree[g] for g in gens]
    nonzero = sorted((c, g) for g, c in zip(gens, counts) if c)
    if len(gens) == 2 and counts in ([3, 2], [2, 3]):
        relabel = dict(zip("ab", gens if counts == [3, 2] else gens[::-1]))
        return [SymbolGraph.build(
            {v: Symbol(relabel[s.letter]) for v, s in g.vertices}, list(g.edges))
            for g in map(parse_graph, DOCUMENTED_DUALS_32)]
    if len(nonzero) == 2 and [c for c, _ in nonzero].count(1) == 1:
        (_, center), (n, other) = nonzero
        vertices = ", ".join(f"v{i}:{other}" for i in range(1, n + 1))
        edges = ", ".join(f"v{i}->v{n + 1}" for i in range(1, n + 1))
        return [parse_graph(f"{{{vertices}, v{n + 1}:{center}; {edges}}}")]
    return list(_rank_increasing_graphs(tuple(sorted(nonzero))))


@cache
def _rank_increasing_graphs(nonzero):
    trees = lie.lyndon_trees_of_multidegree({g: c for c, g in nonzero})
    kept, rows = [], []
    for g in prufer_scan_graphs({g: c for c, g in nonzero}):
        row = [bijection_sum_pairing(g, t) for t in trees]
        if fraction_rank(rows + [row]) > len(rows):
            kept.append(g)
            rows.append(row)
    return tuple(kept)


# --- group-ring Fox calculus, reducing each key as it is made ----------------


def _nonzero(terms):
    return {w: c for w, c in terms.items() if c}


def reducing_product(x_terms, y_terms):
    """The terms of a group-ring product, each product of keys freely
    reduced before it is collected."""
    out = {}
    for u, cu in x_terms.items():
        for v, cv in y_terms.items():
            key = free_reduce(u * v)
            out[key] = out.get(key, 0) + cu * cv
    return _nonzero(out)


def reducing_fox_derivative(terms, gen):
    """The terms of a Fox derivative, each prefix freely reduced before it
    is collected."""
    out = {}
    for w, coeff in terms.items():
        for j, letter in enumerate(w):
            if letter.gen != gen:
                continue
            if letter.sign > 0:
                key = free_reduce(w[:j])
                out[key] = out.get(key, 0) + coeff
            else:
                key = free_reduce(w[: j + 1])
                out[key] = out.get(key, 0) - coeff
    return _nonzero(out)


def reducing_iterated_fox(w, seq):
    """The terms of d_{seq} w, last generator first, from the word as given."""
    terms = {w: 1}
    for gen in reversed(seq):
        terms = reducing_fox_derivative(terms, gen)
    return terms


# --- Lie coordinates from the full Magnus table ------------------------------


def full_table_lie_coordinates(w, weight):
    """``lie.lie_coordinates`` with every coefficient of every degree up to
    the weight tabulated, the top degree included."""
    alphabet = sorted(w.generators())
    if not alphabet or weight < 1:
        return lie.LieElement()
    depth = 0
    while depth < weight:
        checked, depth = depth, min(weight, max(1, 2 * depth))
        size = sum(len(alphabet) ** d for d in range(depth + 1))
        if size > lie.MAGNUS_TERM_LIMIT:
            raise TooLarge(f"Magnus table of {size} coefficients")
        monomials, degrees = [(0, "")], [range(1)]
        for d in range(depth):
            monomials += [(p, gen) for p in degrees[d] for gen in alphabet]
            degrees.append(range(degrees[d].stop, len(monomials)))
        c = magnus_coefficients(w, monomials)
        for lower in range(checked + 1, min(depth, weight - 1) + 1):
            for seq, i in zip(product(alphabet, repeat=lower), degrees[lower]):
                if c[i]:
                    raise NotInGamma(seq)
    top = dict(zip(product(alphabet, repeat=weight), degrees[weight]))
    return lie._to_lyndon({l: c[top[l]]
                           for l in duval_lyndon_words(weight, alphabet)},
                          alphabet)


# --- Lyndon words by Duval's generation ----------------------------------------


def duval_lyndon_words(length, alphabet):
    """Lyndon words of exactly the given length over ``alphabet``, in the
    lexicographic order of its order (Duval's generation): increment the
    last letter, extend periodically, drop the trailing largest letters."""
    gens = list(alphabet)
    k = len(gens)
    if k == 0 or length < 1:
        return []
    out = []
    w = [-1]
    while w:
        w[-1] += 1
        if len(w) == length:
            out.append(tuple(gens[i] for i in w))
        m = len(w)
        while len(w) < length:
            w.append(w[len(w) - m])
        while w and w[-1] == k - 1:
            w.pop()
    return out


# --- comma lists by str.split, reductions by rescanning every edge -----------


def split_entries(text):
    """The entries of a comma list with their offsets, by ``str.split``:
    each part stripped, empty parts skipped, any other text an entry."""
    out = []
    position = 0
    for part in text.split(","):
        entry = part.strip()
        if entry:
            out.append((entry, position + part.index(entry)))
        position += len(part) + 1
    return out


def rescanning_reduce_at(g, v):
    """``eil.reduce_at`` by contracting each incident edge, rewriting every
    edge, then scanning every edge of the new graph for one that joins a
    free letter to itself."""
    labels = g.labels
    if v not in labels:
        raise UndefinedReduction(v, "no such vertex")
    incident = [(t, h) for t, h in g.edges if v in (t, h)]
    if not incident:
        raise UndefinedReduction(v, "vertex has no incident edge")
    incident.sort(key=lambda e: _id_key(e[1] if e[0] == v else e[0]))
    out = []
    for t, h in incident:
        u = h if t == v else t
        new_labels = dict(labels)
        del new_labels[v]
        new_labels[u] = Symbol(labels[u].letter, labels[u].children + (labels[v],))
        edges = tuple((u if a == v else a, u if b == v else b)
                      for a, b in g.edges if {a, b} != {v, u})
        for a, b in edges:
            if new_labels[a].letter == new_labels[b].letter:
                raise UndefinedReduction(v, f"edge {a}->{b} joins free letter "
                                            f"{new_labels[a].letter!r} to itself")
        out.append((1 if t == v else -1,
                    SymbolGraph(tuple(new_labels.items()), edges)))
    return out


def rescanning_reduce_full(g, order):
    """``eil.reduce_full`` by chaining ``rescanning_reduce_at`` over every
    graph of every step."""
    if len(order) != len(g.labels) - 1:
        raise UndefinedReduction(",".join(order) or "(empty order)",
                                 f"order must list {len(g.labels) - 1} vertices")
    terms = [(1, g)]
    for v in order:
        terms = [(sign * s, h) for sign, graph in terms
                 for s, h in rescanning_reduce_at(graph, v)]
    out = SymbolSum()
    for sign, graph in terms:
        ((_, sym),) = graph.vertices
        out.add(sign, sym)
    return out


def rescanning_default_order(g):
    """``eil.default_order`` by rescanning every vertex for the leaves at
    each step and taking the least, the first of tied keys."""
    labels = g.labels
    key = {v: (sym.canonical(), _id_key(v)) for v, sym in labels.items()}
    adj = {v: set() for v in labels}
    for t, h in g.edges:
        adj[t].add(h)
        adj[h].add(t)
    last = max(adj, key=lambda v: key[v])
    order = []
    while len(adj) > 1:
        leaves = [v for v, ns in adj.items() if len(ns) <= 1 and v != last]
        v = min(leaves, key=lambda w: key[w])
        order.append(v)
        for n in adj.pop(v):
            adj[n].discard(v)
    return order
