"""Symbol graphs and Eil graphs: reduction to symbols, canonical forms,
and the distinct-vertex spanning computation.

A symbol graph is an oriented labeled tree whose edge endpoints carry
distinct free letters.  Eil graphs are the depth-zero-labeled case; the
ambient graph model additionally admits homogeneous edges (equal labels at
an edge), which are accepted only by the ``ambient`` entry points and are
what ``distinct_reduce`` eliminates.  Reduction contracts, in place, the
edges of one vertex of an order at a time in each term, so a leaf step
costs only the edges it moves; a branching step copies its term for each
edge but the last.

Canonical forms treat edge reversal as a sign: the encoding depends only
on the underlying undirected labeled tree, each edge gets an intrinsic
canonical direction (from the endpoint with the smaller whole-tree rooted
encoding to the larger), and the sign is (-1) to the number of edges whose
actual direction disagrees.  An edge whose two rooted encodings coincide
(possible only for homogeneous edges) contributes no flip; such graphs
equal their own negatives and pair to zero with everything.  A
``GraphSum`` is a ``symbols.FormalSum`` keyed by the encoding: it keeps
the first canonically oriented representative of each class, and two sums
are equal when their coefficients are, whatever the vertex ids.

The distinct-vertex graphs of a multidegree are grown a leaf at a time,
one tree per class, and each class is printed as the first of its trees
in a scan of all Prufer codes (see ``enumerate_distinct_vertex_graphs``);
``distinct_reduce`` solves over them by fraction-free elimination, and
``dual_graphs`` picks the rows that the ``matrix`` command pairs with the
Lyndon basis.  The graphs and their encodings, the Lyndon trees, the
pairing of each graph with each tree and the elimination of that pairing
system depend only on the multidegree, so they are built once per
multidegree per process (``distinct_basis``), kept in a bounded cache and
shared by ``distinct``, ``matrix`` and selfcheck.  ``distinct_reduce``
then pairs only its input graph and back-substitutes; ``dual_graphs`` and
``dual_matrix`` read the pivots.  A one-shot process gains nothing: it
still builds and eliminates its multidegree once.
"""

from __future__ import annotations

import heapq
import re
import threading
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, permutations, product
from typing import NamedTuple

from .errors import (
    InvalidArgument,
    InvalidEdge,
    InvalidMultidegree,
    NotATree,
    ParseError,
    TooLarge,
    UndefinedReduction,
)
from .lie import (BracketTree, _multidegree_key, _root_at_zero,
                  lyndon_trees_of_multidegree, pairing_matrix)
from .linalg import Elimination, back_substitute, eliminate
from .symbols import FormalSum, Symbol, SymbolSum, _read_symbol
from .words import LENGTH_LIMIT, Scanner, Word, _read_sum

# most vertices of a graph that the distinct-vertex computations accept
DISTINCT_VERTEX_LIMIT = 7

# the two documented dual graphs of the weight-5 multidegree (3,2) of F_2,
# in the documented row order; those of (2,3) are these with a and b swapped
DOCUMENTED_DUALS_32 = (
    "{v1:b, v2:a, v3:b, v4:a, v5:a; v1->v2, v2->v3, v3->v4, v5->v3}",
    "{v1:a, v2:b, v3:a, v4:b, v5:a; v1->v2, v2->v3, v3->v4, v4->v5}",
)


@dataclass(frozen=True)
class SymbolGraph:
    vertices: tuple[tuple[str, Symbol], ...]  # (id, label), id-sorted
    edges: tuple[tuple[str, str], ...]        # (tail id, head id)

    @classmethod
    def build(cls, vertices: dict[str, Symbol],
              edges: list[tuple[str, str]],
              ambient: bool = False) -> "SymbolGraph":
        g = cls(tuple(sorted(vertices.items(), key=lambda kv: _id_key(kv[0]))),
                tuple(edges))
        g.validate(ambient=ambient)
        return g

    @property
    def labels(self) -> dict[str, Symbol]:
        return dict(self.vertices)

    def ids(self) -> list[str]:
        return [v for v, _ in self.vertices]

    def adjacency(self) -> dict[str, dict[str, int]]:
        """Each vertex, in id order, with its neighbours in edge order, each
        mapped to the index of the edge that joins them."""
        adj: dict[str, dict[str, int]] = {v: {} for v in self.ids()}
        for i, (t, h) in enumerate(self.edges):
            adj[t][h] = adj[h][t] = i
        return adj

    def validate(self, ambient: bool = False) -> None:
        labels = self.labels
        if not labels:
            raise NotATree("graph has no vertices")
        for t, h in self.edges:
            if t not in labels or h not in labels:
                raise InvalidArgument(f"edge endpoint {t if t not in labels else h!r}"
                                      " is not a declared vertex")
        if len(self.edges) != len(labels) - 1:
            raise NotATree(f"{len(self.edges)} edges on {len(labels)} vertices")
        adj = self.adjacency()
        stack = [next(iter(adj))]
        while stack:   # a vertex's neighbours, the first time it is reached
            stack.extend(adj.pop(stack.pop(), ()))
        if adj:
            raise NotATree("graph is not connected")
        if not ambient:
            for t, h in self.edges:
                if labels[t].letter == labels[h].letter:
                    raise InvalidEdge(f"edge {t}->{h} joins free letter "
                                      f"{labels[t].letter!r} to itself")
        else:
            for v, sym in labels.items():
                if sym.children:
                    raise InvalidEdge(f"ambient graphs need letter labels; {v} has {sym}")

    def multidegree(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for _, sym in self.vertices:
            for node in sym.postorder():
                out[node.letter] = out.get(node.letter, 0) + 1
        return out

    def __str__(self) -> str:
        vs = ", ".join(f"{v}:{sym}" for v, sym in self.vertices)
        if not self.edges:
            return "{" + vs + "}"
        es = ", ".join(f"{t}->{h}" for t, h in self.edges)
        return "{" + vs + "; " + es + "}"


_ID_RE = re.compile(r"([a-zA-Z_]+)([0-9]+)")


def _id_key(vid: str):
    m = _ID_RE.fullmatch(vid)
    if m:
        return (m.group(1), int(m.group(2)))
    return (vid, -1)


_VERTEX_ID_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*")


def parse_graph(text: str, ambient: bool = False) -> SymbolGraph:
    """Parse ``{ v1:label, v2:label ; v1->v2, ... }`` into a validated graph.

    Empty entries are skipped.  A ParseError gives the position in ``text``
    of the offending entry, or of the offending part of it.
    """
    sc = Scanner(text)
    vertices, edges = _read_graph(sc)
    if sc.char:
        sc.fail("end of input")
    return SymbolGraph.build(vertices, edges, ambient=ambient)


def parse_graph_sum(text: str) -> "GraphSum":
    """Parse ``[+|-] [coeff *] graph``, then terms each after ``+`` or ``-``,
    with coefficients as in ``lie.parse_lie``; each graph is validated, as
    by ``parse_graph`` in the ambient model that the pairing reads, as soon
    as it is read."""
    out = GraphSum()
    for coeff, graph in _read_sum(Scanner(text), lambda sc: SymbolGraph.build(
            *_read_graph(sc), ambient=True)):
        out.add(coeff, graph)
    return out


def _read_graph(sc: Scanner) -> tuple[dict[str, Symbol], list[tuple[str, str]]]:
    if not sc.take("{"):
        sc.fail("'{'", "graph must be enclosed in braces")
    vertices: dict[str, Symbol] = {}
    for start in sc.entries(";}"):
        vid = sc.match(_VERTEX_ID_RE)
        if vid is None:
            sc.fail("vertex id", "bad vertex id")
        if not sc.take(":"):
            raise ParseError(f"vertex entry {vid!r} lacks ':'", start)
        if vid in vertices:
            raise ParseError(f"duplicate vertex id {vid!r}", start)
        vertices[vid] = _read_symbol(sc, ",;}")
    edges: list[tuple[str, str]] = []
    if sc.take(";"):
        for start in sc.entries("}"):
            tail = sc.match(_VERTEX_ID_RE)
            arrow = tail is not None and sc.take("->")
            head_pos = sc.pos
            head = sc.match(_VERTEX_ID_RE) if arrow else None
            if head is None or sc.char not in ",}":
                raise ParseError("bad edge", start, expected="'v->w'")
            for vid, pos in ((tail, start), (head, head_pos)):
                if vid not in vertices:
                    raise ParseError(f"edge endpoint {vid!r} is not a "
                                     "declared vertex", pos)
            edges.append((tail, head))
    sc.expect("}")
    return vertices, edges


# --- reduction -----------------------------------------------------------


def _contract(labels: dict[str, Symbol], adj: dict[str, dict[str, int]],
              edges: list[tuple[str, str] | None], v: str, u: str) -> None:
    """Contract, in place, the edge between v and u into u, labelled
    (label_v) label_u.  Only v's other edges change: they move to u, and
    the first in edge order that would join u's free letter to itself makes
    the step undefined before anything changes."""
    letter = labels[u].letter
    merged = Symbol(letter, labels[u].children + (labels[v],))
    moved = adj[v]
    bad = [i for w, i in moved.items() if w != u and labels[w].letter == letter]
    if bad:
        t, h = (u if x == v else x for x in edges[min(bad)])
        raise UndefinedReduction(v, f"edge {t}->{h} joins free letter "
                                    f"{letter!r} to itself")
    del labels[v], adj[v], adj[u][v]
    labels[u] = merged
    edges[moved.pop(u)] = None
    for w, i in moved.items():
        adj[w][u] = adj[w].pop(v)
        adj[u][w] = i
        edges[i] = tuple(u if x == v else x for x in edges[i])


def _reduce_step(terms: list[tuple], v: str) -> list[tuple]:
    """``reduce_at`` on each term ``(sign, labels in id order, adjacency,
    edges with None at each contracted edge)``, neighbours sorted by
    ``_id_key`` and then by edge.  Each contraction copies its term but the
    term's last, which works in place, so a leaf step copies nothing."""
    out = []
    for sign, labels, adj, edges in terms:
        if v not in labels:
            raise UndefinedReduction(v, "no such vertex")
        if not adj[v]:
            raise UndefinedReduction(v, "vertex has no incident edge")
        steps = sorted(adj[v].items(), key=lambda e: (_id_key(e[0]), e[1]))
        for k, (u, i) in enumerate(steps, 1):
            term = (labels, adj, edges) if k == len(steps) else (
                dict(labels), {w: dict(ns) for w, ns in adj.items()}, list(edges))
            s = sign if edges[i][0] == v else -sign
            _contract(*term, v, u)
            out.append((s, *term))
    return out


def reduce_at(g: SymbolGraph, v: str) -> list[tuple[int, SymbolGraph]]:
    """One reduction step: signed edge contractions at ``v``.

    The sign is +1 for an edge oriented away from v, -1 towards it; each
    contraction labels the merged vertex (label_v) label_other.
    """
    terms = _reduce_step([(1, g.labels, g.adjacency(), list(g.edges))], v)
    return [(sign, SymbolGraph(tuple(labels.items()), tuple(filter(None, edges))))
            for sign, labels, _, edges in terms]


def reduce_full(g: SymbolGraph, order: list[str]) -> SymbolSum:
    """Compose reductions over ``order`` (all vertices but one) down to a
    signed sum of symbols."""
    if len(order) != len(g.vertices) - 1:
        raise UndefinedReduction(",".join(order) or "(empty order)",
                                 f"order must list {len(g.vertices) - 1} vertices")
    terms = [(1, g.labels, g.adjacency(), list(g.edges))]
    for v in order:
        terms = _reduce_step(terms, v)
    out = SymbolSum()
    for sign, labels, _, _ in terms:
        out.add(sign, *labels.values())   # the one label left
    return out


def default_order(g: SymbolGraph) -> list[str]:
    """Deterministic valid order: repeatedly take the smallest-keyed leaf,
    never the designated last vertex (largest key).  Leaves wait in a heap,
    and equal keys (``v1`` and ``v01`` with one label) go in ``g.vertices``
    order, as ``min`` and ``max`` take them.  Leaf steps are always valid
    on a valid symbol graph."""
    adj = g.adjacency()
    key = {v: (s.canonical(), _id_key(v), i) for i, (v, s) in enumerate(g.vertices)}
    last = max(adj, key=lambda v: key[v][:2])
    heap = [(key[v], v) for v, ns in adj.items() if len(ns) <= 1 and v != last]
    heapq.heapify(heap)
    order = []
    while heap:
        v = heapq.heappop(heap)[1]
        order.append(v)
        (u,) = adj.pop(v)
        del adj[u][v]
        if len(adj[u]) == 1 and u != last:
            heapq.heappush(heap, (key[u], u))
    return order


def graph_of_symbol(sym: Symbol) -> tuple[SymbolGraph, list[str]]:
    """The letter-labeled graph encoding the containment poset, its vertices
    numbered in post-order, and the order reducing back to +1 times the
    symbol: every vertex but the root, which is last."""
    vertices: dict[str, Symbol] = {}
    edges: list[tuple[str, str]] = []

    def make(node: Symbol, child_ids: list[str]) -> str:
        vid = f"v{len(vertices) + 1}"
        vertices[vid] = Symbol(node.letter)
        edges.extend((cid, vid) for cid in child_ids)
        return vid

    sym.fold(make)
    return SymbolGraph.build(vertices, edges), list(vertices)[:-1]


def eval_graph(g: SymbolGraph, w: Word) -> Fraction:
    """Reduce along the default order, then evaluate the symbol sum."""
    from . import linking
    return linking.eval_symbol_sum(reduce_full(g, default_order(g)), w)


# --- canonical forms -----------------------------------------------------


def _rooted_encodings(labels, adj: list[list[int]]) -> list[str]:
    """The encoding ``(label|children...)``, children's encodings sorted, of
    the tree with ``labels`` and adjacency lists ``adj`` over vertex
    positions, rooted at each vertex.  One pass up a breadth-first order
    encodes the subtree below each vertex; one pass down encodes, for each
    vertex, the rest of the tree as seen from it."""
    n = len(adj)
    parent, order = _root_at_zero(adj)
    below, above, rooted = [""] * n, [""] * n, [""] * n
    for v in reversed(order):
        parts = sorted(below[u] for u in adj[v] if u != parent[v])
        below[v] = f"({labels[v]}|{''.join(parts)})"
    for v in order:
        parts = sorted(above[v] if u == parent[v] else below[u] for u in adj[v])
        rooted[v] = f"({labels[v]}|{''.join(parts)})"
        for u in adj[v]:
            if u != parent[v]:   # the tree rooted at v, without u's subtree
                rest = parts.copy()
                rest.remove(below[u])
                above[u] = f"({labels[v]}|{''.join(rest)})"
    return rooted


def canonical_form(g: SymbolGraph) -> tuple[str, int, SymbolGraph]:
    """(encoding, sign, canonically oriented representative).

    The encoding ignores orientation; the sign records how many edges had
    to be flipped to reach the canonical orientation.
    """
    ids = g.ids()
    index = {v: i for i, v in enumerate(ids)}
    rooted = dict(zip(ids, _rooted_encodings(
        [sym.canonical() for _, sym in g.vertices],
        [[index[u] for u in ns] for ns in g.adjacency().values()])))
    encoding = min(rooted.values())
    sign = 1
    new_edges = []
    for t, h in g.edges:
        if rooted[t] > rooted[h]:
            sign = -sign
            new_edges.append((h, t))
        else:
            # equal rooted encodings: symmetric homogeneous edge, keep as is
            new_edges.append((t, h))
    rep = SymbolGraph(g.vertices, tuple(new_edges))
    return encoding, sign, rep


class GraphSum(FormalSum):
    """Combination of graphs, keyed by ``canonical_form``: a graph adds its
    coefficient times its sign."""

    def _normalize(self, graph: SymbolGraph) -> tuple[str, int, SymbolGraph]:
        return canonical_form(graph)

    def __str__(self) -> str:
        return " + ".join(f"{c} * {g}" for c, g in self.items()) or "0"


# --- distinct-vertex spanning --------------------------------------------


def _prufer_decode(k: int, seq) -> list[tuple[int, int]]:
    """Edge list of the labeled tree on 0..k-1 with Prufer code ``seq``, in
    the order the smallest leaves are removed."""
    degree = [1] * k
    for x in seq:
        degree[x] += 1
    edges = []
    leaves = [i for i in range(k) if degree[i] == 1]
    heapq.heapify(leaves)
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    return edges + [(heapq.heappop(leaves), heapq.heappop(leaves))]


def _prufer_trees(k: int):
    """Edge lists of all labeled trees on vertices 0..k-1, via Prufer codes."""
    if k == 1:
        yield []
        return
    for seq in product(range(k), repeat=k - 2):
        yield _prufer_decode(k, seq)


def _distinct_vertex_classes(counts: list[int]):
    """One letter-labeled tree per isomorphism class of trees with
    ``counts[i]`` vertices of letter i and no edge joining equal letters.

    Grown one leaf at a time: removing a leaf from such a tree leaves such a
    tree with one vertex fewer, so attaching every admissible leaf to one
    tree of each smaller class reaches every class; each level keeps the
    first tree of each class, keyed by its least rooted encoding.  Trees
    are (letters, adjacency lists).
    """
    level = [((x,), [[]]) for x, c in enumerate(counts) if c]
    for n in range(1, sum(counts)):
        grown: dict[str, tuple] = {}
        for letters, adj in level:
            for x, c in enumerate(counts):
                if letters.count(x) == c:
                    continue
                for u in range(n):
                    if letters[u] == x:
                        continue
                    new_adj = [list(ns) for ns in adj] + [[u]]
                    new_adj[u].append(n)
                    new_letters = letters + (x,)
                    grown.setdefault(min(_rooted_encodings(new_letters, new_adj)),
                                     (new_letters, new_adj))
        level = list(grown.values())
    return level


def _first_prufer_edges(letters: tuple[int, ...], adj: list[list[int]],
                        start: list[int]) -> list[tuple[int, int]]:
    """Edges, in decoding order, of the tree with the smallest Prufer code
    among the relabelings onto 0..k-1 that send each vertex of letter i
    into ``range(start[i], start[i + 1])``: the first tree of this class
    in a scan of all Prufer codes."""
    k = len(letters)
    if k == 1:
        return []
    order = [v for x in range(len(start) - 1) for v in range(k) if letters[v] == x]
    edges = [(v, u) for v in range(k) for u in adj[v] if v < u]
    best = None
    for images in product(*(permutations(range(start[x], start[x + 1]))
                            for x in range(len(start) - 1))):
        label = [0] * k
        for v, i in zip(order, chain.from_iterable(images)):
            label[v] = i
        # Prufer code by leaf removal: a removed vertex gets degree 0, and
        # a leaf's one neighbour is the XOR of its remaining neighbours
        degree = [0] * k
        xor = [0] * k
        for a, b in edges:
            a, b = label[a], label[b]
            degree[a] += 1
            degree[b] += 1
            xor[a] ^= b
            xor[b] ^= a
        code = []
        tied = best is not None   # stop once the code is past the best
        for i in range(k - 2):
            leaf = degree.index(1)
            x = xor[leaf]
            if tied and x != best[i]:
                if x > best[i]:
                    break
                tied = False
            code.append(x)
            degree[leaf] = 0
            degree[x] -= 1
            xor[x] ^= leaf
        else:
            if not tied:
                best = code
    return _prufer_decode(k, best)


def _distinct_vertex_key(multidegree: dict[str, int]) -> tuple[tuple[str, int], ...]:
    """The multidegree as sorted (generator, count) pairs without the zero
    counts, once it is known to be one the distinct-vertex computations
    accept."""
    key = _multidegree_key(multidegree)
    k = sum(c for _, c in key)
    if k > DISTINCT_VERTEX_LIMIT:
        raise TooLarge(f"{k} vertices exceeds bound {DISTINCT_VERTEX_LIMIT}")
    return key


def enumerate_distinct_vertex_graphs(multidegree: dict[str, int]) -> list[SymbolGraph]:
    """All distinct-vertex Eil graphs of the given label multiset, one
    canonical orientation per isomorphism class, sorted by encoding.

    Classes are grown directly, a leaf at a time.  Vertices v1..vk carry
    the labels in sorted order, and each class is represented by the tree
    of the smallest Prufer code among its label-preserving relabelings,
    with its edges in decoding order and oriented by ``canonical_form``:
    the first tree of the class in a scan of all k^(k-2) codes.
    """
    forms = _distinct_vertex_forms(_distinct_vertex_key(multidegree))
    return [graph for _, graph in forms]


def _distinct_vertex_forms(key) -> list[tuple[str, SymbolGraph]]:
    """(encoding, graph) of each distinct-vertex graph of a checked
    multidegree key, sorted by encoding."""
    counts = [c for _, c in key]
    start = [0, *accumulate(counts)]
    labels = [gen for gen, c in key for _ in range(c)]
    vertices = {f"v{i + 1}": Symbol(gen) for i, gen in enumerate(labels)}
    forms = []
    for letters, adj in _distinct_vertex_classes(counts):
        edges = _first_prufer_edges(letters, adj, start)
        encoding, _, graph = canonical_form(SymbolGraph.build(
            vertices, [(f"v{a + 1}", f"v{b + 1}") for a, b in edges]))
        forms.append((encoding, graph))
    return sorted(forms, key=lambda form: form[0])


# most cells (see ``_cells``) that the kept bases hold together: (3,2,2)
# has 153 graphs and 30 trees, seven distinct letters 16807 and 720
BASIS_CELL_LIMIT = 1 << 16


class DistinctBasis(NamedTuple):
    """What ``distinct_reduce`` and ``dual_graphs`` need of a multidegree
    but the input's own row: the distinct-vertex graphs and their canonical
    encodings, sorted by encoding; the Lyndon trees; ``rows[i][j]``, the
    pairing of graph i with tree j; and the elimination of the trees x
    graphs system, whose pivots are the rank-increasing graphs."""

    graphs: tuple[SymbolGraph, ...]
    encodings: tuple[str, ...]
    trees: tuple[BracketTree, ...]
    rows: tuple[tuple[int, ...], ...]
    elimination: Elimination


# normalized multidegree -> basis, least recently used first
_bases: dict[tuple[tuple[str, int], ...], DistinctBasis] = {}
_bases_lock = threading.Lock()


def distinct_basis(multidegree: dict[str, int]) -> DistinctBasis:
    """The basis of a multidegree, built once and kept for later calls in
    this process, keyed by the multidegree without its zero counts.  This
    is the only function that reads or writes the kept bases.

    The multidegree is validated on every call, so an error is never kept.
    The least recently used bases are dropped once the kept ones hold more
    than ``BASIS_CELL_LIMIT`` cells, and a basis larger than that is not
    kept at all.
    """
    key = _distinct_vertex_key(multidegree)
    with _bases_lock:
        basis = _bases.pop(key, None)
        if basis is not None:
            _bases[key] = basis
            return basis
    forms = _distinct_vertex_forms(key)
    encodings = tuple(encoding for encoding, _ in forms)
    graphs = tuple(graph for _, graph in forms)
    trees = tuple(lyndon_trees_of_multidegree(dict(key)))
    rows = tuple(map(tuple, pairing_matrix(graphs, trees)))
    basis = DistinctBasis(graphs, encodings, trees, rows, eliminate(zip(*rows)))
    cells = _cells(basis)
    if cells <= BASIS_CELL_LIMIT:
        with _bases_lock:
            _bases.pop(key, None)   # another thread may have built it too
            held = sum(map(_cells, _bases.values()))
            while held + cells > BASIS_CELL_LIMIT:
                held -= _cells(_bases.pop(next(iter(_bases))))
            _bases[key] = basis
    return basis


def _cells(basis: DistinctBasis) -> int:
    """The size of a basis: one cell per graph and tree pair, two per graph
    (it and its encoding), one per entry of the elimination's transform and
    pivot block, and one for the basis itself."""
    e = basis.elimination
    return (len(basis.graphs) * (len(basis.trees) + 2)
            + len(e.transform) ** 2 + e.rank ** 2 + 1)


def distinct_reduce(g: SymbolGraph) -> GraphSum:
    """Rewrite an Eil graph (homogeneous edges allowed) as a rational
    combination of distinct-vertex graphs with the same functional.

    Solved exactly against the basis of bracket trees of the multidegree:
    the output pairs equally with every such tree.
    """
    g.validate(ambient=True)
    basis = distinct_basis(g.multidegree())
    (rhs,) = pairing_matrix([g], basis.trees)
    out = GraphSum()
    for c, encoding, h in zip(back_substitute(basis.elimination, rhs),
                              basis.encodings, basis.graphs):
        if c:   # the basis graphs are canonical and pairwise distinct
            out.terms[encoding] = c
            out.reps[encoding] = h
    return out


def dual_graphs(gens: list[str], multidegree: dict[str, int]) -> list[SymbolGraph]:
    """Row graphs of the ``matrix`` command, paired with the Lyndon trees of
    ``multidegree``: the documented duals for the two-generator weight-5
    block shapes (the (3,2) texts, a and b standing for the counts 3 and
    2), the star graph when one of two nonzero counts is 1, and otherwise
    the rank-increasing rows of the distinct-vertex enumeration."""
    fixed = _fixed_duals(gens, multidegree)
    if fixed is not None:
        return fixed
    basis = distinct_basis(multidegree)
    return [basis.graphs[i] for i in basis.elimination.pivots]


def dual_matrix(gens: list[str], multidegree: dict[str, int]) -> list[list[int]]:
    """What the ``matrix`` command prints: the pairing of ``dual_graphs``
    with the Lyndon trees of ``multidegree``.  The documented duals and the
    star graph are paired here; rank-increasing rows are read from the
    basis, which holds them already."""
    fixed = _fixed_duals(gens, multidegree)
    if fixed is not None:
        return pairing_matrix(fixed, lyndon_trees_of_multidegree(multidegree))
    basis = distinct_basis(multidegree)
    return [list(basis.rows[i]) for i in basis.elimination.pivots]


def _fixed_duals(gens: list[str], multidegree: dict[str, int]) -> list[SymbolGraph] | None:
    """The documented duals or the star graph where ``dual_graphs`` takes
    them, else None.  A star of more than ``words.LENGTH_LIMIT`` vertices,
    the bound ``lie.lyndon_words`` puts on the same weight, is refused with
    TooLarge before any vertex is built.  Refuses ``gens`` unless it lists
    each generator of the multidegree once, those of count 0 included, and
    nothing else."""
    _multidegree_key(multidegree)   # refuses a malformed multidegree
    if (not all(type(g) is str for g in gens)
            or sorted(gens) != sorted(multidegree)):
        raise InvalidMultidegree(
            f"gens {list(gens)} do not list the multidegree's generators once each")
    counts = [multidegree[g] for g in gens]
    if len(gens) == 2 and counts in ([3, 2], [2, 3]):
        relabel = dict(zip("ab", gens if counts == [3, 2] else gens[::-1]))
        rows = []
        for text in DOCUMENTED_DUALS_32:
            g = parse_graph(text)
            rows.append(SymbolGraph.build(
                {v: Symbol(relabel[s.letter]) for v, s in g.vertices},
                list(g.edges)))
        return rows
    singles = [g for g in gens if multidegree[g] == 1]
    if len(singles) == 1 and len([g for g in gens if multidegree[g] > 0]) == 2:
        center = singles[0]
        (other,) = [g for g in gens if multidegree[g] > 0 and g != center]
        n = multidegree[other]
        if n + 1 > LENGTH_LIMIT:
            raise TooLarge(f"a star of {n + 1} vertices exceeds bound {LENGTH_LIMIT}")
        vertices = {f"v{i + 1}": Symbol(other) for i in range(n)}
        vertices[f"v{n + 1}"] = Symbol(center)
        return [SymbolGraph.build(
            vertices, [(f"v{i + 1}", f"v{n + 1}") for i in range(n)])]
    return None
