import json
import random
import sys
import threading
from fractions import Fraction
from itertools import permutations, product
from math import factorial

import brute_force
import pytest
from brute_force import (centre_key, fraction_rank, memo_canonical_form,
                         prufer_scan_graphs, rescanning_default_order,
                         rescanning_reduce_at, rescanning_reduce_full)
from hypothesis import given, settings, strategies as st

from letterlink import (
    GraphSum,
    InvalidArgument,
    InvalidEdge,
    InvalidMultidegree,
    NotATree,
    ParseError,
    Symbol,
    TooLarge,
    UndefinedReduction,
    default_order,
    distinct_reduce,
    enumerate_distinct_vertex_graphs,
    eval_graph,
    eval_symbol,
    extended_pairing,
    graph_of_symbol,
    parse_graph,
    parse_symbol,
    parse_word,
    reduce_at,
    reduce_full,
)
from letterlink import eil
from letterlink.eil import (DOCUMENTED_DUALS_32, SymbolGraph, _prufer_decode,
                            _prufer_trees, _rooted_encodings, canonical_form)
from letterlink.lie import lyndon_trees_of_multidegree, pairing_matrix
from letterlink.cli import main
from letterlink.words import NESTING_LIMIT


class TestParse:
    def test_basic(self):
        g = parse_graph("{v1:a, v2:b, v3:a ; v1->v2, v3->v2}")
        assert g.labels["v1"].letter == "a"
        assert g.edges == (("v1", "v2"), ("v3", "v2"))

    def test_homogeneous_edge_rejected(self):
        with pytest.raises(InvalidEdge):
            parse_graph("{v1:a, v2:a ; v1->v2}")

    def test_homogeneous_edge_ambient(self):
        g = parse_graph("{v1:a, v2:a ; v1->v2}", ambient=True)
        assert len(g.edges) == 1

    def test_single_vertex(self):
        g = parse_graph("{v1:a}")
        assert g.edges == ()

    def test_symbol_labels(self):
        g = parse_graph("{v1:(a)b, v2:c ; v1->v2}")
        assert g.labels["v1"].canonical() == "(a)b"

    def test_deeply_nested_label_fails_at_the_first_bracket_past_the_limit(self):
        with pytest.raises(ParseError) as err:
            parse_graph("{v1:" + "(" * 5000 + "a" + ")b" * 5000 + "}")
        assert err.value.position == len("{v1:") + NESTING_LIMIT

    def test_cycle_rejected(self):
        with pytest.raises(NotATree):
            parse_graph("{v1:a, v2:b ; v1->v2, v2->v1}")

    def test_disconnected_rejected(self):
        with pytest.raises(NotATree):
            parse_graph("{v1:a, v2:b ;}")

    @pytest.mark.parametrize("text, culprit", [
        ("{v1:a, 2v:b; v1->v2}", "2v:b"),          # bad vertex id
        ("{v1:a, v2 b; v1->v2}", "v2 b"),          # missing ':'
        ("{v1:a, v2:b; v1-v2}", "v1-v2"),          # bad edge
        ("{v1:a, v2:b;  v1->v3}", "v3}"),          # undeclared endpoint
        ("  {v1:a, v1:b; v1->v1}", "v1:b"),        # duplicate id
        ("{v1:a, v2: (a)b c; v1->v2}", "c;"),      # bad label, inside it
        ("v1:a}", "v1:a}"),
    ])
    def test_error_position_is_the_offending_entry(self, text, culprit):
        with pytest.raises(ParseError) as info:
            parse_graph(text)
        assert text[info.value.position:].startswith(culprit)

    @pytest.mark.parametrize("build, message", [
        (lambda: SymbolGraph.build({}, []), "graph has no vertices"),
        (lambda: parse_graph("{v1:a, v2:b, v3:c; v1->v2, v2->v1}"),
         "graph is not connected"),
    ], ids=["empty", "disconnected"])
    def test_a_graph_that_is_not_a_tree_names_why(self, build, message):
        with pytest.raises(NotATree) as info:
            build()
        assert str(info.value) == message

    def test_build_rejects_an_undeclared_endpoint_without_a_position(self):
        with pytest.raises(InvalidArgument):
            SymbolGraph.build({"v1": Symbol("a")}, [("v1", "v2")])

    def test_graph_sum(self):
        edge = parse_graph("{v1:a, v2:b; v1->v2}")
        total = eil.parse_graph_sum(
            " 1 / 2 * {v1:a,v2:b; v1->v2} - {v2:b, v1:a; v2 -> v1}+0.5*{v1:a}")
        expected = GraphSum().add(Fraction(3, 2), edge)
        expected.add(Fraction(1, 2), parse_graph("{v1:a}"))
        assert total.terms == expected.terms

    def test_graph_sums_are_equal_whatever_the_vertex_ids(self):
        left = GraphSum().add(2, parse_graph("{v1:a, v2:b, v3:c; v1->v2, v2->v3}"))
        right = GraphSum().add(2, parse_graph("{v7:b, v8:a, v9:c; v8->v7, v7->v9}"))
        assert left.reps != right.reps
        assert left == right and str(left) != str(right)
        flipped = parse_graph("{v1:a, v2:b, v3:c; v2->v1, v2->v3}")
        assert left == GraphSum().add(-2, flipped) != GraphSum().add(2, flipped)


class TestReduce:
    def test_reduce_at_middle(self):
        g = parse_graph("{v1:a, v2:b, v3:c; v1->v2, v2->v3}")
        terms = reduce_at(g, "v2")
        assert len(terms) == 2
        results = {(s, str(graph.labels["v1"]), str(graph.labels.get("v3", "")))
                   for s, graph in terms}
        assert (-1, "(b)a", "c") in results
        assert (1, "a", "(b)c") in results

    def test_single_edge(self):
        g = parse_graph("{v1:a, v2:b; v1->v2}")
        ((sign, graph),) = reduce_at(g, "v1")
        assert sign == 1
        assert graph.labels["v2"].canonical() == "(a)b"

    def test_isolated_vertex(self):
        with pytest.raises(UndefinedReduction):
            reduce_at(parse_graph("{v1:a}"), "v1")

    def test_reduce_full_order_ba(self):
        g = parse_graph("{v1:a, v2:b, v3:c; v1->v2, v2->v3}")
        total = reduce_full(g, ["v2", "v1"])
        assert total.terms == {
            "((b)a)c": Fraction(-1),
            "(a)(b)c": Fraction(1),
        }

    def test_reduce_full_order_ac(self):
        g = parse_graph("{v1:a, v2:b, v3:c; v1->v2, v2->v3}")
        total = reduce_full(g, ["v1", "v3"])
        assert total.terms == {"(a)(c)b": Fraction(-1)}

    def test_single_vertex_empty_order(self):
        g = parse_graph("{v1:(a)b}")
        total = reduce_full(g, [])
        assert total.terms == {"(a)b": Fraction(1)}

    def test_undefined_reduction(self):
        # contracting at the middle of b->a->b forces a b--b edge
        g = parse_graph("{v1:b, v2:a, v3:b; v1->v2, v2->v3}")
        with pytest.raises(UndefinedReduction):
            reduce_full(g, ["v2", "v1"])
        # leaf-first orders stay valid on the same graph
        assert len(reduce_full(g, ["v1", "v2"])) == 1

    def test_the_first_moved_edge_that_joins_a_letter_to_itself(self):
        g = parse_graph("{v1:b, v2:a, v3:b, v4:c, v5:b; "
                        "v1->v2, v4->v2, v2->v3, v5->v2}")
        with pytest.raises(UndefinedReduction,
                           match="edge v1->v3 joins free letter 'b' to itself$"):
            reduce_at(g, "v2")


    @pytest.mark.parametrize("call, message", [
        (lambda g: eval_graph(None, parse_word("[a,b]")),
         "graph of type NoneType, not SymbolGraph"),
        (lambda g: eval_graph(str(g), parse_word("[a,b]")),
         "graph of type str, not SymbolGraph"),
        (lambda g: reduce_at(None, "v1"), "graph of type NoneType, not SymbolGraph"),
        (lambda g: default_order(None), "graph of type NoneType, not SymbolGraph"),
        (lambda g: reduce_full(None, []), "graph of type NoneType, not SymbolGraph"),
        (lambda g: reduce_full(g, None), "order of type NoneType, not a list of vertex ids"),
        (lambda g: reduce_full(g, "v1"), "order of type str, not a list of vertex ids"),
        (lambda g: reduce_full(g, [1]), "vertex id of type int, not str"),
        (lambda g: reduce_at(g, ["v1"]), "vertex id of type list, not str"),
    ], ids=["eval_graph", "eval_graph_text", "reduce_at", "default_order",
            "reduce_full", "no_order", "order_text", "int_vertex", "list_vertex"])
    def test_a_graph_or_order_of_another_type_is_refused(self, call, message):
        with pytest.raises(InvalidArgument) as err:
            call(parse_graph("{v1:a, v2:b; v1->v2}"))
        assert str(err.value) == message


# symbol labels by free letter, for graphs whose edges join distinct letters
SYMBOL_LABELS = {"a": ["a", "(b)a", "(c)(b)a", "((a)b)a"],
                 "b": ["b", "(a)b", "((c)a)b"],
                 "c": ["c", "(a)c", "(a)(b)c"]}


def contraction_outcome(reduce, g, v):
    """The terms of one reduction step, or its UndefinedReduction's text."""
    try:
        return reduce(g, v)
    except UndefinedReduction as exc:
        return str(exc)


class TestContractionOracle:
    """``reduce_at``, which checks only the edges a contraction moves,
    against contracting and then scanning every edge."""

    @given(data=st.data())
    @settings(derandomize=True, deadline=None, max_examples=150)
    def test_reduce_at_is_the_rescanning_contraction(self, data):
        n = data.draw(st.integers(2, 7))
        _, edges = draw_tree(data, n, [None])
        adj = adjacency(n, edges)
        letters = [data.draw(st.sampled_from("abc"))] + [None] * (n - 1)
        order = [0]
        for v in order:   # outwards from vertex 0, each letter unlike its parent's
            for u in adj[v]:
                if letters[u] is None:
                    letters[u] = data.draw(
                        st.sampled_from([x for x in "abc" if x != letters[v]]))
                    order.append(u)
        g = SymbolGraph.build(
            {f"v{i + 1}": parse_symbol(data.draw(st.sampled_from(SYMBOL_LABELS[x])))
             for i, x in enumerate(letters)},
            [(f"v{a + 1}", f"v{b + 1}") for a, b in edges])
        for v in g.ids():
            got = contraction_outcome(reduce_at, g, v)
            assert got == contraction_outcome(rescanning_reduce_at, g, v)
            for _, h in ([] if isinstance(got, str) else got):
                for u in h.ids():
                    assert (contraction_outcome(reduce_at, h, u)
                            == contraction_outcome(rescanning_reduce_at, h, u))


# vertex ids: v1, v01 and v001 tie on ``_id_key``, as do v2, v02, ...; x and
# w_2 fall outside its pattern
TIED_IDS = [f"v{'0' * z}{k}" for k in range(1, 4) for z in range(3)] + ["x", "w_2"]


def draw_symbol_graph(data):
    """A symbol graph of 2-7 vertices with ids from ``TIED_IDS``, randomly
    oriented edges each joining distinct letters, and labels either all
    bare letters or drawn from ``SYMBOL_LABELS``."""
    n = data.draw(st.integers(2, 7))
    _, edges = draw_tree(data, n, [None])
    adj = adjacency(n, edges)
    letters = [data.draw(st.sampled_from("abc"))] + [None] * (n - 1)
    order = [0]
    for v in order:   # outwards from vertex 0, each letter unlike its parent's
        for u in adj[v]:
            if letters[u] is None:
                letters[u] = data.draw(
                    st.sampled_from([x for x in "abc" if x != letters[v]]))
                order.append(u)
    bare = data.draw(st.booleans())
    ids = data.draw(st.lists(st.sampled_from(TIED_IDS), min_size=n, max_size=n,
                             unique=True))
    return SymbolGraph.build(
        {vid: parse_symbol(x if bare else data.draw(st.sampled_from(SYMBOL_LABELS[x])))
         for vid, x in zip(ids, letters)},
        [(ids[a], ids[b]) for a, b in edges])


def draw_order(data, g):
    """An order of all vertices but one, any of them first, so that steps
    may branch or be undefined; or a list of known and unknown ids, repeats
    allowed, of any length."""
    ids = g.ids()
    return data.draw(st.one_of(
        st.permutations(ids).map(lambda order: order[:-1]),
        st.lists(st.sampled_from(ids + ["v4", "y"]), max_size=len(ids) + 1)))


def reduction_outcome(reduce, g, order):
    """The text of a whole reduction's symbol sum, or of its UndefinedReduction."""
    try:
        return str(reduce(g, order))
    except UndefinedReduction as exc:
        return str(exc)


class TestReductionOracle:
    """``reduce_full``, which contracts each term in place, against chaining
    ``rescanning_reduce_at`` over whole graphs, and ``default_order``,
    which keeps its leaves in a heap, against rescanning for them."""

    @given(data=st.data())
    @settings(derandomize=True, deadline=None, max_examples=300)
    def test_reduce_full_is_the_chained_rescanning_reduction(self, data):
        g = draw_symbol_graph(data)
        for order in (default_order(g), draw_order(data, g), draw_order(data, g)):
            assert (reduction_outcome(reduce_full, g, order)
                    == reduction_outcome(rescanning_reduce_full, g, order))

    @given(data=st.data())
    @settings(derandomize=True, deadline=None, max_examples=100)
    def test_reduce_full_builds_no_graph(self, data):
        g = draw_symbol_graph(data)
        order = draw_order(data, g)
        built = []

        def spy(*args):
            built.append(args)
            return SymbolGraph(*args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(eil, "SymbolGraph", spy)
            reduction_outcome(reduce_full, g, order)
        assert built == []

    @given(data=st.data())
    @settings(derandomize=True, deadline=None, max_examples=300)
    def test_default_order_is_the_rescanning_one(self, data):
        g = draw_symbol_graph(data)
        assert default_order(g) == rescanning_default_order(g)

    @pytest.mark.parametrize("text, expected", [
        ("{v1:a, v01:a, v2:b; v1->v2, v01->v2}", ["v1", "v01"]),
        ("{v01:a, v1:a, v2:b; v1->v2, v01->v2}", ["v01", "v1"]),
        # the last vertex is the first of the tied largest keys
        ("{v2:b, v02:b, v1:a; v2->v1, v1->v02}", ["v02", "v1"]),
        ("{v02:b, v2:b, v1:a; v2->v1, v1->v02}", ["v2", "v1"]),
    ])
    def test_tied_keys_go_in_vertex_order(self, text, expected):
        g = parse_graph(text)
        assert default_order(g) == rescanning_default_order(g) == expected

    def test_tied_neighbours_go_in_edge_order(self):
        # in the term where v3 went into v5, v5 took over the edge to v9,
        # which comes before its own edge to v09 (same ``_id_key``) in edge
        # order: v5 goes into v9 first, and that step is the undefined one
        g = parse_graph("{v3:b, v9:c, v5:a, v09:c, v2:d; "
                        "v3->v9, v5->v09, v3->v5, v3->v2}")
        order = ["v3", "v5", "v2", "v9"]
        message = ("reduction undefined at vertex v5: edge v9->v09 joins free "
                   "letter 'c' to itself")
        assert reduction_outcome(reduce_full, g, order) == message
        assert reduction_outcome(rescanning_reduce_full, g, order) == message


class TestDefaultOrder:
    def test_leaf_order_is_valid(self):
        g = parse_graph("{v1:a, v2:b, v3:c; v1->v2, v2->v3}")
        order = default_order(g)
        assert len(order) == 2
        total = reduce_full(g, order)
        assert len(total) == 1

    def test_star(self):
        g = parse_graph(
            "{v1:a, v2:b, v3:c, v4:d, v5:e; v1->v5, v2->v5, v3->v5, v4->v5}"
        )
        order = default_order(g)
        assert set(order) == {"v1", "v2", "v3", "v4"}

    def test_single_edge(self):
        g = parse_graph("{v1:a, v2:b; v1->v2}")
        assert len(default_order(g)) == 1


class TestGraphOfSymbol:
    @pytest.mark.parametrize("text", ["(a)b", "((a)b)a", "(a)(c)b"])
    def test_round_trip(self, text):
        sym = parse_symbol(text)
        graph, order = graph_of_symbol(sym)
        assert all(not label.children for _, label in graph.vertices)
        total = reduce_full(graph, order)
        assert total.terms == {sym.canonical(): Fraction(1)}

    def test_random_round_trips(self):
        rng = random.Random(17)

        def random_symbol(budget, forbid=None):
            letter = rng.choice([g for g in "abcd" if g != forbid])
            if budget <= 0 or rng.random() < 0.3:
                return Symbol(letter)
            kids = []
            left = budget - 1
            for _ in range(rng.randint(1, 3)):
                child = random_symbol(rng.randint(0, left), forbid=letter)
                kids.append(child)
                left -= child.node_count()
                if left <= 0:
                    break
            return Symbol(letter, tuple(kids))

        for _ in range(100):
            sym = random_symbol(5)
            graph, order = graph_of_symbol(sym)
            assert reduce_full(graph, order).terms == {sym.canonical(): Fraction(1)}


class TestCanonical:
    def test_flip_changes_sign(self):
        fwd = parse_graph("{v1:a, v2:b; v1->v2}")
        back = parse_graph("{v1:a, v2:b; v2->v1}")
        e1, s1 = canonical_form(fwd)[:2]
        e2, s2 = canonical_form(back)[:2]
        assert e1 == e2 and s1 == -s2

    def test_relabeled_isomorphs_agree(self):
        g1 = parse_graph("{v1:a, v2:b, v3:c; v1->v2, v2->v3}")
        g2 = parse_graph("{x:a, y:b, z:c; x->y, y->z}")
        assert canonical_form(g1)[:2] == canonical_form(g2)[:2]

    def test_double_flip_keeps_sign(self):
        path = parse_graph("{v1:a, v2:b, v3:c; v1->v2, v2->v3}")
        reversed_path = parse_graph("{v1:a, v2:b, v3:c; v2->v1, v3->v2}")
        e1, s1 = canonical_form(path)[:2]
        e2, s2 = canonical_form(reversed_path)[:2]
        assert e1 == e2 and s1 == s2

    def test_canonical_form_reorients(self):
        g = parse_graph("{v1:a, v2:b; v2->v1}")
        enc, sign, rep = canonical_form(g)
        assert canonical_form(rep)[:2] == (enc, 1)


def draw_tree(data, n, labels):
    """Labels and oriented edges over 0..n-1 of a random Prufer tree, path,
    star or caterpillar with its vertices shuffled; equal labels may meet
    at an edge."""
    shape = data.draw(st.sampled_from(["prufer", "path", "star", "caterpillar"]))
    if shape == "prufer":
        code = data.draw(st.lists(st.integers(0, n - 1), min_size=max(n - 2, 0),
                                  max_size=max(n - 2, 0)))
        edges = _prufer_decode(n, code) if n > 1 else []
    elif shape == "path":
        edges = [(i, i + 1) for i in range(n - 1)]
    elif shape == "star":
        edges = [(0, i) for i in range(1, n)]
    else:
        spine = data.draw(st.integers(1, n))
        edges = [(i, i + 1) for i in range(spine - 1)] + [
            (data.draw(st.integers(0, spine - 1)), i) for i in range(spine, n)]
    place = data.draw(st.permutations(range(n)))
    edges = [(place[a], place[b]) if data.draw(st.booleans())
             else (place[b], place[a]) for a, b in edges]
    return data.draw(st.lists(st.sampled_from(labels), min_size=n,
                              max_size=n)), edges


def adjacency(n, edges):
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


class TestEncoderOracle:
    """The breadth-first encoder against the recursive AHU encoders."""

    @given(data=st.data())
    @settings(derandomize=True, deadline=None, max_examples=200)
    def test_canonical_form_is_the_recursive_one(self, data):
        n = data.draw(st.integers(1, 14))
        labels, edges = draw_tree(data, n, ["a", "b", "ab", "ba", "(a)b",
                                            "(b)a", "((a)b)a", "(a)(c)b"])
        g = SymbolGraph(
            tuple((f"v{i + 1}", parse_symbol(l)) for i, l in enumerate(labels)),
            tuple((f"v{a + 1}", f"v{b + 1}") for a, b in edges))
        encoding, sign, rep = canonical_form(g)
        oracle, oracle_sign, oracle_rep = memo_canonical_form(g)
        assert (encoding, sign, str(rep)) == (oracle, oracle_sign, str(oracle_rep))

    @given(data=st.data())
    @settings(derandomize=True, deadline=None, max_examples=150)
    def test_least_encodings_part_trees_as_the_centre_key(self, data):
        trees = []
        for _ in range(data.draw(st.integers(1, 4))):
            n = data.draw(st.integers(1, 6))
            letters, edges = draw_tree(data, n, [0, 1, 2])
            place = data.draw(st.permutations(range(n)))   # an isomorphic copy
            trees += [(letters, adjacency(n, edges)),
                      ([letters[place.index(v)] for v in range(n)],
                       adjacency(n, [(place[a], place[b]) for a, b in edges]))]
        keys = [min(_rooted_encodings(*t)) for t in trees]
        centres = [centre_key(*t) for t in trees]
        for i in range(len(trees)):
            for j in range(i + 1):
                assert (keys[i] == keys[j]) == (centres[i] == centres[j])


class TestEnumerate:
    def test_pair(self):
        assert len(enumerate_distinct_vertex_graphs({"a": 1, "b": 1})) == 1

    def test_two_a_one_b(self):
        graphs = enumerate_distinct_vertex_graphs({"a": 2, "b": 1})
        assert len(graphs) == 1
        (g,) = graphs
        assert all("b" in (g.labels[t].letter, g.labels[h].letter)
                   for t, h in g.edges)

    def test_four_star(self):
        assert len(enumerate_distinct_vertex_graphs({"a": 4, "b": 1})) == 1

    @pytest.mark.parametrize("multidegree", [{"a": -1, "b": 2}, {}, {"a": 0}])
    def test_invalid_multidegree(self, multidegree):
        with pytest.raises(InvalidMultidegree):
            enumerate_distinct_vertex_graphs(multidegree)

    def test_eight_vertices_are_refused(self):
        with pytest.raises(TooLarge):
            enumerate_distinct_vertex_graphs({"a": 4, "b": 4})

    def test_prufer_counts(self):
        assert len(list(_prufer_trees(4))) == 16
        assert len(list(_prufer_trees(2))) == 1

    @pytest.mark.parametrize("counts", [
        counts for total in range(1, 7)
        for counts in product(range(total + 1), repeat=3) if sum(counts) == total
    ] + [(3, 2, 2), (2, 2, 2, 1)])
    def test_matches_the_prufer_scan(self, counts):
        multidegree = dict(zip("abcd", counts))
        fast = enumerate_distinct_vertex_graphs(multidegree)
        scan = prufer_scan_graphs(multidegree)
        assert [str(g) for g in fast] == [str(g) for g in scan]
        assert fast == scan

    def test_canonicalizes_only_the_kept_classes(self, monkeypatch):
        calls = []
        canonical = eil.canonical_form

        def counted(g):
            calls.append(g)
            return canonical(g)

        def scan(k):
            raise AssertionError("the enumeration scans Prufer codes")

        monkeypatch.setattr(eil, "canonical_form", counted)
        monkeypatch.setattr(eil, "_prufer_trees", scan)
        graphs = enumerate_distinct_vertex_graphs({"a": 3, "b": 2, "c": 2})
        assert len(graphs) == 153
        assert len(calls) <= 153


class TestBasisCache:
    """The distinct-vertex basis is built once per multidegree: a later call
    gives what a cold one gives, every call is validated, and what is kept
    stays under ``BASIS_CELL_LIMIT``."""

    AMBIENT = "{v1:a, v2:a, v3:b, v4:c, v5:b; v1->v2, v2->v3, v3->v4, v5->v4}"

    @pytest.fixture(autouse=True)
    def cold_cache(self):
        eil._bases.clear()
        yield
        eil._bases.clear()

    @pytest.fixture
    def builds(self, monkeypatch):
        """The multidegrees enumerated from now on."""
        calls = []
        forms = eil._distinct_vertex_forms

        def counted(key):
            calls.append(dict(key))
            return forms(key)

        monkeypatch.setattr(eil, "_distinct_vertex_forms", counted)
        return calls

    @pytest.fixture
    def eliminations(self, monkeypatch):
        """The shapes of the systems eliminated from now on."""
        calls = []
        eliminate = eil.eliminate

        def counted(matrix):
            matrix = list(matrix)
            calls.append((len(matrix), len(matrix[0]) if matrix else 0))
            return eliminate(matrix)

        monkeypatch.setattr(eil, "eliminate", counted)
        return calls

    def results(self):
        multidegree = {"a": 2, "b": 2, "c": 1}
        return (eil.enumerate_distinct_vertex_graphs(multidegree),
                distinct_reduce(parse_graph(self.AMBIENT, ambient=True)),
                eil.dual_matrix(["a", "b", "c"], multidegree))

    def test_a_second_call_equals_a_cold_one(self, builds):
        first = self.results()
        assert list(eil._bases) == [(("a", 2), ("b", 2), ("c", 1))]
        assert len(builds) == 2     # the direct call and the one basis
        second = self.results()
        assert len(builds) == 3     # the direct call only
        eil._bases.clear()
        cold = self.results()
        assert len(builds) == 5
        assert first == second == cold
        assert [str(x) for x in second] == [str(x) for x in cold]

    def test_mutating_a_returned_list_changes_no_later_result(self):
        graphs, _, rows = self.results()
        expected = (list(graphs), [list(row) for row in rows])
        graphs.reverse()
        graphs.append(graphs[0])
        rows[0].append(rows[0][0])
        rows.reverse()
        rows.pop()
        again, _, rows_again = self.results()
        assert (again, rows_again) == expected

    @pytest.mark.parametrize("multidegree, error", [
        ({"a": -1, "b": 2}, InvalidMultidegree),
        ({"a": 4, "b": 3, "c": 1}, TooLarge),
        ({"a": 2.5, "b": 1}, InvalidMultidegree),
        ({1: 2, "b": 1}, InvalidMultidegree),
        ({"a": 2, "b": 1, "": 1}, InvalidMultidegree),
    ])
    def test_refusals_are_not_cached(self, multidegree, error):
        for _ in range(3):
            with pytest.raises(error):
                enumerate_distinct_vertex_graphs(multidegree)
            with pytest.raises(error):
                eil.distinct_basis(multidegree)
            with pytest.raises(error):
                eil.dual_matrix(list(multidegree), multidegree)
        assert not eil._bases

    def test_eight_vertices_are_refused_on_every_call(self):
        g = parse_graph("{v1:a, v2:a, v3:a, v4:a, v5:b, v6:b, v7:b, v8:c; "
                        "v1->v2, v2->v3, v3->v4, v4->v5, v5->v6, v6->v7, v7->v8}",
                        ambient=True)
        for _ in range(3):
            with pytest.raises(TooLarge):
                distinct_reduce(g)

    def test_zero_counts_share_the_entry_without_them(self):
        graphs = enumerate_distinct_vertex_graphs({"a": 2, "b": 1, "c": 0})
        assert [str(g) for g in graphs] == ["{v1:a, v2:a, v3:b; v1->v3, v2->v3}"]
        basis = eil.distinct_basis({"a": 2, "b": 1, "c": 0})
        assert list(basis.graphs) == graphs
        assert eil.distinct_basis({"b": 1, "a": 2}) is basis
        assert list(eil._bases) == [(("a", 2), ("b", 1))]

    def test_a_basis_past_the_cell_limit_is_not_kept(self, builds):
        multidegree = {"a": 2, "b": 2, "c": 2, "d": 1}
        basis = eil.distinct_basis(multidegree)
        assert (len(basis.graphs), len(basis.trees)) == (864, 90)
        assert eil._cells(basis) > eil.BASIS_CELL_LIMIT
        assert not eil._bases
        assert eil.distinct_basis(multidegree) == basis
        assert len(builds) == 2

    def test_a_basis_that_its_elimination_takes_past_the_limit_is_not_kept(
            self, monkeypatch, builds):
        multidegree = {"a": 2, "b": 2, "c": 1}
        basis = eil.distinct_basis(multidegree)
        eil._bases.clear()
        without_elimination = len(basis.graphs) * (len(basis.trees) + 2) + 1
        assert without_elimination < eil._cells(basis) - 1
        monkeypatch.setattr(eil, "BASIS_CELL_LIMIT", eil._cells(basis) - 1)
        assert eil.distinct_basis(multidegree) == basis
        assert not eil._bases
        assert len(builds) == 2

    def test_one_elimination_serves_every_call_of_a_multidegree(self, eliminations, capsys):
        multidegree = {"a": 2, "b": 2, "c": 1}
        graph = parse_graph(self.AMBIENT, ambient=True)
        cold = (distinct_reduce(graph), eil.dual_matrix(["a", "b", "c"], multidegree))
        assert eliminations == [(6, 14)]    # 6 trees by 14 graphs
        for _ in range(3):
            warm = (distinct_reduce(graph), eil.dual_matrix(["a", "b", "c"], multidegree))
            assert warm == cold
        assert main(["matrix", "--weight", "5", "--gens", "c,a,b",
                     "--multidegree", "1,2,2", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == cold[1]
        assert eliminations == [(6, 14)]

    def test_the_least_recently_used_basis_is_dropped(self, monkeypatch, builds):
        first, second, third = {"a": 1, "b": 1}, {"a": 1, "c": 1}, {"b": 1, "c": 1}
        size = eil._cells(eil.distinct_basis(first))
        monkeypatch.setattr(eil, "BASIS_CELL_LIMIT", 2 * size)
        eil.distinct_basis(second)
        eil.distinct_basis(first)
        eil.distinct_basis(third)
        assert list(eil._bases) == [(("a", 1), ("b", 1)), (("b", 1), ("c", 1))]
        assert len(builds) == 3
        eil.distinct_basis(second)
        assert len(builds) == 4
        assert sum(map(eil._cells, eil._bases.values())) <= eil.BASIS_CELL_LIMIT


    def test_threads_share_the_cache_within_its_limit(self, monkeypatch):
        multidegrees = [{"a": 1, "b": 1}, {"a": 1, "c": 1}, {"b": 1, "c": 1},
                        {"a": 2, "b": 1}, {"a": 1, "b": 2}, {"a": 1, "b": 1, "c": 1}]
        expected = [eil.distinct_basis(md) for md in multidegrees]
        eil._bases.clear()
        monkeypatch.setattr(eil, "BASIS_CELL_LIMIT", 3 * eil._cells(expected[0]))
        failures = []

        def work(offset):
            try:
                for i in range(40):
                    j = (i + offset) % len(multidegrees)
                    if eil.distinct_basis(multidegrees[j]) != expected[j]:
                        failures.append(j)
                    held = sum(map(eil._cells, list(eil._bases.values())))
                    if held > eil.BASIS_CELL_LIMIT:
                        failures.append(held)
            except Exception as exc:    # reported by the assertion below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(n,)) for n in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not failures


class TestDistinctReduce:
    def test_already_distinct(self):
        g = parse_graph("{v1:a, v2:b, v3:c; v1->v2, v2->v3}")
        reduced = distinct_reduce(g)
        for t in lyndon_trees_of_multidegree(g.multidegree()):
            assert extended_pairing(reduced, t) == extended_pairing(g, t)

    def test_eight_vertices_are_refused(self):
        g = parse_graph("{v1:a, v2:a, v3:a, v4:a, v5:b, v6:b, v7:b, v8:c; "
                        "v1->v2, v2->v3, v3->v4, v4->v5, v5->v6, v6->v7, v7->v8}",
                        ambient=True)
        with pytest.raises(TooLarge):
            distinct_reduce(g)

    def test_homogeneous_pair_is_zero_functional(self):
        g = parse_graph("{v1:a, v2:a; v1->v2}", ambient=True)
        reduced = distinct_reduce(g)
        assert len(reduced) == 0

    def test_arnold_relation_functional(self):
        # the three rotations of a length-two path sum to the zero functional
        g1 = parse_graph("{v1:a, v2:b, v3:c; v1->v2, v2->v3}")
        g2 = parse_graph("{v1:a, v2:b, v3:c; v2->v3, v3->v1}")
        g3 = parse_graph("{v1:a, v2:b, v3:c; v1->v2, v3->v1}")
        for t in lyndon_trees_of_multidegree({"a": 1, "b": 1, "c": 1}):
            total = sum(extended_pairing(g, t) for g in (g1, g2, g3))
            assert total == 0

    def test_arnold_relation_random(self):
        rng = random.Random(23)
        done = 0
        while done < 15:
            k = rng.randint(3, 5)
            labels = [rng.choice("abc") for _ in range(k)]
            edges = rng.choice(list(_prufer_trees(k)))
            adjacency = {}
            for u, v in edges:
                adjacency.setdefault(u, []).append(v)
                adjacency.setdefault(v, []).append(u)
            center = next((v for v, ns in adjacency.items() if len(ns) >= 2), None)
            if center is None:
                continue
            done += 1
            x, y = adjacency[center][:2]
            rest = [e for e in edges if set(e) not in ({x, center}, {y, center})]

            def graph_with(extra):
                es = [(f"v{u + 1}", f"v{v + 1}") for u, v in rest] + [
                    (f"v{u + 1}", f"v{v + 1}") for u, v in extra
                ]
                return SymbolGraph.build(
                    {f"v{i + 1}": Symbol(labels[i]) for i in range(k)},
                    es, ambient=True)

            rotations = [
                graph_with([(x, center), (center, y)]),
                graph_with([(center, y), (y, x)]),
                graph_with([(x, center), (y, x)]),
            ]
            for t in lyndon_trees_of_multidegree(rotations[0].multidegree()):
                assert sum(extended_pairing(g, t) for g in rotations) == 0

    def test_antisymmetry_functional(self):
        g = parse_graph("{v1:a, v2:b, v3:a; v1->v2, v2->v3}")
        flipped = parse_graph("{v1:a, v2:b, v3:a; v1->v2, v3->v2}")
        for t in lyndon_trees_of_multidegree({"a": 2, "b": 1}):
            assert extended_pairing(g, t) + extended_pairing(flipped, t) == 0


def _paired(texts, multidegree):
    """The pairing of the parsed ``texts`` with the Lyndon trees."""
    return pairing_matrix(list(map(parse_graph, texts)),
                          lyndon_trees_of_multidegree(multidegree))


class TestDualGraphs:
    """The rows that ``dual_matrix`` picks, as their pairings with the
    Lyndon trees."""

    def test_documented_duals_follow_the_generator_order(self):
        # in the order b, a the counts read (3, 2): the (3, 2) duals with
        # a and b swapped
        multidegree = {"a": 2, "b": 3}
        assert eil.dual_matrix(["b", "a"], multidegree) == _paired([
            "{v1:a, v2:b, v3:a, v4:b, v5:b; v1->v2, v2->v3, v3->v4, v5->v3}",
            "{v1:b, v2:a, v3:b, v4:a, v5:b; v1->v2, v2->v3, v3->v4, v4->v5}",
        ], multidegree) == [[6, -2], [0, 4]]

    @pytest.mark.parametrize("gens, expected", [
        (["a", "b"], [
            "{v1:a, v2:b, v3:a, v4:b, v5:b; v1->v2, v2->v3, v3->v4, v5->v3}",
            "{v1:b, v2:a, v3:b, v4:a, v5:b; v1->v2, v2->v3, v3->v4, v4->v5}"]),
        (["b", "a"], [
            "{v1:b, v2:a, v3:b, v4:a, v5:a; v1->v2, v2->v3, v3->v4, v5->v3}",
            "{v1:a, v2:b, v3:a, v4:b, v5:a; v1->v2, v2->v3, v3->v4, v4->v5}"]),
    ])
    def test_the_23_duals_are_the_32_duals_with_a_and_b_swapped(self, gens, expected):
        # the counts read (2, 3) in the order of gens, so the second
        # generator, of count 3, stands for a: (2, 3) for a, b and (3, 2)
        # for b, a, the two matrices of selfcheck's check 4
        multidegree = dict(zip(gens, (2, 3)))
        relabel = str.maketrans({"a": gens[1], "b": gens[0]})
        assert expected == [text.translate(relabel) for text in DOCUMENTED_DUALS_32]
        matrix = [[6, -2], [0, 4]] if gens == ["a", "b"] else [[4, -2], [4, 4]]
        assert eil.dual_matrix(gens, multidegree) == _paired(expected, multidegree) == matrix

    def test_star(self):
        for gens, multidegree, text in [
                (["a", "b"], {"a": 1, "b": 3},
                 "{v1:b, v2:b, v3:b, v4:a; v1->v4, v2->v4, v3->v4}"),
                (["b", "a"], {"a": 1, "b": 3},
                 "{v1:b, v2:b, v3:b, v4:a; v1->v4, v2->v4, v3->v4}"),
                (["a", "b", "c"], {"a": 4, "b": 0, "c": 1},
                 "{v1:a, v2:a, v3:a, v4:a, v5:c; v1->v5, v2->v5, v3->v5, v4->v5}")]:
            assert eil.dual_matrix(gens, multidegree) == _paired([text], multidegree)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_the_star_pairs_to_plus_or_minus_n_factorial(self, n):
        assert eil.dual_matrix(["a", "b"], {"a": 1, "b": n}) == [[(-1) ** n * factorial(n)]]
        assert eil.dual_matrix(["a", "b"], {"a": n, "b": 1}) == [[factorial(n)]]

    def test_a_star_past_the_length_limit_is_refused_before_any_vertex(
            self, monkeypatch):
        monkeypatch.setattr(eil, "LENGTH_LIMIT", 4)
        assert eil.dual_matrix(["a", "b"], {"a": 1, "b": 3}) == _paired(
            ["{v1:b, v2:b, v3:b, v4:a; v1->v4, v2->v4, v3->v4}"], {"a": 1, "b": 3})

        def no_vertex(letter, children=()):
            raise AssertionError("a vertex was built")

        monkeypatch.setattr(eil, "Symbol", no_vertex)
        with pytest.raises(TooLarge, match="a star of 5 vertices exceeds bound 4"):
            eil.dual_matrix(["b", "a"], {"a": 1, "b": 4})

    @pytest.mark.parametrize("multidegree", [
        {"a": 2, "b": 2}, {"a": 3, "b": 3}, {"a": 2, "b": 1, "c": 1}])
    def test_rank_increasing_rows_span_the_basis(self, multidegree):
        rows = eil.dual_matrix(sorted(multidegree), multidegree)
        trees = lyndon_trees_of_multidegree(multidegree)
        assert len(rows) == len(trees)
        assert fraction_rank(rows) == len(trees)
        basis = eil.distinct_basis(multidegree)
        graphs = [basis.graphs[i] for i in basis.elimination.pivots]
        assert rows == [[extended_pairing(g, t) for t in trees] for g in graphs]

    @pytest.mark.parametrize("gens", [
        ["a", "z"], ["a"], ["a", "b", "b"], ["b", "a", "c"], [1, "a"], []])
    def test_gens_must_list_the_generators_once(self, gens, monkeypatch):
        def no_basis(multidegree):
            raise AssertionError("a basis was requested")

        monkeypatch.setattr(eil, "distinct_basis", no_basis)
        with pytest.raises(InvalidMultidegree, match="generators once each"):
            eil.dual_matrix(gens, {"a": 2, "b": 1})

    def test_gens_include_the_zero_counts(self):
        # the CLI builds the multidegree with a count for every --gens letter
        multidegree = {"a": 2, "b": 1, "c": 0}
        assert (eil.dual_matrix(["b", "c", "a"], multidegree)
                == eil.dual_matrix(["b", "a"], {"a": 2, "b": 1}) == [[2]])
        with pytest.raises(InvalidMultidegree):
            eil.dual_matrix(["a", "b"], multidegree)

    @pytest.mark.parametrize("multidegree", [
        dict(zip(letters, counts))
        for letters in ("ab", "abc")
        for total in range(2, 7)
        for counts in product(range(total + 1), repeat=len(letters))
        if sum(counts) == total
    ], ids=str)
    def test_equals_the_pairing_of_the_picked_graphs(self, multidegree):
        trees = lyndon_trees_of_multidegree(multidegree)
        for gens in map(list, permutations(multidegree)):
            assert eil.dual_matrix(gens, multidegree) == pairing_matrix(
                brute_force.dual_graphs(gens, multidegree), trees)


class TestEvalGraph:
    def test_single_edge(self):
        g = parse_graph("{v1:a, v2:b; v1->v2}")
        assert eval_graph(g, parse_word("a b a^-1 b^-1")) == 1

    def test_path_matches_symbol(self):
        g = parse_graph("{v1:a, v2:b, v3:a; v1->v2, v2->v3}")
        w = parse_word("[a a, [b, a c]]")
        assert eval_graph(g, w) == eval_symbol(parse_symbol("((a)b)a"), w) == 4

    def test_empty_word(self):
        g = parse_graph("{v1:a, v2:b; v1->v2}")
        assert eval_graph(g, parse_word("")) == 0


class TestOrderIndependence:
    def test_all_orders_small_graph(self):
        import itertools

        g = parse_graph("{v1:a, v2:b, v3:c, v4:a; v1->v2, v2->v3, v3->v4}")
        w = parse_word("[[[a,b],c],a]")
        values = set()
        for order in itertools.permutations(g.ids(), 3):
            try:
                total = reduce_full(g, list(order))
            except UndefinedReduction:
                continue
            from letterlink import eval_symbol_sum

            values.add(eval_symbol_sum(total, w))
        assert len(values) == 1
