import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from brute_force import (bijection_sum_pairing, duval_lyndon_words,
                         fraction_rank, fraction_solve,
                         full_table_lie_coordinates,
                         recursive_standard_bracketing)
from hypothesis import given, settings, strategies as st

from letterlink import (
    BracketTree,
    GraphSum,
    InvalidArgument,
    InvalidMultidegree,
    LabelMismatch,
    Letter,
    LieElement,
    MixedGrading,
    NotInGamma,
    ParseError,
    Symbol,
    SymbolGraph,
    TooLarge,
    Word,
    configuration_pairing,
    extended_pairing,
    lie_coordinates,
    lie_image_of_bracket_word,
    lyndon_basis,
    parse_graph,
    parse_lie,
    parse_word,
    eval_graph,
)
from letterlink import fox, lie
from letterlink.eil import _prufer_trees
from letterlink.fox import fox_eval, magnus_coefficients
from letterlink.lie import (
    bracket_polynomial,
    bracket_tree,
    graph_tree_pairing,
    lyndon_trees_of_multidegree,
    lyndon_words,
    pairing_matrix,
    standard_bracketing,
)
from letterlink.words import (
    LENGTH_LIMIT,
    NESTING_LIMIT,
    all_bracketings,
    expand_bracket,
    random_bracket,
    random_gamma_element,
)


def chain_graph(seq):
    """The linear graph a_1 -> a_2 -> ... -> a_k."""
    vertices = {f"v{i + 1}": Symbol(g) for i, g in enumerate(seq)}
    edges = [(f"v{i + 1}", f"v{i + 2}") for i in range(len(seq) - 1)]
    # repeats in seq give homogeneous edges, so build in the ambient model
    return SymbolGraph.build(vertices, edges, ambient=True)


def chain_solve(weight, alphabet, value_on):
    """Oracle for the Lyndon solve: per multidegree block, pair the chain
    graphs of the Lyndon words with the Lyndon trees and solve for the
    values of the chain functionals by Fraction elimination."""
    blocks = {}
    for c in lyndon_words(weight, alphabet):
        blocks.setdefault(tuple(sorted(Counter(c).items())), []).append(c)
    out = LieElement()
    for key, block_words in sorted(blocks.items()):
        trees = lyndon_trees_of_multidegree(dict(key))
        matrix = [[Fraction(graph_tree_pairing(chain_graph(c), t)) for t in trees]
                  for c in block_words]
        assert fraction_rank(matrix) == len(trees)
        coeffs = fraction_solve(matrix, [Fraction(value_on(c)) for c in block_words])
        out = out + LieElement(dict(zip(trees, coeffs)))
    return out


def oracle_coordinates(w, weight):
    """Depth test by one fox_eval per lower sequence (test_fox.py ties
    fox_eval to the group ring), then the chain solve."""
    alphabet = sorted(w.generators())
    if not alphabet:
        return LieElement()
    for lower in range(1, weight):
        for seq in product(alphabet, repeat=lower):
            if fox_eval(w, seq) != 0:
                raise NotInGamma(seq)
    return chain_solve(weight, alphabet, lambda c: fox_eval(w, c))


def oracle_image(trees):
    alphabet = sorted({l for t in trees for l in t.leaves()})
    return chain_solve(trees[0].weight, alphabet, lambda c: sum(
        graph_tree_pairing(chain_graph(c), t) for t in trees))


def coordinates_or_failure(fn, w, weight):
    try:
        return fn(w, weight)
    except NotInGamma as exc:
        return exc.functional


def text_of(expr):
    if isinstance(expr, str):
        return expr
    return f"[{text_of(expr[0])},{text_of(expr[1])}]"


class TestParse:
    def test_single_tree(self):
        e = parse_lie("[a,[a,b]]")
        ((c, t),) = e.items()
        assert c == 1 and str(t) == "[a,[a,b]]" and t.weight == 3

    def test_combination(self):
        e = parse_lie("2*[a,b] - [b,a]")
        assert {str(t): c for c, t in e.items()} == {
            "[a,b]": Fraction(2),
            "[b,a]": Fraction(-1),
        }

    def test_mixed_grading(self):
        with pytest.raises(MixedGrading):
            parse_lie("[a,b] + [a,[a,b]]")

    def test_rational_coefficient(self):
        e = parse_lie("1/2*[a,b]")
        ((c, _),) = e.items()
        assert c == Fraction(1, 2)

    @pytest.mark.parametrize("text, coeff", [
        ("1 / 2*[a,b]", Fraction(1, 2)),
        ("- 0.5 * [a,b]", Fraction(-1, 2)),
        ("1e-1*[a,b]", Fraction(1, 10)),
        ("1_000*[a,b]", Fraction(1000)),
    ])
    def test_coefficients_take_the_graph_sum_forms(self, text, coeff):
        assert parse_lie(text).items() == [(coeff, parse_lie("[a,b]").items()[0][1])]

    @pytest.mark.parametrize("text, position", [
        ("[a,b] - 1/0*[a,b]", 8),      # a zero denominator
        ("[a,b] - 1e5000*[a,b]", 8),   # a value of 5001 digits
    ])
    def test_bad_coefficients_are_parse_errors(self, text, position):
        with pytest.raises(ParseError) as err:
            parse_lie(text)
        assert err.value.position == position

    @pytest.mark.parametrize("parse", [parse_lie, lie_image_of_bracket_word])
    def test_deep_nesting_fails_at_the_first_bracket_past_the_limit(self, parse):
        with pytest.raises(ParseError) as err:
            parse("[" * 5000 + "a" + ",b]" * 5000)
        assert err.value.position == NESTING_LIMIT


@st.composite
def single_weight_elements(draw):
    """A nonzero LieElement of one weight 1-4 over a, b, c, with int and
    Fraction coefficients."""
    def tree(k):
        if k == 1:
            return BracketTree(letter=draw(st.sampled_from("abc")))
        cut = draw(st.integers(1, k - 1))
        return BracketTree(left=tree(cut), right=tree(k - cut))

    weight = draw(st.integers(1, 4))
    coeffs = st.one_of(st.integers(-5, 5),
                       st.fractions(-10, 10, max_denominator=9)).filter(bool)
    return LieElement({tree(weight): draw(coeffs)
                       for _ in range(draw(st.integers(1, 4)))})


class TestPrinting:
    def test_signs_fractions_and_unit_coefficients(self):
        e = LieElement({
            bracket_tree((("a", "b"), "c")): 1,
            bracket_tree((("a", "c"), "b")): Fraction(-3, 2),
            bracket_tree((("b", "c"), "a")): -1,
            bracket_tree(("a", ("b", "c"))): 2,
        })
        assert str(e) == "[[a,b],c] - 3/2*[[a,c],b] - [[b,c],a] + 2*[a,[b,c]]"

    def test_zero(self):
        assert str(LieElement()) == "0"

    @given(single_weight_elements())
    @settings(deadline=None, max_examples=200)
    def test_the_text_reads_back(self, e):
        assert parse_lie(str(e)) == e


class TestLyndon:
    def test_weight_one(self):
        assert {str(t) for t in lyndon_basis(1, ["a", "b"])} == {"a", "b"}

    def test_weight_two(self):
        assert [str(t) for t in lyndon_basis(2, ["a", "b"])] == ["[a,b]"]

    @pytest.mark.parametrize("weight", [0, -3])
    def test_weight_below_one_is_rejected(self, weight):
        with pytest.raises(InvalidArgument):
            lyndon_basis(weight, ["a", "b"])

    @pytest.mark.parametrize("weight, alphabet", [
        (2 ** 70, ["a", "b"]), (2 ** 63 - 2, ["a"]), (LENGTH_LIMIT + 1, ["a"]),
        (LENGTH_LIMIT + 1, [])], ids=["2^70", "2^63-2", "limit+1", "no letter"])
    def test_a_weight_past_the_length_limit_is_refused(self, weight, alphabet):
        # refused before the walk's lists of weight + 1 entries are allocated
        with pytest.raises(TooLarge, match=f"length {weight} exceed"):
            lyndon_basis(weight, alphabet)

    @pytest.mark.parametrize("alphabet", [["a", "a"], ["a", "b", "a"]])
    def test_a_repeated_generator_is_rejected(self, alphabet):
        with pytest.raises(InvalidArgument, match="'a' is repeated"):
            lyndon_basis(2, alphabet)

    def test_weight_five_count_and_multidegree(self):
        basis = lyndon_basis(5, ["a", "b"])
        assert len(basis) == 6
        block = [t for t in basis if t.multidegree() == {"a": 3, "b": 2}]
        assert [str(t) for t in block] == [
            "[a,[a,[[a,b],b]]]",
            "[[a,[a,b]],[a,b]]",
        ]
        block23 = lyndon_trees_of_multidegree({"a": 2, "b": 3})
        assert [str(t) for t in block23] == [
            "[a,[[[a,b],b],b]]",
            "[[a,b],[[a,b],b]]",
        ]

    @pytest.mark.parametrize("multidegree", [
        {"a": -1, "b": 2}, {"a": 0, "b": 0}, {}, {"a": 2.5, "b": 1},
        {1: 2, "b": 1}, {"a": 2, "b": 1, "": 1}, {"a": "2", "b": 1}, [("a", 1)],
    ])
    def test_a_malformed_multidegree_is_refused(self, multidegree):
        with pytest.raises(InvalidMultidegree):
            lyndon_trees_of_multidegree(multidegree)

    def test_zero_counts_are_ignored(self):
        assert (lyndon_trees_of_multidegree({"a": 2, "b": 1, "c": 0})
                == lyndon_trees_of_multidegree({"b": 1, "a": 2}))

    def test_lyndon_words_are_lex_sorted(self):
        ws = lyndon_words(4, ["a", "b"])
        assert ws == sorted(ws)
        assert ("a", "a", "b", "b") in ws


def has_content(word, content):
    return all(word.count(gen) == c for gen, c in content.items())


def squares(tree):
    """The brackets [x,x] in a tree."""
    if tree.is_leaf():
        return 0
    return ((tree.left == tree.right) + squares(tree.left)
            + squares(tree.right))


class TestLyndonWalk:
    """The fixed-content walk against Duval's generation and a filter."""

    @pytest.mark.parametrize("alphabet", [[], ["a"], ["a", "b"], ["b", "a"],
                                          ["a", "b", "c"], ["c", "a", "b"]])
    @pytest.mark.parametrize("length", range(1, 8))
    def test_every_content_is_the_filtered_duval_list(self, length, alphabet):
        every = duval_lyndon_words(length, alphabet)
        assert lyndon_words(length, alphabet) == every
        for counts in product(range(length + 1), repeat=len(alphabet)):
            if sum(counts) == length:   # zero counts included
                content = dict(zip(alphabet, counts))
                assert lyndon_words(length, alphabet, content) == [
                    l for l in every if has_content(l, content)]

    @pytest.mark.parametrize("counts, size", [((1, 1, 1, 7), 72),
                                              ((2, 2, 2, 2), 312)])
    def test_four_letter_contents(self, counts, size):
        content = dict(zip("abcd", counts))
        words = lyndon_words(sum(counts), "abcd", content)
        assert len(words) == size
        assert words == [l for l in duval_lyndon_words(sum(counts), "abcd")
                         if has_content(l, content)]

    def test_a_content_of_another_total_gives_no_word(self):
        assert lyndon_words(4, ["a", "b"], {"a": 2, "b": 1}) == []
        assert lyndon_words(2, ["a", "b"], {"a": 2, "b": 1}) == []

    def test_a_generator_outside_the_alphabet_is_refused(self):
        with pytest.raises(InvalidMultidegree):
            lyndon_words(3, ["a", "b"], {"a": 2, "c": 1})

    def test_a_word_longer_than_the_recursion_limit(self):
        for length in (1101, 5000):
            assert lyndon_words(length, ["a", "b"], {"a": length - 1, "b": 1}) == [
                ("a",) * (length - 1) + ("b",)]


class TestBracketingOrder:
    """``lyndon_basis`` brackets in the order of its alphabet: each tree is
    the standard bracketing of its Lyndon word in that order."""

    @pytest.mark.parametrize("alphabet", [["b", "a"], ["c", "a", "b"]])
    @pytest.mark.parametrize("weight", range(2, 7))
    def test_each_tree_leads_with_its_own_word(self, weight, alphabet):
        rank = {gen: i for i, gen in enumerate(alphabet)}
        basis = lyndon_basis(weight, alphabet)
        assert [tuple(t.leaves()) for t in basis] == lyndon_words(weight,
                                                                  alphabet)
        for tree in basis:
            own = [rank[g] for g in tree.leaves()]
            poly = bracket_polynomial(tree)
            assert poly[tuple(tree.leaves())] == 1
            assert all([rank[g] for g in u] >= own
                       for u, c in poly.items() if c)
            assert squares(tree) == 0

    @pytest.mark.parametrize("alphabet", [["a", "b"], ["b", "a"],
                                          ["a", "b", "c"], ["c", "a", "b"]])
    def test_the_bracketing_is_the_recursive_one(self, alphabet):
        for length in range(1, 12 - len(alphabet)):
            for word in lyndon_words(length, alphabet):
                positions = tuple(map(alphabet.index, word))
                assert (standard_bracketing(positions, alphabet)
                        == recursive_standard_bracketing(positions, alphabet))

    def test_the_multidegree_trees_are_those_of_the_basis(self):
        content = {"c": 2, "a": 1, "b": 1}
        assert lyndon_basis(4, ["c", "a", "b"], content) == [
            t for t in lyndon_basis(4, ["c", "a", "b"])
            if t.multidegree() == content]


class TestConfigurationPairing:
    def test_single_edge(self):
        g = parse_graph("{v1:a, v2:b; v1->v2}")
        assert configuration_pairing(g, parse_lie("[a,b]").items()[0][1]) == 1
        assert configuration_pairing(g, parse_lie("[b,a]").items()[0][1]) == -1

    def test_non_surjective_is_zero(self):
        g = parse_graph("{v1:a, v2:b, v3:c; v1->v2, v1->v3}")
        t = parse_lie("[a,[b,c]]").items()[0][1]
        assert configuration_pairing(g, t) == 0

    def test_label_mismatch(self):
        g = parse_graph("{v1:a, v2:b; v1->v2}")
        with pytest.raises(LabelMismatch):
            configuration_pairing(g, parse_lie("[a,c]").items()[0][1])

    def test_repeated_labels_need_extension(self):
        g = parse_graph("{v1:a, v2:b, v3:a; v1->v2, v2->v3}")
        t = parse_lie("[a,[b,a]]").items()[0][1]
        with pytest.raises(LabelMismatch):
            configuration_pairing(g, t)
        assert graph_tree_pairing(g, t) == 2

    @pytest.mark.parametrize("pair", [
        lambda g, t: pairing_matrix([g], [t]),
        graph_tree_pairing,
        configuration_pairing,
        lambda g, t: extended_pairing(g, LieElement().add(1, t)),
    ], ids=["matrix", "graph-tree", "configuration", "extended"])
    def test_a_label_with_children_is_refused(self, pair):
        g = parse_graph("{v1:(b)a, v2:c; v1->v2}")
        with pytest.raises(InvalidArgument, match=r"v1 has \(b\)a"):
            pair(g, parse_lie("[a,c]").items()[0][1])


class TestExtendedPairing:
    def test_star_24(self):
        star = parse_graph(
            "{v1:a, v2:a, v3:a, v4:a, v5:b; v1->v5, v2->v5, v3->v5, v4->v5}"
        )
        assert extended_pairing(star, parse_lie("[a,[a,[a,[a,b]]]]")) == 24

    def test_multidegree_mismatch_is_zero(self):
        g = parse_graph("{v1:a, v2:b; v1->v2}")
        assert extended_pairing(g, parse_lie("[a,c]")) == 0

    def test_sums_against_sums_are_the_double_sum(self):
        graphs = GraphSum()
        for coeff, text in [
            (2, "{v1:a, v2:b, v3:a, v4:c; v1->v2, v2->v3, v3->v4}"),
            (Fraction(-1, 3), "{v1:a, v2:b, v3:c, v4:a; v1->v2, v4->v2, v3->v2}"),
            (5, "{v1:b, v2:a, v3:c, v4:a; v1->v2, v3->v2, v3->v4}"),
            (7, "{v1:a, v2:b, v3:c, v4:c; v1->v2, v2->v3, v1->v4}"),
        ]:
            graphs.add(coeff, parse_graph(text, ambient=True))
        lie_part = parse_lie("[a,[b,[a,c]]] - 1/2*[[a,b],[a,c]] + 3*[[a,c],[a,b]]"
                             " + [[[a,b],c],a]")
        expected = sum(cg * ct * graph_tree_pairing(g, t)
                       for cg, g in graphs for ct, t in lie_part.items())
        assert expected != 0
        assert extended_pairing(graphs, lie_part) == expected

    def test_jacobi_identity(self):
        rng = random.Random(3)
        for labels in (["a", "b", "c", "d"], ["a", "a", "b", "c"]):
            for _ in range(15):
                x = BracketTree(letter=labels[0])
                y = BracketTree(left=BracketTree(letter=labels[1]),
                                right=BracketTree(letter=labels[2]))
                z = BracketTree(letter=labels[3])
                jacobi = [
                    (1, BracketTree(left=BracketTree(left=x, right=y), right=z)),
                    (1, BracketTree(left=BracketTree(left=y, right=z), right=x)),
                    (1, BracketTree(left=BracketTree(left=z, right=x), right=y)),
                ]
                md = {}
                for l in labels:
                    md[l] = md.get(l, 0) + 1
                from letterlink import enumerate_distinct_vertex_graphs

                for g in enumerate_distinct_vertex_graphs(md):
                    total = sum(c * graph_tree_pairing(g, t) for c, t in jacobi)
                    assert total == 0

    def test_chain_orientation_against_worked_value(self):
        w = parse_word("[a a, [b, a c]]")
        chain = chain_graph(["a", "b", "a"])
        assert eval_graph(chain, w) == 4


class TestLieImage:
    def test_basic_commutator(self):
        assert str(lie_image_of_bracket_word("[a,[a,b]]")) == "[a,[a,b]]"

    def test_doubling(self):
        assert str(lie_image_of_bracket_word("[a,b][a,b]")) == "2*[a,b]"

    def test_cancellation(self):
        assert not lie_image_of_bracket_word("[a,b][b,a]")

    def test_mixed_weights_rejected(self):
        with pytest.raises(MixedGrading):
            lie_image_of_bracket_word("[a,b][a,[a,b]]")

    def test_antisymmetry_normalization(self):
        assert str(lie_image_of_bracket_word("[b,a]")) == "-[a,b]"


class TestLieCoordinates:
    def test_weight_two(self):
        e = lie_coordinates(parse_word("a b a^-1 b^-1"), 2)
        assert str(e) == "[a,b]"

    def test_identity_word(self):
        assert not lie_coordinates(parse_word(""), 2)

    def test_not_in_gamma(self):
        with pytest.raises(NotInGamma):
            lie_coordinates(parse_word("a"), 2)

    def test_worked_example_coordinates(self):
        w = parse_word("[a a, [b, a c]]")
        e = lie_coordinates(w, 3)
        assert {str(t): c for c, t in e.items()} == {
            "[a,[a,b]]": Fraction(-2),
            "[a,[b,c]]": Fraction(2),
        }
        # cross-check against graph evaluation on several graphs
        for text in (
            "{v1:a, v2:b, v3:a; v1->v2, v2->v3}",
            "{v1:a, v2:b, v3:c; v1->v2, v2->v3}",
            "{v1:c, v2:b, v3:a; v1->v2, v2->v3}",
        ):
            g = parse_graph(text)
            assert extended_pairing(g, e) == eval_graph(g, w)

    def test_matches_lie_image_on_basic_commutators(self):
        rng = random.Random(8)
        for _ in range(20):
            weight = rng.randint(2, 5)
            expr = random_bracket(weight, ["a", "b"], rng)

            w = expand_bracket(expr)
            image = lie_image_of_bracket_word(text_of(expr))
            coords = lie_coordinates(w, weight)
            assert image == coords

    def test_too_deep_a_table_is_refused_before_it_is_built(self):
        # the identity passes every depth test, so the table would have
        # to reach degree 40
        with pytest.raises(TooLarge):
            lie_coordinates(parse_word("a a^-1 b b^-1"), 40)

    def test_a_large_bracket_word_is_refused_before_its_lyndon_words(self):
        # 4^14 words of weight 14 over four letters
        with pytest.raises(TooLarge):
            lie_image_of_bracket_word(
                "[[[[c,a],[b,c]],[a,[a,d]]],[[[a,b],[a,a]],[d,[b,c]]]]")

    def test_the_depth_test_draws_no_sequence_it_does_not_report(self,
                                                                monkeypatch):
        drawn = []

        def spy(alphabet, repeat):
            for seq in product(alphabet, repeat=repeat):
                drawn.append(len(seq))
                yield seq

        monkeypatch.setattr(lie, "product", spy)
        weight = 2000
        assert lie_coordinates(parse_word("a a^-1"), weight) == LieElement()
        # only the top degree's prefixes, one of weight - 1 letters; a
        # sequence for every lower coefficient would be weight^2 / 2 letters
        assert drawn == [weight - 1]

    def test_shallow_word_fails_fast_at_a_high_weight(self):
        with pytest.raises(NotInGamma) as info:
            lie_coordinates(parse_word("[a,b]"), 60)
        assert info.value.functional == ("a", "b")

    @pytest.mark.parametrize("function, weight", [
        ("coords", "3"), ("coords", 2.5), ("basis", 2.5), ("basis", "3")])
    def test_a_weight_that_is_not_an_int_is_refused(self, function, weight):
        call = {"coords": lambda: lie_coordinates(parse_word("[a,b]"), weight),
                "basis": lambda: lyndon_basis(weight, ["a", "b"])}[function]
        with pytest.raises(InvalidArgument, match=f"weight {weight!r} is not an int"):
            call()

    def test_a_bool_weight_is_taken_and_weight_zero_gives_zero(self):
        w = parse_word("a b a^-1")
        assert str(lie_coordinates(w, True)) == "b"
        assert lie_coordinates(w, 0) == LieElement()
        assert [str(t) for t in lyndon_basis(True, ["a", "b"])] == ["a", "b"]


class TestTopDegree:
    """The last Magnus table holds the top degree only at the Lyndon words;
    ``brute_force`` tabulates it in full."""

    def test_the_top_degree_is_tabulated_only_at_lyndon_words(self,
                                                              monkeypatch):
        sizes = []

        def spy(w, monomials):
            sizes.append(len(monomials))
            return magnus_coefficients(w, monomials)

        monkeypatch.setattr(fox, "magnus_coefficients", spy)
        w = parse_word("[[a,b],[a,c]]")
        coords = lie_coordinates(w, 4)
        # tables of depth 1, 2 and 4; the last has 18 of the 81 words of
        # degree 4, not all of them (1+3+9+27+81 = 121)
        assert sizes == [1 + 3, 1 + 3 + 9, 1 + 3 + 9 + 27 + 18]
        assert coords == full_table_lie_coordinates(w, 4)
        assert str(coords) == "[[a,b],[a,c]]"

    @given(data=st.data())
    @settings(deadline=None, max_examples=200)
    def test_coordinates_equal_the_full_table_route(self, data):
        gens = data.draw(st.sampled_from([["a"], ["a", "b"], ["a", "b", "c"]]))
        weight = data.draw(st.integers(1, 6))
        # deep enough for nonzero coordinates, one short, or too deep
        depth = max(0, weight - 1 - data.draw(st.integers(-1, 2)))
        seed = data.draw(st.integers(0, 2 ** 32))
        letters = list(random_gamma_element(depth, gens, budget=6, seed=seed))
        # uncancelled pairs x x^-1 or x^-1 x, at drawn places
        for place, gen, sign in data.draw(st.lists(st.tuples(
                st.integers(0, 64), st.sampled_from(gens), st.sampled_from((1, -1))),
                max_size=3)):
            at = place % (len(letters) + 1)
            letters[at:at] = [Letter(gen, sign), Letter(gen, -sign)]
        w = Word(tuple(letters))
        limit = data.draw(st.sampled_from([lie.MAGNUS_TERM_LIMIT, 40, 400]))

        def outcome(route):
            try:
                return route(w, weight)
            except (NotInGamma, TooLarge) as exc:
                return type(exc), str(exc)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lie, "MAGNUS_TERM_LIMIT", limit)
            assert outcome(lie_coordinates) == outcome(full_table_lie_coordinates)


class TestLyndonSolveOracle:
    @pytest.mark.parametrize("gens", [["a", "b"], ["a", "b", "c"]])
    @pytest.mark.parametrize("weight", [2, 3, 4, 5])
    def test_coordinates_agree_on_seeded_words(self, weight, gens):
        rng = random.Random(100 * weight + len(gens))
        for depth in (weight - 1,) * 4 + (weight - 2,) * 2:
            w = random_gamma_element(depth, gens, budget=8, seed=rng)
            assert (coordinates_or_failure(lie_coordinates, w, weight)
                    == coordinates_or_failure(oracle_coordinates, w, weight))

    @pytest.mark.parametrize("gens", [["a", "b"], ["a", "b", "c"]])
    @pytest.mark.parametrize("weight", [2, 3, 4, 5])
    def test_bracket_images_agree(self, weight, gens):
        rng = random.Random(10 * weight + len(gens))
        for _ in range(4):
            exprs = [random_bracket(weight, gens, rng)
                     for _ in range(rng.randint(1, 3))]
            text = " ".join(text_of(e) for e in exprs)
            assert lie_image_of_bracket_word(text) == oracle_image(
                [bracket_tree(e) for e in exprs])

    @pytest.mark.parametrize("gens", [["a", "b"], ["a", "b", "c"]])
    @pytest.mark.parametrize("weight", [4, 5, 6])
    def test_word_bracket_matrix_is_lower_unitriangular(self, weight, gens):
        words = lyndon_words(weight, gens)
        assert words == sorted(words)
        for j, l in enumerate(words):
            tree = standard_bracketing(tuple(map(gens.index, l)), gens)
            poly = bracket_polynomial(tree)
            for i, c in enumerate(words):
                entry = poly.get(c, 0)
                if i <= j:
                    assert entry == (1 if i == j else 0)
                if Counter(c) == Counter(l):
                    assert entry == graph_tree_pairing(chain_graph(c), tree)


class TestFoxPairingTheorem:
    def test_random_basic_commutators(self):
        from letterlink.fox import fox_eval

        rng = random.Random(21)
        for _ in range(40):
            weight = rng.randint(1, 5)
            expr = random_bracket(weight, ["a", "b", "c"], rng)
            w = expand_bracket(expr)
            seq = [rng.choice(["a", "b", "c"]) for _ in range(weight)]
            assert fox_eval(w, seq) == extended_pairing(
                chain_graph(seq), bracket_tree(expr)
            )

    def test_exhaustive_duality_unique_letters(self):
        # graph/commutator duality for n = 3, every graph and commutator
        import itertools

        from letterlink.eil import SymbolGraph, _prufer_trees
        from letterlink import Symbol, eval_symbol_sum, reduce_full, default_order

        gens = ["x1", "x2", "x3"]
        commutators = []
        for perm in itertools.permutations(gens):
            commutators.extend(all_bracketings(tuple(perm)))
        for edges in _prufer_trees(3):
            for orient in itertools.product((0, 1), repeat=2):
                es = []
                for (u, v), o in zip(edges, orient):
                    a, b = (u, v) if o == 0 else (v, u)
                    es.append((f"v{a + 1}", f"v{b + 1}"))
                g = SymbolGraph.build(
                    {f"v{i + 1}": Symbol(gens[i]) for i in range(3)}, es
                )
                reduction = reduce_full(g, default_order(g))
                for expr in commutators:
                    w = expand_bracket(expr)
                    assert eval_symbol_sum(reduction, w) == configuration_pairing(
                        g, bracket_tree(expr)
                    )


@st.composite
def ambient_graph_and_tree(draw):
    """A tree graph on 2-7 letter-labeled vertices, homogeneous edges
    allowed, and a planar bracket tree of the same multidegree."""
    k = draw(st.integers(2, 7))
    labels = draw(st.lists(st.sampled_from("abc"), min_size=k, max_size=k))
    edges = []
    for v in range(1, k):
        u = draw(st.integers(0, v - 1))
        edges.append((f"v{u + 1}", f"v{v + 1}") if draw(st.booleans())
                     else (f"v{v + 1}", f"v{u + 1}"))
    graph = SymbolGraph.build({f"v{i + 1}": Symbol(l) for i, l in enumerate(labels)},
                              edges, ambient=True)
    leaves = draw(st.permutations(labels))

    def bracketing(lo, hi):
        if hi - lo == 1:
            return BracketTree(letter=leaves[lo])
        cut = draw(st.integers(lo + 1, hi - 1))
        return BracketTree(left=bracketing(lo, cut), right=bracketing(cut, hi))

    return graph, bracketing(0, k)


class TestPairingOracle:
    @given(ambient_graph_and_tree())
    @settings(deadline=None, max_examples=300)
    def test_recursion_equals_the_bijection_sum(self, case):
        graph, tree = case
        assert graph_tree_pairing(graph, tree) == bijection_sum_pairing(graph, tree)

    @pytest.mark.parametrize("counts", [(2, 1, 1), (2, 2, 1), (3, 2), (2, 2, 2)])
    def test_matrix_equals_the_bijection_sum(self, counts):
        from letterlink import enumerate_distinct_vertex_graphs

        md = dict(zip("abc", counts))
        graphs = enumerate_distinct_vertex_graphs(md)
        graphs.append(chain_graph([g for g in md for _ in range(md[g])]))
        trees = lyndon_trees_of_multidegree(md)
        trees.append(parse_lie("[a,[b,a]]").items()[0][1])  # another multidegree
        assert pairing_matrix(graphs, trees) == [
            [bijection_sum_pairing(g, t) for t in trees] for g in graphs]

    def test_a_larger_tree_with_aliased_content_pairs_to_zero(self):
        # on two vertices letter counts are two bits apart, so four a's
        # have the content of one b and the root content matches
        g = parse_graph("{v1:a, v2:b; v1->v2}")
        t = bracket_tree(("a", (("a", "a"), ("a", "a"))))
        assert pairing_matrix([g], [t]) == [[0]]
        assert pairing_matrix([parse_graph("{v1:b}")], [bracket_tree(("a", "a"))]) == [[0]]

    def test_unique_labels_match_the_single_bijection(self):
        import itertools

        gens = ("x1", "x2", "x3", "x4")
        trees = [bracket_tree(e) for perm in itertools.permutations(gens)
                 for e in all_bracketings(perm)]
        rng = random.Random(4)
        for edges in _prufer_trees(4):
            es = [(f"v{u + 1}", f"v{v + 1}") if rng.random() < 0.5
                  else (f"v{v + 1}", f"v{u + 1}") for u, v in edges]
            g = SymbolGraph.build({f"v{i + 1}": Symbol(x) for i, x in enumerate(gens)}, es)
            for t in trees:
                assert configuration_pairing(g, t) == bijection_sum_pairing(g, t)
