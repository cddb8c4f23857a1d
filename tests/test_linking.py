import importlib.util
import random
import sys
from fractions import Fraction
from itertools import product

import pytest
from brute_force import (placements, position_assoc, position_count,
                         position_prefix_potential, position_standard_list,
                         position_symbol_list, pruning_symbols,
                         recursive_canonical,
                         recursive_check_defined, recursive_depth,
                         recursive_node_count, recursive_postorder,
                         recursive_pruning_count, recursive_prunings_size,
                         recursive_splits)
from hypothesis import example, given, settings, strategies as st

from letterlink import (
    InvalidArgument,
    List,
    NonzeroCount,
    SameGenerator,
    Symbol,
    TooLarge,
    UndefinedInvariant,
    Word,
    count,
    enumerate_coboundings,
    eval_graph,
    eval_symbol,
    eval_symbol_sum,
    free_reduce,
    link,
    link_via_cobounding,
    parse_graph,
    parse_symbol,
    parse_word,
    prefix_potential,
    standard_list,
    symbol_list,
)
from letterlink.diagram import render_diagram
from letterlink import linking
from letterlink import symbols as symbols_module
from letterlink.linking import Evaluator, _signed_tokens
from letterlink.words import Letter, commutator, parse_compact, random_word

WORKED = free_reduce(parse_word("[a a, [b, a c]]"))


class TestLists:
    def test_standard_list(self):
        w = parse_word("a a b a^-1 b^-1")
        assert standard_list(w, "a").assoc == {1: 1, 2: 1, 4: 1}

    def test_standard_list_empty_word(self):
        assert standard_list(Word(), "a").assoc == {}

    def test_standard_list_absent_generator(self):
        assert standard_list(parse_word("b b"), "a").assoc == {}

    def test_counts_from_worked_example(self):
        w = parse_word("a a b a^-1 b^-1")
        # {(a_1,1),(a_1,-1),(a^-1,-1)} has associated function {4: -1}
        assert count(List(w, "a", {4: -1})) == 1
        assert count(standard_list(w, "a")) == 1
        assert count(List(w, "a", {})) == 0

    def test_homogeneity_enforced(self):
        w = parse_word("a b")
        with pytest.raises(ValueError):
            List(w, "a", {2: 1})

    def test_wrong_generator_is_a_package_error(self):
        with pytest.raises(InvalidArgument):
            List(parse_word("a b"), "a", {2: 1})

    @pytest.mark.parametrize("position", [0, 3, 7])
    def test_positions_outside_the_word_are_rejected(self, position):
        # position 0 must not wrap round to the last letter, an 'a'
        with pytest.raises(InvalidArgument):
            List(parse_word("b a"), "a", {position: 1})

    @pytest.mark.parametrize("position, message", [
        (0, "position 0 outside 1..2"),
        (3, "position 3 outside 1..2"),
        (1, "position 1 carries 'b', not 'a'"),
    ])
    def test_a_refused_position_is_named(self, position, message):
        with pytest.raises(InvalidArgument) as info:
            List(parse_word("b a"), "a", {position: 1})
        assert str(info.value) == message


def _outcome(fn, *args):
    """What ``fn(*args)`` returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


@st.composite
def words_with_inverses(draw):
    """Words over a, b, c with at least one inverse letter."""
    letters = draw(st.lists(st.tuples(st.sampled_from("abc"), st.sampled_from((1, -1))),
                            min_size=1, max_size=12))
    i = draw(st.integers(0, len(letters) - 1))
    letters[i] = (letters[i][0], -1)
    return Word(tuple(Letter(g, e) for g, e in letters))


class TestListsAgainstThePositionReaders:
    """Lists, counts and potentials read ``word.letters`` in place; the
    oracles read every position through ``Word.letter_at``."""

    @given(words_with_inverses(), st.sampled_from("abc"), st.data())
    @settings(deadline=None, max_examples=200)
    def test_lists_counts_and_potentials(self, w, gen, data):
        positions = [j for j, l in enumerate(w.letters, 1) if l.gen == gen]
        assoc = {j: data.draw(st.integers(-2, 2)) for j in positions}
        lst = List(w, gen, assoc)
        assert lst.assoc == position_assoc(w, gen, assoc)
        assert count(lst) == position_count(lst)
        assert standard_list(w, gen) == position_standard_list(w, gen)
        assert (_outcome(prefix_potential, lst)
                == _outcome(position_prefix_potential, lst))
        if positions:   # the same list with its count moved off the last position
            last = positions[-1]
            assoc[last] -= count(lst) * w.letters[last - 1].sign
            zero = List(w, gen, assoc)
            assert prefix_potential(zero) == position_prefix_potential(zero)

    @given(words_with_inverses(), st.sampled_from("abc"),
           st.dictionaries(st.integers(-1, 14), st.integers(-2, 2), max_size=4))
    @settings(deadline=None, max_examples=200)
    def test_any_positions_are_kept_or_refused_alike(self, w, gen, assoc):
        assert (_outcome(lambda: List(w, gen, assoc).assoc)
                == _outcome(position_assoc, w, gen, assoc))


class TestPrefixPotential:
    def test_requires_zero_count(self):
        w = parse_word("a a b a^-1 b^-1")
        with pytest.raises(NonzeroCount):
            prefix_potential(standard_list(w, "a"))

    def test_single_pair(self):
        w = parse_word("a b a^-1 b^-1")
        g = prefix_potential(standard_list(w, "a"))
        assert g[2] == 1 and g[4] == 0
        assert g[len(w) + 1] == 0

    def test_worked_example_multiplicities(self):
        g = prefix_potential(standard_list(WORKED, "a"))
        assert [g[j] for j in (3, 6, 11, 14)] == [2, 3, 1, 0]

    def test_empty_list_is_zero(self):
        w = parse_word("b b^-1")
        g = prefix_potential(List(w, "a", {}))
        assert all(v == 0 for v in g.values())


class TestLink:
    def test_worked_example(self):
        lb = link(standard_list(WORKED, "a"), standard_list(WORKED, "b"))
        assert lb.assoc == {3: 2, 6: 3, 11: 1}
        assert lb.multiplicity(14) == 0

    def test_linking_number_one(self):
        w = parse_word("a b a^-1 b^-1")
        lb = link(standard_list(w, "a"), standard_list(w, "b"))
        assert lb.assoc == {2: 1}
        assert lb.multiplicity(4) == 0
        assert count(lb) == 1

    def test_disjoint_letters(self):
        w = parse_word("a a^-1 b")
        lb = link(standard_list(w, "a"), standard_list(w, "b"))
        assert lb.assoc == {}

    def test_lists_from_different_words_rejected(self):
        with pytest.raises(InvalidArgument):
            link(standard_list(parse_word("a a^-1"), "a"),
                 standard_list(parse_word("b"), "b"))

    def test_same_generator_rejected(self):
        w = parse_word("a a^-1")
        with pytest.raises(SameGenerator):
            link(standard_list(w, "a"), standard_list(w, "a"))


class TestCoboundings:
    def test_unique_pairing(self):
        w = parse_word("a b a^-1")
        cobs = enumerate_coboundings(standard_list(w, "a"))
        assert len(cobs) == 1
        assert cobs[0].intervals == ((1, 3, 1),)

    def test_two_matchings(self):
        w = parse_word("a a a^-1 a^-1")
        assert len(enumerate_coboundings(standard_list(w, "a"))) == 2

    def test_multiplicity_matchings(self):
        w = parse_word("a b b b a")
        lst = List(w, "a", {1: 2, 5: -2})
        cobs = enumerate_coboundings(lst)
        assert len(cobs) == 2
        for cob in cobs:
            assert cob.intervals == ((1, 5, 1), (1, 5, 1))

    def test_nonzero_count_rejected(self):
        w = parse_word("a")
        with pytest.raises(NonzeroCount):
            enumerate_coboundings(standard_list(w, "a"))

    def test_oracle_matches_potential(self):
        w = parse_word("a b a^-1 b^-1")
        target = standard_list(w, "b")
        lst = standard_list(w, "a")
        fast = link(lst, target)
        for cob in enumerate_coboundings(lst):
            assert link_via_cobounding(cob, target) == fast

    def test_endpoint_inclusion_immaterial(self):
        # cross-letter targets never sit at interval endpoints, so open vs
        # closed coverage agree
        rng = random.Random(5)
        for _ in range(40):
            w = random_word(["a", "b"], rng.randint(2, 10), rng)
            lst = standard_list(w, "a")
            if count(lst) != 0:
                continue
            target = standard_list(w, "b")
            for cob in enumerate_coboundings(lst, bound=8):
                closed = link_via_cobounding(cob, target)
                open_assoc = {
                    j: m * sum(o for (a, b, o) in cob.intervals if a < j < b)
                    for j, m in target.assoc.items()
                }
                open_assoc = {j: v for j, v in open_assoc.items() if v}
                assert closed.assoc == open_assoc


class TestEvalSymbol:
    def test_worked_example_value(self):
        sym = parse_symbol("((a)b)a")
        assert eval_symbol(sym, WORKED) == 4
        assert eval_symbol(sym, parse_word("[a a, [b, a c]]")) == 4

    def test_linking_number(self):
        assert eval_symbol(parse_symbol("(a)b"), parse_word("a b a^-1 b^-1")) == 1

    def test_empty_word(self):
        assert eval_symbol(parse_symbol("((a)b)a"), Word()) == 0

    def test_antisymmetric_value(self):
        assert eval_symbol(parse_symbol("(a)b"), parse_word("b a b^-1 a^-1")) == -1

    def test_undefined_names_subsymbol(self):
        with pytest.raises(UndefinedInvariant) as err:
            eval_symbol(parse_symbol("(a)b"), parse_word("a b"))
        assert err.value.subsymbol.canonical() == "a"
        assert err.value.count == 1

    def test_undefined_leftmost_innermost(self):
        with pytest.raises(UndefinedInvariant) as err:
            eval_symbol(parse_symbol("((a)b)c"), parse_word("a b c"))
        assert err.value.subsymbol.canonical() == "a"
        with pytest.raises(UndefinedInvariant) as err:
            eval_symbol(parse_symbol("(a)(b)c"), parse_word("a b c"))
        assert err.value.subsymbol.canonical() == "a"

    def test_sum_antisymmetry(self):
        w = parse_word("a b a^-1 b^-1")
        terms = [(1, parse_symbol("(a)b")), (1, parse_symbol("a(b)"))]
        assert eval_symbol_sum(terms, w) == 0

    def test_sum_linearity(self):
        w = parse_word("a b a^-1 b^-1")
        assert eval_symbol_sum([(2, parse_symbol("(a)b"))], w) == 2

    def test_empty_sum(self):
        assert eval_symbol_sum([], parse_word("a")) == 0

    @pytest.mark.parametrize("call, kind", [
        (lambda s: eval_symbol(s, "a b"), "str"),
        (lambda s: eval_symbol_sum([(1, s)], None), "NoneType"),
        (lambda s: Evaluator("a b"), "str"),
        (lambda s: eval_graph(parse_graph("{v1:a,v2:b;v1->v2}"), "a b"), "str"),
        (lambda s: eval_symbol(s, [("a", 1)]), "list"),
    ], ids=["eval_symbol", "eval_symbol_sum", "Evaluator", "eval_graph",
            "letter_pairs"])
    def test_a_word_of_another_type_is_refused(self, call, kind):
        with pytest.raises(InvalidArgument) as err:
            call(parse_symbol("(a)b"))
        assert str(err.value) == f"word of type {kind}, not Word"

    @pytest.mark.parametrize("call, message", [
        (lambda w: eval_symbol("(a)b", w), "symbol of type str, not Symbol"),
        (lambda w: eval_symbol(None, w), "symbol of type NoneType, not Symbol"),
        (lambda w: eval_symbol_sum([(1, "(a)b")], w),
         "symbol of type str, not Symbol"),
        (lambda w: eval_symbol_sum(None, w),
         "terms of type NoneType, not an iterable of (coefficient, symbol) "
         "pairs"),
        (lambda w: eval_symbol_sum([parse_symbol("(a)b")], w),
         "term of type Symbol, not a (coefficient, symbol) pair"),
    ], ids=["symbol_text", "no_symbol", "term_text", "no_terms", "bare_symbol"])
    @pytest.mark.parametrize("word", [parse_word, parse_compact],
                             ids=["Word", "CompactWord"])
    def test_a_symbol_or_term_of_another_type_is_refused(
            self, call, message, word):
        w = word("[a,b]^300")
        with pytest.raises(InvalidArgument) as err:
            call(w)
        assert str(err.value) == message

    @pytest.mark.parametrize("word", [parse_word, parse_compact],
                             ids=["Word", "CompactWord"])
    def test_a_symbol_of_a_reloaded_module_is_read(self, word, monkeypatch):
        # told by its fields, as a benchmark oracle hands over the objects
        # of a reloaded package
        spec = importlib.util.spec_from_file_location(
            "letterlink._symbols_copy", symbols_module.__file__)
        copy = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, copy)
        spec.loader.exec_module(copy)
        w = word("[a a,[b,a c]]^300")
        twin = copy.parse_symbol("((a)b)a")
        assert not isinstance(twin, Symbol)
        assert eval_symbol(twin, w) == eval_symbol_sum([(1, twin)], w) == 1200


class TestEvaluatorMemo:
    """A memo hit is one lookup, and never hides an undefined invariant."""

    def raised(self, ev, sym):
        with pytest.raises(UndefinedInvariant) as err:
            ev.value(sym)
        return err.value.subsymbol, err.value.count

    @pytest.mark.parametrize("text, word", [
        ("((a)b)c", "a b c"),
        ("(a)(b)c", "b c a^-1 a^-1"),
        ("((b)a)(c)b", "c a b a^-1 b"),
    ])
    def test_placements_do_not_define_the_symbol(self, text, word):
        sym, w = parse_symbol(text), parse_word(word)
        expected = self.raised(Evaluator(w), sym)
        ev = Evaluator(w)
        placements(ev, sym)
        assert self.raised(ev, sym) == expected
        assert self.raised(ev, sym) == expected

    def test_repeated_values_equal_a_fresh_evaluator(self):
        rng = random.Random(3)
        syms = [parse_symbol(t) for t in
                ("a", "(a)b", "((a)b)a", "(b)(c)a", "((a)c)(b)a", "(((a)b)c)a")]
        for _ in range(20):
            w = random_word(["a", "b", "c"], rng.randint(0, 12), rng)
            ev = Evaluator(w)
            for _ in range(3):
                for sym in rng.sample(syms, len(syms)):
                    try:
                        expected = Evaluator(w).value(sym)
                    except UndefinedInvariant as exc:
                        assert self.raised(ev, sym) == (exc.subsymbol, exc.count)
                    else:
                        assert ev.value(sym) == expected

    def test_value_sum_takes_any_rational_coefficient(self):
        w = parse_word("[a^2, b^3]^2 [a, c] [c^-1, b]")
        terms = [(2, parse_symbol("(a)b")), (Fraction(-1, 6), parse_symbol("(c)b")),
                 ("3/4", parse_symbol("(b)a")), (0.5, parse_symbol("(a)c")),
                 (Fraction(5, 3), parse_symbol("(a)b"))]
        ev = Evaluator(w)
        expected = sum(Fraction(c) * Evaluator(w).value(s) for c, s in terms)
        assert ev.value_sum(terms) == expected
        assert type(ev.value_sum(terms)) is Fraction
        assert type(ev.value_sum([])) is Fraction

    def test_a_cached_canonical_string_changes_no_equality(self):
        warm, cold = parse_symbol("((a)b)(c)a"), parse_symbol("(c)((a)b)a")
        cold = Symbol(cold.letter, cold.children[::-1])
        assert warm.canonical() == "((a)b)(c)a"
        assert "_canonical" in vars(warm) and "_canonical" not in vars(cold)
        assert warm == cold and hash(warm) == hash(cold)
        assert repr(warm) == repr(cold)
        assert {warm: 1}[cold] == 1

    def test_value_fills_no_node_after_the_undefined_one(self):
        # post-order a, (a)b, c, (c)d, root: (a)b counts 1 on this word
        ev = Evaluator(parse_word("a b a^-1 c d c^-1 e"))
        sym = parse_symbol("((a)b)((c)d)e")
        assert self.raised(ev, sym) == (sym.children[0], 1)
        assert list(ev._memo) == ["a", "(a)b"]
        assert placements(ev, sym) == 1
        assert list(ev._memo) == ["a", "(a)b", "c", "(c)d", "((a)b)((c)d)e"]


class TestRepresentativeIndependence:
    @given(
        st.integers(0, 6),
        st.sampled_from("abc"),
        st.integers(1, 100),
    )
    @settings(deadline=None, max_examples=60)
    def test_insertion_of_cancelling_pair(self, cut, gen, seed):
        rng = random.Random(seed)
        u = random_word(["a", "b", "c"], rng.randint(1, 4), rng)
        v = random_word(["a", "b", "c"], rng.randint(1, 4), rng)
        from letterlink.words import commutator

        w = commutator(u, v)
        cut = min(cut, len(w))
        padded = Word(
            w.letters[:cut]
            + (Letter(gen, 1), Letter(gen, -1))
            + w.letters[cut:]
        )
        sym = parse_symbol("(a)b")
        assert eval_symbol(sym, padded) == eval_symbol(sym, w)


class TestAdditivityAndInverse:
    def test_additivity_and_inverse_sampled(self):
        rng = random.Random(9)
        from letterlink.words import commutator, random_gamma_element

        sym = parse_symbol("((a)b)c")
        for _ in range(25):
            u = random_gamma_element(2, ["a", "b", "c"], seed=rng)
            v = random_gamma_element(2, ["a", "b", "c"], seed=rng)
            assert eval_symbol(sym, u * v) == eval_symbol(sym, u) + eval_symbol(sym, v)
            assert eval_symbol(sym, u.inverse()) == -eval_symbol(sym, u)

    def test_cobracket_formula_known_case(self):
        # value on a single commutator of distinct letters
        w = parse_word("[a, b]")
        assert eval_symbol(parse_symbol("(a)b"), w) == 1
        assert eval_symbol(parse_symbol("(b)a"), w) == -1


GENS = "abcd"


@st.composite
def oracle_words(draw):
    """Random words, products of commutators and nested commutators over
    a, b, c (d never occurs), possibly with an uncancelled pair inserted."""
    def short(max_size):
        letters = draw(st.lists(st.tuples(st.sampled_from("abc"),
                                          st.sampled_from((1, -1))),
                                max_size=max_size))
        return Word(tuple(Letter(g, e) for g, e in letters))

    kind = draw(st.sampled_from(("random", "commutators", "nested")))
    if kind == "random":
        w = short(12)
    elif kind == "commutators":
        w = commutator(short(4), short(4)) * commutator(short(4), short(4))
    else:
        w = commutator(commutator(short(3), short(3)), short(3))
    if draw(st.booleans()):
        cut = draw(st.integers(0, len(w)))
        gen = draw(st.sampled_from("abc"))
        w = Word(w.letters[:cut] + (Letter(gen, 1), Letter(gen, -1))
                 + w.letters[cut:])
    return w


@st.composite
def oracle_symbols(draw, levels=4, forbid=None):
    """Valid symbols nested at most ``levels`` deep; a node sometimes
    repeats its previous child."""
    letter = draw(st.sampled_from([g for g in GENS if g != forbid]))
    if levels == 0 or draw(st.integers(0, 2)) == 0:
        return Symbol(letter)
    children = []
    for _ in range(draw(st.integers(1, 3))):
        if children and draw(st.booleans()):
            children.append(children[-1])
        else:
            children.append(draw(oracle_symbols(levels - 1, letter)))
    return Symbol(letter, tuple(children))


def _oracle(sym, w):
    """(list, None) or (None, UndefinedInvariant) from the position oracle."""
    try:
        return position_symbol_list(sym, w), None
    except UndefinedInvariant as exc:
        return None, exc


def _same_failure(got, expected):
    assert got.subsymbol.canonical() == expected.subsymbol.canonical()
    assert got.count == expected.count


class TestPositionOracle:
    @given(oracle_words(), st.lists(oracle_symbols(), min_size=1, max_size=3),
           st.lists(st.fractions(max_denominator=6), min_size=6, max_size=6))
    @example(Word(), [parse_symbol("((a)b)((a)b)c")], [1] * 6)
    @example(parse_word("[[a,b],c]"), [parse_symbol("(((a)b)c)(((a)b)c)d")], [1] * 6)
    @settings(deadline=None, max_examples=300)
    def test_matches_the_position_recursion(self, w, syms, coeffs):
        # every symbol and, to share sub-symbols across terms, its children
        terms = list(zip(coeffs, syms + [c for s in syms for c in s.children]))
        expected_total, expected_failure = Fraction(0), None
        for coeff, sym in terms:
            lst, failure = _oracle(sym, w)
            if failure is None:
                assert eval_symbol(sym, w) == count(lst)
                assert symbol_list(sym, w).assoc == lst.assoc
                if expected_failure is None:
                    expected_total += coeff * count(lst)
            else:
                for fn in (eval_symbol, symbol_list):
                    with pytest.raises(UndefinedInvariant) as err:
                        fn(sym, w)
                    _same_failure(err.value, failure)
                expected_failure = expected_failure or failure
        if expected_failure is None:
            assert eval_symbol_sum(terms, w) == expected_total
        else:
            with pytest.raises(UndefinedInvariant) as err:
                eval_symbol_sum(terms, w)
            _same_failure(err.value, expected_failure)


class TestValueSum:
    @given(oracle_words(),
           st.lists(st.tuples(st.one_of(st.integers(-3, 3),
                                        st.fractions(max_denominator=6)),
                              oracle_symbols(levels=3)), max_size=6),
           st.integers(1, 3))
    @settings(deadline=None, max_examples=200)
    def test_is_the_sum_of_coefficient_times_value(self, w, terms, passes):
        expected, failure = Fraction(0), None
        for coeff, sym in terms:
            try:
                expected += coeff * Evaluator(w).value(sym)
            except UndefinedInvariant as exc:
                failure = exc
                break
        ev = Evaluator(w)
        for _ in range(passes):   # later passes find every term memoized
            if failure is None:
                assert ev.value_sum(terms) == expected
            else:
                with pytest.raises(UndefinedInvariant) as err:
                    ev.value_sum(terms)
                _same_failure(err.value, failure)


class TestDiagram:
    REPEATED = (
        "-- (a)b --\n"
        "  1      0      0   1\n"
        "a b a^-1 b^-1 c b a b^-1 a^-1 c^-1\n"
        ">----->           >-------->\n"
        "\n"
    ) * 2 + (
        "-- ((a)b)((a)b)c --\n"
        "              1               0\n"
        "a b a^-1 b^-1 c b a b^-1 a^-1 c^-1\n"
        "  >------------------->\n"
        "  >------------------->\n"
        "\n"
        "count = 1"
    )
    PARTIAL = (
        "-- (a)b --\n"
        "  1      0      0   1\n"
        "a b a^-1 b^-1 d b a b^-1 a^-1 d^-1 c\n"
        ">----->           >-------->\n"
        "\n"
        "undefined at c (count=1)"
    )

    def test_repeated_subsymbol(self):
        text, value, failure = render_diagram(parse_word("[[a,b],c]"),
                                              parse_symbol("((a)b)((a)b)c"))
        assert (text, value, failure) == (self.REPEATED, 1, None)

    def test_partial_diagram(self):
        text, value, failure = render_diagram(parse_word("[[a,b],d] c"),
                                              parse_symbol("((a)b)(c)d"))
        assert text == self.PARTIAL and value is None
        assert str(failure) == "undefined at c (count=1)"

    @pytest.mark.parametrize("text", [
        "((a)b)((a)b)c", "(((a)b)c)(((a)b)c)a", "(a)(a)b", "((a)b)a", "a",
    ])
    def test_one_block_per_visit(self, text):
        # memo hits still draw their whole subtree
        sym = parse_symbol(text)
        diagram, _, failure = render_diagram(parse_word("[[[a,b],c],[a,b]]"), sym)
        headers = [line[3:-3] for line in diagram.splitlines()
                   if line.startswith("-- ")]
        assert failure is None
        assert headers == ([n.canonical() for n in recursive_postorder(sym)
                            if n.children] or [text])


@st.composite
def walk_symbols(draw):
    """Symbols of 1 to 40 nodes over a-c, each node hung from the one before
    it (chain-like) or from any earlier one (bushy); a node sometimes
    repeats its last child, the same object."""
    n = draw(st.integers(1, 40))
    chain = draw(st.booleans())
    parents = [-1] + [i - 1 if chain and draw(st.integers(0, 5))
                      else draw(st.integers(0, i - 1)) for i in range(1, n)]
    letters = []
    for p in parents:
        letters.append(draw(st.sampled_from(
            [g for g in GENS if p < 0 or g != letters[p]])))
    nodes: list = [None] * n
    for i in reversed(range(n)):
        kids = [nodes[j] for j in range(i + 1, n) if parents[j] == i]
        if kids and draw(st.integers(0, 7)) == 0:
            kids.append(kids[-1])
        nodes[i] = Symbol(letters[i], tuple(kids))
    return nodes[0]


def _failure(f):
    """The value, or the failing sub-symbol object and its count."""
    try:
        return f()
    except UndefinedInvariant as exc:
        return exc.subsymbol, exc.count


def _names(prunings):
    """The canonical string of each pruning of a ``_Prunings``, None at 0."""
    return [None] + [sym.canonical()
                     for sym in pruning_symbols(prunings)[1:]]


def _named_splits(prunings, i):
    """The splits of the pruning at index ``i``, by canonical string."""
    names = _names(prunings)
    return [(tuple(map(names.__getitem__, inside)), names[rest])
            for inside, rest in prunings.terms[i][1:]]


def _recursive_splits(sym):
    """``recursive_splits`` of ``sym``, by canonical string."""
    return [(tuple(map(recursive_canonical, inside)), recursive_canonical(rest))
            for inside, rest in recursive_splits(sym)]


class TestWalksAgainstTheRecursion:
    """Every walk over ``Symbol.postorder`` against the recursion it
    replaced."""

    @given(walk_symbols(), oracle_words())
    @settings(derandomize=True, deadline=None, max_examples=300)
    def test_symbol_walks(self, sym, w):
        assert sym.canonical() == recursive_canonical(sym)
        assert sym.node_count() == recursive_node_count(sym)
        assert sym.depth == recursive_depth(sym)
        assert (list(map(id, sym.postorder()))
                == list(map(id, recursive_postorder(sym))))
        if recursive_prunings_size([sym], linking.TERM_LIMIT) is not None:
            prunings = linking._Prunings([sym])
            names = _names(prunings)
            root = names.index(sym.canonical())
            assert _named_splits(prunings, root) == _recursive_splits(sym)
            assert len(prunings.terms[root]) == recursive_pruning_count(sym) + 1

        ev = Evaluator(w)
        counts = {n.canonical(): placements(ev, n) for n in sym.postorder()}
        assert (_failure(lambda: linking._check_defined(
                    sym, lambda node: counts[node.canonical()]))
                == _failure(lambda: recursive_check_defined(sym, counts)))
        trace = []
        expected = _failure(lambda: count(position_symbol_list(sym, w, trace)))
        got = _failure(lambda: ev.value(sym))
        assert got == expected
        if isinstance(got, tuple):   # the same node object, not a copy
            assert got[0] is expected[0]
        diagram, _, _ = render_diagram(w, sym)
        headers = [line[3:-3] for line in diagram.splitlines()
                   if line.startswith("-- ")]
        assert headers == ([n.canonical() for n, _ in trace]
                           or ([] if sym.children else [sym.canonical()]))

    @given(st.lists(walk_symbols(), min_size=1, max_size=3))
    @settings(derandomize=True, deadline=None, max_examples=200)
    def test_the_prunings_refuse_only_past_the_term_limit(self, syms):
        size = recursive_prunings_size(syms, linking.TERM_LIMIT)
        if size is None:
            with pytest.raises(TooLarge):
                linking._Prunings(syms)
            return
        prunings = linking._Prunings(syms)
        assert prunings.size == size
        for i, sym in enumerate(pruning_symbols(prunings)[1:], 1):
            assert _named_splits(prunings, i) == _recursive_splits(sym)

    def test_each_split_list_is_built_once(self, monkeypatch):
        # one product over the children's lists per pruning, each pruning
        # entered once: the two symbols share the subtree (a)b, and the
        # list of no subtree is built again for a parent or a pruning
        built = []

        def spy(*options):
            built.append(options)
            return product(*options)

        monkeypatch.setattr(linking, "product", spy)
        prunings = linking._Prunings([parse_symbol("((a)b)(c)a"),
                                      parse_symbol("((a)b)((c)b)a")])
        names = _names(prunings)[1:]
        assert len(built) == len(names) == len(set(names))

    @given(walk_symbols(), oracle_words())
    @settings(derandomize=True, deadline=None, max_examples=200)
    def test_value_fills_the_nodes_up_to_the_undefined_one(self, sym, w):
        ev = Evaluator(w)
        got = _failure(lambda: ev.value(sym))
        nodes = sym.postorder()
        if isinstance(got, tuple):
            nodes = nodes[:list(map(id, nodes)).index(id(got[0])) + 1]
        assert list(ev._memo) == list(dict.fromkeys(n.canonical() for n in nodes))
