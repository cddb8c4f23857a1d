"""The fold of placement counts over compact words against `Evaluator` on
the expanded word, and its leaf scan against the placements that
`Evaluator`'s lists count."""

from fractions import Fraction
from unittest.mock import patch

import pytest
from brute_force import (enumerated_placements, letter_leaf, placements,
                         pruning_symbols, recursive_pruning_count)
from hypothesis import given, settings, strategies as st

from letterlink import (
    Symbol,
    TooLarge,
    UndefinedInvariant,
    eval_graph,
    eval_symbol,
    eval_symbol_sum,
    parse_graph,
    parse_symbol,
    parse_word,
)
from letterlink import linking
from letterlink.linking import Evaluator
from letterlink.words import CompactWord, Letter, Word, parse_compact


@st.composite
def word_texts(draw, depth=3):
    """Products, powers from -40 to 40 and nested commutators over a-c."""
    kind = draw(st.sampled_from(("letters", "product", "power", "commutator"))
                if depth else st.just("letters"))
    if kind == "letters":
        return " ".join(draw(st.lists(st.sampled_from(["a", "b", "c", "a^-1",
                                                       "b^-1", "c^-1"]),
                                      min_size=1, max_size=4)))
    if kind == "product":
        return " ".join(f"({draw(word_texts(depth - 1))})"
                        for _ in range(draw(st.integers(2, 3))))
    if kind == "power":
        return f"({draw(word_texts(depth - 1))})^{draw(st.integers(-40, 40))}"
    return f"[{draw(word_texts(depth - 1))},{draw(word_texts(depth - 1))}]"


@st.composite
def tree_symbols(draw, nodes=None, forbid=None):
    """Valid symbols of ``nodes`` nodes (2 to 5 if not given) over a-c."""
    if nodes is None:
        nodes = draw(st.integers(2, 5))
    letter = draw(st.sampled_from([g for g in "abc" if g != forbid]))
    children = []
    left = nodes - 1
    while left:
        size = draw(st.integers(1, left))
        children.append(draw(tree_symbols(size, letter)))
        left -= size
    return Symbol(letter, tuple(children))


@st.composite
def graph_texts(draw):
    """Trees of 2 to 5 vertices over a-c, adjacent labels distinct."""
    k = draw(st.integers(2, 5))
    labels, edges = [draw(st.sampled_from("abc"))], []
    for v in range(1, k):
        u = draw(st.integers(0, v - 1))
        labels.append(draw(st.sampled_from([g for g in "abc" if g != labels[u]])))
        edges.append(f"v{u + 1}->v{v + 1}" if draw(st.booleans())
                     else f"v{v + 1}->v{u + 1}")
    vertices = ", ".join(f"v{i + 1}:{lab}" for i, lab in enumerate(labels))
    return "{" + vertices + "; " + ", ".join(edges) + "}"


_LETTERS = [Letter(g, s) for g in "abc" for s in (1, -1)]


@st.composite
def letter_words(draw, max_pieces=20):
    """Up to twice ``max_pieces`` letters over a-c: single letters and
    cancelling pairs ``x x^-1``."""
    letters = []
    for letter, cancelled in draw(st.lists(
            st.tuples(st.sampled_from(_LETTERS), st.booleans()),
            max_size=max_pieces)):
        letters += [letter, letter.inverse()] if cancelled else [letter]
    return tuple(letters)


def _outcome(f):
    """The value, or the failing sub-symbol and its count."""
    try:
        return f()
    except UndefinedInvariant as exc:
        return exc.subsymbol.canonical(), exc.count


def _small_leaves(leaf):
    return patch.object(linking, "LEAF_LETTERS", leaf)


class TestAgreement:
    @given(word_texts(), st.lists(tree_symbols(), min_size=1, max_size=3),
           st.sampled_from([1, 4, 16, 64]))
    @settings(deadline=None, max_examples=150)
    def test_symbols(self, text, syms, leaf):
        w = parse_compact(text)
        if w.length > 3000:
            return
        expanded = parse_word(text)
        terms = [(Fraction(i + 1, 2), s) for i, s in enumerate(syms)]
        with _small_leaves(leaf):
            folded = _outcome(lambda: eval_symbol_sum(terms, w))
            single = _outcome(lambda: eval_symbol(syms[0], w))
        assert folded == _outcome(lambda: Evaluator(expanded).value_sum(terms))
        assert single == _outcome(lambda: Evaluator(expanded).value(syms[0]))

    @given(word_texts(), graph_texts(), st.sampled_from([1, 8, 64]))
    @settings(deadline=None, max_examples=60)
    def test_graphs(self, text, graph, leaf):
        w = parse_compact(text)
        if w.length > 3000:
            return
        g = parse_graph(graph)
        with _small_leaves(leaf):
            folded = _outcome(lambda: eval_graph(g, w))
        assert folded == _outcome(lambda: eval_graph(g, parse_word(text)))

    def test_undefined_names_the_same_subsymbol(self):
        text = "(a b)^300 [a,b]^200"
        sym = parse_symbol("((a)b)(c)a")
        with pytest.raises(UndefinedInvariant) as folded:
            eval_symbol(sym, parse_compact(text))
        with pytest.raises(UndefinedInvariant) as expanded:
            eval_symbol(sym, parse_word(text))
        assert str(folded.value) == str(expanded.value) == \
            "undefined at a (count=300)"


@st.composite
def compact_subtrees(draw, depth=3):
    """CompactWords built directly over a-c: runs of up to 6 letters,
    products of 1 to 3 factors, powers from -8 to 8 and commutators."""
    kind = draw(st.sampled_from(("run", "product", "power", "commutator"))
                if depth else st.just("run"))
    if kind == "run":
        return CompactWord("run", draw(letter_words(3)))
    if kind == "product":
        return CompactWord("product", tuple(
            draw(compact_subtrees(depth - 1))
            for _ in range(draw(st.integers(1, 3)))))
    if kind == "power":
        return CompactWord("power", (draw(compact_subtrees(depth - 1)),),
                           draw(st.integers(-8, 8)))
    return CompactWord("commutator", (draw(compact_subtrees(depth - 1)),
                                      draw(compact_subtrees(depth - 1))))


def _scan(fold, node, inverted=False):
    """The counts that the fold's in-place scan leaves on a fresh list."""
    return fold._scan(node, inverted, fold._one[:])


class TestLeafScan:
    @given(st.integers(1, 6).flatmap(tree_symbols), letter_words())
    @settings(deadline=None, max_examples=300)
    def test_the_scan_counts_the_placements_of_every_pruning(self, sym, letters):
        prunings = linking._Prunings([sym])
        fold = linking._Fold(parse_compact(""), prunings)
        ev = Evaluator(Word(letters))
        assert _scan(fold, CompactWord("run", letters)) == [1] + [
            placements(ev, p) for p in pruning_symbols(prunings)[1:]]

    @given(st.lists(st.integers(1, 5).flatmap(tree_symbols), min_size=1,
                    max_size=2), compact_subtrees(), st.booleans())
    @settings(deadline=None, max_examples=300)
    def test_the_scan_of_a_subtree_counts_its_built_letters(
            self, syms, node, inverted):
        prunings = linking._Prunings(syms)
        fold = linking._Fold(parse_compact(""), prunings)
        assert (_scan(fold, node, inverted)
                == letter_leaf(prunings, node.letters(inverted)))

    @given(st.integers(1, 4).flatmap(tree_symbols), letter_words(4))
    @settings(deadline=None, max_examples=200)
    def test_the_lists_count_each_placement(self, sym, letters):
        w = Word(letters)
        assert placements(Evaluator(w), sym) == enumerated_placements(sym, w)


class TestWork:
    """On a folded word the prunings are indices: no Symbol is built for
    one and no canonical string is read, except the reported node's."""

    WORD = "[a a,[b,a c]]^1000 [[a,c],b]^-77"

    @pytest.fixture
    def calls(self, monkeypatch):
        built, named = [], []
        init, canonical = Symbol.__init__, Symbol.canonical

        def spy_init(sym, *args, **kwargs):
            built.append(args)
            init(sym, *args, **kwargs)

        def spy_canonical(sym):
            named.append(sym)
            return canonical(sym)

        def spy():
            monkeypatch.setattr(Symbol, "__init__", spy_init)
            monkeypatch.setattr(Symbol, "canonical", spy_canonical)
            return built, named

        return spy

    def test_a_defined_value_builds_no_symbol_and_no_name(self, calls):
        w = parse_compact(self.WORD)
        sym = parse_symbol("((a)b)a")
        terms = [(1, sym), (Fraction(1, 2), parse_symbol("((a)b)c")),
                 (-3, parse_symbol("((c)a)b"))]
        assert w.length > linking.LEAF_LETTERS and w.kind != "run"
        ev = Evaluator(w.expand())
        expected = ev.value(sym), ev.value_sum(terms)
        built, named = calls()
        assert (eval_symbol(sym, w), eval_symbol_sum(terms, w)) == expected
        assert built == named == []

    @pytest.mark.parametrize("evaluate", [
        lambda terms, w: eval_symbol(terms[-1][1], w),
        eval_symbol_sum,
    ], ids=["eval_symbol", "eval_symbol_sum"])
    def test_an_undefined_value_names_only_the_reported_node(
            self, calls, evaluate):
        w = parse_compact(self.WORD)
        terms = [(2, parse_symbol("((a)b)a")),
                 (1, parse_symbol("(((a)c)b)a"))]
        built, named = calls()
        with pytest.raises(UndefinedInvariant) as err:
            evaluate(terms, w)
        assert built == []
        assert named == [err.value.subsymbol]
        assert named[0] is terms[1][1].children[0]
        assert str(err.value) == "undefined at ((a)c)b (count=-2077)"


def _interpolate(points: dict[int, int], x: int) -> Fraction:
    """The Lagrange polynomial through ``points`` at ``x``."""
    total = Fraction(0)
    for xi, yi in points.items():
        term = Fraction(yi)
        for xj in points:
            if xj != xi:
                term *= Fraction(x - xj, xi - xj)
        total += term
    return total


class TestPowers:
    @pytest.mark.parametrize("base, text", [
        ("[a a,[b,a c]]", "((a)b)a"),
        ("[a a,[b,a c]]", "(a)(c)b"),
        ("a b c a^-1", "((a)b)c"),
        ("[[a,b],c] a", "(((a)b)c)a"),
        ("[a,b] [b,c]^3", "((a)(c)b)(c)a"),
    ])
    def test_counts_on_a_huge_power_are_the_interpolated_polynomial(
            self, base, text):
        # every count on u^N is a polynomial in N of degree at most the
        # pruning's node count
        sym = parse_symbol(text)
        k = sym.node_count()
        prunings = linking._Prunings([sym])
        symbols = pruning_symbols(prunings)[1:]
        samples = {}
        for n in range(-k, k + 1):
            ev = Evaluator(parse_word(f"({base})^{n}"))
            samples[n] = [placements(ev, p) for p in symbols]
        for n in (10 ** 100, -10 ** 100):
            folded = linking._Fold(parse_compact(f"({base})^{n}"), prunings)
            expected = [_interpolate({m: s[i] for m, s in samples.items()}, n)
                        for i in range(len(symbols))]
            assert folded._counts[1:] == expected

    def test_the_worked_example_at_a_googol(self):
        w = parse_compact(f"[a a,[b,a c]]^{10 ** 100}")
        assert eval_symbol(parse_symbol("((a)b)a"), w) == 4 * 10 ** 100


class TestLimits:
    def test_len_is_the_expanded_length(self):
        assert len(parse_compact("[a b,c]^1000 a^-3")) == 6003
        assert parse_compact("a^" + "9" * 30).length == 10 ** 30 - 1
        with pytest.raises(OverflowError):
            len(parse_compact("a^" + "9" * 30))

    def test_counts_past_the_digit_limit_are_refused(self):
        # 2 nodes on about 10^2200 letters could count to 4400 digits
        with pytest.raises(TooLarge):
            eval_symbol(parse_symbol("(a)b"),
                        parse_compact(f"[a,b]^{10 ** 2200}"))
        assert eval_symbol(parse_symbol("(a)b"),
                           parse_compact(f"[a,b]^{10 ** 2000}")) == 10 ** 2000

    def test_too_many_prunings_evaluate_the_expanded_word(self):
        star = parse_symbol("(a)" * 13 + "b")  # 2^13 prunings at the root
        w = "[a,b]^100 [a b,b a]"
        assert (eval_symbol(star, parse_compact(w))
                == Evaluator(parse_word(w)).value(star) != 0)
        with pytest.raises(TooLarge):
            eval_symbol(star, parse_compact("[a,b]^99999999999999999999999"))

    # a 60-node chain: its subtrees alone are charged 1890, under
    # TERM_LIMIT, but the prunings that their split lists name pass it
    @pytest.mark.parametrize("text", [
        "[a b, c]^100 [b, c a]^50",             # undefined at (a)b
        "[[[a,b],c],[[b,c],a]]^10 [a,b c]",     # undefined 7 nodes deep
        "[b,c]^200 [c b, b]^30",                # no a: the value 0
    ])
    def test_a_split_past_the_term_limit_evaluates_the_expanded_word(self, text):
        chain = Symbol("a")
        for i in range(1, 60):
            chain = Symbol("abc"[i % 3], (chain,))
        w = parse_compact(text)
        assert len(w) > linking.LEAF_LETTERS and w.kind != "run"
        assert (sum(recursive_pruning_count(n) + 1 for n in chain.postorder())
                == 1890 < linking.TERM_LIMIT)
        with pytest.raises(TooLarge):
            linking._Prunings([chain])
        assert isinstance(linking._evaluator(w, [(1, chain)])[0], Evaluator)

        def outcome(evaluate):
            try:
                return evaluate(chain)
            except UndefinedInvariant as exc:
                return exc.subsymbol.canonical(), exc.count

        assert (outcome(lambda sym: eval_symbol(sym, w))
                == outcome(Evaluator(w.expand()).value))
