import random
from fractions import Fraction

import pytest

from letterlink import (
    GraphSum,
    InvalidSymbol,
    ParseError,
    Symbol,
    SymbolSum,
    equivalent,
    eval_symbol,
    eval_symbol_sum,
    leibniz_terms,
    parse_symbol,
    parse_word,
    preimages_of_symbol,
    relabel_symbol,
)
from letterlink.words import NESTING_LIMIT, random_word


class TestParse:
    def test_nested(self):
        sym = parse_symbol("((a)b)a")
        assert sym.letter == "a"
        (child,) = sym.children
        assert child.letter == "b"
        assert child.children[0] == Symbol("a")
        assert sym.depth == 2

    def test_sibling_repeat_is_valid(self):
        sym = parse_symbol("(a)(a)b")
        assert sym.letter == "b"
        assert [c.letter for c in sym.children] == ["a", "a"]

    def test_neighbor_repeat_invalid(self):
        with pytest.raises(InvalidSymbol):
            parse_symbol("(a)a")

    def test_two_bare_letters(self):
        with pytest.raises(ParseError):
            parse_symbol("a b")

    def test_no_free_letter(self):
        with pytest.raises(ParseError):
            parse_symbol("(a)")

    def test_unbalanced(self):
        with pytest.raises(ParseError):
            parse_symbol("((a)b")

    def test_deep_nesting_fails_at_the_first_bracket_past_the_limit(self):
        with pytest.raises(ParseError) as err:
            parse_symbol("(" * 5000 + "a" + ")b" * 5000)
        assert err.value.position == NESTING_LIMIT

    def test_nesting_at_the_limit_parses(self):
        text = "(" * NESTING_LIMIT + "a" + "".join(
            ")b" if i % 2 == 0 else ")a" for i in range(NESTING_LIMIT))
        assert parse_symbol(text).depth == NESTING_LIMIT


class TestDepth:
    @pytest.mark.parametrize(
        "text,expected",
        [("a", 0), ("(a)b", 1), ("((a)(a)b)c", 3), ("((a)b)a", 2)],
    )
    def test_depth(self, text, expected):
        assert parse_symbol(text).depth == expected


class TestEquivalence:
    def test_paper_example(self):
        assert equivalent(parse_symbol("((a)(a)b)c"), parse_symbol("c((a)b(a))"))

    def test_different_labels(self):
        assert not equivalent(parse_symbol("(a)b"), parse_symbol("(b)a"))

    def test_reflexive(self):
        sym = parse_symbol("((a)b)a")
        assert equivalent(sym, sym)

    def test_canonical_printing(self):
        assert parse_symbol("a((a)b)").canonical() == "((a)b)a"
        assert str(parse_symbol("c((a)b(a))")) == "((a)(a)b)c"

    def test_child_order_irrelevant_for_values(self):
        rng = random.Random(0)
        left = parse_symbol("(b)(c)a")
        right = parse_symbol("a(c)(b)")
        assert equivalent(left, right)
        for _ in range(20):
            u = random_word(["a", "b", "c"], 4, rng)
            v = random_word(["a", "b", "c"], 4, rng)
            from letterlink.words import commutator

            w = commutator(u, v)
            assert eval_symbol(left, w) == eval_symbol(right, w)

    def test_equivalent_symbols_same_values(self):
        rng = random.Random(1)
        a = parse_symbol("((a)(a)b)c")
        b = parse_symbol("c((a)b(a))")
        from letterlink import UndefinedInvariant
        from letterlink.words import random_gamma_element

        done = 0
        while done < 50:
            w = random_gamma_element(3, ["a", "b", "c"], seed=rng)
            try:
                va, vb = eval_symbol(a, w), eval_symbol(b, w)
            except UndefinedInvariant:
                continue
            done += 1
            assert va == vb


class TestSymbolSum:
    def test_the_first_of_two_child_orders_is_kept(self):
        first, second = parse_symbol("(b)(c)a"), parse_symbol("a(c)(b)")
        total = SymbolSum().add(2, first).add(Fraction(1, 2), second)
        ((coeff, rep),) = total.items()
        assert rep is first and coeff == Fraction(5, 2)
        reversed_total = SymbolSum().add(Fraction(1, 2), second).add(2, first)
        assert reversed_total.items()[0][1] is second
        assert total == reversed_total
        assert str(total) == str(reversed_total) == "5/2*(b)(c)a"
        w = parse_word("[[a,b],c]")
        assert (eval_symbol_sum(total, w) == eval_symbol_sum(reversed_total, w)
                == Fraction(5, 2) * eval_symbol(second, w) == Fraction(5, 2))

    def test_a_cancelled_key_takes_the_next_representative(self):
        first, second = parse_symbol("(b)(c)a"), parse_symbol("a(c)(b)")
        total = SymbolSum().add(1, first).add(-1, second)
        assert len(total) == 0 and str(total) == "0"
        assert total.add(3, second).items() == [(3, second)]

    def test_a_symbol_sum_never_equals_a_graph_sum(self):
        assert SymbolSum() != GraphSum() and GraphSum() != SymbolSum()


class TestLeibniz:
    def test_two_terms(self):
        s = leibniz_terms([Symbol("a"), Symbol("b")])
        assert sorted(s.terms) == ["(a)b", "(b)a"]
        assert all(c == 1 for c, _ in s)

    def test_three_terms(self):
        s = leibniz_terms([Symbol("a"), Symbol("b"), Symbol("c")])
        assert sorted(s.terms) == ["(a)(b)c", "(a)(c)b", "(b)(c)a"]

    def test_repeated_letter_rejected(self):
        with pytest.raises(InvalidSymbol):
            leibniz_terms([Symbol("a"), Symbol("a")])


class TestRelabel:
    def test_collapse(self):
        m = {"a1": "a", "a2": "a", "b": "b"}
        sym = parse_symbol("((a1)b)a2")
        assert relabel_symbol(m, sym).canonical() == "((a)b)a"

    def test_identity(self):
        sym = parse_symbol("((a)b)a")
        assert relabel_symbol({"a": "a", "b": "b"}, sym) == sym

    def test_invalid_collapse(self):
        with pytest.raises(InvalidSymbol):
            relabel_symbol({"a": "c", "b": "c"}, parse_symbol("(a)b"))


class TestPreimages:
    def test_two_choices(self):
        m = {"a1": "a", "a2": "a", "b": "b"}
        pre = preimages_of_symbol(m, parse_symbol("(a)b"))
        assert {s.canonical() for s in pre} == {"(a1)b", "(a2)b"}
        assert len(pre) == 2

    def test_injective_singleton(self):
        m = {"x": "a", "y": "b"}
        pre = preimages_of_symbol(m, parse_symbol("(a)b"))
        assert len(pre) == 1 and pre[0].canonical() == "(x)y"

    def test_sibling_labelings(self):
        m = {"a1": "a", "a2": "a", "b": "b"}
        pre = preimages_of_symbol(m, parse_symbol("(a)(a)b"))
        assert len(pre) == 4

    def test_filters_invalid(self):
        # collapsing child and parent letters removes those labelings
        m = {"x": "a", "y": "b", "z": "b"}
        pre = preimages_of_symbol(m, parse_symbol("(b)a"))
        assert {s.canonical() for s in pre} == {"(y)x", "(z)x"}
