"""``symbols.FormalSum`` arithmetic against plain dict arithmetic on the keys,
for all four sums: Lie elements, group-ring elements, symbol sums and graph
sums; and the one coefficient reader under the sums and the evaluators."""

import re
from decimal import Decimal
from fractions import Fraction

import pytest
from brute_force import reducing_product
from hypothesis import given, settings, strategies as st

from letterlink import (
    BracketTree,
    GraphSum,
    GroupRingElement,
    InvalidArgument,
    LieElement,
    Letter,
    MixedGrading,
    ParseError,
    SymbolSum,
    Word,
    free_reduce,
    parse_graph,
    parse_lie,
    parse_symbol,
    parse_word,
)
from letterlink.eil import canonical_form
from letterlink.linking import Evaluator, _evaluator, _Fold, eval_symbol_sum
from letterlink.words import parse_compact


def trees(weight):
    """Bracket trees of one weight over a, b."""
    if weight == 1:
        return st.sampled_from("ab").map(lambda letter: BracketTree(letter=letter))
    return st.integers(1, weight - 1).flatmap(lambda cut: st.builds(
        BracketTree, left=trees(cut), right=trees(weight - cut)))


letter_st = st.builds(Letter, st.sampled_from("ab"), st.sampled_from((1, -1)))
word_st = st.lists(letter_st, max_size=4).map(lambda ls: Word(tuple(ls)))
# equal keys under different representatives: child order, vertex ids and
# edge directions (a flipped edge is the same key with sign -1)
SYMBOLS = [parse_symbol(t) for t in
           ("a", "(a)b", "(b)a", "(a)(c)b", "(c)(a)b", "((a)b)c", "(b)((a)c)d")]
GRAPHS = [parse_graph(t) for t in (
    "{v1:a}", "{v1:a, v2:b; v1->v2}", "{v1:a, v2:b; v2->v1}",
    "{v7:b, v8:a; v8->v7}", "{v1:a, v2:b, v3:c; v1->v2, v2->v3}",
    "{v3:c, v2:b, v1:a; v3->v2, v1->v2}", "{v1:(a)b, v2:c; v1->v2}")]

# (class, terms of one draw, key and sign of a term, representative)
KINDS = {
    "lie": (LieElement, st.integers(1, 4).map(trees),
            lambda t: (str(t), 1), lambda t: t),
    "group ring": (GroupRingElement, st.just(word_st),
                   lambda w: (free_reduce(w), 1), free_reduce),
    "symbols": (SymbolSum, st.just(st.sampled_from(SYMBOLS)),
                lambda s: (s.canonical(), 1), lambda s: s),
    "graphs": (GraphSum, st.just(st.sampled_from(GRAPHS)),
               lambda g: canonical_form(g)[:2], lambda g: canonical_form(g)[2]),
}
ints = st.integers(-3, 3)
coeffs = st.one_of(ints, st.fractions(-3, 3, max_denominator=4))


def dict_sum(*pairs_lists):
    """The nonzero coefficients by key of the (coeff, key, sign) triples."""
    out = {}
    for pairs in pairs_lists:
        for c, key, sign in pairs:
            out[key] = out.get(key, 0) + sign * c
    return {k: c for k, c in out.items() if c}


def built(cls, pairs):
    out = cls()
    for c, term in pairs:
        out.add(c, term)
    return out


@st.composite
def operands(draw, kind, coeff_st):
    """Two term lists over one term strategy (one weight for Lie elements)."""
    cls, term_st, key_of, _ = KINDS[kind]
    terms = draw(term_st)
    pairs = [draw(st.lists(st.tuples(coeff_st, terms), max_size=6))
             for _ in range(2)]
    triples = [[(c, *key_of(t)) for c, t in p] for p in pairs]
    return cls, pairs, triples


@pytest.mark.parametrize("kind", KINDS)
class TestAgainstDicts:
    @given(data=st.data())
    @settings(derandomize=True, deadline=None, max_examples=80)
    def test_arithmetic(self, kind, data):
        cls, (xp, yp), (xt, yt) = data.draw(operands(kind, coeffs))
        k = data.draw(coeffs)
        x, y = built(cls, xp), built(cls, yp)
        mx, my = dict_sum(xt), dict_sum(yt)
        assert x.terms == mx and y.terms == my and len(x) == len(mx)
        assert (x + y).terms == dict_sum(xt, yt)
        assert (x - y).terms == dict_sum(xt, [(-c, key, s) for c, key, s in yt])
        assert (-x).terms == {key: -c for key, c in mx.items()}
        assert x.scale(k).terms == {key: k * c for key, c in mx.items() if k}
        assert (x == y) == (mx == my) and x == x.scale(1) != mx
        assert x.terms == mx and y.terms == my   # the operands are unchanged
        assert list(x) == x.items() and len(x.items()) == len(mx)

    @given(data=st.data())
    @settings(derandomize=True, deadline=None, max_examples=40)
    def test_int_coefficients_stay_int(self, kind, data):
        cls, (xp, yp), _ = data.draw(operands(kind, ints))
        x, y = built(cls, xp), built(cls, yp)
        for result in (x, x + y, x - y, -x, x.scale(data.draw(ints))):
            assert all(type(c) is int for c in result.terms.values())

    @given(data=st.data())
    @settings(derandomize=True, deadline=None, max_examples=60)
    def test_cancelled_terms_vanish_and_the_first_representative_stays(
            self, kind, data):
        cls, (xp, _), _ = data.draw(operands(kind, coeffs))
        _, _, key_of, rep_of = KINDS[kind]
        x, running, reps = cls(), {}, {}
        for c, term in xp + [(-c, t) for c, t in xp[:len(xp) // 2]]:
            x.add(c, term)
            key, sign = key_of(term)
            running[key] = running.get(key, 0) + sign * c
            if running[key]:
                reps.setdefault(key, rep_of(term))
            else:
                reps.pop(key, None)
        assert x.reps == reps and set(x.terms) == set(reps)
        for c, term in xp:
            assert x.add(c, term).add(-c, term) == x


class TestGroupRingProduct:
    @given(operands("group ring", ints))
    @settings(derandomize=True, deadline=None, max_examples=100)
    def test_product_agrees_with_the_reducing_oracle(self, drawn):
        cls, (xp, yp), _ = drawn
        x, y = built(cls, xp), built(cls, yp)
        assert (x * y).terms == reducing_product(x.terms, y.terms)


class TestMixedGrading:
    @given(st.integers(1, 4), st.integers(1, 4), st.data())
    @settings(derandomize=True, deadline=None, max_examples=60)
    def test_either_term_first(self, w1, w2, data):
        if w1 == w2:
            w2 += 1
        t1, t2 = data.draw(trees(w1)), data.draw(trees(w2))
        c1, c2 = (data.draw(coeffs.filter(bool)) for _ in range(2))
        message = re.escape(f"mixed weights {sorted((w1, w2))}")
        for (a, ca), (b, cb) in [((t1, c1), (t2, c2)), ((t2, c2), (t1, c1))]:
            with pytest.raises(MixedGrading, match=message):
                LieElement().add(ca, a).add(cb, b)
            with pytest.raises(MixedGrading):
                LieElement({a: ca, b: cb})
            with pytest.raises(MixedGrading):
                LieElement({a: ca}) + LieElement({b: cb})
            with pytest.raises(MixedGrading, match=message):
                parse_lie(f"{a} + {b}")
            # a weight that cancels out leaves a homogeneous element
            assert parse_lie(f"{a} + {b} - {a}") == LieElement({b: 1})


SYMBOL = parse_symbol("(a)b")
# (a)b counts 1 on [a,b], and 100 on the power, which is folded
WORD, FOLDED = parse_word("[a,b]"), parse_compact("[a,b]^100")
TERMS = {
    "symbols": (SymbolSum, SYMBOL),
    "graphs": (GraphSum, parse_graph("{v1:a, v2:b; v1->v2}")),
    "lie": (LieElement, BracketTree(left=BracketTree(letter="a"),
                                    right=BracketTree(letter="b"))),
    "group ring": (GroupRingElement, parse_word("a b")),
}


def _sum_entry_points(kind, cls, term):
    """The constructor, ``add`` and ``scale`` of a sum class, each as the
    coefficient of the one-term sum it builds from a coefficient."""
    def constructor(c):
        return _only_coefficient(cls({term: c}))

    def add(c):
        return _only_coefficient(cls().add(c, term))

    def scale(c):
        return _only_coefficient(cls({term: 1}).scale(c))

    return {f"{kind} {f.__name__}": f for f in (constructor, add, scale)}


def _only_coefficient(total):
    (coeff,) = total.terms.values()
    return coeff


# every place a coefficient enters the package, each as a function of the
# coefficient, linear in it and nonzero at 1
ENTRY_POINTS = {
    name: enter for kind, (cls, term) in TERMS.items()
    for name, enter in _sum_entry_points(kind, cls, term).items()}
ENTRY_POINTS.update({
    "Evaluator.value_sum": lambda c: Evaluator(WORD).value_sum([(c, SYMBOL)]),
    "eval_symbol_sum on a Word": lambda c: eval_symbol_sum([(c, SYMBOL)], WORD),
    "eval_symbol_sum on a folded CompactWord":
        lambda c: eval_symbol_sum([(c, SYMBOL)], FOLDED),
})


def test_the_compact_word_is_folded():
    assert isinstance(_evaluator(FOLDED, [(1, SYMBOL)])[0], _Fold)


@pytest.mark.parametrize("enter", ENTRY_POINTS.values(), ids=ENTRY_POINTS)
class TestCoefficients:
    @pytest.mark.parametrize("coeff, exact", [
        (3, 3), (Fraction(1, 3), Fraction(1, 3)), ("3/4", Fraction(3, 4)),
        (0.5, Fraction(1, 2)), (Decimal("0.5"), Fraction(1, 2)),
    ], ids=["int", "Fraction", "text", "float", "Decimal"])
    def test_rational_numbers_are_read_exactly(self, enter, coeff, exact):
        unit = enter(1)
        assert unit and enter(coeff) == exact * unit

    @pytest.mark.parametrize("coeff", [
        "x", None, float("nan"), float("inf"), object(), "1/0", "1e10000000",
        Decimal("1e10000000"),
    ], ids=["x", "None", "nan", "inf", "object", "1/0", "1e10000000",
            "Decimal 1e10000000"])
    def test_anything_else_is_refused(self, enter, coeff):
        with pytest.raises(InvalidArgument):
            enter(coeff)


# (text, the coefficient it reads as, or None where it is refused); the
# first group is accepted on every Python version from 3.10 on
COEFFICIENT_TEXTS = [
    ("3/4", Fraction(3, 4)), (" 3/4 ", Fraction(3, 4)), ("-3/4", Fraction(-3, 4)),
    ("+3", 3), ("0.5", Fraction(1, 2)), (".5", Fraction(1, 2)), ("5.", 5),
    ("1e-3", Fraction(1, 1000)), ("1E+3", 1000),
    # spaces around '/' or after the sign: Fraction reads none before 3.12,
    # and reads spaces after the sign on no version
    ("3 / 4", Fraction(3, 4)), ("3/ 4", Fraction(3, 4)), ("- 3/4", Fraction(-3, 4)),
    ("+ 3", 3),
    # an underscore between two digits, which Fraction reads from 3.11 only
    ("1_000", 1000), ("1_0/2_0", Fraction(1, 2)), ("1.2_5", Fraction(5, 4)),
    ("1e1_0", 10 ** 10),
    # refused: an underscore not between two digits, a second sign, a sign
    # or space inside the number, and what is not a finite rational
    ("1__0", None), ("_1", None), ("1_", None), ("1_/2", None), ("3/-4", None),
    ("--3", None), ("+-3", None), ("1 0", None), ("3 /", None), ("e3", None),
    (".", None), ("", None), (" ", None), ("0x10", None), ("1/0", None),
    ("inf", None), ("nan", None), ("1.5/2", None), ("3/4.0", None),
]


@pytest.mark.parametrize("text, exact", COEFFICIENT_TEXTS,
                         ids=[repr(t) for t, _ in COEFFICIENT_TEXTS])
def test_the_library_reads_a_coefficient_as_a_sum_does(text, exact):
    try:
        in_the_library = _only_coefficient(SymbolSum().add(text, SYMBOL))
    except InvalidArgument:
        in_the_library = None
    try:
        in_a_sum = _only_coefficient(parse_lie(f"{text}*[a,b]"))
    except ParseError:
        in_a_sum = None
    assert in_the_library == in_a_sum == exact
