import random

import pytest
from brute_force import reducing_iterated_fox, reducing_product
from hypothesis import example, given, settings, strategies as st

from letterlink import (
    GroupRingElement,
    InvalidArgument,
    Letter,
    Word,
    augmentation,
    fox_derivative,
    fox_eval,
    free_reduce,
    iterated_fox,
    parse_word,
)
from letterlink.words import commutator, random_word


def element(*terms):
    out = {}
    for coeff, text in terms:
        w = free_reduce(parse_word(text))
        out[w] = out.get(w, 0) + coeff
    return GroupRingElement(out)


WORKED = parse_word("[a a, [b, a c]]")


class TestAugmentation:
    def test_sum_of_coefficients(self):
        assert augmentation(element((2, "a a b"), (1, "c"))) == 3

    def test_zero(self):
        assert augmentation(GroupRingElement()) == 0

    def test_cancellation(self):
        assert augmentation(element((1, ""), (-1, "a"))) == 0


class TestFoxDerivative:
    def test_generator(self):
        assert iterated_fox(parse_word("a"), ["a"]) == element((1, ""))

    def test_inverse_generator(self):
        assert iterated_fox(parse_word("a^-1"), ["a"]) == element((-1, "a^-1"))

    def test_other_generator(self):
        assert fox_eval(parse_word("b"), ["a"]) == 0

    def test_worked_first_derivative(self):
        expected = element(
            (1, ""), (1, "a"), (1, "a a b"),
            (-1, "a a b a c b^-1 c^-1 a^-1"),
            (-1, "a a b a c b^-1 c^-1 a^-1 a^-1"),
            (-1, "a a b a c b^-1 c^-1 a^-1 a^-1 c b c^-1 a^-1"),
        )
        assert iterated_fox(WORKED, ["a"]) == expected
        assert iterated_fox(free_reduce(WORKED), ["a"]) == expected

    def test_worked_second_derivative(self):
        expected = element(
            (-2, "a a"), (3, "a a b a c b^-1"),
            (-1, "a a b a c b^-1 c^-1 a^-1 a^-1 c"),
        )
        assert iterated_fox(WORKED, ["b", "a"]) == expected

    def test_worked_third_derivative(self):
        expected = element(
            (2, "a a b"),
            (1, "a a b a c b^-1 c^-1 a^-1"),
            (1, "a a b a c b^-1 c^-1 a^-1 a^-1"),
        )
        assert iterated_fox(WORKED, ["a", "b", "a"]) == expected
        assert fox_eval(WORKED, ["a", "b", "a"]) == 4

    def test_identity_word(self):
        assert iterated_fox(Word(), ["a", "b"]) == GroupRingElement()

    def test_commutator_linking_number(self):
        assert fox_eval(parse_word("a b a^-1 b^-1"), ["a", "b"]) == 1

    def test_printing(self):
        e = iterated_fox(WORKED, ["a", "b", "a"])
        assert str(e) == "2*aab + aabacb^-1c^-1a^-1 + aabacb^-1c^-1a^-1a^-1"

    def test_printing_a_leading_negative_term(self):
        e = element((-2, "b"), (3, "a b"), (-1, "a^-1 c"), (1, "c a"), (-4, "a b a"))
        assert str(e) == "-2*b - a^-1c + 3*ab + ca - 4*aba"


class TestAxioms:
    def _random_element(self, rng):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            w = random_word(["a", "b", "c"], rng.randint(0, 5), rng)
            terms[w] = terms.get(w, 0) + rng.randint(-2, 2)
        return GroupRingElement(terms)

    def test_derivation_law(self):
        rng = random.Random(2)
        for _ in range(50):
            x = self._random_element(rng)
            y = self._random_element(rng)
            g = rng.choice(["a", "b", "c"])
            lhs = fox_derivative(x * y, g)
            rhs = fox_derivative(x, g).scale(augmentation(y)) + x * fox_derivative(y, g)
            assert lhs == rhs

    def test_additivity(self):
        rng = random.Random(4)
        for _ in range(50):
            x = self._random_element(rng)
            y = self._random_element(rng)
            g = rng.choice(["a", "b", "c"])
            assert fox_derivative(x + y, g) == fox_derivative(x, g) + fox_derivative(y, g)

    def test_representative_independence(self):
        rng = random.Random(6)
        for _ in range(30):
            w = random_word(["a", "b"], rng.randint(1, 6), rng)
            cut = rng.randint(0, len(w))
            padded = Word(w.letters[:cut]) * parse_word("c c^-1") * Word(w.letters[cut:])
            for g in "abc":
                assert iterated_fox(w, [g]) == iterated_fox(padded, [g])


class TestBracketCutRule:
    def test_minimal_case(self):
        w = parse_word("[a, b]")
        assert fox_eval(w, ["a", "b"]) == 1
        assert fox_eval(parse_word("a"), ["a"]) * fox_eval(parse_word("b"), ["b"]) == 1

    def test_random_instances(self):
        from letterlink.words import expand_bracket, random_bracket

        rng = random.Random(12)
        for _ in range(50):
            i, j = rng.randint(1, 2), rng.randint(1, 2)
            seq = [rng.choice(["a", "b", "c"]) for _ in range(i + j)]
            u = expand_bracket(random_bracket(i, ["a", "b", "c"], rng))
            v = expand_bracket(random_bracket(j, ["a", "b", "c"], rng))
            lhs = fox_eval(commutator(u, v), seq)
            rhs = fox_eval(u, seq[:i]) * fox_eval(v, seq[i:]) - fox_eval(
                u, seq[j:]
            ) * fox_eval(v, seq[:j])
            assert lhs == rhs


class TestVanishingOnDeepWords:
    def test_functionals_kill_deeper_subgroups(self):
        from letterlink.words import random_gamma_element

        rng = random.Random(14)
        for _ in range(40):
            k = rng.randint(1, 4)
            seq = [rng.choice(["a", "b"]) for _ in range(k)]
            w = random_gamma_element(k, ["a", "b"], seed=rng)
            assert fox_eval(w, seq) == 0


letter_st = st.builds(Letter, st.sampled_from("abc"), st.sampled_from((1, -1)))
# pieces of one letter or of an uncancelled pair x x^-1
piece_st = st.one_of(letter_st.map(lambda l: (l,)),
                     letter_st.map(lambda l: (l, l.inverse())))
word_st = st.lists(piece_st, max_size=6).map(
    lambda pieces: Word(tuple(l for piece in pieces for l in piece)))
# "d" never occurs in a word, and "a,a,b"-like repeats are common
seq_st = st.lists(st.sampled_from("abcd"), min_size=1, max_size=4)


class TestMagnusPassMatchesGroupRing:
    @given(word_st, seq_st)
    @example(parse_word("a a^-1 b a^-1 b^-1 a"), ["a", "a", "b"])
    @example(parse_word("a^-1 a^-1 b^-1 a^-1"), ["a", "a", "a"])
    @example(parse_word("b c b^-1 c^-1"), ["a", "b", "c"])
    @example(parse_word("[a a, [b, a c]]"), ["d", "a"])
    @settings(deadline=None, max_examples=200)
    def test_fox_eval_is_the_augmentation(self, w, seq):
        assert fox_eval(w, seq) == augmentation(iterated_fox(w, seq))

    def test_empty_sequence_is_rejected(self):
        with pytest.raises(ValueError):
            fox_eval(parse_word("a"), [])

    @pytest.mark.parametrize("fn", [fox_eval, iterated_fox])
    def test_empty_sequence_is_a_package_error(self, fn):
        with pytest.raises(InvalidArgument):
            fn(parse_word("a"), [])


element_st = st.dictionaries(word_st, st.integers(-3, 3), max_size=4).map(
    GroupRingElement)


class TestGroupRingMatchesReducingOracle:
    """Keys are reduced once, by the constructor; the oracle reduces each
    product and prefix as it is made."""

    @given(word_st, seq_st)
    @example(parse_word("a a^-1 b a^-1 b^-1 a"), ["a", "a", "b"])
    @example(parse_word("b c b^-1 c^-1"), ["a", "b", "c"])
    @example(parse_word("[a a, [b, a c]]"), ["d", "a"])
    @settings(deadline=None, max_examples=200)
    def test_iterated_fox(self, w, seq):
        assert iterated_fox(w, seq).terms == reducing_iterated_fox(w, seq)

    @given(element_st, element_st)
    @example(element((1, "a b")), element((2, "b^-1 a^-1"), (-1, "b^-1 c")))
    @settings(deadline=None, max_examples=200)
    def test_product(self, x, y):
        assert (x * y).terms == reducing_product(x.terms, y.terms)
