import random
import re

import pytest
from brute_force import (commutator_expansion, letterwise_inverse, split_bracketings,
                         token_parse_compact)
from hypothesis import assume, given, settings, strategies as st

from letterlink import (
    InvalidArgument,
    Letter,
    LetterLinkError,
    ParseError,
    SymbolSum,
    TooLarge,
    UnknownGenerator,
    Word,
    commutator,
    free_reduce,
    parse_word,
    random_gamma_element,
    lie_image_of_bracket_word,
    parse_graph,
    parse_lie,
    parse_symbol,
    relabel,
)
from letterlink import words
from letterlink.eil import parse_graph_sum
from letterlink.words import (NESTING_LIMIT, all_bracketings, expand_bracket,
                              parse_compact)


def letters(text):
    out = []
    for tok in text.split():
        if tok.endswith("^-1"):
            out.append(Letter(tok[:-3], -1))
        else:
            out.append(Letter(tok, 1))
    return Word(tuple(out))


class TestParse:
    def test_commutator_expansion(self):
        w = parse_word("[a a, [b, a c]]")
        assert len(w) == 16
        # the reduced form is the worked example's 14-letter word
        assert free_reduce(w) == letters(
            "a a b a c b^-1 c^-1 a^-1 a^-1 c b c^-1 a^-1 b^-1"
        )

    def test_empty(self):
        assert parse_word("") == Word()

    def test_negative_exponent(self):
        assert parse_word("a^-2 b") == letters("a^-1 a^-1 b")

    def test_positive_exponent_and_groups(self):
        assert parse_word("(a b)^2") == letters("a b a b")
        assert parse_word("(a b)^-1") == letters("b^-1 a^-1")
        assert parse_word("a^0") == Word()

    def test_unknown_generator(self):
        with pytest.raises(UnknownGenerator):
            parse_word("a q", alphabet={"a", "b"})

    def test_parse_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_word("[a, b")
        assert err.value.position >= 4

    def test_bad_exponent(self):
        with pytest.raises(ParseError):
            parse_word("a^b")

    @pytest.mark.parametrize("text", [
        "(" * 5000 + "a" + ")" * 5000,
        "[" * 5000 + "a" + ", b]" * 5000,
        "a [b, " * 5000 + "a" + "]" * 5000,
    ])
    def test_deep_nesting_fails_at_the_first_bracket_past_the_limit(self, text):
        with pytest.raises(ParseError) as err:
            parse_word(text)
        opening = [i for i, ch in enumerate(text) if ch in "[("]
        assert err.value.position == opening[NESTING_LIMIT]

    def test_nesting_at_the_limit_parses(self):
        limit, outer = NESTING_LIMIT, NESTING_LIMIT - 1
        assert parse_word("(" * limit + "a" + ")" * limit) == letters("a")
        assert (parse_word("(" * outer + "[a, b]" + ")" * outer)
                == letters("a b a^-1 b^-1"))


    @pytest.mark.parametrize("text", [
        "a^99999999999999999999999",
        "(a b)^3000000",
        "[a, b]^-2000000",
    ])
    def test_expansions_past_the_length_limit_are_refused(self, text):
        with pytest.raises(TooLarge):
            parse_word(text)

    @pytest.mark.parametrize("text", [
        "[a b c, d e f]",        # a commutator of 12 letters
        "a b c d e f g h i j k",  # a product of 11 letters
        "(a b c d)^3",
    ])
    def test_every_expansion_is_checked_against_the_limit(self, monkeypatch,
                                                          text):
        monkeypatch.setattr(words, "LENGTH_LIMIT", 10)
        with pytest.raises(TooLarge):
            parse_word(text)
        assert len(parse_word("[a b c, d e]")) == 10

    # U+0663 and U+0662, the Arabic-Indic digits three and two, are decimal
    # digits to Python's int() and \d, but no digits of these grammars
    @pytest.mark.parametrize("read", [
        lambda: parse_word("a^-1\u0663"),
        lambda: parse_word("a^\u0663"),
        lambda: parse_lie("\u0663*[a,b]"),
        lambda: SymbolSum().add("\u0663/\u0662", parse_symbol("(a)b")),
    ], ids=["after-an-inverse", "exponent", "lie-coefficient", "sum-coefficient"])
    def test_a_digit_outside_ascii_is_refused(self, read):
        with pytest.raises(LetterLinkError):
            read()

    @pytest.mark.parametrize("read", [
        parse_word, parse_compact, parse_symbol, parse_graph, parse_graph_sum,
        parse_lie, lie_image_of_bracket_word,
    ])
    @pytest.mark.parametrize("text", [None, 5, b"a b"], ids=["none", "int", "bytes"])
    def test_every_grammar_refuses_a_text_that_is_not_a_str(self, read, text):
        with pytest.raises(InvalidArgument):
            read(text)

    def test_a_power_of_the_empty_word_is_empty(self):
        assert parse_word("()^99999999999999999999999") == Word()


class TestCompact:
    @pytest.mark.parametrize("text, kind, expanded", [
        ("a b^-1 (c d) (a b)^-1", "run", "a b^-1 c d b^-1 a^-1"),
        ("[a,b]^2", "power", "a b a^-1 b^-1 a b a^-1 b^-1"),
        ("[a, b c]", "commutator", "a b c a^-1 c^-1 b^-1"),
        ("a [a,b] (c)^-2", "product", "a a b a^-1 b^-1 c^-1 c^-1"),
        ("[a,b]^0 ()^5", "run", ""),
    ])
    def test_shape_length_and_expansion(self, text, kind, expanded):
        w = parse_compact(text)
        assert (w.kind, w.length) == (kind, len(letters(expanded)))
        assert w.expand() == letters(expanded)

    def test_inverted_letters(self):
        w = parse_compact("[a b,c]^2 a")
        assert Word(w.letters(True)) == parse_word("([a b,c]^2 a)^-1")


# tokens of each grammar; a drawn text keeps no run of more than 2 digits,
# so no expansion it asks for is large
_GRAPH_TOKENS = ["{", "}", "v1", "v2", "_w", ":", "a", "b", "(", ")", ",",
                 ";", "->", "-", ">", " "]
_COEFFICIENT_TOKENS = ["+", "-", "*", "/", "1", "0", "2", ".", "e", "_", " ",
                       "1/0*", "1 / 2*"]
READERS = [
    (parse_word, ["a", "b", "x1", " ", "[", "]", ",", "(", ")", "^", "-",
                  "2", "-1", "12", "$"], 30),
    (parse_symbol, ["a", "b", " ", "(", ")", ",", "$"], 30),
    (parse_graph, _GRAPH_TOKENS, 30),
    (lambda text: parse_graph(text, ambient=True), _GRAPH_TOKENS, 30),
    (parse_lie, ["[", "]", ",", "a", "b"] + _COEFFICIENT_TOKENS, 30),
    (lie_image_of_bracket_word, ["[", "]", ",", "a", "b", " "], 16),
    (parse_graph_sum, _GRAPH_TOKENS + _COEFFICIENT_TOKENS, 40),
]


class TestReaders:
    @pytest.mark.parametrize("reader, tokens, size", READERS,
                             ids=["word", "symbol", "graph", "ambient-graph",
                                  "lie", "bracket-word", "graph-sum"])
    @given(data=st.data())
    @settings(deadline=None, max_examples=150)
    def test_any_text_raises_only_letterlink_errors(self, reader, tokens, size,
                                                    data):
        text = data.draw(st.lists(st.sampled_from(tokens), max_size=size)
                         .map("".join)
                         .filter(lambda t: not re.search(r"\d{3}", t)))
        try:
            reader(text)
        except LetterLinkError:
            pass


def shape(w):
    """A CompactWord as nested tuples: a run's letters as text, else its
    kind, exponent and parts."""
    if w.kind == "run":
        return ("run", " ".join(map(str, w.parts)))
    return (w.kind, w.exponent, [shape(p) for p in w.parts])


def outcome(parse, text, alphabet=None):
    """The parse's shape, or the error's class, text and attributes."""
    try:
        return shape(parse(text, alphabet))
    except LetterLinkError as exc:
        return (type(exc).__name__, str(exc), vars(exc))


# pieces of word-grammar text: a name with an exponent or none and a
# separator, or another token; no piece holds more than 2 digits, so no
# expansion a drawn text asks for is large
_NAMES = ["a", "b", "x1", "x1_", "q"]
_EXPONENTS = ["", "", "^-1", "^ -1", " ^ -1", "^-01", "^-10", "^-2", "^2",
              "^0", "^1", "^-1^-1", "^--1", "^-\u0661", "^-1\u0660", "^"]
_SEPARATORS = [" ", "", "\t", "\u00a0"]
_OTHER_TOKENS = ["[", "]", ",", "(", ")", "$", "_", "^", "-", "1", " "]
_WORD_TEXT = st.lists(
    st.one_of(st.tuples(st.sampled_from(_NAMES), st.sampled_from(_EXPONENTS),
                        st.sampled_from(_SEPARATORS)).map("".join),
              st.sampled_from(_OTHER_TOKENS)),
    max_size=20).map("".join)


class TestRunReader:
    """Flat text is read a run at a time; everything else, and every error,
    as the token reader in ``brute_force`` reads it."""

    @pytest.mark.parametrize("text, expected", [
        ("a ^ -1 b", ("run", "a^-1 b")),
        ("a^-01 b", ("run", "a^-1 b")),
        ("a^-10 b", ("product", 1, [("power", -10, [("run", "a")]),
                                    ("run", "b")])),
        ("x1_ y^-1", ("run", "x1_ y^-1")),
        ("(a b^-1) c", ("run", "a b^-1 c")),
        ("[a b^-1, c^-1 a]", ("commutator", 1, [("run", "a b^-1"),
                                                ("run", "c^-1 a")])),
        ("(a b)^2 c d", ("product", 1, [("power", 2, [("run", "a b")]),
                                        ("run", "c d")])),
    ])
    def test_words_read_as_before(self, text, expected):
        assert shape(parse_compact(text)) == expected

    @pytest.mark.parametrize("text, message, position", [
        ("a^-1^-1 b", "got '^'", 4),
        ("a^--1", "got '-'", 2),
        ("a b ^", "unexpected end of input", 5),
    ])
    def test_errors_read_as_before(self, text, message, position):
        with pytest.raises(ParseError) as err:
            parse_compact(text)
        assert (err.value.message, err.value.position) == (message, position)

    @pytest.mark.parametrize("text, alphabet, name", [
        ("a b^-1 q c^2 r", {"a", "b", "c"}, "q"),
        ("a b [c, q^-1] r", {"a", "b", "c"}, "q"),
        ("a ^ -01 b q^-1 r", {"a", "b"}, "q"),
        ("a b^-1 r^2 q", {"a", "b"}, "r"),
        ("a q", set(), "a"),
    ])
    def test_the_first_unknown_name_in_reading_order_is_named(self, text,
                                                               alphabet, name):
        with pytest.raises(UnknownGenerator) as err:
            parse_compact(text, alphabet)
        assert err.value.name == name

    def test_flat_text_reads_no_single_term(self, monkeypatch):
        calls = []
        read_term = words._read_term
        monkeypatch.setattr(words, "_read_term",
                            lambda *args: calls.append(args) or read_term(*args))
        assert parse_word("a b a^-1 b^-1") == letters("a b a^-1 b^-1")
        assert calls == []
        parse_word("a b^2")
        assert len(calls) == 1

    @given(data=st.data())
    @settings(deadline=None, max_examples=400)
    def test_the_reader_equals_the_token_reader(self, data):
        text = data.draw(_WORD_TEXT)
        alphabet = data.draw(st.sampled_from(
            [None, set(), {"a", "b"}, {"a", "b", "x1", "x1_"}]))
        assert (outcome(parse_compact, text, alphabet)
                == outcome(token_parse_compact, text, alphabet))


class TestLetterAt:
    def test_positions_are_one_based(self):
        w = parse_word("a b^-1")
        assert w.letter_at(1) == Letter("a", 1)
        assert w.letter_at(2) == Letter("b", -1)

    @pytest.mark.parametrize("position", [0, -1, 3, 7])
    def test_positions_outside_the_word_are_rejected(self, position):
        with pytest.raises(InvalidArgument):
            parse_word("a b").letter_at(position)


class TestArithmetic:
    def test_invert(self):
        assert letters("a b").inverse() == letters("b^-1 a^-1")

    def test_commutator_definition(self):
        assert commutator(letters("a"), letters("b")) == letters("a b a^-1 b^-1")

    def test_multiply_is_unreduced(self):
        assert letters("a") * letters("a^-1") == letters("a a^-1")

    def test_free_reduce_examples(self):
        assert free_reduce(letters("a a^-1 b")) == letters("b")
        assert free_reduce(letters("a b a^-1 b^-1")) == letters("a b a^-1 b^-1")
        assert free_reduce(letters("a b b^-1 a^-1")) == Word()

    def test_nested_commutator_convention(self):
        # [[a,b],c] expands to a b a^-1 b^-1 c b a b^-1 a^-1 c^-1
        w = parse_word("[[a,b],c]")
        assert free_reduce(w) == letters("a b a^-1 b^-1 c b a b^-1 a^-1 c^-1")


class TestRelabel:
    def test_collapse(self):
        m = {"a1": "a", "a2": "a", "b": "b"}
        assert relabel(m, letters("a1 b a2^-1")) == letters("a b a^-1")

    def test_identity(self):
        w = letters("a b^-1")
        assert relabel({"a": "a", "b": "b"}, w) == w

    def test_collapse_to_cancellation(self):
        assert relabel({"a": "c", "b": "c"}, letters("a b^-1")) == letters("c c^-1")

    def test_missing_generator(self):
        with pytest.raises(UnknownGenerator):
            relabel({"a": "a"}, letters("a b"))


words_strategy = st.lists(
    st.tuples(st.sampled_from("abc"), st.sampled_from((1, -1))),
    max_size=10,
).map(lambda ls: Word(tuple(Letter(g, s) for g, s in ls)))


class TestProperties:
    @given(words_strategy)
    @settings(deadline=None)
    def test_free_reduce_idempotent(self, w):
        assert free_reduce(free_reduce(w)) == free_reduce(w)

    @given(words_strategy)
    @settings(deadline=None)
    def test_reduce_kills_inverse_product(self, w):
        assert free_reduce(w * w.inverse()) == Word()

    @given(words_strategy)
    @settings(deadline=None)
    def test_invert_involution(self, w):
        assert w.inverse().inverse() == w

    @given(words_strategy)
    @settings(deadline=None)
    def test_inverse_equals_the_letterwise_inverse(self, w):
        assume(any(l.sign < 0 for l in w))
        assert w.inverse() == letterwise_inverse(w)

    @given(words_strategy, words_strategy)
    @settings(deadline=None)
    def test_relabel_commutes(self, u, v):
        m = {"a": "x", "b": "x", "c": "y"}
        assert relabel(m, u * v) == relabel(m, u) * relabel(m, v)
        assert relabel(m, u.inverse()) == relabel(m, u).inverse()
        assert relabel(m, commutator(u, v)) == commutator(relabel(m, u), relabel(m, v))


class TestGammaElements:
    def test_deterministic(self):
        a = random_gamma_element(2, ["a", "b"], seed=5)
        b = random_gamma_element(2, ["a", "b"], seed=5)
        assert a == b

    def test_depth_zero_is_any_word(self):
        w = random_gamma_element(0, ["a", "b"], seed=1)
        assert len(w) >= 1

    def test_depth_two_shape(self):
        # [[a,b],c] is itself an acceptable depth-2 element
        assert expand_bracket((("a", "b"), "c")) == parse_word("[[a,b],c]")

    @pytest.mark.parametrize("labels", ["", "a", "ab", "abc", "aab", "abcd", "abab", "abcde",
                                        "aabbc", "abcdef"])
    def test_all_bracketings_equals_bracketing_each_split_afresh(self, labels):
        assert all_bracketings(tuple(labels)) == split_bracketings(tuple(labels))

    @given(st.integers(1, 7), st.randoms(use_true_random=False))
    @settings(deadline=None, max_examples=60)
    def test_expand_bracket_equals_commutators_of_words(self, weight, rng):
        shape = words.random_bracket(weight, ["a", "b", "c"], rng)
        assert expand_bracket(shape) == commutator_expansion(shape)

    def test_all_bracketings_counts(self):
        assert len(all_bracketings(("x1",))) == 1
        assert len(all_bracketings(("x1", "x2"))) == 1
        assert len(all_bracketings(("x1", "x2", "x3"))) == 2
        assert len(all_bracketings(("x1", "x2", "x3", "x4"))) == 5

    def test_empty_alphabet_is_rejected(self):
        with pytest.raises(InvalidArgument):
            random_gamma_element(2, [], seed=0)

    @pytest.mark.parametrize("draw", [
        lambda rng: words.random_bracket(0, ["a", "b"], rng),
        lambda rng: words.random_bracket(-2, ["a", "b"], rng),
        lambda rng: random_gamma_element(-1, ["a", "b"], seed=rng),
    ], ids=["weight 0", "weight -2", "depth -1"])
    def test_a_weight_below_one_or_a_negative_depth_is_refused_before_any_draw(
            self, draw):
        rng = random.Random(0)
        state = rng.getstate()
        with pytest.raises(InvalidArgument):
            draw(rng)
        assert rng.getstate() == state

    @pytest.mark.parametrize("weight", [1, 2])
    def test_a_bracket_over_an_empty_alphabet_is_refused_before_any_draw(
            self, weight):
        rng = random.Random(0)
        state = rng.getstate()
        with pytest.raises(InvalidArgument):
            words.random_bracket(weight, [], rng)
        assert rng.getstate() == state

    def test_commutator_exponent_sums_vanish(self):
        rng = random.Random(3)
        for depth in (1, 2, 3):
            w = random_gamma_element(depth, ["a", "b", "c"], seed=rng)
            for g in "abc":
                total = sum(l.sign for l in w if l.gen == g)
                assert total == 0
