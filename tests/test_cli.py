import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from brute_force import split_entries
from hypothesis import given, settings, strategies as st

import letterlink
from letterlink.cli import _entries, main
from letterlink.eil import _VERTEX_ID_RE
from letterlink.errors import ParseError
from letterlink.words import _INT_RE, GENERATOR_RE


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def ab_path(n):
    """A path of ``n`` vertices labelled a, b, a, ..., edges pointing on."""
    return ("{" + ", ".join(f"v{i + 1}:{'ab'[i % 2]}" for i in range(n)) + "; "
            + ", ".join(f"v{i + 1}->v{i + 2}" for i in range(n - 1)) + "}")


class TestEval:
    def test_symbol_worked_example(self, capsys):
        code, out, _ = run(capsys, "eval", "--symbol", "((a)b)a",
                           "--word", "[a a,[b,a c]]")
        assert code == 0 and out.strip() == "4"

    def test_symbol_linking_number(self, capsys):
        code, out, _ = run(capsys, "eval", "--symbol", "(a)b",
                           "--word", "a b a^-1 b^-1")
        assert code == 0 and out.strip() == "1"

    def test_undefined(self, capsys):
        code, out, _ = run(capsys, "eval", "--symbol", "(a)b", "--word", "a b")
        assert code == 1
        assert out.strip() == "undefined at a (count=1)"

    def test_graph(self, capsys):
        code, out, _ = run(capsys, "eval",
                           "--graph", "{v1:a, v2:b; v1->v2}",
                           "--word", "a b a^-1 b^-1")
        assert code == 0 and out.strip() == "1"

    def test_json_envelope(self, capsys):
        code, out, _ = run(capsys, "eval", "--symbol", "((a)b)a",
                           "--word", "[a a,[b,a c]]", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["command"] == "eval"
        assert data["value"] == 4
        assert data["undefined_at"] is None
        assert "timing_ms" in data

    def test_json_undefined(self, capsys):
        code, out, _ = run(capsys, "eval", "--symbol", "(a)b",
                           "--word", "a b", "--json")
        assert code == 1
        data = json.loads(out)
        assert data["value"] is None
        assert data["undefined_at"] == "a (count=1)"

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "eval", "--symbol", "((a)b", "--word", "a")
        assert code == 2 and "parse error" in err


class TestFox:
    def test_value(self, capsys):
        code, out, _ = run(capsys, "fox", "--word", "[a a,[b,a c]]",
                           "--seq", "a,b,a")
        assert code == 0 and out.strip() == "4"

    def test_single_letter(self, capsys):
        code, out, _ = run(capsys, "fox", "--word", "a", "--seq", "a")
        assert code == 0 and out.strip() == "1"

    def test_full(self, capsys):
        code, out, _ = run(capsys, "fox", "--word", "[a a,[b,a c]]",
                           "--seq", "a,b,a", "--full")
        assert code == 0
        assert out.strip() == "2*aab + aabacb^-1c^-1a^-1 + aabacb^-1c^-1a^-1a^-1"


class TestGraphCommands:
    def test_reduce_with_order(self, capsys):
        code, out, _ = run(capsys, "reduce",
                           "--graph", "{v1:a,v2:b,v3:c; v1->v2, v2->v3}",
                           "--order", "v2,v1")
        assert code == 0
        assert out.strip() == "-1*((b)a)c + 1*(a)(b)c"

    def test_reduce_order_entries_are_stripped(self, capsys):
        expected = run(capsys, "reduce",
                       "--graph", "{v1:a,v2:b,v3:c; v1->v2, v2->v3}",
                       "--order", "v2,v1")
        assert expected[0] == 0
        for order in ("v2,\tv1", " v2 ,v1\n", "v2, v1"):
            assert run(capsys, "reduce",
                       "--graph", "{v1:a,v2:b,v3:c; v1->v2, v2->v3}",
                       "--order", order) == expected

    def test_reduce_empty_order_is_refused(self, capsys):
        code, out, err = run(capsys, "reduce",
                             "--graph", "{v1:a,v2:b,v3:c; v1->v2, v2->v3}",
                             "--order", "")
        assert code == 1 and out == ""
        assert err == ("error: reduction undefined at vertex (empty order): "
                       "order must list 2 vertices\n")

    def test_reduce_order_drops_empty_entries(self, capsys):
        expected = run(capsys, "reduce",
                       "--graph", "{v1:a,v2:b,v3:c; v1->v2, v2->v3}",
                       "--order", "v2,v1")
        assert run(capsys, "reduce",
                   "--graph", "{v1:a,v2:b,v3:c; v1->v2, v2->v3}",
                   "--order", "v2,,v1") == expected

    def test_matrix_32(self, capsys):
        code, out, _ = run(capsys, "matrix", "--weight", "5", "--gens", "a,b",
                           "--multidegree", "3,2")
        assert code == 0 and out.strip() == "[[4,-2],[4,4]]"

    def test_matrix_23(self, capsys):
        code, out, _ = run(capsys, "matrix", "--weight", "5", "--gens", "a,b",
                           "--multidegree", "2,3")
        assert code == 0 and out.strip() == "[[6,-2],[0,4]]"

    def test_matrix_star(self, capsys):
        code, out, _ = run(capsys, "matrix", "--weight", "5", "--gens", "a,b",
                           "--multidegree", "4,1")
        assert code == 0 and out.strip() == "[[24]]"

    def test_pair_star(self, capsys):
        code, out, _ = run(
            capsys, "pair",
            "--graph", "{v1:a,v2:a,v3:a,v4:a,v5:b; v1->v5,v2->v5,v3->v5,v4->v5}",
            "--lie", "[a,[a,[a,[a,b]]]]")
        assert code == 0 and out.strip() == "24"

    def test_pair_graphsum(self, capsys):
        code, out, _ = run(
            capsys, "pair",
            "--graphsum", "1/2 * {v1:a,v2:b; v1->v2} + 1/2 * {v1:a,v2:b; v1->v2}",
            "--lie", "[a,b]")
        assert code == 0 and out.strip() == "1"

    def test_distinct(self, capsys):
        code, out, _ = run(capsys, "distinct",
                           "--graph", "{v1:a, v2:a; v1->v2}")
        assert code == 0 and out.strip() == "0"

    def test_distinct_refuses_eight_vertices(self, capsys):
        code, out, err = run(
            capsys, "distinct", "--graph",
            "{v1:a, v2:a, v3:a, v4:a, v5:b, v6:b, v7:b, v8:b; "
            "v1->v2, v2->v3, v3->v4, v4->v5, v5->v6, v6->v7, v7->v8}")
        assert code == 1 and out == ""
        assert err == "error: 8 vertices exceeds bound 7\n"

    def test_basis_multidegree(self, capsys):
        code, out, _ = run(capsys, "basis", "--weight", "5", "--gens", "a,b",
                           "--multidegree", "3,2")
        assert code == 0
        assert out.strip().splitlines() == [
            "[a,[a,[[a,b],b]]]",
            "[[a,[a,b]],[a,b]]",
        ]

    def test_basis_multidegree_is_checked_before_any_listing(self, capsys,
                                                             monkeypatch):
        def refuse(*args):
            raise AssertionError("the basis was listed")

        monkeypatch.setattr(letterlink.lie, "standard_bracketing", refuse)
        code, out, err = run(capsys, "basis", "--weight", "9",
                             "--gens", "a,b,c,d", "--multidegree", "1,1")
        assert (code, out) == (2, "")
        assert err == ("parse error: multidegree length differs from --gens"
                       " at position 0\n")
        code, out, _ = run(capsys, "basis", "--weight", "9",
                           "--gens", "a,b,c,d", "--multidegree", "1,1,1,1")
        assert (code, out) == (0, "\n")
        code, out, _ = run(capsys, "basis", "--weight", "9",
                           "--gens", "a,b,c,d", "--multidegree", "1,1,1,1",
                           "--json")
        assert code == 0 and json.loads(out)["value"] == []

    @pytest.mark.parametrize("weight, counts", [("1", "2,0"), ("99999999999", "1,1")])
    def test_basis_of_a_multidegree_of_another_weight_is_empty(self, capsys,
                                                                weight, counts):
        # lyndon_words compares the counts with the weight before it
        # allocates anything of the weight's size
        code, out, _ = run(capsys, "basis", "--weight", weight, "--gens", "a,b",
                           "--multidegree", counts)
        assert (code, out) == (0, "\n")

    @pytest.mark.parametrize("gens", ["", ","])
    def test_basis_over_no_generator_is_empty(self, capsys, gens):
        code, out, _ = run(capsys, "basis", "--weight", "2", "--gens", gens,
                           "--json")
        assert code == 0 and json.loads(out)["value"] == []

    def test_basis_brackets_in_the_order_of_gens(self, capsys):
        code, out, _ = run(capsys, "basis", "--weight", "3", "--gens", "b,a")
        assert code == 0 and out.splitlines() == ["[b,[b,a]]", "[[b,a],a]"]

    def test_basis_multidegree_brackets_only_its_words(self, capsys,
                                                       monkeypatch):
        bracketed = []
        bracket = letterlink.lie.standard_bracketing

        def spy(word, names=None):
            bracketed.append(word)
            return bracket(word, names)

        monkeypatch.setattr(letterlink.lie, "standard_bracketing", spy)
        code, out, _ = run(capsys, "basis", "--weight", "10",
                           "--gens", "a,b,c,d", "--multidegree", "1,1,1,7")
        assert code == 0 and len(out.splitlines()) == 72
        assert len(bracketed) == 72

    @pytest.mark.parametrize("weight", [400, 1500])
    def test_basis_deeper_than_the_recursion_limit(self, capsys, weight):
        code, out, _ = run(capsys, "basis", "--weight", str(weight),
                           "--gens", "a,b", "--multidegree", f"{weight - 1},1")
        depth = weight - 1
        assert (code, out) == (0, "[a," * depth + "b" + "]" * depth + "\n")

    @pytest.mark.parametrize("graph", [
        ab_path(1500),
        # a star of 2000 leaves
        "{" + ", ".join(f"v{i + 1}:b" for i in range(2000)) + ", v2001:a; "
        + ", ".join(f"v{i + 1}->v2001" for i in range(2000)) + "}",
    ], ids=["path", "star"])
    @pytest.mark.parametrize("form", ["{}", "{} - {}"],
                             ids=["alone", "difference"])
    def test_pair_graphsum_deeper_than_the_recursion_limit(self, capsys, graph,
                                                           form):
        code, out, _ = run(capsys, "pair", "--graphsum",
                           form.format(graph, graph), "--lie", "a")
        assert (code, out) == (0, "0\n")

    # reduction turns the path into a symbol 1500 levels deep
    @pytest.mark.parametrize("word, code, expected", [
        ("c", 0, "0"),
        ("", 0, "0"),
        ("a b a^-1 b^-1", 1, "undefined at (a)b (count=1)"),
        ("[a,b]^200", 1, "undefined at (a)b (count=200)"),
    ])
    def test_eval_graph_deeper_than_the_recursion_limit(self, capsys, word,
                                                        code, expected):
        got, out, err = run(capsys, "eval", "--graph", ab_path(1500),
                            "--word", word)
        assert (got, out) == (code, expected + "\n")
        assert "Traceback" not in err

    def test_reduce_graph_deeper_than_the_recursion_limit(self, capsys):
        code, out, err = run(capsys, "reduce", "--graph", ab_path(1500),
                             "--json")
        assert code == 0 and len(json.loads(out)["value"]) == 1
        assert "Traceback" not in err

    # a leaf step contracts in place, so these stay linear in the vertices
    def test_reduce_a_3000_vertex_path_along_its_leaf_order(self, capsys):
        code, out, _ = run(capsys, "reduce", "--graph", ab_path(3000), "--order",
                           ",".join(f"v{i}" for i in range(1, 3000)), "--json")
        expected = "a"
        for i in range(1, 3000):
            expected = f"({expected}){'ab'[i % 2]}"
        assert code == 0 and json.loads(out)["value"] == [[1, expected]]

    @pytest.mark.parametrize("word, code, expected", [
        ("c", 0, "0"),
        ("[a,b]^200", 1, "undefined at (a)b (count=200)"),
    ])
    def test_eval_graph_on_a_3000_vertex_path(self, capsys, word, code,
                                              expected):
        got, out, _ = run(capsys, "eval", "--graph", ab_path(3000),
                          "--word", word)
        assert (got, out) == (code, expected + "\n")

    def test_reduce_a_star_centre_first(self, capsys):
        # the first step branches into one term per leaf
        code, out, _ = run(capsys, "reduce", "--graph",
                           "{v1:a, v2:b, v3:c, v4:d; v1->v2, v3->v1, v1->v4}",
                           "--order", "v1,v2,v3")
        assert (code, out) == (0, "-1*(((a)b)c)d + 1*((a)(b)c)d"
                                  " + 1*((a)b)(c)d + -1*(a)(b)(c)d\n")

    def test_coords(self, capsys):
        code, out, _ = run(capsys, "coords", "--word", "a b a^-1 b^-1",
                           "--weight", "2")
        assert code == 0 and out.strip() == "[a,b]"


class TestArgumentErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ("fox", "--word", "a", "--seq", ","),
            ("fox", "--word", "a", "--seq", ""),
            ("matrix", "--weight", "5", "--gens", "a,b", "--multidegree", "3,x"),
            ("coords", "--word", "a b a^-1 b^-1", "--weight", "0"),
            ("coords", "--word", "a b a^-1 b^-1", "--weight", "-1"),
            ("matrix", "--weight", "0", "--gens", "a", "--multidegree", "0"),
            ("matrix", "--weight=5", "--gens", "a,b", "--multidegree=-1,6"),
            ("basis", "--weight=3", "--gens", "a,b", "--multidegree=-1,4"),
            ("pair", "--graphsum", "x * {v1:a}", "--lie", "a"),
            ("pair", "--graphsum", "1/0 * {v1:a}", "--lie", "a"),
            ("eval", "--word", "(" * 5000 + "a" + ")" * 5000, "--symbol", "a"),
            ("eval", "--word", "a", "--symbol", "(" * 5000 + "a" + ")b" * 5000),
            ("eval", "--word", "a",
             "--graph", "{v1:" + "(" * 5000 + "a" + ")b" * 5000 + "}"),
            ("pair", "--graph", "{v1:a, v2:b; v1->v2}",
             "--lie", "[" * 5000 + "a" + ",b]" * 5000),
            ("pair", "--graph", "{v1:a,v2:b;v1->v2}", "--lie", "1/0*[a,b]"),
            ("pair", "--graphsum", "1e5000 * {v1:a,v2:b;v1->v2}",
             "--lie", "[a,b]"),
            ("basis", "--weight", "-3", "--gens", "a,b"),
            ("basis", "--weight", "3", "--gens", "a,b", "--multidegree", ""),
            ("basis", "--weight", "0", "--gens", "a,b"),
            # graph sums outside the form `coeff * {...} + ...`
            ("pair", "--graphsum", "", "--lie", "[a,b]"),
            ("pair", "--graphsum", "+", "--lie", "[a,b]"),
            ("pair", "--graphsum=-2*", "--lie", "[a,b]"),
            ("pair", "--graphsum", "{v1:a,v2:b;v1->v2} {v1:a,v2:b;v1->v2}",
             "--lie", "[a,b]"),
            ("pair", "--graphsum", "2*3*{v1:a,v2:b;v1->v2}", "--lie", "[a,b]"),
            ("pair", "--graphsum", "{v1:a,v2:b;v1->v2} + -{v1:a,v2:b;v1->v2}",
             "--lie", "[a,b]"),
        ],
    )
    def test_exit_two(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("parse error: ")

    # U+0663 and U+0662, the Arabic-Indic digits three and two, are decimal
    # digits to Python's int() and \d, but no digits of these grammars
    @pytest.mark.parametrize("argv, position", [
        (("basis", "--weight", "5", "--gens", "a,b",
          "--multidegree", "\u0663,\u0662"), 0),
        (("eval", "--symbol", "(a)b", "--word", "[a,b]^\u0663"), 6),
        (("pair", "--graph", "{v1:a,v2:b; v1->v2}", "--lie", "\u0663*[a,b]"), 0),
    ], ids=["multidegree", "exponent", "coefficient"])
    def test_a_digit_outside_ascii_exits_two(self, capsys, argv, position):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"parse error: got '\u0663' at position {position} ")

    @pytest.mark.parametrize("argv", [
        ("basis", "--weight", "\u0663", "--gens", "a,b"),
        ("basis", "--weight", "1_0", "--gens", "a"),
        ("coords", "--word", "[a,b]", "--weight", "+2"),
        ("selfcheck", "--seed", "\u0663"),
        ("basis", "--weight", "1" * 4301, "--gens", "a"),   # past int()'s limit
    ], ids=["weight-digit", "weight-underscore", "weight-plus", "seed-digit",
            "weight-past-int-digits"])
    def test_an_integer_option_outside_the_grammars_exits_two(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(list(argv))
        assert info.value.code == 2
        assert "invalid int value" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "graphsum, position",
        [
            ("2 * {v1:a, v2:b; v1->v3}", 21),
            ("{v1:a, v2:b; v1->v2} - 1/2 * {v1:a, v2:b; v1->v3}", 46),
            ("{v1:a} + 3 * {v1:a, v1:b}", 20),
            ("1 * {v1:a} + y * {v1:a}", 13),
        ],
    )
    def test_graphsum_positions(self, capsys, graphsum, position):
        code, out, err = run(capsys, "pair", "--graphsum", graphsum,
                             "--lie", "[a,b]")
        assert code == 2 and out == ""
        assert f" at position {position}" in err

    @pytest.mark.parametrize("argv, position", [
        (("basis", "--weight", "3", "--gens", "a,a"), 2),
        (("basis", "--weight", "3", "--gens", "a, b ,b"), 6),
        (("matrix", "--weight", "3", "--gens", "a,b,a", "--multidegree", "1,1,1"), 4),
    ])
    def test_a_repeated_generator_exits_two(self, capsys, argv, position):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("parse error: generator ")
        assert " is repeated in --gens " in err and f"at position {position}" in err

    def test_a_sequence_may_repeat_a_generator(self, capsys):
        code, out, _ = run(capsys, "fox", "--word", "a^3", "--seq", "a,a")
        assert code == 0 and out.strip() == "3"

    def test_an_expansion_past_the_length_limit_exits_one(self, capsys):
        code, out, err = run(capsys, "diagram", "--word",
                             "a^99999999999999999999999", "--symbol", "a")
        assert code == 1 and out == ""
        assert err.startswith("error: word of ") and "exceeds bound" in err

    @pytest.mark.parametrize("argv, message", [
        (("reduce", "--graph", "{v1:a, v2:b, v3:c; v1->v2, v2->v1}"),
         "graph is not connected"),
        (("eval", "--symbol", "a", "--word", "a^" + "1" * 5000),
         "exponent of 5000 digits"),
        # refused before a list of weight + 1 entries is allocated
        (("basis", "--weight", "99999999999999999999", "--gens", "a,b"),
         "Lyndon words of length 99999999999999999999 exceed bound 4194304"),
        (("basis", "--weight", "9223372036854775806", "--gens", "a"),
         "Lyndon words of length 9223372036854775806 exceed bound 4194304"),
        # refused before any vertex of the star graph is built
        (("matrix", "--weight", "99999999999999999999", "--gens", "a,b",
          "--multidegree", "99999999999999999998,1"),
         "a star of 99999999999999999999 vertices exceeds bound 4194304"),
    ], ids=["disconnected-graph", "long-exponent", "weight-past-an-index",
            "weight-past-memory", "star-past-the-length-limit"])
    def test_exit_one_names_the_fault(self, capsys, argv, message):
        assert run(capsys, *argv) == (1, "", f"error: {message}\n")

    def test_a_value_past_the_digit_limit_exits_one(self, capsys):
        sevens = "7" * 2500
        code, out, err = run(capsys, "pair",
                             "--graphsum", f"{sevens}*{{v1:a,v2:b;v1->v2}}",
                             "--lie", f"{sevens}*[a,b]")
        assert code == 1 and out == ""
        assert err == "error: a value of more than 4300 digits\n"

    def test_a_fold_past_the_digit_limit_exits_one(self, capsys):
        code, out, err = run(capsys, "eval", "--word", f"[a,b]^{10 ** 2200}",
                             "--symbol", "(a)b")
        assert code == 1 and out == ""
        assert err.startswith("error: a 2-node symbol on a word of about 10^2200")

    def test_eval_folds_a_power_past_the_length_limit(self, capsys):
        code, out, _ = run(capsys, "eval", "--word",
                           "a^99999999999999999999999", "--symbol", "a")
        assert (code, out) == (0, "99999999999999999999999\n")


class TestDiagram:
    def test_worked_example_multiplicities(self, capsys):
        code, out, _ = run(capsys, "diagram", "--word", "[a a,[b,a c]]",
                           "--symbol", "(a)b")
        assert code == 0
        lines = out.splitlines()
        mult_line = lines[1]
        assert [c for c in mult_line.split()] == ["2", "3", "1", "0"]
        assert "count = " in out

    def test_empty_word(self, capsys):
        code, out, _ = run(capsys, "diagram", "--word", "", "--symbol", "(a)b")
        assert code == 0
        assert "count = 0" in out

    def test_word_without_symbol_letters(self, capsys):
        code, out, _ = run(capsys, "diagram", "--word", "c c^-1",
                           "--symbol", "(a)b")
        assert code == 0
        assert "count = 0" in out

    def test_partial_diagram_on_undefined(self, capsys):
        code, out, _ = run(capsys, "diagram", "--word", "a b",
                           "--symbol", "(a)b")
        assert code == 1
        assert "undefined at a (count=1)" in out


class TestTextJsonAgreement:
    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "--symbol", "((a)b)a", "--word", "[a a,[b,a c]]"),
            ("fox", "--word", "[a a,[b,a c]]", "--seq", "a,b,a"),
            ("pair",
             "--graph",
             "{v1:a,v2:a,v3:a,v4:a,v5:b; v1->v5,v2->v5,v3->v5,v4->v5}",
             "--lie", "[a,[a,[a,[a,b]]]]"),
        ],
    )
    def test_values_agree(self, capsys, argv):
        code_text, out_text, _ = run(capsys, *argv)
        code_json, out_json, _ = run(capsys, *argv, "--json")
        assert code_text == code_json == 0
        assert out_text.strip() == str(json.loads(out_json)["value"])

    def test_timing_flag(self, capsys):
        code, out, _ = run(capsys, "eval", "--symbol", "(a)b",
                           "--word", "a b a^-1 b^-1", "--timing")
        assert code == 0
        assert "timing:" in out


class TestListOptions:
    """``--seq``, ``--gens``, ``--order`` and ``--multidegree``: one name, id
    or count per comma-separated entry, empty entries skipped."""

    @pytest.mark.parametrize("argv, position", [
        (("fox", "--word", "a b", "--seq", "a,b c"), 4),
        (("basis", "--weight", "2", "--gens", "a b,x;]"), 2),
        (("matrix", "--weight", "2", "--gens", "a,b c", "--multidegree", "1,1"), 4),
        (("basis", "--weight", "2", "--gens", "a,[b]"), 2),
        (("reduce", "--graph", "{v1:a, v2:b; v1->v2}", "--order", "v1 x"), 3),
        (("matrix", "--weight", "5", "--gens", "a,b", "--multidegree", "+3,2"), 0),
        (("matrix", "--weight", "5", "--gens", "a,b", "--multidegree", "3_0,2"), 1),
        (("matrix", "--weight", "2", "--gens", "a,b",
          "--multidegree", "1," + "1" * 4301), 2),
    ])
    def test_an_entry_that_is_not_one_token_exits_two(self, capsys, argv,
                                                       position):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("parse error: ")
        assert f" at position {position}" in err

    @pytest.mark.parametrize("head, texts", [
        (("matrix", "--weight", "5", "--gens", "a,b", "--multidegree"),
         ("3,2", "3,,2", ",3, ,2,")),
        (("basis", "--weight", "3", "--gens", "a,b", "--multidegree"),
         ("2,1", "2,,1", " ,2,1,")),
        (("basis", "--weight", "3", "--gens"), ("a,b", "a,,b", ",a, ,b ,")),
        (("fox", "--word", "a b a^-1 b^-1", "--seq"), ("a,b", "a,,b", ",a,b,")),
        (("reduce", "--graph", "{v1:a, v2:b, v3:c; v1->v2, v2->v3}", "--order"),
         ("v2,v1", "v2,,v1", " v2 , ,v1")),
    ])
    def test_empty_entries_are_skipped(self, capsys, head, texts):
        outputs = [run(capsys, *head, text) for text in texts]
        assert outputs[0][0] == 0 and outputs == [outputs[0]] * len(texts)

    @pytest.mark.parametrize("pattern", [GENERATOR_RE, _VERTEX_ID_RE, _INT_RE],
                             ids=["generator", "vertex-id", "count"])
    @given(text=st.lists(st.sampled_from(["a", "x1", "v1", "_w", ",", " ", ";",
                                          "]", "3", "-", "+"]),
                         max_size=12).map("".join))
    @settings(derandomize=True, deadline=None, max_examples=300)
    def test_entries_are_the_split_entries_or_refuse_the_first_bad_one(
            self, pattern, text):
        expected = split_entries(text)
        bad = [(entry, start) for entry, start in expected
               if not pattern.fullmatch(entry)]
        try:
            got = list(_entries(text, pattern, "token"))
        except ParseError as exc:
            entry, start = bad[0]
            assert start <= exc.position < start + len(entry)
        else:
            assert got == expected and not bad

    @pytest.mark.parametrize("graphsum, lie_text, code, out, err", [
        ("{v1:(b)a, v2:c; v1->v2}", "[a,c]", 1, "",
         "error: ambient graphs need letter labels; v1 has (b)a\n"),
        ("{v1:a, v2:a; v1->v2}", "[a,a]", 0, "0\n", ""),
    ])
    def test_pair_graphsum_reads_the_ambient_model(self, capsys, graphsum,
                                                   lie_text, code, out, err):
        assert run(capsys, "pair", "--graphsum", graphsum,
                   "--lie", lie_text) == (code, out, err)
        assert run(capsys, "pair", "--graph", graphsum,
                   "--lie", lie_text) == (code, out, err)


class TestSelfcheck:
    def test_one_envelope_on_a_pipe(self):
        # the checks run in forked children: none of them may print the
        # parent's output again or warn about forking
        src = os.path.dirname(os.path.dirname(letterlink.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-W", "error::DeprecationWarning",
             "-m", "letterlink.cli", "selfcheck", "--json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.count("\n") == 1 and done.stdout.endswith("\n")
        data = json.loads(done.stdout)
        assert len(data["value"]) == 12
        assert all(check["passed"] for check in data["value"])


def readme_cli_lines():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1]
    return [line for line in block.split("```", 1)[0].splitlines()
            if line.startswith("letterlink ")]


class TestReadme:
    @pytest.mark.parametrize("line", readme_cli_lines())
    def test_cli_block_line(self, capsys, line):
        """Each line of the README's CLI block exits 0, and its
        ``# -> value`` comment is the first line of its output."""
        code, out, err = run(capsys, *shlex.split(line, comments=True)[1:])
        assert (code, err) == (0, "")
        expected = re.search(r"#\s*->\s*(.*)$", line)
        if expected:
            assert out.splitlines()[0] == expected.group(1).rstrip()
