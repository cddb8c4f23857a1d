"""Acceptance suite: every exit criterion at its stated size, exact
arithmetic, zero tolerance.  One PASS/FAIL line is printed per criterion
(visible with `pytest -s` or on failure)."""

import random

from letterlink import eil, selfcheck

CRITERIA = {name: fn for name, fn in selfcheck.CHECKS}


def _run(name):
    ok, detail = CRITERIA[name](seed=0, scale="small")
    print(f"{'PASS' if ok else 'FAIL'}  criterion {name}: {detail}")
    assert ok, detail


def test_criterion_01_letter_linking_value():
    _run("1 letter-linking value 4 with multiplicities (2,3,1)")


def test_criterion_02_fox_chain():
    _run("2 iterated derivatives match the worked chain, value 4")


def test_criterion_03_star_pairing_24():
    _run("3 four-star pairs with its bracket to 24")


def test_criterion_04_weight5_matrices():
    _run("4 weight-5 pairing matrices and determinants")


def test_criterion_05_surjectivity_ranks():
    _run("5 distinct-vertex graphs give full column rank")


def test_criterion_06_exhaustive_duality():
    _run("6 exhaustive graph/commutator duality, n <= 4")


def test_criterion_07_order_independence():
    _run("7 reduction-order independence")


def test_criterion_08_cobounding_independence():
    _run("8 cobounding-choice independence")


def test_criterion_09_vanishing():
    _run("9 vanishing on deep central-series words")


def test_criterion_10_identity_suite():
    _run("10 identity suite")


def test_criterion_11_distinct_reduce():
    _run("11 distinct-vertex reduction functional equality")


def test_criterion_12_depth2_agreement():
    _run("12 depth-2 derivative/linking agreement")


def test_selfcheck_is_deterministic():
    first = selfcheck.run_all(seed=3, scale="small")
    second = selfcheck.run_all(seed=3, scale="small")
    assert first == second
    assert all(ok for _, ok, _ in first)


def test_random_tree_is_the_draw_from_the_full_prufer_list():
    # checks 7 and 11 draw this way in place of rng.choice over all k^(k-2)
    # trees: both must give the same tree and leave the same state
    for k in range(2, 7):
        trees = list(eil._prufer_trees(k))
        for seed in range(40):
            listed, drawn = random.Random(seed), random.Random(seed)
            assert selfcheck._random_tree(drawn, k) == listed.choice(trees)
            assert drawn.getstate() == listed.getstate()
