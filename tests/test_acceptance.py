"""Acceptance suite: every exit criterion at its stated size, exact
arithmetic, zero tolerance.  One PASS/FAIL line is printed per criterion
(visible with `pytest -s` or on failure)."""

import functools
import itertools
import json
import os
import random
import threading
import time
from fractions import Fraction

import pytest

from letterlink import eil, lie, linking, selfcheck
from letterlink.errors import (InvalidArgument, NonzeroCount, UndefinedInvariant,
                               UndefinedReduction)
from letterlink.symbols import parse_symbol
from test_lazy_loading import python

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


def test_the_order_walk_is_reduce_full_over_every_permutation():
    rng = random.Random(7)
    undefined = 0
    for _ in range(80):
        graph = selfcheck._random_symbol_graph(rng, 5)
        ids = graph.ids()
        expected = []
        for order in itertools.permutations(ids, len(ids) - 1):
            try:
                expected.append((order, eil.reduce_full(graph, list(order))))
            except UndefinedReduction:
                undefined += 1
        assert list(selfcheck._order_reductions(graph)) == expected
    assert undefined     # the walk skipped some orders


# run_all runs the checks here and in forked children where it can, and
# here alone where it cannot; both must give the list the checks give when
# called in order.

@functools.cache
def _in_order(seed):
    return [(name, *fn(seed=seed, scale="small")) for name, fn in selfcheck.CHECKS]


def _report_pid(seed=0, scale="small"):
    return True, str(os.getpid())


def _run_with_pid_check(monkeypatch, seed):
    """run_all with one more check, last, that reports the pid it ran in:
    the results of the real checks, and that pid."""
    monkeypatch.setattr(selfcheck, "CHECKS", [*selfcheck.CHECKS, ("pid", _report_pid)])
    *results, (_, _, pid) = selfcheck.run_all(seed=seed, scale="small")
    return results, int(pid)


def _with_pids(checks):
    """The checks, each giving as its detail its own detail and the pid it
    ran in."""
    def tagged(fn):
        def check(seed=0, scale="small"):
            ok, detail = fn(seed=seed, scale=scale)
            return ok, (detail, os.getpid())
        return check
    return [(name, tagged(fn)) for name, fn in checks]


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.fixture
def one_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)


@pytest.fixture
def extra_thread(two_cpus):
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    yield
    stop.set()
    thread.join()


@pytest.mark.parametrize("seed", [0, 3])
def test_run_all_in_workers_equals_the_checks_in_order(seed, two_cpus, monkeypatch):
    expected = _in_order(seed)
    monkeypatch.setattr(selfcheck, "CHECKS", _with_pids(selfcheck.CHECKS))
    results = selfcheck.run_all(seed=seed, scale="small")
    assert [(name, ok, detail) for name, ok, (detail, _) in results] == expected
    pids = {pid for _, _, (_, pid) in results}
    assert os.getpid() in pids and len(pids) >= 2
    _assert_no_child_left()


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("fallback", ["one_cpu", "extra_thread"])
def test_run_all_in_process_equals_the_checks_in_order(seed, fallback, request,
                                                       monkeypatch):
    expected = _in_order(seed)
    request.getfixturevalue(fallback)
    results, pid = _run_with_pid_check(monkeypatch, seed)
    assert results == expected
    assert pid == os.getpid()


def test_the_first_check_to_fail_in_order_raises_in_the_caller(two_cpus, monkeypatch):
    def undefined(seed=0, scale="small"):
        time.sleep(0.1)     # the next check fails first
        raise UndefinedInvariant(parse_symbol("((a)b)c"), 2)

    def nonzero(seed=0, scale="small"):
        raise NonzeroCount(5)

    checks = list(selfcheck.CHECKS)
    checks[1] = (checks[1][0], undefined)
    checks[2] = (checks[2][0], nonzero)
    monkeypatch.setattr(selfcheck, "CHECKS", checks)
    with pytest.raises(UndefinedInvariant) as info:
        selfcheck.run_all(seed=0, scale="small")
    assert str(info.value) == "undefined at ((a)b)c (count=2)"
    assert (info.value.subsymbol, info.value.count) == (parse_symbol("((a)b)c"), 2)


def test_no_child_is_left_after_a_failing_check(two_cpus, monkeypatch):
    def nonzero(seed=0, scale="small"):
        raise NonzeroCount(5)

    monkeypatch.setattr(selfcheck, "CHECKS", [*selfcheck.CHECKS, ("fails", nonzero)])
    with pytest.raises(NonzeroCount):
        selfcheck.run_all(seed=0, scale="small")
    _assert_no_child_left()


def test_an_interrupt_in_the_caller_kills_and_reaps_the_children(two_cpus,
                                                                  monkeypatch):
    caller = os.getpid()

    def interrupted_here(seed=0, scale="small"):
        if os.getpid() == caller:
            time.sleep(0.2)     # the child takes the other check meanwhile
            raise KeyboardInterrupt
        time.sleep(30)
        return True, "ran in a child"

    monkeypatch.setattr(selfcheck, "CHECKS", [("first", interrupted_here),
                                              ("second", interrupted_here)])
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        selfcheck.run_all(seed=0, scale="small")
    assert time.perf_counter() - start < 10
    _assert_no_child_left()


# Two checks that each end the process they run in unless it is the caller,
# where they wait a second, long enough for the child to take the other one.
# Prints the error run_all raised, the check the caller ran, and whether a
# child was left unreaped.
DYING_CHILD = """
import json, os, time
from letterlink import selfcheck

os.sched_getaffinity = lambda pid: {0, 1}
caller = os.getpid()
ran_here = []

def dies_outside_the_caller(name):
    def check(seed=0, scale="small"):
        if os.getpid() != caller:
            os._exit(3)
        ran_here.append(name)
        time.sleep(1)
        return True, "ran in the caller"
    return name, check

selfcheck.CHECKS = [dies_outside_the_caller("first"), dies_outside_the_caller("second")]
try:
    selfcheck.run_all()
except RuntimeError as error:
    raised = str(error)
else:
    raised = None
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    left = False
else:
    left = True
print(json.dumps([raised, ran_here, left]))
"""


def test_a_child_that_dies_makes_run_all_name_its_check_at_once():
    # in a fresh interpreter with a timeout: a run_all that waits for the
    # dead child's result would otherwise hang the suite
    start = time.perf_counter()
    done = python("-c", DYING_CHILD, timeout=20)
    assert time.perf_counter() - start < 10
    assert (done.returncode, done.stderr) == (0, "")
    raised, ran_here, left = json.loads(done.stdout)
    assert len(ran_here) == 1 and not left
    lost = ({"first", "second"} - set(ran_here)).pop()
    assert raised == (f"no result from check(s) {lost}: "
                      "a selfcheck child process ended early")


# bases that children build are handed back and kept in the caller

def _bases_of_checks_5_and_11():
    for number in (5, 11):
        selfcheck.CHECKS[number - 1][1](seed=0, scale="small")
    return dict(eil._bases)


def test_workers_hand_back_the_bases_they_build(two_cpus, monkeypatch):
    monkeypatch.setattr(eil, "_bases", {})
    used = _bases_of_checks_5_and_11()
    assert sum(map(eil._cells, used.values())) <= eil.BASIS_CELL_LIMIT
    monkeypatch.setattr(eil, "_bases", {})
    assert selfcheck.run_all(seed=0, scale="small") == _in_order(0)
    assert set(eil._bases) == set(used)
    assert all(eil._bases[key] == basis for key, basis in used.items())

    kept = []
    keep = eil._keep_basis
    monkeypatch.setattr(eil, "_keep_basis",
                        lambda key, basis: kept.append(key) or keep(key, basis))
    assert selfcheck.run_all(seed=0, scale="small") == _in_order(0)
    assert kept == []


def test_bases_handed_back_respect_the_cell_limit(two_cpus, monkeypatch):
    monkeypatch.setattr(eil, "_bases", {})
    cells = sorted(map(eil._cells, _bases_of_checks_5_and_11().values()))
    limit = sum(cells) // 3
    assert cells[-1] > limit    # one basis is too large to keep at all
    monkeypatch.setattr(eil, "BASIS_CELL_LIMIT", limit)
    monkeypatch.setattr(eil, "_bases", {})
    assert selfcheck.run_all(seed=0, scale="small") == _in_order(0)
    assert eil._bases
    assert sum(map(eil._cells, eil._bases.values())) <= limit


# run_all's results, pinned: the same instances and the same counts on every
# supported Python

_NAMES = [
    "1 letter-linking value 4 with multiplicities (2,3,1)",
    "2 iterated derivatives match the worked chain, value 4",
    "3 four-star pairs with its bracket to 24",
    "4 weight-5 pairing matrices and determinants",
    "5 distinct-vertex graphs give full column rank",
    "6 exhaustive graph/commutator duality, n <= 4",
    "7 reduction-order independence",
    "8 cobounding-choice independence",
    "9 vanishing on deep central-series words",
    "10 identity suite",
    "11 distinct-vertex reduction functional equality",
    "12 depth-2 derivative/linking agreement",
]
_SAME_AT_EVERY_SEED = {
    1: "value 4, multiplicities (2,3,1,0)",
    2: "derivative chain and value 4",
    3: "pairing = 24",
    4: "(3,2): [[4, -2], [4, 4]], (2,3): [[6, -2], [0, 4]], dets 24, 24",
    5: "full column rank on all multidegrees",
    6: "15509 graph/commutator pairs agree",
}
_DETAILS = {
    (0, "small"): {
        7: "25 graphs, 326 valid orders agree",
        8: "200 words, every cobounding matches the potential",
        9: "50 deep words all evaluate to zero",
        10: "7 identity families x 50 instances",
        11: "worked example + 20 random graphs pair equally",
        12: "50 commutator words agree",
    },
    (3, "small"): {
        7: "25 graphs, 582 valid orders agree",
        8: "200 words, every cobounding matches the potential",
        9: "50 deep words all evaluate to zero",
        10: "7 identity families x 50 instances",
        11: "worked example + 20 random graphs pair equally",
        12: "50 commutator words agree",
    },
    (5, "full"): {
        7: "50 graphs, 794 valid orders agree",
        8: "400 words, every cobounding matches the potential",
        9: "100 deep words all evaluate to zero",
        10: "7 identity families x 100 instances",
        11: "worked example + 40 random graphs pair equally",
        12: "100 commutator words agree",
    },
}


def _pinned(seed, scale):
    details = {**_SAME_AT_EVERY_SEED, **_DETAILS[seed, scale]}
    return [(name, True, details[k]) for k, name in enumerate(_NAMES, 1)]


@pytest.mark.parametrize("seed, scale", list(_DETAILS))
@pytest.mark.parametrize("cpus", ["two_cpus", "one_cpu"])
def test_run_all_gives_the_pinned_results(seed, scale, cpus, request):
    request.getfixturevalue(cpus)
    assert selfcheck.run_all(seed=seed, scale=scale) == _pinned(seed, scale)


@pytest.mark.parametrize("seed, scale, message", [
    (0, "tiny", "scale 'tiny' is not 'small' or 'full'"),
    (0, None, "scale None is not 'small' or 'full'"),
    (None, "small", "seed None is not an int"),
    ("3", "small", "seed '3' is not an int"),
    (1.0, "small", "seed 1.0 is not an int"),
])
def test_run_all_refuses_a_bad_seed_or_scale_before_any_check(seed, scale, message,
                                                              two_cpus, monkeypatch):
    ran = []
    monkeypatch.setattr(selfcheck, "_run_check", lambda *args: ran.append(args))
    with pytest.raises(InvalidArgument) as info:
        selfcheck.run_all(seed=seed, scale=scale)
    assert str(info.value) == message
    assert ran == []


# checks 6 and 11 each compare two sides; shifting either one must fail them

def _check_6():
    return selfcheck.check_6_exhaustive_duality(seed=0, scale="small")


def _shift_pairing_entry(monkeypatch, calls, graph_index, tree_index):
    """Make the ``calls``-th selfcheck call of ``lie.pairing_matrix`` (from 0)
    return one entry one higher; the arguments and the true entry of that
    call go to the returned dict."""
    real = lie.pairing_matrix
    seen = {"calls": 0}

    def shifted(graphs, trees):
        rows = real(graphs, trees)
        if seen["calls"] == calls:
            seen.update(graphs=list(graphs), trees=list(trees),
                        entry=rows[graph_index][tree_index])
            rows[graph_index][tree_index] += 1
        seen["calls"] += 1
        return rows

    monkeypatch.setattr(lie, "pairing_matrix", shifted)
    return seen


def test_check_6_fails_on_a_shifted_pairing_at_one_vertex(monkeypatch):
    _shift_pairing_entry(monkeypatch, 0, 0, 0)
    assert _check_6() == (False, "mismatch at n=1, {v1:x1}, x1: 1 != 2")


def test_check_6_fails_on_a_shifted_invariant_at_one_vertex(monkeypatch):
    real = linking.Evaluator.value
    monkeypatch.setattr(linking.Evaluator, "value",
                        lambda ev, sym: real(ev, sym) + (sym.canonical() == "x1"))
    assert _check_6() == (False, "mismatch at n=1, {v1:x1}, x1: 2 != 1")


def test_check_6_names_the_first_shifted_pairing(monkeypatch):
    seen = _shift_pairing_entry(monkeypatch, 2, 5, 7)     # n = 3
    result = _check_6()
    graph, tree, entry = seen["graphs"][5], seen["trees"][7], seen["entry"]
    assert result == (
        False, f"mismatch at n=3, {graph}, {tree}: {Fraction(entry)} != {entry + 1}")


def test_check_6_names_the_first_graph_whose_shifted_invariant_shows(monkeypatch):
    graphs = selfcheck._unique_label_graphs(3)
    trees = [lie.bracket_tree(e) for e in selfcheck._unique_commutators(3)]
    reductions = [eil.reduce_full(g, eil.default_order(g)) for g in graphs]
    key = sorted(reductions[-1].terms)[-1]
    first = next(i for i, r in enumerate(reductions) if key in r.terms)
    coeff = reductions[first].terms[key]
    rhs = lie.pairing_matrix([graphs[first]], trees[:1])[0][0]

    real = linking.Evaluator.value
    monkeypatch.setattr(linking.Evaluator, "value",
                        lambda ev, sym: real(ev, sym) + (sym.canonical() == key))
    assert _check_6() == (False, f"mismatch at n=3, {graphs[first]}, {trees[0]}: "
                                 f"{Fraction(rhs + coeff)} != {rhs}")


def _check_11():
    return selfcheck.check_11_distinct_reduce(seed=0, scale="small")


def test_check_11_fails_on_a_shifted_pairing_of_the_worked_example(monkeypatch):
    seen = _shift_pairing_entry(monkeypatch, 0, 0, 1)
    assert _check_11() == (False, f"worked example output differs on {seen['trees'][1]}")


def test_check_11_fails_on_a_shifted_pairing_of_its_target(monkeypatch):
    seen = _shift_pairing_entry(monkeypatch, 2, 0, 0)
    assert _check_11() == (False, f"worked example target differs on {seen['trees'][0]}")


def test_check_11_fails_on_a_shifted_pairing_of_a_random_graph(monkeypatch):
    seen = _shift_pairing_entry(monkeypatch, 3, 0, 0)   # the first random graph
    result = _check_11()
    (graph,) = seen["graphs"]
    assert result == (False, f"functional mismatch for {graph} on {seen['trees'][0]}")


def test_check_11_fails_on_a_shifted_reduction(monkeypatch):
    real = eil.distinct_reduce
    extra = eil.parse_graph("{v1:a, v2:b, v3:a, v4:c, v5:d; v1->v2, v2->v3, v3->v4, v4->v5}")
    trees = lie.lyndon_trees_of_multidegree(extra.multidegree())
    row = lie.pairing_matrix([extra], trees)[0]
    first = next(tree for tree, entry in zip(trees, row) if entry)

    def shifted(graph):
        out = real(graph)
        out.add(Fraction(1, 2), extra)
        return out

    monkeypatch.setattr(eil, "distinct_reduce", shifted)
    assert _check_11() == (False, f"worked example output differs on {first}")
