import random
from fractions import Fraction

import pytest
from brute_force import fraction_rank, fraction_solve
from hypothesis import given, settings, strategies as st

from letterlink import InconsistentSystem, InvalidArgument
from letterlink import linalg
from letterlink.linalg import back_substitute, eliminate


def random_entry(rng):
    return rng.choice((0, 0, 0, 1, -1, 2, rng.randint(-9, 9)))


def random_system(rng):
    """An integer system, often rank-deficient, often consistent."""
    rows, cols = rng.randint(0, 6), rng.randint(0, 6)
    m = [[random_entry(rng) for _ in range(cols)] for _ in range(rows)]
    if rows >= 2 and rng.random() < 0.5:
        i, j = rng.sample(range(rows), 2)
        f = rng.randint(-3, 3)
        m[i] = [a + f * b for a, b in zip(m[i], m[j])]
    if rng.random() < 0.5:
        x = [random_entry(rng) for _ in range(cols)]
        b = [sum(a * v for a, v in zip(row, x)) for row in m]
    else:
        b = [random_entry(rng) for _ in range(rows)]
    return m, b


def solve(m, b):
    return back_substitute(eliminate(m), b)


def solve_or_inconsistent(fn, *args):
    try:
        return fn(*args)
    except InconsistentSystem:
        return "inconsistent"


def greedy_rank_increase(vectors):
    """Indices of the vectors that raise the rank of the vectors before
    them, by Fraction elimination."""
    kept = []
    for i, v in enumerate(vectors):
        if fraction_rank([vectors[j] for j in kept] + [v]) > len(kept):
            kept.append(i)
    return kept


class TestAgainstFractionElimination:
    def test_random_integer_systems(self):
        rng = random.Random(31)
        outcomes = set()
        for _ in range(1500):
            m, b = random_system(rng)
            assert eliminate(m).rank == fraction_rank(m)
            expected = solve_or_inconsistent(fraction_solve, m, b)
            assert solve_or_inconsistent(solve, m, b) == expected
            outcomes.add(expected == "inconsistent")
            if m and m[0] and fraction_rank(m) < min(len(m), len(m[0])):
                outcomes.add("deficient")
        assert outcomes == {True, False, "deficient"}

    @pytest.mark.parametrize("m", [[], [[]], [[0, 0], [0, 0]], [[0], [0], [0]]])
    def test_zero_matrices(self, m):
        assert eliminate(m).rank == fraction_rank(m) == 0
        b = [0] * len(m)
        assert solve(m, b) == fraction_solve(m, b)

    def test_pivots_are_leftmost(self):
        # column 1 repeats column 0, so the free variable x1 stays zero
        m = [[2, 2, 1], [4, 4, 3]]
        assert eliminate(m).pivots == (0, 2)
        assert solve(m, [3, 7]) == fraction_solve(m, [3, 7]) == [1, 0, 1]


class TestInconsistentSystem:
    def test_contradictory_rows(self):
        with pytest.raises(InconsistentSystem):
            solve([[1, 2], [2, 4]], [1, 3])

    def test_nonzero_rhs_of_an_empty_system(self):
        with pytest.raises(InconsistentSystem):
            solve([[], []], [0, 1])


class TestIndependentRows:
    def test_greedy_rank_increase(self):
        # the pivot columns of the transpose are the rank-increasing rows
        rng = random.Random(32)
        for _ in range(300):
            m, _ = random_system(rng)
            columns = len(m[0]) if m else 0
            transpose = [[row[j] for row in m] for j in range(columns)]
            assert list(eliminate(transpose).pivots) == greedy_rank_increase(m)


entries = st.one_of(st.just(0), st.integers(-9, 9))


@st.composite
def matrices(draw):
    """Integer matrices, among them empty, zero and rank-deficient ones."""
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    m = [[draw(entries) for _ in range(cols)] for _ in range(rows)]
    if rows >= 2 and draw(st.booleans()):
        i, j = draw(st.permutations(range(rows)))[:2]
        f = draw(entries)
        m[i] = [a + f * b for a, b in zip(m[i], m[j])]
    return m


class TestKeptElimination:
    """One elimination serves many right-hand sides, as Fraction elimination
    of each system does."""

    @given(m=matrices(), data=st.data())
    @settings(deadline=None, max_examples=300)
    def test_solves_each_right_hand_side_as_fraction_elimination(self, m, data):
        rows = len(m)
        cols = len(m[0]) if m else 0
        kept = eliminate(m)
        x = data.draw(st.lists(entries, min_size=cols, max_size=cols))
        rhs = [
            data.draw(st.lists(st.integers(-9, 9), min_size=rows, max_size=rows)),
            data.draw(st.lists(entries, min_size=rows, max_size=rows)),
            [sum(a * v for a, v in zip(row, x)) for row in m],
            # unit vectors: one lies outside the column space of a matrix
            # of rank below its row count
            *([int(i == j) for j in range(rows)] for i in range(rows)),
        ]
        outcomes = []
        for b in rhs:
            expected = solve_or_inconsistent(fraction_solve, m, b)
            assert solve_or_inconsistent(back_substitute, kept, b) == expected
            outcomes.append(expected == "inconsistent")
        assert outcomes[2] is False
        assert any(outcomes) == (kept.rank < rows)
        assert kept.rank == fraction_rank(m)
        columns = [[row[j] for row in m] for j in range(cols)]
        assert list(kept.pivots) == greedy_rank_increase(columns)


class TestShapes:
    """Malformed input is refused before any elimination runs."""

    @pytest.mark.parametrize("m", [
        [[1, 2], [3]],
        [[1], [2, 3]],
        [[1, 2], "x"],
        [[1, "x"]],
        [[float("nan")]],
        [[float("inf"), 1]],
        [[None]],
        [["1/0"]],
        [1, 2],
        5,
        [[1, Fraction(1, 2)]],
        [[0.5]],
        [["1"]],
        [[True, 0]],
    ])
    def test_malformed_matrices(self, m, monkeypatch):
        calls = []
        monkeypatch.setattr(linalg, "_eliminate", lambda *args: calls.append(args))
        with pytest.raises(InvalidArgument):
            eliminate(m)
        assert not calls

    @pytest.mark.parametrize("m, b", [
        ([[1, 2]], [1, 2]),
        ([[1, 2], [3, 4]], [1]),
        ([[], []], [0]),
        ([], [1]),
        ([[1]], ["x"]),
        ([[1]], [float("nan")]),
        ([[1]], 3),
        ([[1]], [Fraction(1, 2)]),
        ([[1]], [0.5]),
        ([[1]], ["1"]),
        ([[1]], [True]),
    ])
    def test_malformed_right_hand_sides(self, m, b):
        with pytest.raises(InvalidArgument):
            back_substitute(eliminate(m), b)
