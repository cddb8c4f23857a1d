import random
from fractions import Fraction

import pytest
from brute_force import fraction_rank, fraction_solve

from letterlink import InconsistentSystem
from letterlink.linalg import independent_rows, rank, solve


def random_entry(rng):
    value = rng.choice((0, 0, 0, 1, -1, 2, rng.randint(-9, 9)))
    return Fraction(value, rng.choice((1, 1, 2, 3, 7))) if rng.random() < 0.5 else value


def random_system(rng):
    """A rational system, often rank-deficient, often consistent."""
    rows, cols = rng.randint(0, 6), rng.randint(0, 6)
    m = [[random_entry(rng) for _ in range(cols)] for _ in range(rows)]
    if rows >= 2 and rng.random() < 0.5:
        i, j = rng.sample(range(rows), 2)
        f = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        m[i] = [a + f * b for a, b in zip(m[i], m[j])]
    if rng.random() < 0.5:
        x = [random_entry(rng) for _ in range(cols)]
        b = [sum(a * v for a, v in zip(row, x)) for row in m]
    else:
        b = [random_entry(rng) for _ in range(rows)]
    return m, b


def solve_or_inconsistent(fn, m, b):
    try:
        return fn(m, b)
    except InconsistentSystem:
        return "inconsistent"


class TestAgainstFractionElimination:
    def test_random_rational_systems(self):
        rng = random.Random(31)
        outcomes = set()
        for _ in range(1500):
            m, b = random_system(rng)
            assert rank(m) == fraction_rank(m)
            expected = solve_or_inconsistent(fraction_solve, m, b)
            assert solve_or_inconsistent(solve, m, b) == expected
            outcomes.add(expected == "inconsistent")
            if m and m[0] and rank(m) < min(len(m), len(m[0])):
                outcomes.add("deficient")
        assert outcomes == {True, False, "deficient"}

    @pytest.mark.parametrize("m", [[], [[]], [[0, 0], [0, 0]], [[0], [0], [0]]])
    def test_zero_matrices(self, m):
        assert rank(m) == fraction_rank(m) == 0
        b = [0] * len(m)
        assert solve(m, b) == fraction_solve(m, b)

    def test_pivots_are_leftmost(self):
        # column 1 repeats column 0, so the free variable x1 stays zero
        m = [[2, 2, 1], [4, 4, 3]]
        assert solve(m, [3, 7]) == fraction_solve(m, [3, 7]) == [1, 0, 1]


class TestInconsistentSystem:
    def test_contradictory_rows(self):
        with pytest.raises(InconsistentSystem):
            solve([[1, 2], [2, 4]], [1, 3])

    def test_nonzero_rhs_of_an_empty_system(self):
        with pytest.raises(InconsistentSystem):
            solve([[], []], [0, Fraction(1, 2)])


class TestIndependentRows:
    def test_greedy_rank_increase(self):
        rng = random.Random(32)
        for _ in range(300):
            m, _ = random_system(rng)
            kept, expected = independent_rows(m), []
            for i, row in enumerate(m):
                chosen = [m[j] for j in expected]
                if len(expected) < len(row) and fraction_rank(chosen + [row]) > len(expected):
                    expected.append(i)
            assert kept == expected
