"""Exact linear algebra over the rationals by fraction-free elimination.

Each row is scaled to integers, then eliminated with integer arithmetic
only (Bareiss 1968): every entry stays a minor of the matrix and every
division is exact.  Pivots are taken leftmost, so the pivot columns, the
rank and the particular solution are those of rational Gauss-Jordan.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import InconsistentSystem


def _integer_row(values) -> list[int]:
    """The row times the least common denominator of its entries."""
    row = [v if type(v) is int else Fraction(v) for v in values]
    scale = lcm(*(v.denominator for v in row if type(v) is not int))
    return [int(v * scale) for v in row]


def _eliminate(m: list[list[int]], cols: int) -> list[int]:
    """Bareiss forward elimination in place on the first ``cols`` columns
    (later columns are carried along); returns the pivot columns."""
    pivots: list[int] = []
    previous = 1
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        top = m[r]
        pivot = top[c]
        for i in range(r + 1, len(m)):
            row = m[i]
            f = row[c]
            m[i] = [(pivot * a - f * b) // previous for a, b in zip(row, top)]
        previous = pivot
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return pivots


def rank(matrix: list[list[Fraction]]) -> int:
    if not matrix or not matrix[0]:
        return 0
    m = [_integer_row(row) for row in matrix]
    return len(_eliminate(m, len(m[0])))


def solve(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """A particular solution of M x = b with free variables set to zero.

    Raises InconsistentSystem when no solution exists.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    if rows == 0 or cols == 0:
        if any(Fraction(v) != 0 for v in rhs):
            raise InconsistentSystem("nonzero right-hand side, empty system")
        return [Fraction(0)] * cols
    m = [_integer_row(list(row) + [b]) for row, b in zip(matrix, rhs)]
    pivots = _eliminate(m, cols)
    for i in range(len(pivots), rows):
        if m[i][cols]:
            raise InconsistentSystem(f"nonzero residual in row {i}")
    # Back substitution in integers: with d the last pivot (the pivot
    # minor, up to sign), y = d x is integral on the pivot columns.
    d = m[len(pivots) - 1][pivots[-1]] if pivots else 1
    y = [0] * cols
    for r in reversed(range(len(pivots))):
        c = pivots[r]
        row = m[r]
        y[c] = (d * row[cols] - sum(row[p] * y[p] for p in pivots[r + 1:])) // row[c]
    return [Fraction(v, d) for v in y]


def independent_rows(matrix: list[list[Fraction]]) -> list[int]:
    """Indices of the rows that raise the rank of the rows above them: the
    leftmost pivot columns of the transpose."""
    if not matrix or not matrix[0]:
        return []
    return _eliminate([_integer_row(column) for column in zip(*matrix)], len(matrix))
