"""Exact rational Gaussian elimination over Fraction matrices."""

from __future__ import annotations

from fractions import Fraction

from .errors import InconsistentSystem


def _eliminate(m: list[list[Fraction]], rhs: list[Fraction] | None):
    """Forward elimination with leftmost pivots; returns pivot columns."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot_row = None
        for i in range(r, rows):
            if m[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        if rhs is not None:
            rhs[r], rhs[pivot_row] = rhs[pivot_row], rhs[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        if rhs is not None:
            rhs[r] *= inv
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
                if rhs is not None:
                    rhs[i] -= f * rhs[r]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return pivots


def rank(matrix: list[list[Fraction]]) -> int:
    if not matrix or not matrix[0]:
        return 0
    m = [[Fraction(v) for v in row] for row in matrix]
    return len(_eliminate(m, None))


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
    m = [[Fraction(v) for v in row] for row in matrix]
    b = [Fraction(v) for v in rhs]
    pivots = _eliminate(m, b)
    for i in range(len(pivots), rows):
        if b[i] != 0:
            raise InconsistentSystem(f"residual {b[i]} in row {i}")
    x = [Fraction(0)] * cols
    for r, c in enumerate(pivots):
        x[c] = b[r]
    return x
