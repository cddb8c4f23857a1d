"""Exact linear algebra over the integers by fraction-free elimination.

An ``int`` matrix is eliminated once (``eliminate``) and then solved for any
number of ``int`` right-hand sides (``back_substitute``); a caller scales a
rational system to integers.  Each row is eliminated beside the identity,
in integer arithmetic only (Bareiss 1968): every entry stays a minor of the
matrix, every division is exact, and the identity ends as the row transform
T that takes the matrix to its eliminated form.  Pivots are taken leftmost
and never look at a right-hand side, so the pivot columns, the rank and the
particular solution are those of rational Gauss-Jordan, and one
elimination serves every right-hand side: each costs one product with T,
the residual check and an integer back substitution.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from operator import mul
from typing import NamedTuple

from .errors import InconsistentSystem, InvalidArgument


class Elimination(NamedTuple):
    """The kept elimination of a rows x ``cols`` matrix M: the leftmost
    ``pivots`` columns, the r x r ``block`` of the eliminated rows on those
    columns (upper triangular, its last diagonal entry the pivot minor), and
    the rows x rows integer ``transform`` T, so that T M is eliminated."""

    cols: int
    pivots: tuple[int, ...]
    block: tuple[tuple[int, ...], ...]
    transform: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.pivots)


def _integers(values, where: str) -> list[int]:
    row = list(values)
    for v in row:
        if type(v) is not int:
            raise InvalidArgument(f"{where} {v!r} is not an integer")
    return row


def _eliminate(m: list[list[int]], cols: int) -> list[int]:
    """Bareiss forward elimination in place on the first ``cols`` columns
    (later columns are carried along); returns the pivot columns.  A row is
    updated from the pivot column on: left of it, every row below the
    pivot row is already zero."""
    pivots: list[int] = []
    previous = 1
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        top = m[r][c:]
        pivot = top[0]
        for i in range(r + 1, len(m)):
            row = m[i]
            f = row[c]
            if f:
                row[c:] = [(pivot * a - f * b) // previous
                           for a, b in zip(islice(row, c, None), top)]
            else:
                row[c:] = [pivot * a // previous for a in islice(row, c, None)]
        previous = pivot
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return pivots


def eliminate(matrix) -> Elimination:
    """Eliminate an integer matrix (a list of equal-length rows) once, for
    its rank, its pivot columns and ``back_substitute``.

    Raises InvalidArgument, before any elimination, for ragged rows or an
    entry that is not an ``int``.
    """
    try:
        matrix = list(matrix)
        lengths = {len(row) for row in matrix}
    except TypeError:
        raise InvalidArgument("a matrix must be a list of rows") from None
    if len(lengths) > 1:
        raise InvalidArgument(f"matrix rows have different lengths {sorted(lengths)}")
    cols = lengths.pop() if lengths else 0
    m = [_integers(row, f"matrix entry in row {i}")
         + [int(i == j) for j in range(len(matrix))]
         for i, row in enumerate(matrix)]
    pivots = _eliminate(m, cols)
    return Elimination(cols, tuple(pivots),
                       tuple(tuple(m[k][c] for c in pivots) for k in range(len(pivots))),
                       tuple(tuple(row[cols:]) for row in m))


def back_substitute(elimination: Elimination, rhs) -> list[Fraction]:
    """A particular solution of M x = b, for the matrix M of
    ``elimination`` and b = ``rhs``, with the free variables set to zero.

    Raises InconsistentSystem when no solution exists, and InvalidArgument
    when ``rhs`` does not have one ``int`` entry per row of M.
    """
    e = elimination
    try:
        b = _integers(rhs, "right-hand side entry")
    except TypeError:
        raise InvalidArgument("a right-hand side must be a list of entries") from None
    if len(b) != len(e.transform):
        raise InvalidArgument(f"right-hand side has {len(b)} entries "
                              f"for {len(e.transform)} rows")
    # T M x = T b is the eliminated system
    t = [sum(map(mul, row, b)) for row in e.transform]
    r = e.rank
    for i in range(r, len(t)):
        if t[i]:
            raise InconsistentSystem(f"nonzero residual in row {i}")
    # Back substitution in integers: with d the last pivot (the pivot
    # minor, up to sign), y = d x is integral on the pivot columns.
    d = e.block[-1][-1] if r else 1
    y = [0] * r
    for k in reversed(range(r)):
        row = e.block[k]
        y[k] = (d * t[k] - sum(row[j] * y[j] for j in range(k + 1, r))) // row[k]
    x = [Fraction(0)] * e.cols
    for k, c in enumerate(e.pivots):
        x[c] = Fraction(y[k], d)
    return x
