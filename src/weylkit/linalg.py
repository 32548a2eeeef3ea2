"""Small exact linear algebra over the rationals.

Matrices are lists of equal-length rows of Fractions.  Nothing here is
tuned; sizes stay in the tens.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .base import Scalar, as_fraction

Matrix = list[list[Fraction]]
Vector = list[Fraction]


def matrix(rows: Sequence[Sequence[Scalar]]) -> Matrix:
    out = [[as_fraction(v) for v in row] for row in rows]
    if out and any(len(row) != len(out[0]) for row in out):
        raise ValueError("ragged matrix")
    return out


def identity(n: int) -> Matrix:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError("inner dimensions disagree")
    return [
        [sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)]
        for row in a
    ]


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot column indices."""
    m = [row[:] for row in a]
    pivots: list[int] = []
    row = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        pivot = next((r for r in range(row, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        scale = m[row][col]
        m[row] = [v / scale for v in m[row]]
        for r in range(len(m)):
            if r != row and m[r][col]:
                factor = m[r][col]
                m[r] = [v - factor * w for v, w in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
        if row == len(m):
            break
    return m, pivots


def rank(a: Matrix) -> int:
    return len(rref(a)[1])


def in_span(rows: Matrix, candidate: Vector) -> bool:
    """Whether candidate is a rational combination of the given rows."""
    if not rows:
        return all(v == 0 for v in candidate)
    if len(candidate) != len(rows[0]):
        raise ValueError("length mismatch")
    return rank(rows) == rank(rows + [list(candidate)])


def solve(a: Matrix, b: Vector) -> Vector | None:
    """One solution of a x = b, or None when inconsistent."""
    if not a:
        return [] if all(v == 0 for v in b) else None
    augmented = [row + [val] for row, val in zip(a, b)]
    reduced, pivots = rref(augmented)
    cols = len(a[0])
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for r, p in enumerate(pivots):
        x[p] = reduced[r][-1]
    return x


def invert(a: Matrix) -> Matrix:
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("only square matrices invert")
    augmented = [row[:] + ident_row[:] for row, ident_row in zip(a, identity(n))]
    reduced, pivots = rref(augmented)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in reduced]
