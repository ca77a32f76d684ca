"""Exact matrix utilities over Python integers and Fraction: Smith normal form
with the column transform and its inverse, and one forward elimination over Q
for pivot columns, determinants and inverses, with no overflow and no rounding."""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction

IntMatrix = list[list[int]]


def identity_matrix(n: int) -> IntMatrix:
    rows = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        row[i] = 1
    return rows


def _not_float(x):
    # x, unless it is a float: inexact as written, it is refused as polynomials._exact does
    if isinstance(x, float):
        raise ValueError(f"matrix entry {x!r} is a float, not an exact rational")
    return x


def _integer_rows(matrix: Sequence[Sequence[int]]) -> IntMatrix:
    # matrix as lists of ints; ragged, or with a float or an entry unequal to its int(), is refused
    d = [[x if type(x) is int else int(_not_float(x)) for x in row] for row in matrix]
    if any(len(row) != len(d[0]) for row in d):
        raise ValueError("ragged matrix")
    if d != matrix and any(row != list(src) for row, src in zip(d, matrix)):
        raise ValueError("matrix is not integral")
    return d


def smith_normal_form(matrix: Sequence[Sequence[int]]
                      ) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Diagonalize an integer matrix by unimodular row and column operations:
    (d, v, v_inv) with u*matrix*v == d for a unimodular u that is not built,
    d diagonal with non-negative entries d[0][0] | d[1][1] | ..., and v_inv
    the inverse of the unimodular v.  A float, or an entry unequal to its
    int(), such as Fraction(3, 2), raises ValueError."""
    d = _integer_rows(matrix)
    m = len(d)
    n = len(d[0]) if m else 0
    v = identity_matrix(n)
    v_inv = identity_matrix(n)
    t = 0
    while t < min(m, n):
        # the pivot is the first entry of least absolute value in d[t:][t:]
        best = 0
        for i in range(t, m):
            row = d[i]
            for j in range(t, n):
                x = abs(row[j])
                if x and (x < best or not best):
                    best, p, q = x, i, j
        if not best:
            break
        d[t], d[p] = d[p], d[t]
        if q != t:
            for row in d + v:
                row[t], row[q] = row[q], row[t]
            v_inv[t], v_inv[q] = v_inv[q], v_inv[t]
        while True:
            # clear column t below the pivot, then row t beyond it; a nonzero
            # remainder is a strictly smaller pivot, swapped in to start again
            top = d[t]
            pivot = top[t]
            for i in range(t + 1, m):
                if d[i][t]:
                    c = -(d[i][t] // pivot)
                    d[i] = [x + c * y for x, y in zip(d[i], top)]
                    if d[i][t]:
                        d[i], d[t] = top, d[i]
                        break
            else:
                for j in range(t + 1, n):
                    if top[j]:
                        c = -(top[j] // pivot)
                        for row in d + v:
                            row[j] += c * row[t]
                        v_inv[t] = [x - c * y for x, y in zip(v_inv[t], v_inv[j])]
                        if top[j]:
                            for row in d + v:
                                row[t], row[j] = row[j], row[t]
                            v_inv[t], v_inv[j] = v_inv[j], v_inv[t]
                            break
                else:
                    break
        # enforce the divisibility chain before moving on: a row with an
        # entry the pivot does not divide is added to row t
        if pivot != 1 and pivot != -1:
            offender = next((i for i in range(t + 1, m) if any(x % pivot for x in d[i])), None)
            if offender is not None:
                d[t] = [x + y for x, y in zip(top, d[offender])]
                continue
        t += 1
    for i in range(min(m, n)):
        d[i][i] = abs(d[i][i])
    return d, v, v_inv


def _rational_rows(matrix: Sequence[Sequence]) -> list[list[Fraction]]:
    # matrix as lists of Fractions, Fraction entries as they are; a float is refused
    return [[x if type(x) is Fraction else Fraction(_not_float(x)) for x in row] for row in matrix]


def _echelon(a: list[list[Fraction]]) -> tuple[list[int], int]:
    # forward elimination of the rows of a, in place, to row echelon form:
    # its pivot columns and the number of row swaps it took
    pivots, swaps = [], 0
    for col in range(len(a[0]) if a else 0):
        row = len(pivots)
        pivot = next((i for i in range(row, len(a)) if a[i][col] != 0), None)
        if pivot is None:
            continue
        if pivot != row:
            a[row], a[pivot] = a[pivot], a[row]
            swaps += 1
        top = a[row]
        for i in range(row + 1, len(a)):
            if a[i][col] != 0:
                c = a[i][col] / top[col]
                a[i] = [x - c * y for x, y in zip(a[i], top)]
        pivots.append(col)
    return pivots, swaps


def invert_rational(matrix: Sequence[Sequence]) -> list[list[Fraction]]:
    """Exact inverse of a square matrix with rational entries."""
    n = len(matrix)
    a = _rational_rows(matrix)
    if any(len(row) != n for row in a):
        raise ValueError("not square")
    a = [row + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    # [matrix | I] has rank n, so matrix is singular when a pivot falls in I
    if _echelon(a)[0] != list(range(n)):
        raise ValueError("singular matrix")
    # back-substitution in [U | L]: row i of the inverse from the rows below it
    inverse: list[list[Fraction]] = []
    for i, row in reversed(list(enumerate(a))):
        inverse.insert(0, [(x - sum(c * below[j] for c, below in zip(row[i + 1:n], inverse)))
                           / row[i] for j, x in enumerate(row[n:])])
    return inverse


def invert_unimodular(matrix: Sequence[Sequence[int]]) -> IntMatrix:
    """Inverse of a unimodular integer matrix, returned over the integers:
    the rational inverse, which is integral exactly when det(matrix) = +-1."""
    if any(len(row) != len(matrix) for row in matrix):
        raise ValueError("not square")
    inverse = invert_rational(_integer_rows(matrix))
    if any(x.denominator != 1 for row in inverse for x in row):
        raise ValueError("matrix is not unimodular")
    return [[x.numerator for x in row] for row in inverse]


def rational_determinant(matrix: Sequence[Sequence]) -> Fraction:
    """Determinant of a square matrix with rational entries."""
    a = _rational_rows(matrix)
    if any(len(row) != len(a) for row in a):
        raise ValueError("not square")
    # the signed diagonal of the echelon form, whose last row is 0 if the rank is short
    swaps = _echelon(a)[1]
    return math.prod((row[i] for i, row in enumerate(a)), start=Fraction((-1) ** swaps))


def pivot_columns(matrix: Sequence[Sequence]) -> tuple[int, ...]:
    """Pivot columns of the row echelon form of a rational matrix: as many as
    the rank, and the lexicographically first set of linearly independent
    columns spanning the column space."""
    return tuple(_echelon(_rational_rows(matrix))[0])
