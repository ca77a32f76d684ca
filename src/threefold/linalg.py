"""Exact matrix utilities: Smith normal form with transforms, rational
inverses, determinants and pivot columns, and unimodular inverses.
Everything runs on Python integers or Fraction, so there is no overflow and
no rounding anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

IntMatrix = list[list[int]]


def identity_matrix(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Diagonalize an integer matrix by unimodular row and column operations.

    Returns (u, d, v) with u*matrix*v == d, u and v unimodular, d diagonal
    with non-negative entries satisfying d[0][0] | d[1][1] | ...
    """
    d = [[int(x) for x in row] for row in matrix]
    m = len(d)
    n = len(d[0]) if m else 0
    if any(len(row) != n for row in d):
        raise ValueError("ragged matrix")
    u = identity_matrix(m)
    v = identity_matrix(n)

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(i, j, c):
        # row i += c * row j
        d[i] = [x + c * y for x, y in zip(d[i], d[j])]
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]

    def add_col(i, j, c):
        # col i += c * col j
        for row in d:
            row[i] += c * row[j]
        for row in v:
            row[i] += c * row[j]

    def pivot_position(t):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if d[i][j] != 0 and (best is None or abs(d[i][j]) < abs(d[best[0]][best[1]])):
                    best = (i, j)
        return best

    t = 0
    while t < min(m, n):
        pos = pivot_position(t)
        if pos is None:
            break
        swap_rows(t, pos[0])
        swap_cols(t, pos[1])
        while True:
            restart = False
            for i in range(t + 1, m):
                if d[i][t]:
                    add_row(i, t, -(d[i][t] // d[t][t]))
                    if d[i][t]:
                        # remainder is a strictly smaller pivot candidate
                        swap_rows(i, t)
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, n):
                if d[t][j]:
                    add_col(j, t, -(d[t][j] // d[t][t]))
                    if d[t][j]:
                        swap_cols(j, t)
                        restart = True
                        break
            if restart:
                continue
            break
        # enforce the divisibility chain before moving on
        offender = None
        for i in range(t + 1, m):
            if any(d[i][j] % d[t][t] for j in range(t + 1, n)):
                offender = i
                break
        if offender is not None:
            add_row(t, offender, 1)
            continue
        t += 1

    for i in range(min(m, n)):
        if d[i][i] < 0:
            d[i] = [-x for x in d[i]]
            u[i] = [-x for x in u[i]]
    return u, d, v


def invert_rational(matrix: Sequence[Sequence]) -> list[list[Fraction]]:
    """Exact inverse of a square matrix with rational entries."""
    n = len(matrix)
    a = [[Fraction(x) for x in row] for row in matrix]
    if any(len(row) != n for row in a):
        raise ValueError("not square")
    inv = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if a[i][col] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix")
        a[col], a[pivot] = a[pivot], a[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        scale = a[col][col]
        a[col] = [x / scale for x in a[col]]
        inv[col] = [x / scale for x in inv[col]]
        for i in range(n):
            if i != col and a[i][col] != 0:
                c = a[i][col]
                a[i] = [x - c * y for x, y in zip(a[i], a[col])]
                inv[i] = [x - c * y for x, y in zip(inv[i], inv[col])]
    return inv


def invert_unimodular(matrix: Sequence[Sequence[int]]) -> IntMatrix:
    """Inverse of a unimodular integer matrix, returned over the integers.

    Integer row reduction of [matrix | identity]: Euclid steps leave one
    nonzero entry in each column, which must be +1 or -1.
    """
    n = len(matrix)
    a = [[int(x) for x in row] for row in matrix]
    if any(len(row) != n for row in a):
        raise ValueError("not square")
    if any(x != y for row, src in zip(a, matrix) for x, y in zip(row, src)):
        raise ValueError("matrix is not integral")
    inv = identity_matrix(n)
    for col in range(n):
        while True:
            live = [i for i in range(col, n) if a[i][col]]
            if not live:
                raise ValueError("singular matrix")
            pivot = min(live, key=lambda i: abs(a[i][col]))
            a[col], a[pivot] = a[pivot], a[col]
            inv[col], inv[pivot] = inv[pivot], inv[col]
            if len(live) == 1:
                break
            p = a[col][col]
            for i in range(col + 1, n):
                if a[i][col]:
                    c = a[i][col] // p
                    a[i] = [x - c * y for x, y in zip(a[i], a[col])]
                    inv[i] = [x - c * y for x, y in zip(inv[i], inv[col])]
        if a[col][col] not in (1, -1):
            raise ValueError("matrix is not unimodular")
        if a[col][col] == -1:
            a[col] = [-x for x in a[col]]
            inv[col] = [-x for x in inv[col]]
        for i in range(n):
            if i != col and a[i][col]:
                c = a[i][col]
                a[i] = [x - c * y for x, y in zip(a[i], a[col])]
                inv[i] = [x - c * y for x, y in zip(inv[i], inv[col])]
    return inv


def rational_determinant(matrix: Sequence[Sequence]) -> Fraction:
    """Determinant of a square matrix with rational entries."""
    n = len(matrix)
    if n == 0:
        return Fraction(1)
    a = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if a[i][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        scale = a[col][col]
        for i in range(col + 1, n):
            if a[i][col] != 0:
                c = a[i][col] / scale
                a[i] = [x - c * y for x, y in zip(a[i], a[col])]
    return det


def pivot_columns(matrix: Sequence[Sequence]) -> tuple[int, ...]:
    """Pivot columns of the row echelon form of a rational matrix.

    Their number is the rank, and they are the lexicographically first set
    of linearly independent columns spanning the column space.
    """
    a = [[Fraction(x) for x in row] for row in matrix]
    pivots = []
    for col in range(len(a[0]) if a else 0):
        row = len(pivots)
        pivot = next((i for i in range(row, len(a)) if a[i][col] != 0), None)
        if pivot is None:
            continue
        a[row], a[pivot] = a[pivot], a[row]
        for i in range(row + 1, len(a)):
            if a[i][col] != 0:
                c = a[i][col] / a[row][col]
                a[i] = [x - c * y for x, y in zip(a[i], a[row])]
        pivots.append(col)
    return tuple(pivots)
