"""Exact matrix utilities: Smith normal form with its transforms and the
inverse of the column transform, rational inverses, determinants and pivot
columns, and unimodular inverses read from the Smith normal form.
Everything runs on Python integers or Fraction, so there is no overflow and
no rounding anywhere.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

IntMatrix = list[list[int]]


def identity_matrix(n: int) -> IntMatrix:
    rows = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        row[i] = 1
    return rows


def smith_normal_form(matrix: Sequence[Sequence[int]]
                      ) -> tuple[IntMatrix, IntMatrix, IntMatrix, IntMatrix]:
    """Diagonalize an integer matrix by unimodular row and column operations.

    Returns (u, d, v, v_inv) with u*matrix*v == d, u and v unimodular, d
    diagonal with non-negative entries satisfying d[0][0] | d[1][1] | ...,
    and v_inv the inverse of v, kept by applying the inverse row operation
    for each column operation, so no second elimination is needed
    (invert_unimodular(v) computes the same matrix).  An entry unequal to
    its int(), such as Fraction(3, 2), raises ValueError.
    """
    d = [[int(x) for x in row] for row in matrix]
    m = len(d)
    n = len(d[0]) if m else 0
    if any(len(row) != n for row in d):
        raise ValueError("ragged matrix")
    if any(x != y for row, src in zip(d, matrix) for x, y in zip(row, src)):
        raise ValueError("matrix is not integral")
    u = identity_matrix(m)
    v = identity_matrix(n)
    v_inv = identity_matrix(n)

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]
        v_inv[i], v_inv[j] = v_inv[j], v_inv[i]

    def add_row(i, j, c):
        # row i += c * row j
        d[i] = [x + c * y for x, y in zip(d[i], d[j])]
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]

    def add_col(i, j, c):
        # col i += c * col j, and on the inverse row j -= c * row i
        for row in d:
            row[i] += c * row[j]
        for row in v:
            row[i] += c * row[j]
        v_inv[j] = [x - c * y for x, y in zip(v_inv[j], v_inv[i])]

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
        if pos[0] != t:
            swap_rows(t, pos[0])
        if pos[1] != t:
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
    return u, d, v, v_inv


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

    Read from the Smith normal form u*matrix*v == d: the matrix is
    unimodular exactly when d is the identity, and then its inverse is v*u.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("not square")
    u, d, v, _ = smith_normal_form(matrix)
    if any(d[i][i] == 0 for i in range(n)):
        raise ValueError("singular matrix")
    if d != identity_matrix(n):
        raise ValueError("matrix is not unimodular")
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*u)] for row in v]


def rational_determinant(matrix: Sequence[Sequence]) -> Fraction:
    """Determinant of a square matrix with rational entries."""
    n = len(matrix)
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
    of linearly independent columns spanning the column space.  Fraction
    entries are taken as they are; any other entry is converted.
    """
    a = [[x if type(x) is Fraction else Fraction(x) for x in row] for row in matrix]
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
