"""Correctness oracles owned by the benchmark.

None of these import threefold: each one recomputes an expected value from
the mathematics (a generating function, a classification, a lattice index
or a definition), so the benchmark can check the program's outputs without
restating the program's own algorithms.
"""

from __future__ import annotations

import math
from fractions import Fraction


def hilbert_dimensions(r: int, max_degree: int) -> list[tuple[int, int]]:
    """Graded dimensions (parity 0, parity 1) for degrees 0..max_degree.

    They are the coefficients of the Hilbert series

        (1 + s t^((r+1)/2)) (1 + s t^((r-1)/2)) / ((1-t)(1 - s t^2)(1 - t^r))

    with s^2 = 1, where the power of s is the parity l1+l2+l3 mod 2.  The
    s on the t^2 factor matters: x3 has weight 2 and counts towards the
    parity.  The series printed in ROADMAP open item 2 omits it and
    disagrees with lattice enumeration at r = 7, 23 and 47.
    """
    size = max_degree + 1
    # 1/(1-t): x4 has weight 1 and even parity
    even = [1] * size
    odd = [0] * size
    # 1/(1 - s t^2): x3 flips the parity
    for d in range(2, size):
        even[d] += odd[d - 2]
        odd[d] += even[d - 2]
    # 1/(1 - t^r): x5 keeps the parity
    for d in range(r, size):
        even[d] += even[d - r]
        odd[d] += odd[d - r]
    # (1 + s t^w) for x1 and x2, each used at most once
    for w in ((r + 1) // 2, (r - 1) // 2):
        even, odd = ([even[d] + (odd[d - w] if d >= w else 0) for d in range(size)],
                     [odd[d] + (even[d - w] if d >= w else 0) for d in range(size)])
    return list(zip(even, odd))


def expected_increment(dims: list[tuple[int, int]], r: int, i: int, j: int) -> Fraction:
    """Correction increment of the dimension recursion at (i, j), i >= 2."""
    return Fraction(dims[i][j] - dims[i - 2][1 - j]) - Fraction(2 * i + 1, r)


def orbit(start: int, period: int) -> list[int]:
    """Residues k, k+2, k+4, ... mod period until the walk closes."""
    out = [start % period]
    while (out[-1] + 2) % period != out[0]:
        out.append((out[-1] + 2) % period)
    return out


def canonical_form(n: int, weights: tuple[int, ...]) -> tuple[int, ...]:
    """Least sorted weight tuple of 1/n(weights) over all units mod n."""
    if n == 1:
        return (0,) * len(weights)
    return min(tuple(sorted((u * w) % n for w in weights))
               for u in range(1, n) if math.gcd(u, n) == 1)


def format_type(n: int, weights: tuple[int, ...]) -> str:
    return f"1/{n}({','.join(str(w) for w in weights)})"


def is_terminal(n: int, weights: tuple[int, int, int]) -> bool:
    """Whether 1/n(a,b,c) is terminal, by the terminal lemma.

    The terminal types are exactly 1/n(1,-1,b) with gcd(b, n) = 1, up to
    permutation and multiplication by a unit: all three weights are units
    mod n and two of them sum to 0 mod n.
    """
    a, b, c = (w % n for w in weights)
    if any(math.gcd(w, n) != 1 for w in (a, b, c)):
        return False
    return (a + b) % n == 0 or (a + c) % n == 0 or (b + c) % n == 0


def min_age(n: int, weights: tuple[int, ...]) -> int:
    """n times the least age of a nontrivial group element (n+1 if n = 1).

    Canonical means every nontrivial element has age >= 1, which is the
    definition the canonical verdict is checked against.
    """
    return min((sum((k * w) % n for w in weights) for k in range(1, n)), default=n + 1)


def chart_orders(n: int, v: tuple[Fraction, ...]) -> list[int]:
    """Order of each chart group of the weighted blow-up of C^m/(1/n)(a) at v.

    Chart i is N / <e_j (j != i), v> with N = Z^m + Z*(a/n).  N has index n
    over Z^m when 1/n(a) is faithful, and the sublattice has covolume v_i,
    so the order is n * v_i.
    """
    orders = []
    for x in v:
        order = n * Fraction(x)
        if order.denominator != 1:
            raise ValueError(f"n * v_i = {order} is not an integer")
        orders.append(int(order))
    return orders
