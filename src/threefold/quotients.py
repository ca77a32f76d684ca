"""Cyclic quotient singularity types and the toric side of weighted blow-ups.

A quotient type 1/n(a_1,...,a_m) is the germ of C^m divided by the cyclic
group of order n acting diagonally with the given weights.  The module
canonicalizes such types, tests Reid-Tai terminality, and computes the
chart groups of the weighted blow-up obtained by inserting a primitive
weight vector v into the lattice N = Z^m + Z*(1/n)(a_1,...,a_m): chart i
is C^m divided by the finite abelian group N / <e_1,...,v,...,e_m>,
presented through Smith normal form as cyclic factors together with their
action weights on the chart coordinates.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .linalg import IntMatrix, invert_unimodular, smith_normal_form
from .polynomials import GroupAction


class LatticeError(ValueError):
    """Weight vector outside the ambient lattice, or not primitive in it."""


_TYPE_GRAMMAR = re.compile(r"^\s*1\s*/\s*(\d+)\s*\(([^()]*)\)\s*$")


@dataclass(frozen=True)
class QuotientType:
    """Cyclic quotient datum 1/n(a_1,...,a_m) with weights reduced mod n."""

    n: int
    weights: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("group order must be a positive integer")
        object.__setattr__(self, "weights", tuple(int(w) % self.n for w in self.weights))

    @classmethod
    def parse(cls, text: str) -> "QuotientType":
        m = _TYPE_GRAMMAR.match(text)
        if not m:
            raise ValueError(f"cannot parse quotient type {text!r}")
        n = int(m.group(1))
        body = m.group(2).strip()
        if not body:
            raise ValueError(f"empty weight list in {text!r}")
        return cls(n, tuple(int(w) for w in body.split(",")))

    def __str__(self) -> str:
        return f"1/{self.n}({','.join(str(w) for w in self.weights)})"

    @property
    def arity(self) -> int:
        return len(self.weights)

    def is_trivial(self) -> bool:
        return self.n == 1

    def group_action(self, variables: Iterable[str]) -> GroupAction:
        variables = tuple(variables)
        if len(variables) != self.arity:
            raise ValueError("variable count does not match quotient arity")
        return GroupAction(self.n, dict(zip(variables, self.weights)))

    def normalized(self) -> "QuotientType":
        """Lexicographically least weight tuple over all coordinate
        permutations and all multiplications by units mod n.

        Zero weights stay zero, and a unit keeps gcd(a_i, n), so the least
        tuple continues after its zeros with g = min gcd(a_i, n).  Only the
        units sending some a_i with gcd(a_i, n) = g to g can win: those
        u = (a_i/g)^-1 mod n/g, lifted mod n and kept when coprime to n.
        """
        n = self.n
        nonzero = [w for w in self.weights if w]
        zeros = (0,) * (self.arity - len(nonzero))
        if not nonzero:
            return QuotientType(n, zeros)
        g = min(math.gcd(w, n) for w in nonzero)
        step = n // g
        best = None
        for w in {w for w in nonzero if math.gcd(w, n) == g}:
            for u in range(pow(w // g, -1, step), n, step):
                if math.gcd(u, n) != 1:
                    continue
                candidate = tuple(sorted(u * x % n for x in nonzero))
                if best is None or candidate < best:
                    best = candidate
        return QuotientType(n, zeros + best)

    # -- the lattice N = Z^m + Z*(weights/n) --------------------------------

    def lattice_contains(self, vector: Sequence) -> bool:
        v = [Fraction(x) for x in vector]
        if len(v) != self.arity:
            raise ValueError("vector arity mismatch")
        scaled = [x * self.n for x in v]
        if any(x.denominator != 1 for x in scaled):
            return False
        scaled = [int(x) for x in scaled]
        return any(all((x - k * a) % self.n == 0 for x, a in zip(scaled, self.weights))
                   for k in range(self.n))

    def is_primitive(self, vector: Sequence) -> bool:
        v = [Fraction(x) for x in vector]
        if all(x == 0 for x in v):
            return False
        if not self.lattice_contains(v):
            return False
        g = 0
        for x in v:
            g = math.gcd(g, int(x * self.n))
        for k in range(2, abs(g) + 1):
            if g % k == 0 and self.lattice_contains([x / k for x in v]):
                return False
        return True


# -- Reid-Tai terminality ----------------------------------------------------


def _ages_above(q: QuotientType, bound: int) -> bool:
    # n times the age of the k-th group element exceeds bound for every k
    n = q.n
    for k in range(1, n):
        if sum((k * a) % n for a in q.weights) <= bound:
            return False
    return True


def reid_tai_is_terminal(q: QuotientType) -> bool:
    """Strict Reid-Tai criterion: every nontrivial group element has age > 1.

    Non-isolated and non-faithful actions fail the criterion; no
    codimension-one freeness is assumed.
    """
    return _ages_above(q, q.n)


def reid_tai_is_canonical(q: QuotientType) -> bool:
    """Companion non-strict form: every nontrivial element has age >= 1."""
    return _ages_above(q, q.n - 1)


# -- finite quotients of one lattice by another ------------------------------


def _lattice_basis(rows: IntMatrix, arity: int) -> tuple[IntMatrix, list[int], IntMatrix]:
    # basis D*V^-1 of the full-rank integer lattice spanned by the given
    # rows, returned with the SNF diagonal D and transform V
    u, d, v = smith_normal_form(rows)
    diagonal = [d[i][i] for i in range(arity)]
    if 0 in diagonal:
        raise ValueError("generators do not span a full-rank lattice")
    v_inv = invert_unimodular(v)
    basis = [[d_i * x for x in row] for d_i, row in zip(diagonal, v_inv)]
    return basis, diagonal, v


def _integer_coordinates(rows: IntMatrix, diagonal: list[int], v: IntMatrix) -> IntMatrix:
    # coordinates c with c*D*V^-1 == row, that is c_j = (row*V)_j / d_j
    coords = []
    for row in rows:
        entries = []
        for j, d_j in enumerate(diagonal):
            c, rest = divmod(sum(x * v[k][j] for k, x in enumerate(row)), d_j)
            if rest:
                raise ValueError("vector lies outside the reference lattice")
            entries.append(c)
        coords.append(entries)
    return coords


def quotient_presentation(sup_rows: list[list[int]], sub_rows: list[list[int]],
                          scale: int, arity: int) -> list[tuple[int, list[int]]]:
    """Invariant factors of (lattice spanned by sup_rows)/(by sub_rows).

    Rows are integer vectors representing ambient vectors divided by
    `scale`.  Returns one (order, generator) pair per nontrivial cyclic
    factor, orders forming a divisibility chain, with each generator an
    integer vector that likewise stands for the ambient vector
    generator/scale.
    """
    basis, diagonal, v_sup = _lattice_basis(sup_rows, arity)
    coords = _integer_coordinates(sub_rows, diagonal, v_sup)
    u, d, v = smith_normal_form(coords)
    if len(sub_rows) < arity or any(d[i][i] == 0 for i in range(arity)):
        raise ValueError("quotient is not finite")
    v_inv = invert_unimodular(v)
    factors = []
    for j in range(arity):
        order = d[j][j]
        if order > 1:
            factors.append((order, [sum(v_inv[j][k] * basis[k][l] for k in range(arity))
                                    for l in range(arity)]))
    return factors


@dataclass(frozen=True)
class ChartGroupFactor:
    order: int
    weights: tuple[int, ...]

    def as_type(self) -> QuotientType:
        return QuotientType(self.order, self.weights)


@dataclass(frozen=True)
class ChartGroup:
    factors: tuple[ChartGroupFactor, ...]

    @property
    def order(self) -> int:
        out = 1
        for f in self.factors:
            out *= f.order
        return out

    def is_trivial(self) -> bool:
        return not self.factors

    def restricted(self, keep: Sequence[int]) -> "ChartGroup":
        return ChartGroup(tuple(ChartGroupFactor(f.order, tuple(f.weights[i] for i in keep))
                                for f in self.factors))


@dataclass(frozen=True)
class ChartReport:
    ambient: QuotientType
    v: tuple[Fraction, ...]
    charts: tuple[ChartGroup, ...]


def _ambient_rows(ambient: QuotientType, scale: int) -> list[list[int]]:
    m = ambient.arity
    rows = [[scale if i == j else 0 for j in range(m)] for i in range(m)]
    rows.append([scale * a // ambient.n for a in ambient.weights])
    return rows


def blowup_charts(ambient: QuotientType, v: Sequence) -> ChartReport:
    """Chart groups of the weighted blow-up of C^m/(ambient) at weight vector v.

    Raises LatticeError unless v is a positive, primitive vector of the
    lattice Z^m + Z*(weights/n).
    """
    m = ambient.arity
    vv = tuple(Fraction(x) for x in v)
    if len(vv) != m:
        raise LatticeError("weight vector arity does not match the ambient")
    if any(x <= 0 for x in vv):
        raise LatticeError("weight vector entries must be positive")
    if not ambient.lattice_contains(vv):
        raise LatticeError(f"{vv} is not in the lattice of {ambient}")
    if not ambient.is_primitive(vv):
        raise LatticeError(f"{vv} is not primitive in the lattice of {ambient}")

    scale = ambient.n
    for x in vv:
        scale = scale * x.denominator // math.gcd(scale, x.denominator)
    sup = _ambient_rows(ambient, scale)
    scaled_v = [int(x * scale) for x in vv]

    charts = []
    for i in range(m):
        sub = [[scale if l == j else 0 for l in range(m)] for j in range(m) if j != i]
        sub.append(scaled_v)
        # coefficients c of a generator X/scale in the cone basis
        # {e_l (l != i), v}: c_i = X_i/V_i and
        # c_l = (X_l*V_i - V_l*X_i)/(scale*V_i), with V = scale*v
        v_i = scaled_v[i]
        factors = []
        for order, x in quotient_presentation(sup, sub, scale, m):
            weights = []
            for l in range(m):
                if l == i:
                    w, rest = divmod(order * x[i], v_i)
                else:
                    w, rest = divmod(order * (x[l] * v_i - scaled_v[l] * x[i]), scale * v_i)
                if rest:
                    raise ArithmeticError("chart action weight is not integral")
                weights.append(w % order)
            factors.append(ChartGroupFactor(order, tuple(weights)))
        charts.append(ChartGroup(tuple(factors)))
    return ChartReport(ambient, vv, tuple(charts))


def effective_factors(group: ChartGroup, arity: int) -> list[ChartGroupFactor]:
    """Invariant-factor presentation of the effective image of a diagonal action.

    Kernel elements (acting trivially on all coordinates) are divided out,
    so the result is faithful; an empty list means the action is trivial.
    """
    live = [f for f in group.factors if any(w % f.order for w in f.weights)]
    if not live:
        return []
    scale = 1
    for f in live:
        scale = scale * f.order // math.gcd(scale, f.order)
    sup = [[scale if i == j else 0 for j in range(arity)] for i in range(arity)]
    for f in live:
        sup.append([scale // f.order * w for w in f.weights])
    sub = [[scale if i == j else 0 for j in range(arity)] for i in range(arity)]
    out = []
    for order, generator in quotient_presentation(sup, sub, scale, arity):
        weights = []
        for x in generator:
            w, rest = divmod(x * order, scale)
            if rest:
                raise ArithmeticError("effective action weight is not integral")
            weights.append(w % order)
        out.append(ChartGroupFactor(order, tuple(weights)))
    return out
