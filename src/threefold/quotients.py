"""Cyclic quotient singularity types and the toric side of weighted blow-ups.

A quotient type 1/n(a_1,...,a_m) is C^m divided by the cyclic group of
order n acting diagonally with those weights.  The module canonicalizes
types, tests Reid-Tai terminality, and computes the chart groups of the
weighted blow-up at a primitive vector v of N = Z^m + Z*(1/n)(a_1,...,a_m):
chart i is C^m divided by N / <e_1,...,v,...,e_m>, presented through Smith
normal form as cyclic factors, each a QuotientType on the chart coordinates.
One Smith normal form gives a basis of n*N and the coordinates of any
vectors in it, and the chart loop takes one more per chart of order > 1.
The effective image of a chart group on the coordinates it keeps is read
off the one Smith normal form of its lattice.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from collections.abc import Sequence
from operator import index

from .linalg import IntMatrix, smith_normal_form
from .polynomials import _exact, _excerpt, check_digits


class LatticeError(ValueError):
    """Weight vector outside the ambient lattice, or not primitive in it."""


_TYPE_GRAMMAR = re.compile(r"\s*1\s*/\s*([0-9]+)\s*\(([^()]*)\)\s*", re.ASCII)
_WEIGHT_GRAMMAR = re.compile(r"\s*[+-]?[0-9]+\s*", re.ASCII)


class QuotientType(namedtuple("QuotientType", "n weights")):
    """Cyclic quotient datum 1/n(a_1,...,a_m) with weights reduced mod n."""

    __slots__ = ()

    def __new__(cls, n: int, weights) -> "QuotientType":
        # operator.index takes an int as it is and refuses a float or a Fraction
        try:
            n = index(n)
            if n < 1:
                raise ValueError("group order must be a positive integer")
            return tuple.__new__(cls, (n, tuple([index(w) % n for w in weights])))
        except TypeError:
            raise ValueError("the order and weights of a quotient type must be "
                             "integers") from None

    @classmethod
    def _reduced(cls, n: int, weights: tuple[int, ...]) -> "QuotientType":
        # a valid order and weights already reduced mod n, taken as they are
        return tuple.__new__(cls, (n, weights))

    @classmethod
    def parse(cls, text: str) -> "QuotientType":
        """Read "1/n(a_1,...,a_m)": n and each weight at most DIGIT_LIMIT ASCII
        digits, a weight with an optional sign, whitespace around any token."""
        m = _TYPE_GRAMMAR.fullmatch(text)
        if not m:
            raise ValueError(f"cannot parse quotient type {_excerpt(text)}")
        check_digits(m.group(1), "the order of the quotient type")
        n = int(m.group(1))
        body = m.group(2)
        if not body.strip():
            raise ValueError(f"empty weight list in {_excerpt(text)}")
        weights = []
        for part in body.split(","):
            if not _WEIGHT_GRAMMAR.fullmatch(part):
                raise ValueError(f"weight {_excerpt(part)} of {_excerpt(text)} is not an integer")
            check_digits(part, "a weight of the quotient type")
            weights.append(int(part))
        return cls(n, tuple(weights))

    def __str__(self) -> str:
        return f"1/{self.n}({','.join(str(w) for w in self.weights)})"

    @property
    def arity(self) -> int:
        return len(self.weights)

    def normalized(self) -> "QuotientType":
        """Lexicographically least weight tuple over all coordinate
        permutations and all multiplications by units mod n.

        Zero weights stay zero, and a unit keeps gcd(a_i, n), so the least
        tuple continues after its zeros with g = min gcd(a_i, n).  Only the
        units sending some a_i with gcd(a_i, n) = g to g can win: those
        u = (a_i/g)^-1 mod n/g, lifted mod n and kept when coprime to n.
        Each distinct weight of gcd g gives g candidates of one pass over
        the weights each, at most QUOTIENT_ORDER_LIMIT steps in all.
        """
        n, weights = self
        nonzero = sorted([w for w in weights if w])
        g = n
        leading = []
        for w in nonzero:
            d = math.gcd(w, n)
            if d < g:
                g, leading = d, [w]
            elif d == g and w != leading[-1]:
                leading.append(w)
        steps = g * len(leading) * len(weights)
        if steps > QUOTIENT_ORDER_LIMIT:
            _check_order(self, steps, "normal form")
        best = nonzero
        if g == 1:
            # the one unit sending w to 1
            for w in leading:
                u = pow(w, -1, n)
                candidate = sorted([u * x % n for x in nonzero])
                if candidate < best:
                    best = candidate
        else:
            step = n // g
            for w in leading:
                for u in range(pow(w // g, -1, step), n, step):
                    if math.gcd(u, n) == 1:
                        candidate = sorted([u * x % n for x in nonzero])
                        if candidate < best:
                            best = candidate
        return QuotientType._reduced(n, (0,) * (len(weights) - len(nonzero)) + tuple(best))


# -- Reid-Tai terminality ----------------------------------------------------


# The age loop (n group elements, one step per weight each), the loop of
# normalized over candidate units (g per distinct weight of gcd g, one step
# per weight each) and blowup_charts (m + 1 Smith normal forms of about m
# rows of m entries, counted as m^4 steps) take at most this many steps;
# above it the verdict, form or chart groups are refused with a ValueError,
# which the CLI reports as malformed input
QUOTIENT_ORDER_LIMIT = 1_000_000


def _check_order(q: QuotientType, steps: int, what: str) -> None:
    if steps > QUOTIENT_ORDER_LIMIT:
        raise ValueError(f"the {what} of {_excerpt(q, str)} takes {steps} steps; "
                         f"at most QUOTIENT_ORDER_LIMIT = {QUOTIENT_ORDER_LIMIT}")


def _ages_above(q: QuotientType, bound: int) -> bool:
    # n times the age of the k-th group element, the sum of k*a mod n over
    # the nonzero weights a, exceeds bound for every k = 1..n-1; the scan
    # stops at the first k whose sum does not
    n = q.n
    weights = [a for a in q.weights if a]
    for k in range(1, n):
        total = 0
        for a in weights:
            total += k * a % n
        if total <= bound:
            return False
    return True


def _terminal_lemma(q: QuotientType) -> bool:
    # 1/n(a,b,c) is terminal exactly when all three weights are units mod n,
    # that is when their product is, and two of them sum to 0 mod n
    # (Morrison-Stevens; Reid's terminal lemma)
    n = q.n
    a, b, c = q.weights
    return math.gcd(a * b * c, n) == 1 and 0 in ((a + b) % n, (a + c) % n, (b + c) % n)


def reid_tai_is_terminal(q: QuotientType) -> bool:
    """Strict Reid-Tai criterion: every nontrivial group element has age > 1.

    Non-isolated and non-faithful actions fail the criterion; no
    codimension-one freeness is assumed.  Arity 3 is decided by the
    terminal lemma; other arities visit the n group elements, one step per
    weight each, at most QUOTIENT_ORDER_LIMIT steps.
    """
    m = len(q.weights)
    if m == 3:
        return _terminal_lemma(q)
    _check_order(q, q.n * m, "terminal verdict")
    return _ages_above(q, q.n)


def reid_tai_is_canonical(q: QuotientType) -> bool:
    """Companion non-strict form: every nontrivial element has age >= 1.

    Terminal types of arity 3 and Gorenstein faithful types (weights
    summing to 0 mod n, gcd(n, weights) = 1, so every age is a positive
    integer) are canonical without visiting the group; any other type
    visits it, n elements of one step per weight, at most
    QUOTIENT_ORDER_LIMIT steps.
    """
    n, m = q.n, len(q.weights)
    if m == 3 and _terminal_lemma(q):
        return True
    if sum(q.weights) % n == 0 and math.gcd(n, *q.weights) == 1:
        return True
    _check_order(q, n * m, "canonical verdict")
    return _ages_above(q, n - 1)


# -- finite quotients of one lattice by another ------------------------------


# the lattice n*N of an ambient through the Smith normal form of its
# generators: basis rows D*V^-1, the diagonal D, and units, the coordinates
# of n*e_1, ..., n*e_m in that basis, each an integer matrix but the
# diagonal, a list of integers
_Lattice = namedtuple("_Lattice", "basis diagonal units")


def _lattice_points(ambient: QuotientType, vectors: Sequence[Sequence]
                    ) -> tuple[_Lattice, list[tuple[list[int], list[int]] | None]]:
    # the lattice n*N, from one Smith normal form whatever the number of
    # vectors, and for each vector the pair (n*vector as integers, its
    # coordinates c in the basis of n*N), or None when the vector lies
    # outside N = Z^m + Z*(weights/n); c*D*V^-1 == n*vector gives
    # c_j = (n*vector*V)_j / d_j
    n, m = ambient.n, ambient.arity
    rows = [[n if i == j else 0 for j in range(m)] for i in range(m)]
    rows.append(list(ambient.weights))
    d, v, v_inv = smith_normal_form(rows)
    diagonal = [d[i][i] for i in range(m)]
    # row l of units is row l of n*V*D^-1, exact because every d_j divides n
    lattice = _Lattice([[d_i * x for x in row] for d_i, row in zip(diagonal, v_inv)], diagonal,
                       [[n // d_j * x for x, d_j in zip(row, diagonal)] for row in v])
    points = []
    for vector in vectors:
        scaled = [divmod(x.numerator * n, x.denominator)
                  for x in (_exact(x, "coordinate") for x in vector)]
        coords = [divmod(sum(y * row[j] for (y, _), row in zip(scaled, v)), d_j)
                  for j, d_j in enumerate(diagonal)]
        inside = not any(rest for _, rest in scaled + coords)
        points.append(([y for y, _ in scaled], [c for c, _ in coords]) if inside else None)
    return lattice, points


def quotient_presentation(basis: IntMatrix, coords: IntMatrix,
                          index: int) -> list[tuple[int, list[int]]]:
    """Invariant factors of L / M.

    L is the lattice with the given basis rows, and M is spanned by the
    rows whose coordinates in that basis are the rows of coords.  Returns
    one (order, generator) pair per nontrivial cyclic factor, orders
    forming a divisibility chain, with each generator an integer vector of
    L.  The index [L : M] saves the Smith normal form when it is 1 and is
    checked against the product of the orders otherwise.
    """
    if index == 1:
        return []
    arity = len(basis)
    d, _, v_inv = smith_normal_form(coords)
    if len(coords) < arity or any(d[i][i] == 0 for i in range(arity)):
        raise ValueError("quotient is not finite")
    factors = []
    for j in range(arity):
        order = d[j][j]
        if order > 1:
            factors.append((order, [sum(v_inv[j][k] * basis[k][l] for k in range(arity))
                                    for l in range(arity)]))
    found = math.prod(order for order, _ in factors)
    if found != index:
        raise ArithmeticError(f"invariant factors of product {found}, "
                              f"not the lattice index {index}")
    return factors


class ChartGroup(namedtuple("ChartGroup", "factors")):
    """A diagonal action of a finite abelian group as cyclic factors, one
    QuotientType each, in the tuple factors."""

    __slots__ = ()

    @property
    def order(self) -> int:
        return math.prod(f.n for f in self.factors)

    def restricted(self, keep: Sequence[int]) -> "ChartGroup":
        return ChartGroup(tuple(QuotientType._reduced(f.n, tuple(f.weights[i] for i in keep))
                                for f in self.factors))


class ChartReport(namedtuple("ChartReport", "charts")):
    """The chart groups of one weighted blow-up, a tuple of ChartGroup, chart i
    at index i."""

    __slots__ = ()


def blowup_charts(ambient: QuotientType, v: Sequence) -> ChartReport:
    """Chart groups of the weighted blow-up of C^m/(ambient) at weight vector v.

    Raises LatticeError unless v is a positive, primitive vector of the
    lattice Z^m + Z*(weights/n), and ValueError when m^4 steps exceed
    QUOTIENT_ORDER_LIMIT.  One basis of that lattice serves every chart.
    """
    m = ambient.arity
    vv = tuple([_exact(x, "weight") for x in v])
    if len(vv) != m:
        raise LatticeError("weight vector arity does not match the ambient")
    if any(x <= 0 for x in vv):
        raise LatticeError("weight vector entries must be positive")
    _check_order(ambient, m ** 4, "chart computation")
    # the lattice is n*N: its vectors stand for ambient vectors divided by n
    scale = ambient.n
    lattice, (point,) = _lattice_points(ambient, [vv])
    if point is None or math.gcd(*point[1]) != 1:
        where = "in" if point is None else "primitive in"
        vector = "(" + ", ".join(map(str, vv)) + ")"
        raise LatticeError(f"{_excerpt(vector, str)} is not {where} the lattice of "
                           f"{_excerpt(ambient, str)}")
    scaled_v, coords = point
    covolume = math.prod(lattice.diagonal)

    # chart i divides by scale*e_l (l != i) and scale*v, of covolume
    # scale^(m-1) * scale*v_i: over the lattice's covolume, the chart's order
    charts = []
    for i in range(m):
        v_i = scaled_v[i]
        index, rest = divmod(scale ** (m - 1) * v_i, covolume)
        if rest:
            raise ArithmeticError(f"chart {i + 1} has a fractional lattice index")
        sub = lattice.units[:i] + lattice.units[i + 1:] + [coords]
        factors = []
        for order, x in quotient_presentation(lattice.basis, sub, index):
            # coefficients c of the generator x/scale in the cone basis
            # {e_l (l != i), v}, with V = scale*v, over scale*V_i: c_i =
            # scale*x_i/(scale*V_i) and c_l = (x_l*V_i - V_l*x_i)/(scale*V_i);
            # the factor acts with the weights order*c mod order
            weights = []
            for l in range(m):
                y = scale * x[i] if l == i else x[l] * v_i - scaled_v[l] * x[i]
                w, rest = divmod(order * y, scale * v_i)
                if rest:
                    raise ArithmeticError("chart action weight is not integral")
                weights.append(w % order)
            factors.append(QuotientType._reduced(order, tuple(weights)))
        charts.append(ChartGroup(tuple(factors)))
    return ChartReport(tuple(charts))


def effective_factors(group: ChartGroup) -> list[QuotientType]:
    """Invariant-factor presentation of the effective image of a diagonal
    action: Z^m + sum Z*(weights/n) over the factors, modulo Z^m, with
    orders ascending in a divisibility chain.  The kernel is divided out,
    so the result is faithful; an empty list means the action is trivial.
    """
    live = [f for f in group.factors if any(f.weights)]
    if not live:
        return []
    scale = math.lcm(*(f.n for f in live))
    m = live[0].arity
    rows = [[scale if i == j else 0 for j in range(m)] for i in range(m)]
    rows.extend([scale // f.n * w for w in f.weights] for f in live)
    d, _, v_inv = smith_normal_form(rows)
    # the lattice L of these rows has basis rows d_j * (row j of V^-1) and
    # contains scale*Z^m, whose basis rows are scale * (row j of V^-1); so
    # L / scale*Z^m is the sum of the Z/(scale/d_j), factor j generated by
    # d_j/scale * (row j of V^-1), which acts with the weights row j of V^-1
    return [QuotientType(scale // d[j][j], v_inv[j]) for j in reversed(range(m))
            if d[j][j] != scale]
