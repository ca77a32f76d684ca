"""The integer toric code against the Fraction reference it replaced.

The reference is rebuilt here: the lattice basis inverted over the
rationals, sub-lattice coordinates from that inverse, the cone basis
{e_l (l != i), v} inverted over the rationals for the chart weights, unimodular
inverses read off the Fraction inverse, and the normal form as the least
sorted tuple over all phi(n) units.  The library must agree with it value
for value, errors included.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from threefold.linalg import invert_rational, invert_unimodular, smith_normal_form
from threefold.quotients import (ChartGroup, ChartGroupFactor, LatticeError,
                                 QuotientType, blowup_charts, effective_factors)


def ref_unimodular_inverse(matrix):
    inv = invert_rational(matrix)
    if any(x.denominator != 1 for row in inv for x in row):
        raise ValueError("matrix is not unimodular")
    return [[int(x) for x in row] for row in inv]


def ref_lattice_basis(sup_rows, arity):
    # basis of the lattice spanned by sup_rows, with its rational inverse
    _, d, v = smith_normal_form(sup_rows)
    if any(d[i][i] == 0 for i in range(arity)):
        raise ValueError("generators do not span a full-rank lattice")
    v_inv = ref_unimodular_inverse(v)
    basis = [[d[i][i] * x for x in v_inv[i]] for i in range(arity)]
    return basis, invert_rational(basis)


def ref_presentation(sup_basis, sub_rows, scale, arity):
    basis, basis_inv = sup_basis
    coords = []
    for row in sub_rows:
        entries = [sum(row[k] * basis_inv[k][j] for k in range(arity))
                   for j in range(arity)]
        if any(x.denominator != 1 for x in entries):
            raise ValueError("vector lies outside the reference lattice")
        coords.append([int(x) for x in entries])
    _, d, v = smith_normal_form(coords)
    if len(sub_rows) < arity or any(d[i][i] == 0 for i in range(arity)):
        raise ValueError("quotient is not finite")
    v_inv = ref_unimodular_inverse(v)
    return [(d[j][j], [Fraction(sum(v_inv[j][k] * basis[k][l] for k in range(arity)), scale)
                       for l in range(arity)])
            for j in range(arity) if d[j][j] > 1]


def ref_blowup_charts(ambient, v):
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
    scale = math.lcm(ambient.n, *(x.denominator for x in vv))
    sup = [[scale if i == j else 0 for j in range(m)] for i in range(m)]
    sup.append([scale * a // ambient.n for a in ambient.weights])
    sup_basis = ref_lattice_basis(sup, m)
    scaled_v = [int(x * scale) for x in vv]
    charts = []
    for i in range(m):
        sub = [[scale if l == j else 0 for l in range(m)] for j in range(m) if j != i]
        sub.append(scaled_v)
        cone = [[Fraction(int(l == j)) for l in range(m)] for j in range(m)]
        cone[i] = list(vv)
        cone_inv = invert_rational(cone)
        factors = []
        for order, generator in ref_presentation(sup_basis, sub, scale, m):
            coeffs = [sum(generator[k] * cone_inv[k][j] for k in range(m)) for j in range(m)]
            if any((c * order).denominator != 1 for c in coeffs):
                raise ArithmeticError("chart action weight is not integral")
            factors.append(ChartGroupFactor(order, tuple(int(c * order) % order for c in coeffs)))
        charts.append(ChartGroup(tuple(factors)))
    return tuple(charts)


def ref_effective_factors(group, arity):
    live = [f for f in group.factors if any(w % f.order for w in f.weights)]
    if not live:
        return []
    scale = math.lcm(*(f.order for f in live))
    sup = [[scale if i == j else 0 for j in range(arity)] for i in range(arity)]
    sup.extend([scale // f.order * w for w in f.weights] for f in live)
    sub = [[scale if i == j else 0 for j in range(arity)] for i in range(arity)]
    out = []
    for order, generator in ref_presentation(ref_lattice_basis(sup, arity), sub, scale,
                                              arity):
        if any((x * order).denominator != 1 for x in generator):
            raise ArithmeticError("effective action weight is not integral")
        out.append(ChartGroupFactor(order, tuple(int(x * order) % order for x in generator)))
    return out


def units(n):
    return [u for u in range(1, n + 1) if math.gcd(u, n) == 1]


def ref_normalized(n, weights, unit_list=None):
    return min(tuple(sorted(u * w % n for w in weights)) for u in unit_list or units(n))


def outcome(compute, *args):
    try:
        return compute(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


def charts_outcome(ambient, v):
    return outcome(lambda a, w: blowup_charts(a, w).charts, ambient, v)


# -- normal forms --------------------------------------------------------------


def test_normalized_every_three_weight_type():
    for n in range(1, 21):
        unit_list = units(n)
        for weights in itertools.product(range(n), repeat=3):
            assert QuotientType(n, weights).normalized().weights == \
                ref_normalized(n, weights, unit_list), (n, weights)


def test_normalized_random_types():
    rng = random.Random(11)
    for _ in range(1500):
        n = rng.randint(1, 300)
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        weights = tuple(rng.choice(divisors) * rng.randint(-n, n)
                        for _ in range(rng.randint(1, 5)))
        assert QuotientType(n, weights).normalized().weights == \
            ref_normalized(n, [w % n for w in weights]), (n, weights)


# -- chart groups ----------------------------------------------------------------


def test_blowup_charts_kawamata():
    for n in range(2, 61):
        for a in range(1, n):
            if math.gcd(a, n) == 1:
                ambient = QuotientType(n, (a, n - a, 1))
                v = (Fraction(a, n), Fraction(n - a, n), Fraction(1, n))
                assert charts_outcome(ambient, v) == ref_blowup_charts(ambient, v), (n, a)


def test_blowup_charts_cd2_ambient():
    ambient = QuotientType(2, (1, 1, 1, 0, 0))
    for r in range(7, 401):
        if r % 8 in (1, 7):
            v = tuple(Fraction(w) for w in ((r + 1) // 2, (r - 1) // 2, 2, 1, r))
            assert charts_outcome(ambient, v) == ref_blowup_charts(ambient, v), r


def test_blowup_charts_random_ambients():
    rng = random.Random(7)
    kinds = set()
    for _ in range(400):
        m, n = rng.randint(1, 4), rng.randint(1, 24)
        ambient = QuotientType(n, tuple(rng.randrange(n) for _ in range(m)))
        k = rng.randrange(n)
        v = [Fraction(k * a % n, n) + rng.randint(0, 2) for a in ambient.weights]
        if rng.random() < 0.2:
            v = [x * rng.randint(2, 3) for x in v]
        if rng.random() < 0.1:
            v[rng.randrange(m)] += Fraction(1, n + 1)
        expected = outcome(ref_blowup_charts, ambient, v)
        assert charts_outcome(ambient, v) == expected, (ambient, v)
        kinds.add(expected[0] if isinstance(expected[0], type) else "ok")
    assert kinds == {"ok", LatticeError}


def test_effective_factors_random_groups():
    rng = random.Random(3)
    for _ in range(600):
        arity = rng.randint(1, 5)
        group = ChartGroup(tuple(
            ChartGroupFactor(order, tuple(rng.randint(-order, 2 * order) for _ in range(arity)))
            for order in (rng.randint(1, 30) for _ in range(rng.randint(0, 3)))))
        assert outcome(effective_factors, group, arity) == \
            outcome(ref_effective_factors, group, arity), group


# -- unimodular inverses ---------------------------------------------------------


def test_invert_unimodular_on_snf_transforms():
    rng = random.Random(5)
    for _ in range(300):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        u, _, v = smith_normal_form([[rng.randint(-12, 12) for _ in range(cols)]
                                     for _ in range(rows)])
        for transform in (u, v):
            assert invert_unimodular(transform) == ref_unimodular_inverse(transform)


def test_invert_unimodular_rejects_what_the_fraction_inverse_rejects():
    rng = random.Random(9)
    rejected = 0
    for _ in range(600):
        k = rng.randint(1, 4)
        matrix = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(k)]
        expected = outcome(ref_unimodular_inverse, matrix)
        got = outcome(invert_unimodular, matrix)
        if isinstance(expected, list):
            assert got == expected, matrix
        else:
            rejected += 1
            assert got[0] is ValueError, matrix
    assert rejected > 300
    with pytest.raises(ValueError):
        invert_unimodular([[Fraction(1, 2)]])
