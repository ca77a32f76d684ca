"""The integer toric code against the Fraction reference it replaced.

The reference is rebuilt here: the lattice basis inverted over the
rationals, sub-lattice coordinates from that inverse, the cone basis
{e_l (l != i), v} inverted over the rationals for the chart weights, unimodular
inverses read off the Fraction inverse, the normal form as the least
sorted tuple over all phi(n) units, lattice membership and primitivity as
loops over k < n, and the Reid-Tai verdicts as the age loop over every
group element, one generator of ages per k.  The library must agree with it
value for value, errors included.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from threefold.blowup import ChartFinding, QUOTIENT, SMOOTH, _chart_data, _residual_finding
from threefold.linalg import (identity_matrix, invert_rational, invert_unimodular,
                              smith_normal_form)
from threefold.models import AMBIENT, blowup_vector, valid_r
from threefold.quotients import (ChartGroup, LatticeError,
                                 QuotientType, blowup_charts, effective_factors,
                                 reid_tai_is_canonical, reid_tai_is_terminal)
from threefold.quotients import _ages_above

from helpers import (determinant, is_primitive, lattice_contains, matrix_product,
                     ref_normalized, reference_smith_normal_form, units)


def ref_unimodular_inverse(matrix):
    inv = invert_rational(matrix)
    if any(x.denominator != 1 for row in inv for x in row):
        raise ValueError("matrix is not unimodular")
    return [[int(x) for x in row] for row in inv]


def ref_lattice_basis(sup_rows, arity):
    # basis of the lattice spanned by sup_rows, with its rational inverse;
    # the inverse transform the library's SNF returns is not used
    d, v, _ = smith_normal_form(sup_rows)
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
    d, v, _ = smith_normal_form(coords)
    if len(sub_rows) < arity or any(d[i][i] == 0 for i in range(arity)):
        raise ValueError("quotient is not finite")
    v_inv = ref_unimodular_inverse(v)
    return [(d[j][j], [Fraction(sum(v_inv[j][k] * basis[k][l] for k in range(arity)), scale)
                       for l in range(arity)])
            for j in range(arity) if d[j][j] > 1]


def ref_lattice_contains(ambient, vector):
    scaled = [Fraction(x) * ambient.n for x in vector]
    if any(x.denominator != 1 for x in scaled):
        return False
    return any(all((int(x) - k * a) % ambient.n == 0 for x, a in zip(scaled, ambient.weights))
               for k in range(ambient.n))


def ref_is_primitive(ambient, vector):
    v = [Fraction(x) for x in vector]
    if all(x == 0 for x in v) or not ref_lattice_contains(ambient, v):
        return False
    g = 0
    for x in v:
        g = math.gcd(g, int(x * ambient.n))
    return not any(g % k == 0 and ref_lattice_contains(ambient, [x / k for x in v])
                   for k in range(2, abs(g) + 1))


def ref_blowup_charts(ambient, v):
    m = ambient.arity
    vv = tuple(Fraction(x) for x in v)
    if len(vv) != m:
        raise LatticeError("weight vector arity does not match the ambient")
    if any(x <= 0 for x in vv):
        raise LatticeError("weight vector entries must be positive")
    shown = "(" + ", ".join(str(x) for x in vv) + ")"
    if not ref_lattice_contains(ambient, vv):
        raise LatticeError(f"{shown} is not in the lattice of {ambient}")
    if not ref_is_primitive(ambient, vv):
        raise LatticeError(f"{shown} is not primitive in the lattice of {ambient}")
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
            factors.append(QuotientType(order, tuple(int(c * order) % order for c in coeffs)))
        charts.append(ChartGroup(tuple(factors)))
    return tuple(charts)


def ref_action_lattice(factors, arity):
    # scale, the lcm of the orders, and the reference basis of the lattice
    # scale*(Z^m + sum Z*(weights/n)) over the factors, with its inverse
    scale = math.lcm(*(f.n for f in factors))
    sup = [[scale if i == j else 0 for j in range(arity)] for i in range(arity)]
    sup.extend([scale // f.n * w for w in f.weights] for f in factors)
    return scale, ref_lattice_basis(sup, arity)


def ref_effective_factors(group, arity):
    live = [f for f in group.factors if any(w % f.n for w in f.weights)]
    if not live:
        return []
    scale, sup_basis = ref_action_lattice(live, arity)
    sub = [[scale if i == j else 0 for j in range(arity)] for i in range(arity)]
    out = []
    for order, generator in ref_presentation(sup_basis, sub, scale, arity):
        if any((x * order).denominator != 1 for x in generator):
            raise ArithmeticError("effective action weight is not integral")
        out.append(QuotientType(order, tuple(int(x * order) % order for x in generator)))
    return out


def ref_ages_above(q, bound):
    # n times the age of the k-th group element exceeds bound for every k
    n = q.n
    for k in range(1, n):
        if sum((k * a) % n for a in q.weights) <= bound:
            return False
    return True


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


def test_normalized_every_four_and_five_weight_type(monkeypatch):
    # exhaustive, so repeated weights of the least gcd and g > 1 with several
    # lifts of the candidate unit all occur; the normal form is built without
    # running the reducing constructor __new__, and equals and hashes as the
    # type built from the reference weights
    types = [QuotientType(n, weights) for arity, top in ((4, 9), (5, 6))
             for n in range(1, top + 1)
             for weights in itertools.product(range(n), repeat=arity)]
    news = []
    new = QuotientType.__new__
    monkeypatch.setattr(QuotientType, "__new__",
                        lambda cls, *args: news.append(args) or new(cls, *args))
    assert QuotientType(3, (4,)) == (3, (1,)) and news == [(3, (4,))]
    news.clear()
    forms = [q.normalized() for q in types]
    assert news == []
    monkeypatch.undo()
    for q, form in zip(types, forms):
        expected = QuotientType(q.n, ref_normalized(q.n, q.weights))
        assert form == expected and hash(form) == hash(expected), q
        assert type(form.weights) is tuple, q


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


def random_chart_inputs():
    # 400 (ambient, v) pairs, v scaled off the primitive or off the lattice
    # in some of them
    rng = random.Random(7)
    for _ in range(400):
        m, n = rng.randint(1, 4), rng.randint(1, 24)
        ambient = QuotientType(n, tuple(rng.randrange(n) for _ in range(m)))
        k = rng.randrange(n)
        v = [Fraction(k * a % n, n) + rng.randint(0, 2) for a in ambient.weights]
        if rng.random() < 0.2:
            v = [x * rng.randint(2, 3) for x in v]
        if rng.random() < 0.1:
            v[rng.randrange(m)] += Fraction(1, n + 1)
        yield ambient, v


def test_blowup_charts_random_ambients():
    kinds = set()
    for ambient, v in random_chart_inputs():
        expected = outcome(ref_blowup_charts, ambient, v)
        assert charts_outcome(ambient, v) == expected, (ambient, v)
        kinds.add(expected[0] if isinstance(expected[0], type) else "ok")
    assert kinds == {"ok", LatticeError}


def chart_factor_vectors(cases):
    # (ambient, u) for each factor 1/k(b) of each chart i of the blow-ups
    # among cases: the factor acts on x_l = y_l * t^(v_l) as
    # u = (b_l/k for l != i, 0 at i) + (b_i/k) * v
    for ambient, v in cases:
        v = [Fraction(x) for x in v]
        try:
            report = blowup_charts(ambient, v)
        except LatticeError:
            continue
        for i, chart in enumerate(report.charts):
            for k, b in chart.factors:
                yield ambient, [(b[i] * x + (b[l] if l != i else 0)) / k for l, x in enumerate(v)]


def test_chart_factors_act_through_random_ambient_lattices():
    # each chart factor's vector u lies in N by the k-loop reference
    vectors = list(chart_factor_vectors(random_chart_inputs()))
    assert [pair for pair in vectors if not ref_lattice_contains(*pair)] == []
    assert len(vectors) == 381


def test_chart_factors_act_through_the_cd2_lattice():
    cases = [(AMBIENT, blowup_vector(r)) for r in filter(valid_r, range(401))]
    vectors = list(chart_factor_vectors(cases))
    assert [pair for pair in vectors if not ref_lattice_contains(*pair)] == []
    assert len(vectors) >= 5 * len(cases)


def test_effective_factors_random_groups():
    # the reference's invariant factors, each factor's vector in the
    # reference lattice, and factors that generate a group of the reference
    # group's order, so the same group
    rng = random.Random(3)
    for _ in range(600):
        arity = rng.randint(1, 5)
        group = ChartGroup(tuple(
            QuotientType(order, tuple(rng.randint(-order, 2 * order) for _ in range(arity)))
            for order in (rng.randint(1, 30) for _ in range(rng.randint(0, 3)))))
        factors = effective_factors(group)
        expected = ref_effective_factors(group, arity)
        assert [f.n for f in factors] == [f.n for f in expected], group
        scale, (_, basis_inv) = ref_action_lattice(group.factors, arity)
        for k, b in factors:
            coords = [sum(Fraction(scale * w, k) * row[j] for w, row in zip(b, basis_inv))
                      for j in range(arity)]
            assert all(c.denominator == 1 for c in coords), (group, b, k)
        generated = ref_effective_factors(ChartGroup(tuple(factors)), arity)
        assert math.prod(f.n for f in factors) == math.prod(f.n for f in expected) == \
            math.prod(f.n for f in generated), group


def test_chart_report_residuals_match_effective_factors():
    # every (chart, keep) pair of the cD/2 chart groups for valid r <= 400:
    # the finding built from the residual group is the reference's, smooth
    # for a trivial group, a quotient point of the normalized type of a
    # cyclic one and None for one that is not cyclic; the 4950 pairs hold
    # 2340 distinct groups, each sent to the reference once
    pairs, references = 0, {}
    for r in filter(valid_r, range(401)):
        data = _chart_data(blowup_charts, AMBIENT, blowup_vector(r))
        for i, chart in enumerate(data.charts):
            for keep in itertools.combinations(range(5), 3):
                group = chart.restricted(keep)
                if group not in references:
                    references[group] = ref_effective_factors(group, 3)
                reference = references[group]
                assert len(effective_factors(group)) == len(reference), (r, i, keep)
                if not reference:
                    expected = ChartFinding("x", SMOOTH, detail="residual group is trivial")
                elif len(reference) == 1:
                    qtype = QuotientType(reference[0].n, ref_normalized(*reference[0]))
                    expected = ChartFinding("x", QUOTIENT, qtype,
                                            detail=f"quotient point of type {qtype}")
                else:
                    expected = None
                assert _residual_finding(group, "x") == expected, (r, i, keep)
                pairs += 1
        assert data.charts == blowup_charts(AMBIENT, blowup_vector(r)).charts
    assert (pairs, len(references)) == (4950, 2340)


# -- unimodular inverses ---------------------------------------------------------


def test_invert_unimodular_on_snf_transforms():
    # rectangular matrices, and rank-deficient ones (a zero column, or a
    # row repeated up to sign), whose SNF has zeros on its diagonal; the
    # row transform u comes from the reference, as linalg builds none, and
    # each inverse is checked by its product, not by the Fraction inverse
    # that invert_unimodular reads itself
    rng = random.Random(5)
    deficient = 0
    for _ in range(300):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        matrix = [[rng.randint(-12, 12) for _ in range(cols)] for _ in range(rows)]
        shape = rng.randrange(3)
        if shape == 1:
            j = rng.randrange(cols)
            for row in matrix:
                row[j] = 0
        elif shape == 2:
            matrix.append([rng.choice((1, -1)) * x for x in rng.choice(matrix)])
        d, v, v_inv = smith_normal_form(matrix)
        u = reference_smith_normal_form(matrix)[0]
        deficient += any(d[i][i] == 0 for i in range(min(len(matrix), cols)))
        for transform in (u, v):
            inverse = invert_unimodular(transform)
            assert all(type(x) is int for row in inverse for x in row)
            assert matrix_product(transform, inverse) == identity_matrix(len(transform))
        assert v_inv == invert_unimodular(v)
        assert matrix_product(v, v_inv) == identity_matrix(cols)
    assert deficient > 50


def test_invert_unimodular_rejects_what_the_determinant_rejects():
    # refused exactly when the matrix is not square, has an entry that is
    # no integer, or has a determinant, expanded over permutations, other
    # than 1 or -1; the messages come in that order
    rng = random.Random(9)
    seen = set()
    for _ in range(800):
        k = rng.randint(1, 4)
        matrix = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(k + (rng.random() < 0.1))]
        if rng.random() < 0.1:
            matrix[rng.randrange(len(matrix))][rng.randrange(k)] = Fraction(rng.randint(-4, 4), 2)
        got = outcome(invert_unimodular, matrix)
        if any(len(row) != len(matrix) for row in matrix):
            expected = "not square"
        elif any(x != int(x) for row in matrix for x in row):
            expected = "matrix is not integral"
        elif determinant(matrix) == 0:
            expected = "singular matrix"
        elif abs(determinant(matrix)) != 1:
            expected = "matrix is not unimodular"
        else:
            expected = None
            assert matrix_product(matrix, got) == identity_matrix(k), matrix
        if expected is not None:
            assert got == (ValueError, expected), matrix
        seen.add(expected)
    assert seen == {None, "not square", "matrix is not integral", "singular matrix",
                    "matrix is not unimodular"}
    with pytest.raises(ValueError, match="^matrix is not integral$"):
        invert_unimodular([[Fraction(1, 2)]])


def test_smith_normal_form_refuses_non_integral_entries():
    # int() would read the first as diag(1, 2), and the float ones as integers
    for matrix in ([[Fraction(3, 2), 0], [0, 2]], [["2"]]):
        with pytest.raises(ValueError, match="^matrix is not integral$"):
            smith_normal_form(matrix)
    for matrix, bad in (([[Fraction(3, 2), 0], [0, 2.9]], 2.9), ([[1, 0], [0, 2.9]], 2.9),
                        ([[2.0, 4], [6, 8]], 2.0)):
        with pytest.raises(ValueError, match=f"^matrix entry {bad} is a float, not an exact "
                                             "rational$"):
            smith_normal_form(matrix)
    d, _, _ = smith_normal_form([[Fraction(4, 2), 0], [0, 3]])
    assert d == [[1, 0], [0, 6]]


def test_smith_normal_form_matches_the_closure_reference():
    # the reference's (d, v, v_inv) on seeded matrices of every shape up to 6 x 6,
    # a fifth of them given as tuples, about 30% zeros, entries below 3, 12,
    # 10^4 or 10^12 in absolute value
    rng = random.Random(27)
    units = 0
    for _ in range(5000):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        top = rng.choice((3, 12, 10 ** 4, 10 ** 12))
        matrix = [[0 if rng.random() < 0.3 else rng.randint(-top, top) for _ in range(cols)]
                  for _ in range(rows)]
        expected = reference_smith_normal_form(matrix)
        given = tuple(map(tuple, matrix)) if rng.random() < 0.2 else matrix
        assert smith_normal_form(given) == expected[1:], matrix
        units += expected[1][0][0] == 1
    assert units > 2000


@pytest.mark.parametrize("matrix", [
    [[1, 2], [3]], [[1], [2, 3]], [[Fraction(3, 2), 1], [1]], [[1, 2], []],
    [[Fraction(3, 2)]], [[1, 0], [0, Fraction(3, 2)]], ((2, Fraction(3, 2)),),
    [[2.5, 1]], [["2"]], [["x"]], [[None]], [[True, 2]], [[Fraction(4, 2), 3.0]], [], [[]],
])
def test_smith_normal_form_fails_as_the_reference_does(matrix):
    # the reference's u, which linalg no longer builds, is left out
    def result(compute):
        try:
            return compute(matrix)[-3:]
        except (TypeError, ValueError) as exc:
            return type(exc), str(exc)

    got = result(smith_normal_form)
    assert got == result(reference_smith_normal_form)
    floats = [x for row in matrix for x in row if isinstance(x, float)]
    if floats:
        # int() reads 2.5 as 2 and 3.0 as 3; a float is refused instead
        assert got == (ValueError, f"matrix entry {floats[0]!r} is a float, not an exact rational")


# -- Reid-Tai verdicts against the age loop ---------------------------------------


def check_verdicts(q, visited):
    # the public verdicts equal the age loop's; returns whether the
    # canonical verdict was reached without visiting the group
    terminal, canonical = ref_ages_above(q, q.n), ref_ages_above(q, q.n - 1)
    before = len(visited)
    assert reid_tai_is_terminal(q) is terminal, q
    if q.arity == 3:
        assert len(visited) == before, q
    before = len(visited)
    assert reid_tai_is_canonical(q) is canonical, q
    return len(visited) == before


def test_age_loop_matches_the_reference():
    # every type of arity 1 and 2 with n <= 12, and random ones of arity up
    # to 6 with zero weights mixed in, at both bounds the verdicts use
    rng = random.Random(23)
    types = [QuotientType(n, weights) for arity in (1, 2) for n in range(1, 13)
             for weights in itertools.product(range(n), repeat=arity)]
    for _ in range(600):
        n = rng.randint(1, 60)
        types.append(QuotientType(n, tuple(rng.choice((0, rng.randrange(n), 1, n - 1))
                                           for _ in range(rng.randint(1, 6)))))
    # orders near 10^4: types that pass after a scan of every group element
    # (one with a zero weight), a Gorenstein one of age exactly 1 at k = 1,
    # a non-isolated one that fails half way, and random ones
    types += [QuotientType(10007, (1, -1, 5)), QuotientType(10000, (1, -1, 3)),
              QuotientType(10000, (2, -2, 1)), QuotientType(10007, (1, -1, 3, -3)),
              QuotientType(10000, (1, 2, 3, -6)), QuotientType(9973, (5, -5, 0, 7))]
    types += [QuotientType(n, tuple(rng.randrange(n) for _ in range(arity)))
              for arity in (3, 4) for n in rng.sample(range(9000, 11000), 2)]
    seen = set()
    for q in types:
        for bound in (q.n - 1, q.n):
            expected = ref_ages_above(q, bound)
            assert _ages_above(q, bound) is expected, (q, bound)
            seen.add(expected)
    assert seen == {True, False}


def test_verdicts_every_three_weight_type(age_loops):
    shortcuts = {True: 0, False: 0}
    for n in range(1, 21):
        for weights in itertools.product(range(n), repeat=3):
            q = QuotientType(n, weights)
            if check_verdicts(q, age_loops):
                shortcuts[ref_ages_above(q, n)] += 1
    # canonical verdicts without the age loop: terminal types (the lemma)
    # and Gorenstein ones that are not terminal
    assert shortcuts[True] > 1000 and shortcuts[False] > 1000


def test_verdicts_random_three_weight_types(age_loops):
    rng = random.Random(13)
    kinds = set()
    for _ in range(150):
        n = rng.randint(2, 10 ** 4)
        a, b = rng.randrange(n), rng.randrange(n)
        shape = rng.randrange(3)
        if shape == 0:
            weights = (a, -a, b)  # terminal when a and b are units
        elif shape == 1:
            weights = (a, b, -a - b)  # Gorenstein
        else:
            weights = (a, b, rng.randrange(n))
        q = QuotientType(n, tuple(rng.sample(weights, 3)))
        kinds.add((ref_ages_above(q, n), check_verdicts(q, age_loops)))
    assert kinds == {(True, True), (False, True), (False, False)}


def test_gorenstein_shortcut_in_higher_arity(age_loops):
    rng = random.Random(17)
    shortcut = 0
    for arity, top in ((4, 9), (5, 6)):
        for n in range(1, top + 1):
            for weights in itertools.product(range(n), repeat=arity):
                shortcut += check_verdicts(QuotientType(n, weights), age_loops)
        for _ in range(100):
            n = rng.randint(2, 500)
            weights = [rng.randrange(n) for _ in range(arity - 1)]
            weights.append(-sum(weights))
            shortcut += check_verdicts(QuotientType(n, tuple(weights)), age_loops)
    assert shortcut > 1000


# -- lattice membership and primitivity against the k < n loops -------------------


def test_lattice_tests_match_the_k_loops():
    rng = random.Random(19)
    kinds = set()
    positive = set()
    for _ in range(500):
        m, n = rng.randint(1, 5), rng.randint(1, 60)
        step = rng.choice([d for d in range(1, n + 1) if n % d == 0])
        ambient = QuotientType(n, tuple(step * rng.randrange(n) for _ in range(m)))
        k = rng.randrange(n)
        v = [Fraction(k * a % n, n) + rng.randint(-2, 2) for a in ambient.weights]
        shape = rng.randrange(4)
        if shape == 1:
            v = [x * rng.randint(2, 4) for x in v]  # a multiple
        elif shape == 2:
            v[rng.randrange(m)] += Fraction(rng.randint(1, n), n)  # usually outside
        elif shape == 3:
            v[rng.randrange(m)] += Fraction(1, rng.randint(2, 3 * n))
        expected = (ref_lattice_contains(ambient, v), ref_is_primitive(ambient, v))
        assert (lattice_contains(ambient, v), is_primitive(ambient, v)) == expected, \
            (ambient, v)
        kinds.add(expected)
        if all(x > 0 for x in v):
            # blowup_charts refuses a positive vector of N exactly when it is
            # not primitive
            try:
                blowup_charts(ambient, v)
                refused = False
            except LatticeError as exc:
                refused = "not primitive in" in str(exc)
            assert refused == (expected == (True, False)), (ambient, v)
            positive.add(expected)
    assert kinds == {(True, True), (True, False), (False, False)}
    assert positive == kinds
