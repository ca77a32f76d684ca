"""Acceptance suite: one test per criterion, every assertion exact (zero
tolerance), each printing a single pass line on success."""

import math
import random
from fractions import Fraction

from threefold.blowup import (CIGerm, MANUAL, QUOTIENT, SMOOTH,
                              analyze_blowup, model_germ, verify_blowup_profile)
from threefold.dimensions import (check_decomposition, correction_profile,
                                  graded_dimension, solve_correction)
from threefold.linalg import smith_normal_form
from threefold.models import (blowup_vector, generate_model, model_weights,
                              required_monomials)
from threefold.polynomials import (SparsePoly, detect_square_form, is_semi_invariant,
                                   scaled_term_weights, weighted_order)
from threefold.quotients import QuotientType, reid_tai_is_terminal

from helpers import (determinant, is_primitive, matrix_product, parse_poly,
                     reference_eliminate_x5, reference_smith_normal_form)

R_VALUES = (7, 9, 15, 17, 23, 25)


def report(criterion, text):
    print(f"ACCEPTANCE {criterion}: PASS  {text}")


def test_criterion_1_dimension_anchors():
    for r in R_VALUES:
        assert graded_dimension(r, 1, 0) == 1
        assert graded_dimension(r, 1, 1) == 0
        assert graded_dimension(r, 2, 1) == 1
        assert graded_dimension(r, 4, 0) == 2
    report(1, f"dimension anchors hold for r in {R_VALUES}")


def test_criterion_2_dimension_consistency_suite():
    for r in R_VALUES:
        for i in range(6 * r + 1):
            for j in (0, 1):
                assert check_decomposition(r, i, j), (r, i, j)
        profile = correction_profile(r, 6 * r)   # raises on ill-definedness
        assert sorted(profile.delta) == list(range(2 * r))
        for start in (0, 1):
            assert sum(profile.delta[k] for k in range(start, 2 * r, 2)) == 0
        table = solve_correction(profile)
        assert table[0] == 0 and table[1] == 0
        for k in range(2 * r):
            assert table[(k + 2) % (2 * r)] - table[k] == profile.delta[k]
    report(2, f"decomposition, well-definedness, orbit sums and correction "
              f"reconstruction for r in {R_VALUES}, degrees up to 6r")


def test_criterion_3_blowup_anchors():
    checked = 0
    for r in R_VALUES:
        expected = QuotientType(2 * r, (1, 2 * r - 1, r + 4)).normalized()
        for seed in range(20):
            model = generate_model(r, seed, 4)
            germ = model_germ(model)
            v = blowup_vector(r)
            blowup = analyze_blowup(germ, v)
            assert blowup.discrepancy == 2
            assert blowup.e_cubed == Fraction(1, r)
            findings = blowup.chart_findings
            nonsmooth = [f for f in findings if f.kind != SMOOTH]
            assert len(nonsmooth) == 1, (r, seed)
            assert not any(f.kind == MANUAL for f in findings), (r, seed)
            assert nonsmooth[0].kind == QUOTIENT
            assert nonsmooth[0].quotient == expected, (r, seed)
            profile = verify_blowup_profile(model)
            assert profile.passed
            checked += 1
    report(3, f"{checked} generated models: discrepancy 2, E^3 = 1/r, one "
              f"quotient point of type 1/2r(1,2r-1,r+4), no manual charts")


def test_criterion_4_cross_validated_formulas():
    # exceptional plane of the half-point cone has normal degree -2, so its
    # cube is 4; computed here through the toric formula
    cone = CIGerm(QuotientType(2, (1, 1, 1)), ("x1", "x2", "x3"), ())
    half = (Fraction(1, 2),) * 3
    assert analyze_blowup(cone, half).e_cubed == 4

    for r in range(2, 32):
        for a in range(1, r):
            if math.gcd(a, r) != 1:
                continue
            germ = CIGerm(QuotientType(r, (a, r - a, 1)), ("x1", "x2", "x3"), ())
            v = (Fraction(a, r), Fraction(r - a, r), Fraction(1, r))
            assert is_primitive(germ.ambient, v)
            assert analyze_blowup(germ, v).discrepancy == Fraction(1, r)

    smooth = CIGerm(QuotientType(1, (0, 0, 0)), ("x1", "x2", "x3"), ())
    assert analyze_blowup(smooth, (1, 1, 1)).discrepancy == 2
    report(4, "E^3 = 4 on the half-point cone, discrepancy 1/r for all "
              "quotient-point data with r <= 31, ordinary blow-up discrepancy 2")


def test_criterion_5_terminality_oracle_equivalence():
    def classified_terminal(n):
        # isolated terminal cyclic quotients: 1/n(1,-1,b), gcd(b,n) = 1,
        # up to permutations and multiplication by units
        out = set()
        if n == 1:
            return {(0, 0, 0)}
        for b in range(n):
            if math.gcd(b, n) != 1:
                continue
            for u in range(1, n):
                if math.gcd(u, n) != 1:
                    continue
                out.add(tuple(sorted((u % n, (u * (n - 1)) % n, (u * b) % n))))
        return out

    total = 0
    for n in range(1, 31):
        allowed = classified_terminal(n)
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    verdict = reid_tai_is_terminal(QuotientType(n, (a, b, c)))
                    assert verdict == (tuple(sorted((a, b, c))) in allowed), (n, a, b, c)
                    total += 1
    report(5, f"Reid-Tai agrees with the 1/n(1,-1,b) classification on all "
              f"{total} weight triples with n <= 30")


def test_criterion_6_property_suites():
    rng = random.Random(2024)

    # square detector round trip up to degree 10, plus guaranteed negatives
    x3 = parse_poly("x3", ("x3", "x4"))
    for _ in range(40):
        s_terms = {}
        for _ in range(rng.randint(1, 4)):
            a = rng.randint(0, 5)
            b = rng.randint(0, 10 - 2 * a)
            s_terms[(2 * a, b)] = Fraction(rng.choice((1, -1)) * rng.randint(1, 9),
                                           rng.randint(1, 9))
        s = SparsePoly(("x3", "x4"), s_terms)
        square = (x3 * s) * (x3 * s)
        got = detect_square_form(square)
        assert got == (1, s) or got == (1, -s)
        spoiled = square.with_variables(("x1", "x3", "x4")) \
            + parse_poly(f"x1*x3^{rng.randint(0, 6)}", ("x1", "x3", "x4"))
        assert detect_square_form(spoiled) is None

    # Smith normal form on 200 random matrices
    for _ in range(200):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        # the reference's row transform u, from the same operations in the
        # same order, fits the d and v linalg returns without it
        d, v, _ = smith_normal_form(a)
        u = reference_smith_normal_form(a)[0]
        assert matrix_product(matrix_product(u, a), v) == d
        assert abs(determinant(u)) == 1 and abs(determinant(v)) == 1
        diag = [d[i][i] for i in range(min(m, n))]
        assert all(d[i][j] == 0 for i in range(m) for j in range(n) if i != j)
        for x, y in zip(diag, diag[1:]):
            assert (y == 0) if x == 0 else (x > 0 and y % x == 0)

    # normalization idempotence and orbit constancy
    for _ in range(60):
        n = rng.randint(1, 40)
        arity = rng.randint(1, 5)
        q = QuotientType(n, tuple(rng.randrange(n) if n > 1 else 0
                                  for _ in range(arity)))
        canonical = q.normalized()
        assert canonical.normalized() == canonical
        units = [u for u in range(1, max(n, 2)) if math.gcd(u, n) == 1]
        u = rng.choice(units)
        image = [(u * w) % n for w in q.weights]
        rng.shuffle(image)
        assert QuotientType(n, tuple(image)).normalized() == canonical
    report(6, "square-detector round trip, 200 SNF matrices, "
              "quotient normalization idempotence/orbit-constancy")


def test_criterion_7_structure_checks():
    four = ("x1", "x2", "x3", "x4")
    x2 = parse_poly("x2", four)
    x4 = parse_poly("x4", four)
    for r in R_VALUES:
        weights = model_weights(r)
        for seed in range(5):
            model = generate_model(r, seed, 4)
            phi = reference_eliminate_x5(model)
            assert weighted_order(phi, weights) == r
            powers, scale = scaled_term_weights(phi, weights)
            low = SparsePoly(four, {e: c for (e, c), w in zip(phi.terms.items(), powers)
                                    if w <= r * scale})
            assert low == -(x4 * (x2 * x2 + model.q.with_variables(four)))
    report(7, "eliminated germs have order exactly r and low part -x4*(x2^2+q)")


def test_criterion_8_forced_monomials():
    half_p = QuotientType(2, (1, 1, 0))
    half_q = QuotientType(2, (1, 1, 0))
    checked = 0
    for r in range(7, 201):
        if r % 8 not in (1, 7):
            continue
        need = required_monomials(r)
        p_mono = SparsePoly(("x2", "x3", "x4"), {need["p"]: 1})
        q_mono = SparsePoly(("x1", "x3", "x4"), {need["q"]: 1})
        p_weight = weighted_order(p_mono, model_weights(r))
        q_weight = weighted_order(q_mono, model_weights(r))
        if r % 8 == 1:
            # x2*x3^((r+3)/4) and x3^((r-1)/2)
            assert need["p"] == (1, (r + 3) // 4, 0)
            assert need["q"] == (0, (r - 1) // 2, 0)
        else:
            # x3^((r+1)/2) and x1*x3^((r-3)/4)
            assert need["p"] == (0, (r + 1) // 2, 0)
            assert need["q"] == (1, (r - 3) // 4, 0)
        assert p_weight == r + 1 and p_weight > r
        assert q_weight == r - 1
        assert is_semi_invariant(p_mono.terms, half_p) == 0
        assert is_semi_invariant(q_mono.terms, half_q) == 0
        checked += 1
    assert checked == len([r for r in range(7, 201) if r % 8 in (1, 7)])

    for r in R_VALUES:
        need = required_monomials(r)
        for seed in range(10):
            model = generate_model(r, seed, 4)
            assert model.p.coefficient(need["p"]) != 0
            assert model.q.coefficient(need["q"]) != 0
    report(8, f"forced monomials present in generated models; weight/parity "
              f"identities verified for all {checked} valid r <= 200")
