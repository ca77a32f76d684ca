import math
from fractions import Fraction

import pytest

from threefold.blowup import (CIGerm, DimensionError, MANUAL, QUOTIENT, SMOOTH,
                              _chart_data, _term_powers, analyze_blowup,
                              model_germ, verify_blowup_profile)
from threefold.models import (CD2Model, P_VARIABLES, Q_VARIABLES, blowup_vector,
                              generate_model)
from threefold.polynomials import SparsePoly
from threefold.quotients import LatticeError, QuotientType, blowup_charts

from helpers import parse_poly, ref_normalized

V5 = ("x1", "x2", "x3", "x4", "x5")
HALF = Fraction(1, 2)


def family_germ(r=7, seed=0):
    return model_germ(generate_model(r, seed, 4))


def smooth_space(m=3):
    names = tuple(f"x{i + 1}" for i in range(m))
    return CIGerm(QuotientType(1, (0,) * m), names, ())


class TestCIGerm:
    def test_rejects_constant_term(self):
        with pytest.raises(ValueError):
            CIGerm(QuotientType(1, (0, 0, 0)), ("x1", "x2", "x3"),
                   (parse_poly("x1 + 1", ("x1", "x2", "x3")),))

    def test_rejects_mixed_characters(self):
        with pytest.raises(ValueError):
            CIGerm(QuotientType(2, (1, 0, 0)), ("x1", "x2", "x3"),
                   (parse_poly("x1 + x2", ("x1", "x2", "x3")),))

    def test_rejects_zero_equation(self):
        with pytest.raises(ValueError):
            CIGerm(QuotientType(1, (0, 0, 0)), ("x1", "x2", "x3"),
                   (SparsePoly(("x1",)),))

    @pytest.mark.parametrize("names", [("x1", "x2"), ("x1", "x2", "x3", "x4")])
    def test_rejects_variable_count(self, names):
        # checked before any equation, so a germ without equations is refused too
        for equations in ((), (parse_poly("x1^2", names),)):
            with pytest.raises(ValueError) as caught:
                CIGerm(QuotientType(2, (1, 1, 1)), names, equations)
            assert str(caught.value) == "variable count does not match quotient arity"


class TestOrders:
    def test_family_orders(self):
        germ = family_germ(7)
        assert analyze_blowup(germ, blowup_vector(7)).orders == (8, 6)

    @pytest.mark.parametrize("position, weight", [(0, 4.0), (3, 1.0), (4, 7.5)])
    def test_float_weights_are_refused(self, position, weight):
        v = list(blowup_vector(7))
        v[position] = weight
        with pytest.raises(ValueError, match=f"^weight {weight!r} is a float, not an exact "
                                             f"rational$"):
            analyze_blowup(family_germ(7), v)

    def test_single_equation(self):
        # a three-fold, as the blow-up needs: one equation in four variables
        names = V5[:4]
        germ = CIGerm(QuotientType(2, (1, 1, 0, 0)), names,
                      (parse_poly("x4", names),))
        assert analyze_blowup(germ, (9, 5, 3, 2)).orders == (2,)

    def test_empty(self):
        assert analyze_blowup(smooth_space(), (1, 1, 1)).orders == ()

    # blowup_charts checks v, the arity before the signs; each id names the
    # defect of its case
    @pytest.mark.parametrize("analysis", [analyze_blowup])
    @pytest.mark.parametrize("v, message", [
        ((1, 1), "weight vector arity does not match the ambient"),
        ((1, -1), "weight vector arity does not match the ambient"),
        ((1, -HALF, 1), "weight vector entries must be positive")],
        ids=["v0-weight vector arity mismatch", "v1-weight vector arity mismatch",
             "v2-weights must be positive"])
    def test_weights_checked_against_the_germ(self, analysis, v, message):
        with pytest.raises(LatticeError, match=f"^{message}$") as caught:
            analysis(smooth_space(), v)
        assert isinstance(caught.value, ValueError)


class TestDiscrepancy:
    def test_family_value(self):
        for r in (7, 9, 17):
            germ = family_germ(r)
            assert analyze_blowup(germ, blowup_vector(r)).discrepancy == 2

    def test_ordinary_blowup(self):
        assert analyze_blowup(smooth_space(), (1, 1, 1)).discrepancy == 2

    def test_quotient_point_blowup(self):
        germ = CIGerm(QuotientType(5, (2, 3, 1)), ("x1", "x2", "x3"), ())
        v = (Fraction(2, 5), Fraction(3, 5), Fraction(1, 5))
        assert analyze_blowup(germ, v).discrepancy == Fraction(1, 5)


class TestECubed:
    def test_family_value(self):
        for r in (7, 9, 17):
            germ = family_germ(r)
            assert analyze_blowup(germ, blowup_vector(r)).e_cubed == Fraction(1, r)

    def test_cone_over_plane_conic(self):
        germ = CIGerm(QuotientType(2, (1, 1, 1)), ("x1", "x2", "x3"), ())
        assert analyze_blowup(germ, (HALF, HALF, HALF)).e_cubed == 4

    def test_smooth_space(self):
        assert analyze_blowup(smooth_space(), (1, 1, 1)).e_cubed == 1

    def test_weighted_smooth_space(self):
        assert analyze_blowup(smooth_space(), (2, 3, 5)).e_cubed == Fraction(1, 30)

    def test_dimension_guard(self):
        with pytest.raises(DimensionError):
            analyze_blowup(smooth_space(4), (1, 1, 1, 1))


class TestOrdinaryDoublePoint:
    # the blow-up of x1*x2 + x3*x4 = 0 at the origin: exceptional divisor is
    # a quadric surface with normal class O(-1,-1), so discrepancy 1, cube 2
    def germ(self):
        names = ("x1", "x2", "x3", "x4")
        eq = parse_poly("x1*x2 + x3*x4", names)
        return CIGerm(QuotientType(1, (0, 0, 0, 0)), names, (eq,))

    def test_profile(self):
        report = analyze_blowup(self.germ(), (1, 1, 1, 1))
        assert report.discrepancy == 1
        assert report.e_cubed == 2
        assert all(f.kind == SMOOTH for f in report.chart_findings)


class TestFractionalWeightsWithEquation:
    def test_half_weights_on_invariant_quadric(self):
        # x1^2+...+x4^2 = 0 in C^4/(1/2)(1,1,1,1), blown up at the lattice
        # generator: every equation order is 1, the blow-up is crepant, and
        # each chart misses the origin through a constant term
        names = ("x1", "x2", "x3", "x4")
        eq = parse_poly("x1^2 + x2^2 + x3^2 + x4^2", names)
        germ = CIGerm(QuotientType(2, (1, 1, 1, 1)), names, (eq,))
        report = analyze_blowup(germ, (HALF, HALF, HALF, HALF))
        assert report.orders == (1,)
        assert report.discrepancy == 0
        assert report.e_cubed == 8
        assert all(f.kind == SMOOTH for f in report.chart_findings)


class TestPermutationInvariance:
    def test_discrepancy_and_degree(self):
        model = generate_model(7, 4, 4)
        germ = model_germ(model)
        v = blowup_vector(7)
        order = (4, 0, 3, 1, 2)
        permuted_vars = tuple(V5[i] for i in order)
        permuted = CIGerm(QuotientType(2, tuple(germ.ambient.weights[i] for i in order)),
                          permuted_vars,
                          tuple(eq.with_variables(permuted_vars) for eq in germ.equations))
        pv = tuple(v[i] for i in order)
        report, expected = analyze_blowup(permuted, pv), analyze_blowup(germ, v)
        assert report.discrepancy == expected.discrepancy
        assert report.e_cubed == expected.e_cubed


class TestChartSingularities:
    def test_family_findings(self):
        germ = family_germ(7, seed=3)
        findings = analyze_blowup(germ, blowup_vector(7)).chart_findings
        kinds = [f.kind for f in findings]
        assert kinds == [SMOOTH, SMOOTH, SMOOTH, SMOOTH, QUOTIENT]
        assert findings[4].quotient == QuotientType(14, (1, 13, 11)).normalized()

    def test_ordinary_blowup_all_smooth(self):
        findings = analyze_blowup(smooth_space(), (1, 1, 1)).chart_findings
        assert all(f.kind == SMOOTH for f in findings)

    def test_manual_fixture(self):
        # x1^2 + x2^2 + x3^2 + x4^4 at a 1/2(1,1,1,1) point, v = (1,1,1,2):
        # on the x4 chart the strict transform y1^2+y2^2+y3^2+t^6 has neither
        # a constant nor a linear term, and the chart group has order 4
        names = ("x1", "x2", "x3", "x4")
        eq = parse_poly("x1^2 + x2^2 + x3^2 + x4^4", names)
        germ = CIGerm(QuotientType(2, (1, 1, 1, 1)), names, (eq,))
        findings = analyze_blowup(germ, (1, 1, 1, 2)).chart_findings
        assert [f.kind for f in findings] == [SMOOTH, SMOOTH, SMOOTH, MANUAL]
        assert findings[3].detail.endswith("; linear terms [[0, 0, 0, 0]], rank 0")

    def test_high_weight_perturbation_stable(self):
        model = generate_model(9, 5, 2)
        germ = model_germ(model)
        v = blowup_vector(9)
        baseline = analyze_blowup(germ, v).chart_findings
        x3_12 = SparsePoly(V5, {(0, 0, 12, 0, 0): 1})
        perturbed = CIGerm(germ.ambient, germ.variables,
                           (germ.equations[0] + x3_12, germ.equations[1]))
        assert analyze_blowup(perturbed, v).chart_findings == baseline


class TestStrictTransform:
    def test_denominator_must_clear_the_weights(self):
        # v = (1/2, 1/2, 1, 1) needs t^(1/2) units: the chart data scales v by
        # the least denominator that clears it, 2
        names = ("x1", "x2", "x3", "x4")
        eq = parse_poly("x1*x2 + x3^2", names)
        germ = CIGerm(QuotientType(2, (1, 1, 0, 0)), names, (eq,))
        v = (HALF, HALF, Fraction(1), Fraction(1))
        data = _chart_data(blowup_charts, germ.ambient, v)
        assert (data.scaled, data.denominator) == ((1, 1, 2, 2), 2)
        # the order is 1 (2 units): x1*x2 keeps t^0 and x3^2 keeps t^1 (2 units)
        terms, shift = _term_powers(eq, data.scaled)
        assert shift == 2 and [power for _, _, power in terms] == [0, 2]
        # in t^(1/2) units the strict transforms on the charts of x1, x3 and x4
        # are y2 + y3^2*t^2, y1*y2 + t^2 and y1*y2 + y3^2: x3^2 keeps exactly
        # t^denominator, the linear term of its own chart, and the x4 chart
        # has no linear term
        findings = analyze_blowup(germ, v).chart_findings
        assert [f.kind for f in findings] == [SMOOTH, SMOOTH, QUOTIENT, MANUAL]
        assert findings[0].detail == "residual group is trivial"
        assert findings[3].detail.endswith("; linear terms [[0, 0, 0, 0]], rank 0")


def expected_point(n, weights):
    # the (kind, order, normal form) of the point 1/n(weights): an index-1
    # point is smooth
    return (SMOOTH, None, None) if n == 1 else (QUOTIENT, n, ref_normalized(n, weights))


def found_points(report):
    return [(f.kind, f.quotient and f.quotient.n, f.quotient and f.quotient.weights)
            for f in report.chart_findings]


class TestClosedFormAnchors:
    # divisorial contractions whose profile is known in closed form: every
    # expected value below comes from the formula, none from the code

    def test_kawamata_contraction_to_a_quotient_point(self):
        # Kawamata (Km96): the contraction to 1/r(a, r-a, 1) is the blow-up by
        # v = (a, r-a, 1)/r, with discrepancy 1/r and E^3 = r^2/(a(r-a)); Y
        # has the point 1/a(r,-r,1) on the x chart, 1/(r-a)(r,-r,1) on the y
        # chart, and the z chart is smooth
        cases = 0
        for r in range(2, 61):
            for a in range(1, r):
                if math.gcd(a, r) != 1:
                    continue
                germ = CIGerm(QuotientType(r, (a, r - a, 1)), ("x", "y", "z"), ())
                report = analyze_blowup(germ, (Fraction(a, r), Fraction(r - a, r),
                                               Fraction(1, r)))
                assert report.discrepancy == Fraction(1, r), (r, a)
                assert report.e_cubed == Fraction(r * r, a * (r - a)), (r, a)
                assert found_points(report) == [expected_point(a, (r, -r, 1)),
                                                expected_point(r - a, (r, -r, 1)),
                                                (SMOOTH, None, None)], (r, a)
                cases += 1
        assert cases == 1101

    def test_contraction_to_a_smooth_point(self):
        # Kawakita (Invent. Math. 145, 2001): every divisorial contraction to
        # a smooth point is the blow-up of C^3 by (1, a, b), gcd(a, b) = 1,
        # with discrepancy a + b and E^3 = 1/(ab); Y has the point 1/a(1,-1,b)
        # on the chart of x2 and 1/b(1,a,-1) on that of x3, and the chart of
        # x1 is smooth
        cases = 0
        for b in range(1, 41):
            for a in range(1, b + 1):
                if math.gcd(a, b) != 1:
                    continue
                report = analyze_blowup(smooth_space(), (1, a, b))
                assert report.discrepancy == a + b, (a, b)
                assert report.e_cubed == Fraction(1, a * b), (a, b)
                assert found_points(report) == [(SMOOTH, None, None),
                                                expected_point(a, (1, -1, b)),
                                                expected_point(b, (1, a, -1))], (a, b)
                cases += 1
        assert cases == 490


class TestProfile:
    def test_valid_models_pass(self):
        for r in (7, 17):
            report = verify_blowup_profile(generate_model(r, 11, 4))
            assert report.passed, [c for c in report.checks if not c.passed]

    def test_invalid_r_rejected_before_blowup(self):
        model = CD2Model(11, parse_poly("x3^8", P_VARIABLES),
                         parse_poly("x1*x3^2", Q_VARIABLES))
        report = verify_blowup_profile(model)
        assert not report.passed
        assert report.checks[0].name == "model_valid"
        assert "rejected before blow-up" in report.checks[0].detail

    def test_report_serialization(self):
        report = analyze_blowup(family_germ(7), blowup_vector(7))
        data = report.to_json_dict()
        assert data["discrepancy"] == "2"
        assert data["e3"] == "1/7"
        assert data["orders"] == ["8", "6"]
        assert len(data["charts"]) == 5

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the profile sees only the "
                                           "chart origins, not all of E")
    def test_singular_point_off_the_chart_origins_fails(self):
        # model A: in the x4 chart both strict transforms vanish at
        # (y1, y2, y3, t, y5) = (1, 0, 1, 0, 0), where the gradient of the
        # second is 0 and the group acts freely, so Y is singular there; the
        # five chart origins show only the x5 quotient point
        model = CD2Model(23, parse_poly("-x3^12", P_VARIABLES),
                         parse_poly("x1*x3^5 - x1*x3^3*x4^4 - x3^2*x4^18 + x4^22",
                                    Q_VARIABLES))
        report = verify_blowup_profile(model)
        assert report.checks[0].passed
        assert not report.passed
