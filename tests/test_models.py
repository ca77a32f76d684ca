import pytest

from threefold.blowup import verify_blowup_profile
from threefold.models import (CD2Model, P_VARIABLES, Q_VARIABLES,
                              check_required_monomials, classify_normal_form,
                              eliminate_x5, generate_model, model_equations,
                              model_weights, required_monomials, valid_r, validate_model)
from threefold.polynomials import (SparsePoly, low_part_ratio, truncate_le,
                                   weighted_order)

from helpers import parse_poly, square_variants

V4 = ("x1", "x2", "x3", "x4")


def PP(text):
    return parse_poly(text, P_VARIABLES)


def QQ(text):
    return parse_poly(text, Q_VARIABLES)


def germ4(text):
    return parse_poly(text, V4)


class TestValidate:
    def test_small_valid_model(self):
        report = validate_model(CD2Model(7, PP("x3^4"), QQ("x1*x3")), strict=True)
        assert report.passed
        names = [c.name for c in report.checks]
        assert "required_q_monomial" in names  # x1*x3 is the forced monomial at r=7

    def test_congruence_failure(self):
        report = validate_model(CD2Model(11, PP("x3^6"), QQ("x1*x3^2")))
        failed = [c.name for c in report.failures()]
        assert "congruence" in failed

    def test_square_form_rejected(self):
        # (x3*x4^2)^2 has weight 8 = r-1 at r = 9
        report = validate_model(CD2Model(9, PP("x3^6"), QQ("x3^2*x4^4")))
        assert [c.name for c in report.failures()] == ["q_square_free"]

    @pytest.mark.parametrize("name", ["model_B", "twice_square", "model_C"])
    def test_square_over_c(self, name):
        # q_square_free is decided over C; the detail names the constant
        root = "(x3*(x3^4*x4 - 6*x3^2*x4^5 - 3*x4^9))^2"
        detail = {"model_B": f"q = -1/9*{root}", "twice_square": f"q = 2/9*{root}",
                  "model_C": ""}[name]
        model, passes = square_variants()[name]
        report = validate_model(model)
        assert [c.name for c in report.failures()] == ([] if passes else ["q_square_free"])
        assert report.checks[-1].detail == detail
        assert verify_blowup_profile(model).passed == passes

    def test_low_order_p_rejected(self):
        report = validate_model(CD2Model(7, PP("x3^2"), QQ("x1*x3")))
        assert "p_order" in [c.name for c in report.failures()]

    def test_odd_parity_p_rejected(self):
        report = validate_model(CD2Model(7, PP("x2*x3^4"), QQ("x1*x3")))
        assert [c.name for c in report.failures()] == ["p_parity"]

    def test_inhomogeneous_q_rejected(self):
        report = validate_model(CD2Model(7, PP("x3^4"), QQ("x1*x3 + x3^2")))
        assert "q_weight" in [c.name for c in report.failures()]

    def test_zero_q_rejected(self):
        report = validate_model(CD2Model(7, PP("x3^4"), SparsePoly(Q_VARIABLES)))
        assert "q_weight" in [c.name for c in report.failures()]

    def test_foreign_variables_rejected_at_construction(self):
        with pytest.raises(ValueError):
            CD2Model(7, PP("x3^4"), germ4("x2*x4^4"))

    def test_json_round_trip(self):
        model = generate_model(7, 5)
        assert CD2Model.from_json_dict(model.to_json_dict()) == model


class TestRequiredMonomials:
    def test_r7(self):
        need = required_monomials(7)
        assert need["p"] == (0, 4, 0)       # x3^4
        assert need["q"] == (1, 1, 0)       # x1*x3

    def test_r17(self):
        need = required_monomials(17)
        assert need["p"] == (1, 5, 0)       # x2*x3^5
        assert need["q"] == (0, 8, 0)       # x3^8

    def test_rejects_bad_r(self):
        with pytest.raises(ValueError):
            required_monomials(11)

    def test_presence_checks(self):
        model = CD2Model(17, PP("x2*x3^5"), QQ("x3^8"))
        assert all(c.passed for c in check_required_monomials(model))
        missing = CD2Model(7, PP("x2^2*x4^8"), QQ("x1*x3"))
        p_check, q_check = check_required_monomials(missing)
        assert not p_check.passed and q_check.passed


class TestGenerate:
    def test_deterministic(self):
        assert generate_model(7, 42, 4) == generate_model(7, 42, 4)
        assert generate_model(7, 42, 4) != generate_model(7, 43, 4)

    def test_round_trip_validates(self):
        for r in (7, 9, 15, 17, 23, 25):
            for seed in range(20):
                for extra in (2, 4):
                    model = generate_model(r, seed, extra)
                    assert validate_model(model, strict=True).passed, (r, seed, extra)

    def test_required_monomial_baked_in(self):
        model = generate_model(9, 0, 2)
        assert model.q.coefficient((0, 4, 0)) != 0  # x3^4 at r = 9
        # so is x4^(r-1), which x3^2 does not divide: no q is a square (x3*s)^2
        for r in filter(valid_r, range(401)):
            for seed in range(5):
                assert generate_model(r, seed).q.coefficient((0, 0, r - 1)) != 0, (r, seed)

    def test_negative_fixture_flag(self):
        model = generate_model(7, 3, 4)
        need = required_monomials(7)

        def without(poly, mono):
            return SparsePoly(poly.variables,
                              {e: c for e, c in poly.terms.items() if e != mono})

        fixture = CD2Model(7, without(model.p, need["p"]), without(model.q, need["q"]))
        report = validate_model(fixture, strict=True)
        assert not report.passed
        assert {c.name for c in report.failures()} == {"required_p_monomial",
                                                      "required_q_monomial"}

    def test_rejects_bad_r(self):
        with pytest.raises(ValueError):
            generate_model(11, 0, 4)


class TestEliminateX5:
    def test_direct_substitution(self):
        model = CD2Model(7, SparsePoly(P_VARIABLES), QQ("x1*x3"))
        # p = 0 is legal: the zero polynomial's weighted order exceeds r
        assert validate_model(model).passed
        assert eliminate_x5(model) == germ4("x1^2 - x2^2*x4 - x1*x3*x4")

    def test_p_meets_x4_q(self):
        # x3^2*x4^3 lies in p and in x4*q: the coefficients add, and the
        # term goes when they cancel; x2^2*x4 in p cancels -x4*x2^2
        q = QQ("x1*x3 + x3^2*x4^2")
        cases = (("x3^4 + 2*x3^2*x4^3", "x1^2 - x2^2*x4 - x1*x3*x4 + x3^2*x4^3 + x3^4"),
                 ("x3^4 + x3^2*x4^3", "x1^2 - x2^2*x4 - x1*x3*x4 + x3^4"),
                 ("x2^2*x4", "x1^2 - x1*x3*x4 - x3^2*x4^3"))
        for p, expected in cases:
            phi = eliminate_x5(CD2Model(7, PP(p), q))
            assert phi == germ4(expected), p
            assert 0 not in phi.terms.values()

    def test_weighted_order_is_r(self):
        for r in (7, 9, 17):
            model = generate_model(r, 1, 4)
            phi = eliminate_x5(model)
            assert weighted_order(phi, model_weights(r)) == r

    def test_low_part_shape(self):
        model = generate_model(7, 2, 4)
        phi = eliminate_x5(model)
        weights = model_weights(7)
        x2 = germ4("x2")
        x4 = germ4("x4")
        psi = x2 * x2 + model.q.with_variables(V4)
        assert truncate_le(phi, weights, 7) == -(x4 * psi)
        assert low_part_ratio(phi, x4 * psi, weights, 7) == -1

    def test_equations_vanish_after_elimination(self):
        model = generate_model(9, 7, 2)
        first, second = model_equations(model)
        assert second.coefficient((0, 0, 0, 0, 1)) == 1  # linear in x5


class TestClassifier:
    def test_form_a(self):
        res = classify_normal_form(germ4("x1^2 + x2*x3*x4 + x2^4 + x3^4 + x4^9"), 7)
        assert res.form == "A" and res.elephant_ok
        assert res.data == {"alpha": 2, "beta": 2, "gamma": 9}

    def test_form_a_elephant_fails(self):
        res = classify_normal_form(germ4("x1^2 + x2*x3*x4 + x2^4 + x3^4 + x4^5"), 7)
        assert res.form == "A" and not res.elephant_ok

    def test_form_b_lambda_zero(self):
        res = classify_normal_form(germ4("x1^2 + x2^2*x4 + x3^6*x4 + x4^7"), 7)
        assert res.form == "B" and res.elephant_ok
        assert res.data["lambda"] == 0 and res.data["ord_g_x4"] == 7

    def test_form_b_with_lambda(self):
        res = classify_normal_form(germ4("x1^2 + x2^2*x4 + 2*x2*x3^3 + x4^9"), 7)
        assert res.form == "B" and res.data["lambda"] == 2 and res.data["alpha"] == 2

    def test_form_b_no_pure_x4_part(self):
        res = classify_normal_form(germ4("x1^2 + x2^2*x4 + x3^4"), 7)
        assert res.form == "B" and res.elephant_ok  # ord g(0, x4) infinite

    def test_odd_x2_is_unrecognized(self):
        assert classify_normal_form(germ4("x1^2 + x2^3"), 7).form == "unrecognized"

    def test_alpha_one_is_unrecognized(self):
        assert classify_normal_form(germ4("x1^2 + x2^2*x4 + x2*x3 + x4^7"), 7).form == "unrecognized"

    def test_low_x4_power_not_in_ideal(self):
        assert classify_normal_form(germ4("x1^2 + x2^2*x4 + x4^2"), 7).form == "unrecognized"

    def test_uniform_scaling_accepted(self):
        res = classify_normal_form(germ4("3*x1^2 + 3*x2*x3*x4 + 3*x2^4 + 3*x3^4 + 3*x4^9"), 7)
        assert res.form == "A"

    def test_non_unit_pattern_coefficient_rejected(self):
        res = classify_normal_form(germ4("x1^2 + 5*x2*x3*x4 + x2^4 + x3^4 + x4^9"), 7)
        assert res.form == "unrecognized"

    def test_free_g_coefficients(self):
        res = classify_normal_form(germ4("x1^2 + x2^2*x4 + 5*x4^9"), 7)
        assert res.form == "B" and res.data["ord_g_x4"] == 9

    def test_flip_matches_eliminated_shape(self):
        model = CD2Model(7, SparsePoly(P_VARIABLES), QQ("x4^6"))
        res = classify_normal_form(eliminate_x5(model), 7)
        assert res.form == "B" and res.flipped_x4 and res.elephant_ok

    def test_pipeline_never_form_a(self):
        for r in (7, 9, 17):
            for seed in range(5):
                phi = eliminate_x5(generate_model(r, seed, 4))
                assert classify_normal_form(phi, r).form != "A"
