import json
from pathlib import Path

import pytest

from threefold.blowup import verify_blowup_profile
from threefold.models import (CD2Model, P_VARIABLES, Q_VARIABLES,
                              check_required_monomials, generate_model, model_equations,
                              required_monomials, valid_r, validate_model)
from threefold.polynomials import SparsePoly

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

    def test_zero_p_passes(self):
        # p = 0 is legal: the zero polynomial's weighted order exceeds r
        report = validate_model(CD2Model(7, SparsePoly(P_VARIABLES), QQ("x1*x3")))
        assert report.passed
        assert report.checks[1].detail == "weighted order of p is infinite, needs > 7"

    def test_low_order_p_rejected(self):
        report = validate_model(CD2Model(7, PP("x3^2"), QQ("x1*x3")))
        assert "p_order" in [c.name for c in report.failures()]

    def test_p_of_order_exactly_r_rejected(self):
        # x4^7 weighs 7 = r: the order must exceed r, not reach it
        path = Path(__file__).parent / "golden" / "model_r7_seed42.json"
        data = json.loads(path.read_text(encoding="utf-8"))
        data["p"]["terms"].append({"c": "1", "e": [0, 0, 7]})
        report = validate_model(CD2Model.from_json_dict(data))
        assert [(c.name, c.detail) for c in report.failures()] == [
            ("p_order", "weighted order of p is 7, needs > 7")]
        data["p"]["terms"][-1]["e"] = [0, 0, 8]
        assert validate_model(CD2Model.from_json_dict(data)).passed

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

    def test_extra_degree_zero_is_the_least(self):
        # no optional p-monomial weighs in (r, r]; -1 is refused
        model = generate_model(7, 1, 0)
        assert list(model.p.terms) == [required_monomials(7)["p"]]
        assert validate_model(model, strict=True).passed
        with pytest.raises(ValueError, match="^extra_degree must be non-negative$"):
            generate_model(7, 1, -1)


class TestModelEquations:
    def test_second_equation_is_linear_in_x5(self):
        model = generate_model(9, 7, 2)
        second = model_equations(model)[1]
        assert [e for e in second.terms if e[4]] == [(0, 0, 0, 0, 1)]
        assert second.coefficient((0, 0, 0, 0, 1)) == 1
