import json
import random
from fractions import Fraction

import pytest

from threefold import blowup, cli, dimensions, models, polynomials, quotients
from threefold.cli import build_parser, main
from threefold.dimensions import (CorrectionProfile, InconsistencyError,
                                  WellDefinednessError, degree_point_count)
from threefold.models import CD2Model, Q_VARIABLES, generate_model, model_equations
from threefold.polynomials import DIGIT_LIMIT, SparsePoly

from helpers import mutate_model, square_variants


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, "--format", "json", *argv)
    return code, json.loads(out) if out else None, err


class TestRendering:
    # table commands render one table; terminal and generate print one line
    TABLES = {"ni": 1, "dims": 1, "verify-dim": 1, "terminal": 0, "charts": 1,
              "generate": 0, "validate": 1, "blowup": 1}

    @staticmethod
    def commands(path):
        return [("ni", "--r", "7", "--i", "4"), ("dims", "--r", "7", "--imax", "10"),
                ("verify-dim", "--r", "7"), ("terminal", "--type", "1/7(1,6,3)"),
                ("charts", "--ambient", "1/2(1,1,1,0,0)", "--weights", "4,3,2,1,7"),
                ("generate", "--r", "7", "--seed", "1", "--out", path),
                ("validate", "--model", path), ("blowup", "--model", path)]

    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_only_the_requested_format_is_rendered(self, capsys, tmp_path, monkeypatch, fmt):
        calls = []
        render = cli.render_table

        def counting(headers, rows):
            calls.append(headers)
            return render(headers, rows)

        monkeypatch.setattr(cli, "render_table", counting)
        rendered = {}
        for argv in self.commands(str(tmp_path / "model.json")):
            before = len(calls)
            code, out, _ = run(capsys, "--format", fmt, *argv)
            assert code == 0 and out, argv
            rendered[argv[0]] = len(calls) - before
        expected = {name: 0 for name in self.TABLES} if fmt == "json" else self.TABLES
        assert rendered == expected

    def test_a_failed_validation_renders_its_checks_once(self, capsys, tmp_path, monkeypatch):
        path = str(tmp_path / "model.json")
        run(capsys, "generate", "--r", "7", "--seed", "1", "--out", path)
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        data["p"]["terms"] = []
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)
        calls = []
        monkeypatch.setattr(cli, "render_table", lambda headers, rows: calls.append(rows) or "")
        for fmt, count in (("json", 0), ("table", 1)):
            code, _, _ = run(capsys, "--format", fmt, "blowup", "--model", path)
            assert code == 1 and len(calls) == count


class TestNi:
    def test_points_json(self, capsys):
        code, data, _ = run_json(capsys, "ni", "--r", "7", "--i", "4")
        assert code == 0
        assert len(data["points"]) == 5
        assert {"exponents": [0, 0, 2, 0, 0], "parity": 0} in data["points"]

    def test_parity_filter(self, capsys):
        code, data, _ = run_json(capsys, "ni", "--r", "7", "--i", "4", "--parity", "0")
        assert code == 0 and len(data["points"]) == 2

    def test_bad_r_is_input_error(self, capsys):
        code, _, err = run(capsys, "ni", "--r", "8", "--i", "4")
        assert code == 2 and "error" in err

    def test_huge_degree_is_refused_before_enumerating(self, capsys, monkeypatch):
        # about 1.4e9 points; the count alone decides, no point is built
        def no_enumeration(r, degree):
            raise AssertionError("degree_points called")

        monkeypatch.setattr(cli, "degree_points", no_enumeration)
        code, out, err = run(capsys, "ni", "--r", "7", "--i", "100000")
        assert code == 2 and out == ""
        assert err.startswith("error: degree 100000 has 1428614286 lattice points")
        assert f"NI_POINT_LIMIT = {cli.NI_POINT_LIMIT}" in err

    def test_limit_admits_exactly_its_count(self, capsys, monkeypatch):
        count = degree_point_count(23, 69)
        monkeypatch.setattr(cli, "NI_POINT_LIMIT", count)
        code, data, _ = run_json(capsys, "ni", "--r", "23", "--i", "69")
        assert code == 0 and len(data["points"]) == count
        monkeypatch.setattr(cli, "NI_POINT_LIMIT", count - 1)
        code, _, err = run(capsys, "ni", "--r", "23", "--i", "69")
        assert code == 2 and err.startswith("error:")

    def test_limit_is_named_in_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["ni", "--help"])
        assert f"NI_POINT_LIMIT = {cli.NI_POINT_LIMIT}" in " ".join(capsys.readouterr().out.split())


class TestDims:
    def test_schema(self, capsys):
        code, data, _ = run_json(capsys, "dims", "--r", "7", "--imax", "4")
        assert code == 0
        assert data["r"] == 7
        assert {"i": 0, "j": 0, "dim": 1} in data["dims"]
        assert {"i": 4, "j": 0, "dim": 2} in data["dims"]

    def test_deterministic_output(self, capsys):
        first = run_json(capsys, "dims", "--r", "9", "--imax", "10")
        second = run_json(capsys, "dims", "--r", "9", "--imax", "10")
        assert first == second

    def test_limit_admits_exactly_its_bound(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "DEGREE_LIMIT", 42)
        code, data, _ = run_json(capsys, "dims", "--r", "7", "--imax", "42")
        assert code == 0 and len(data["dims"]) == 86
        code, out, err = run(capsys, "dims", "--r", "7", "--imax", "43")
        assert (code, out) == (2, "")
        assert err == "error: dims would count degrees up to 43; at most DEGREE_LIMIT = 42\n"

    def test_limit_is_named_in_help(self, capsys):
        for argv in (["--help"], ["dims", "--help"], ["verify-dim", "--help"]):
            with pytest.raises(SystemExit):
                main(argv)
            text = " ".join(capsys.readouterr().out.split())
            assert f"DEGREE_LIMIT = {cli.DEGREE_LIMIT}" in text, argv


class TestVerifyDim:
    def test_passes(self, capsys):
        code, data, _ = run_json(capsys, "verify-dim", "--r", "7", "--imax", "42")
        assert code == 0
        assert data["passed"] is True
        assert {c["name"] for c in data["checks"]} == {
            "decomposition", "well_defined", "orbit_sums", "correction_solved"}

    def test_default_imax_is_six_r(self, capsys):
        code, data, _ = run_json(capsys, "verify-dim", "--r", "7")
        assert code == 0 and data["imax"] == 42

    def test_correction_is_reported(self, capsys):
        code, data, _ = run_json(capsys, "verify-dim", "--r", "7")
        correction = data["correction"]
        assert code == 0 and correction["agrees"] is True
        # B(2m) = m(7-m)/7 on even residues
        assert correction["closed_form"][0:14:2] == ["0", "6/7", "10/7", "12/7",
                                                    "12/7", "10/7", "6/7"]
        assert correction["reconstructed"] == correction["closed_form"]

    def test_wrong_correction_fails(self, capsys, monkeypatch):
        # a zero profile passes all four checks but is not the closed form
        def zero_profile(r, max_degree):
            return CorrectionProfile(r, {k: Fraction(0) for k in range(2 * r)})

        monkeypatch.setattr(cli, "correction_profile", zero_profile)
        code, data, _ = run_json(capsys, "verify-dim", "--r", "7")
        assert all(c["passed"] for c in data["checks"])
        assert data["correction"]["agrees"] is False
        assert data["correction"]["reconstructed"] == ["0"] * 14
        assert (code, data["passed"]) == (1, False)

    @pytest.mark.parametrize("stage, names", [
        ("correction_profile", ["decomposition", "well_defined"]),
        ("solve_correction", ["decomposition", "well_defined", "orbit_sums"]),
    ], ids=["not_well_defined", "inconsistent"])
    def test_failure_paths(self, capsys, monkeypatch, stage, names):
        # the counted profile fails at one stage; the closed form still solves
        counted = []

        def profile(r, max_degree):
            if stage == "correction_profile":
                raise WellDefinednessError("doctored residue")
            counted.append(dimensions.correction_profile(r, max_degree))
            return counted[-1]

        def solve(p):
            if counted and p is counted[-1]:
                raise InconsistencyError("doctored orbit")
            return dimensions.solve_correction(p)

        monkeypatch.setattr(cli, "correction_profile", profile)
        monkeypatch.setattr(cli, "solve_correction", solve)
        code, data, _ = run_json(capsys, "verify-dim", "--r", "7")
        assert (code, data["passed"]) == (1, False)
        assert [c["name"] for c in data["checks"]] == names
        assert [c["passed"] for c in data["checks"]] == [True] * (len(names) - 1) + [False]
        assert data["checks"][-1]["detail"].startswith("doctored")
        assert data["correction"]["reconstructed"] is None
        assert data["correction"]["agrees"] is False

        code, out, _ = run(capsys, "verify-dim", "--r", "7")
        rows = [line.split()[:2] for line in out.splitlines()[2:]]
        assert code == 1
        assert rows == ([[name, "pass"] for name in names[:-1]]
                        + [[names[-1], "FAIL"], ["correction", "FAIL"]])

    def test_limit_covers_the_effective_bound(self, capsys, monkeypatch):
        # the profile counts up to max(imax, 2r), the default imax is 6r
        monkeypatch.setattr(cli, "DEGREE_LIMIT", 46)
        code, data, _ = run_json(capsys, "verify-dim", "--r", "23", "--imax", "5")
        assert code == 0 and data["passed"] is True
        for args in (["--r", "23", "--imax", "47"], ["--r", "25", "--imax", "5"],
                     ["--r", "9"]):
            code, out, err = run(capsys, "verify-dim", *args)
            assert (code, out) == (2, "") and err.count("\n") == 1, args
            assert err.startswith("error: verify-dim would count degrees up to ")

    def test_negative_imax_is_input_error(self, capsys):
        for command in ("verify-dim", "dims"):
            code, out, err = run(capsys, "--format", "json", command, "--r", "7",
                                 "--imax", "-5")
            assert (code, out) == (2, "") and "--imax" in err, command


class TestTerminal:
    def test_terminal_type(self, capsys):
        code, data, _ = run_json(capsys, "terminal", "--type", "1/14(1,13,11)")
        assert code == 0 and data["terminal"] is True

    def test_not_terminal_exits_one(self, capsys):
        code, data, _ = run_json(capsys, "terminal", "--type", "1/2(1,1,0)")
        assert code == 1 and data["terminal"] is False and data["canonical"] is True

    def test_bad_grammar(self, capsys):
        code, _, err = run(capsys, "terminal", "--type", "nonsense")
        assert code == 2 and "error" in err

    def test_terminal_type_asks_the_lemma_once(self, capsys, terminal_lemmas):
        # terminal implies canonical, so the canonical verdict is not asked
        code, data, _ = run_json(capsys, "terminal", "--type", "1/14(1,13,11)")
        assert (code, data["terminal"], data["canonical"]) == (0, True, True)
        assert terminal_lemmas == [quotients.QuotientType(14, (1, 13, 11))]
        code, data, _ = run_json(capsys, "terminal", "--type", "1/14(1,13,12)")
        assert (code, data["terminal"], data["canonical"]) == (1, False, True)
        assert len(terminal_lemmas) == 3

    def test_huge_orders_visit_no_group_element(self, capsys, age_loops):
        # the terminal lemma and the canonical shortcuts decide at n ~ 1e7
        code, data, _ = run_json(capsys, "terminal", "--type", "1/10000019(1,10000018,2)")
        assert code == 0 and data["terminal"] is True and data["canonical"] is True
        assert data["normalized"] == "1/10000019(1,2,10000018)"
        code, data, _ = run_json(capsys, "terminal", "--type", "1/10000000(1,2,9999997)")
        assert code == 1 and data["terminal"] is False and data["canonical"] is True
        assert age_loops == []

    @pytest.mark.parametrize("text, what", [
        ("1/10000000(1,2,3)", "canonical verdict"),
        ("1/10000000(1,9999999,2,3)", "terminal verdict"),
        ("1/20000000(10000000,10000000,10000000)", "canonical verdict"),
    ])
    def test_age_loop_above_the_limit_is_input_error(self, capsys, age_loops, text, what):
        code, out, err = run(capsys, "terminal", "--type", text)
        assert (code, out) == (2, "") and age_loops == []
        # n group elements, one step per weight each
        steps = {"1/10000000(1,2,3)": 30000000, "1/10000000(1,9999999,2,3)": 40000000,
                 "1/20000000(10000000,10000000,10000000)": 60000000}[text]
        assert err == (f"error: the {what} of {text} takes {steps} steps; "
                       f"at most QUOTIENT_ORDER_LIMIT = {quotients.QUOTIENT_ORDER_LIMIT}\n")

    def test_limit_admits_exactly_its_order(self, capsys, monkeypatch, age_loops):
        monkeypatch.setattr(quotients, "QUOTIENT_ORDER_LIMIT", 90)
        code, data, _ = run_json(capsys, "terminal", "--type", "1/30(1,2,3)")
        assert (code, data["canonical"]) == (1, False) and len(age_loops) == 1
        code, _, err = run(capsys, "terminal", "--type", "1/31(1,2,3)")
        assert code == 2 and "QUOTIENT_ORDER_LIMIT = 90" in err and len(age_loops) == 1

    def test_limit_counts_every_weight(self, capsys, monkeypatch, age_loops):
        # the same n passes at arity 3 (90 steps) and is refused at arity 4
        monkeypatch.setattr(quotients, "QUOTIENT_ORDER_LIMIT", 90)
        code, data, _ = run_json(capsys, "terminal", "--type", "1/30(1,2,3)")
        assert (code, data["canonical"]) == (1, False) and len(age_loops) == 1
        code, out, err = run(capsys, "terminal", "--type", "1/30(1,2,3,4)")
        assert (code, out) == (2, "") and len(age_loops) == 1
        assert err == ("error: the terminal verdict of 1/30(1,2,3,4) takes 120 steps; "
                       "at most QUOTIENT_ORDER_LIMIT = 90\n")

    def test_many_weights_are_refused_below_the_order_limit(self, capsys, age_loops):
        # n = 100000 is below the limit, but 200 weights make 2*10^7 steps;
        # the message quotes the first 80 characters of the 809-character type
        text = f"1/100000({','.join(['1', '99999'] * 100)})"
        code, out, err = run(capsys, "terminal", "--type", text)
        assert (code, out) == (2, "") and age_loops == []
        assert err == (f"error: the terminal verdict of {text[:80]}... (809 characters) "
                       "takes 20000000 steps; "
                       f"at most QUOTIENT_ORDER_LIMIT = {quotients.QUOTIENT_ORDER_LIMIT}\n")

    def test_limit_is_named_in_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["terminal", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert f"QUOTIENT_ORDER_LIMIT = {quotients.QUOTIENT_ORDER_LIMIT}" in text


# quotient types outside the grammar, with the one error line each gives
BAD_TYPES = [
    ("1/5(1_0,2,3)", "weight '1_0' of '1/5(1_0,2,3)' is not an integer"),
    ("1/5(1,,2)", "weight '' of '1/5(1,,2)' is not an integer"),
    ("1/5(\u0663,1,2)", "weight '\u0663' of '1/5(\u0663,1,2)' is not an integer"),
    ("1/\u0663(1,2,3)", "cannot parse quotient type '1/\u0663(1,2,3)'"),
]


@pytest.mark.parametrize("command", [["terminal", "--type"],
                                     ["charts", "--weights", "1,1,1", "--ambient"]])
@pytest.mark.parametrize("text, message", BAD_TYPES)
def test_types_outside_the_grammar_are_input_errors(capsys, command, text, message):
    code, out, err = run(capsys, *command, text)
    assert (code, out, err) == (2, "", f"error: {message}\n")


class TestCharts:
    def test_family_orders(self, capsys):
        code, data, _ = run_json(capsys, "charts", "--ambient", "1/2(1,1,1,0,0)",
                                 "--weights", "4,3,2,1,7")
        assert code == 0
        assert [c["order"] for c in data["charts"]] == [8, 6, 4, 2, 14]

    def test_fractional_weights(self, capsys):
        code, data, _ = run_json(capsys, "charts", "--ambient", "1/2(1,1,1)",
                                 "--weights", "1/2,1/2,1/2")
        assert code == 0
        assert all(c["order"] == 1 for c in data["charts"])

    def test_non_primitive_is_input_error(self, capsys):
        code, _, err = run(capsys, "charts", "--ambient", "1/1(0,0,0)",
                           "--weights", "2,2,2")
        assert code == 2 and "primitive" in err

    def test_huge_order_takes_one_basis(self, capsys, snf_calls):
        # membership and primitivity read the one basis of the ambient
        # lattice: one SNF for it, then one per chart, whatever n is
        code, out, err = run(capsys, "charts", "--ambient", "1/1000000(1,2,3)",
                             "--weights", "1,1,1/1000000")
        assert (code, out) == (2, "") and len(snf_calls) == 1
        assert err == "error: (1, 1, 1/1000000) is not in the lattice of 1/1000000(1,2,3)\n"
        code, out, err = run(capsys, "charts", "--ambient", "1/1000000(1,2,3)",
                             "--weights", "2/1000000,4/1000000,6/1000000")
        assert (code, out) == (2, "") and len(snf_calls) == 2 and "not primitive" in err
        code, data, _ = run_json(capsys, "charts", "--ambient", "1/1000000(1,2,3)",
                                 "--weights", "1/1000000,2/1000000,3/1000000")
        assert code == 0 and [c["order"] for c in data["charts"]] == [1, 2, 3]
        assert len(snf_calls) == 2 + 4

    def test_zero_denominator_is_input_error(self, capsys):
        code, out, err = run(capsys, "charts", "--ambient", "1/2(1,1,1,0,0)",
                             "--weights", "1/0,1,1,1,1")
        assert (code, out) == (2, "") and "error: zero denominator" in err

    @pytest.mark.parametrize("weight", ["1e5", "1.5", "1_0", "+4", "1e200000"])
    def test_weights_outside_the_grammar_are_input_errors(self, capsys, weight):
        code, out, err = run(capsys, "charts", "--ambient", "1/2(1,1,1,0,0)",
                             "--weights", f"{weight},3,2,1,7")
        assert (code, out) == (2, "")
        assert err == f"error: weight {weight!r} is not an integer or a 'p/q' string\n"

    def test_weight_entries_are_stripped(self, capsys):
        code, data, _ = run_json(capsys, "charts", "--ambient", "1/2(1,1,1,0,0)",
                                 "--weights", " 4, 3 ,2,1, 7 ")
        assert code == 0 and data["weights"] == ["4", "3", "2", "1", "7"]

    def test_arity_bound_admits_exactly_31_coordinates(self, capsys, snf_calls):
        # m^4 steps against QUOTIENT_ORDER_LIMIT, counted before any SNF:
        # 31^4 = 923521 is admitted and 32^4 = 1048576 refused
        for m, code in ((31, 0), (32, 2)):
            ambient = f"1/2({','.join(['1'] * m)})"
            snf_calls.clear()
            out_code, out, err = run(capsys, "charts", "--ambient", ambient,
                                     "--weights", ",".join(["1"] * (m - 1) + ["2"]))
            assert out_code == code
            if code == 0:
                # one SNF for the ambient lattice and one per chart
                assert len(out.splitlines()) == 2 + m and err == "" and len(snf_calls) == m + 1
            else:
                assert out == "" and snf_calls == []
                assert err == (f"error: the chart computation of {ambient} takes "
                               f"{m ** 4} steps; at most QUOTIENT_ORDER_LIMIT = "
                               f"{quotients.QUOTIENT_ORDER_LIMIT}\n")

    def test_two_factor_chart_row(self, capsys):
        # a chart group that is not cyclic prints as the product of its factors
        code, out, _ = run(capsys, "charts", "--ambient", "1/2(0,0,1)", "--weights", "1,2,1")
        assert code == 0
        assert out.splitlines()[3].split() == ["2", "4", "1/2(0,0,1)", "x", "1/2(1,1,1)"]


# a numeral far above DIGIT_LIMIT, and the digit count the error line names
HUGE = "7" * 5000
LIMIT = f"at most DIGIT_LIMIT = {DIGIT_LIMIT}"


class TestDigitLimit:
    @pytest.mark.parametrize("text, what", [
        (f"1/{HUGE}(1,2,3)", "the order of the quotient type"),
        (f"1/7(1, -{HUGE} ,3)", "a weight of the quotient type"),
    ], ids=["order", "weight"])
    def test_terminal_type(self, capsys, text, what):
        code, out, err = run(capsys, "terminal", "--type", text)
        assert (code, out, err) == (2, "", f"error: {what} has 5000 digits; {LIMIT}\n")

    def test_charts_weight(self, capsys):
        code, out, err = run(capsys, "charts", "--ambient", "1/2(1,1,1,0,0)",
                             "--weights", f"4,3,2,1,{HUGE}")
        assert (code, out, err) == (2, "", f"error: weight has 5000 digits; {LIMIT}\n")

    def test_model_coefficient_string(self, capsys, tmp_path):
        data = generate_model(7, 1).to_json_dict()
        data["q"]["terms"][0]["c"] = f"-{HUGE}"
        path = tmp_path / "coefficient.json"
        path.write_text(json.dumps(data))
        for command in ("validate", "blowup"):
            code, out, err = run(capsys, command, "--model", str(path))
            assert (code, out, err) == (2, "", f"error: coefficient has 5000 digits; {LIMIT}\n")

    @pytest.mark.parametrize("field", ["r", "exponent", "coefficient"])
    def test_model_json_integer(self, capsys, tmp_path, field):
        data = generate_model(7, 1).to_json_dict()
        marker = 123456789
        if field == "r":
            data["r"] = marker
        elif field == "exponent":
            data["p"]["terms"][0]["e"][0] = marker
        else:
            data["p"]["terms"][0]["c"] = marker
        # json writes no integer of more than 4300 digits, so splice one in
        text = json.dumps(data).replace(str(marker), HUGE)
        path = tmp_path / "integer.json"
        path.write_text(text)
        for command in ("validate", "blowup"):
            code, out, err = run(capsys, command, "--model", str(path))
            assert (code, out) == (2, "")
            assert err == f"error: an integer in {path} has 5000 digits; {LIMIT}\n"


# the most digits a number in input may have, less one
BIG = "9" * (DIGIT_LIMIT - 1)


class TestLongInput:
    # an error line quotes at most 80 characters of any input value, then
    # its length, however large the input
    def assert_short_refusal(self, capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
        assert len(err.encode()) < 300, err

    @pytest.mark.parametrize("argv", [
        ["terminal", "--type", f"1/17({','.join(['1'] * 60000)})"],
        ["terminal", "--type", f"1/2({'x' * 100_000})"],
        ["charts", "--ambient", "1/2(1,1,1)", "--weights", f"1,1,{'x' * 100_000}"],
        ["charts", "--ambient", "1/2(1,1,1)", "--weights", "1/0" + ",1" * 50_000],
        ["charts", "--ambient", f"1/{BIG}({','.join(['1'] * 40)})",
         "--weights", ",".join(["1"] * 40)],
        ["charts", "--ambient", f"1/{BIG}({','.join(['1'] * 31)})",
         "--weights", ",".join([f"1/{BIG[:-1]}8"] * 31)],
    ], ids=["terminal-order", "type-grammar", "weight-grammar", "zero-denominator",
            "chart-order", "lattice"])
    def test_command_line(self, capsys, argv):
        self.assert_short_refusal(capsys, *argv)

    @pytest.mark.parametrize("field", ["coefficient", "r", "vars", "terms", "term", "exponent"])
    def test_model_file(self, capsys, tmp_path, field):
        data = generate_model(7, 1).to_json_dict()
        junk = "x" * 2_000_000
        if field == "coefficient":
            data["q"]["terms"][0]["c"] = junk
        elif field == "r":
            data["r"] = junk
        elif field == "vars":
            data["p"]["vars"] = junk
        elif field == "terms":
            data["p"]["terms"] = junk
        elif field == "term":
            data["p"]["terms"][0]["e"] = junk
        else:
            data["p"]["terms"] = [{"e": [0] * 300_000, "c": 1}] * 2
        path = tmp_path / "model.json"
        path.write_text(json.dumps(data))
        self.assert_short_refusal(capsys, "validate", "--model", str(path))


# each integer flag, in a command line whose other arguments are valid
INTEGER_FLAGS = {
    "--r": ["ni", "--r", "{}", "--i", "4"],
    "--i": ["ni", "--r", "7", "--i", "{}"],
    "--parity": ["ni", "--r", "7", "--i", "4", "--parity", "{}"],
    "--imax": ["dims", "--r", "7", "--imax", "{}"],
    "--seed": ["generate", "--r", "7", "--seed", "{}"],
    "--extra": ["generate", "--r", "7", "--seed", "1", "--extra", "{}"],
}


class TestIntegerFlags:
    @pytest.mark.parametrize("token", ["7" * 5000, "-" + "7" * 1001, "٢٣", "1_0",
                                       "+7", " 7", "7.0", "0x7", ""],
                             ids=["huge", "huge_negative", "arabic_indic", "underscore",
                                  "plus", "space", "decimal", "hex", "empty"])
    @pytest.mark.parametrize("flag", list(INTEGER_FLAGS))
    def test_outside_the_grammar_exits_two(self, capsys, tmp_path, flag, token):
        out_path = tmp_path / "model.json"
        argv = [a.format(token) for a in INTEGER_FLAGS[flag]]
        if argv[0] == "generate":
            argv += ["--out", str(out_path)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == "" and not out_path.exists()
        # a usage line and one error line that names the flag, not the token
        assert err.endswith(f"error: argument {flag}: expected {LIMIT} "
                            "ASCII digits with an optional leading minus\n")
        assert len(err) < 400 and "7" * 20 not in err

    def test_digits_at_the_limit_are_read(self, capsys):
        # DIGIT_LIMIT digits and a minus pass the flag; the command judges the value
        low = "-" + "7" * DIGIT_LIMIT
        code, data, _ = run_json(capsys, "ni", "--r", "7", "--i", low)
        assert code == 0 and data["i"] == int(low) and data["points"] == []
        code, out, err = run(capsys, "dims", "--r", "7", "--imax", low)
        assert (code, out) == (2, "") and err.startswith("error: --imax must be non-negative")


class TestModelPipeline:
    def test_generate_validate_blowup(self, capsys, tmp_path):
        path = str(tmp_path / "model.json")
        code, _, _ = run(capsys, "generate", "--r", "7", "--seed", "42", "--out", path)
        assert code == 0

        code, data, _ = run_json(capsys, "validate", "--model", path, "--strict-remark")
        assert code == 0 and data["passed"] is True

        code, data, _ = run_json(capsys, "blowup", "--model", path)
        assert code == 0
        assert data["discrepancy"] == "2" and data["e3"] == "1/7"
        kinds = [c["finding"] for c in data["charts"]]
        assert kinds.count("quotient") == 1 and kinds.count("manual") == 0

    @pytest.mark.parametrize("command", ["validate", "blowup"])
    def test_deeply_nested_json_is_input_error(self, capsys, tmp_path, command):
        # the JSON decoder recurses once per level and gives up far above
        # the interpreter's recursion limit; that is malformed input
        path = tmp_path / "deep.json"
        path.write_text("[" * 200000 + "]" * 200000)
        assert run(capsys, command, "--model", str(path)) == (
            2, "", f"error: {path} nests JSON too deeply to be read\n")

    def test_format_flag_after_subcommand(self, capsys, tmp_path):
        path = str(tmp_path / "model.json")
        run(capsys, "generate", "--r", "7", "--seed", "1", "--out", path)
        code, out, _ = run(capsys, "blowup", "--model", path, "--format", "json")
        assert code == 0 and json.loads(out)["e3"] == "1/7"

    def test_validate_failure_exits_one(self, capsys, tmp_path):
        path = str(tmp_path / "model.json")
        run(capsys, "generate", "--r", "7", "--seed", "1", "--out", path)
        data = json.loads(open(path).read())
        data["r"] = 11
        open(path, "w").write(json.dumps(data))
        code, payload, _ = run_json(capsys, "validate", "--model", path)
        assert code == 1 and payload["passed"] is False

    def test_long_square_exits_one_and_names_it(self, capsys, tmp_path):
        # q = (x3*s)^2 with s of 200 terms in x3^2 and x4, 739 terms of q
        s = SparsePoly(("x3", "x4"), {(2 * a, b): Fraction(a - 7, b + 1) or 1
                                      for a in range(20) for b in range(10)})
        root = SparsePoly(Q_VARIABLES, {(0, a + 1, b): c for (a, b), c in s.terms.items()})
        model = CD2Model(7, generate_model(7, 42).p, root * root)
        assert len(s.terms) == 200 and len(model.q.terms) == 739
        path = tmp_path / "square.json"
        path.write_text(json.dumps(model.to_json_dict()))
        for command in ("validate", "blowup"):
            code, data, _ = run_json(capsys, command, "--model", str(path))
            failed = {c["name"]: c["detail"] for c in data["checks"] if not c["passed"]}
            assert code == 1 and list(failed) == ["q_weight", "q_square_free"], command
            assert failed["q_square_free"] == f"q = (x3*({s}))^2"

    @pytest.mark.parametrize("name", ["model_B", "twice_square", "model_C"])
    def test_square_over_c(self, capsys, tmp_path, name):
        # a constant times a square fails validation, so blowup computes nothing
        model, passes = square_variants()[name]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model.to_json_dict()))
        for command in ("validate", "blowup"):
            code, data, _ = run_json(capsys, command, "--model", str(path))
            assert code == (0 if passes else 1), command
            assert ("checks" not in data) == (passes and command == "blowup"), command

    def test_malformed_file_exits_two(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "validate", "--model", str(path))
        assert code == 2 and "error" in err

    def test_non_object_file_exits_two(self, capsys, tmp_path):
        path = tmp_path / "list.json"
        for text in ("[1, 2]", '{"r": 7, "p": [1], "q": []}'):
            path.write_text(text)
            for command in ("validate", "blowup"):
                code, out, err = run(capsys, command, "--model", str(path))
                assert (code, out) == (2, "") and "JSON object" in err, (command, text)

    @pytest.mark.parametrize("text, message", [
        ('{"r": 7, "p": {"vars": ["x2"], "terms": [5]}, "q": {"vars": [], "terms": []}}',
         "each polynomial term must be an object"),
        ('{"r": 7, "p": {"vars": 5, "terms": []}, "q": {"vars": [], "terms": []}}',
         "'vars' must be a list of strings"),
        ('{"r": [1], "p": {"vars": [], "terms": []}, "q": {"vars": [], "terms": []}}',
         "r must be a JSON integer"),
        ('{"r": 7, "p": {"vars": ["x2"], "terms": [{"e": [2], "c": "1/0"}]}, '
         '"q": {"vars": [], "terms": []}}', "zero denominator"),
        ('{"r": 7, "p": {"vars": ["x2", "x3", "x4"], "terms": [{"c": 1, "e": [0, 4, 0]}, '
         '{"c": 2, "e": [0, 4, 0]}]}, "q": {"vars": [], "terms": []}}',
         "exponent vector [0, 4, 0] appears twice"),
        ('{"p": {"vars": [], "terms": []}, "q": {"vars": [], "terms": []}}',
         "a model has no key 'r'"),
        ('{"r": 7, "p": {"terms": []}, "q": {"vars": [], "terms": []}}',
         "a polynomial has no key 'vars'"),
    ], ids=["term_not_object", "vars_not_list", "r_not_integer", "zero_denominator",
            "repeated_exponents", "missing_r", "missing_vars"])
    def test_malformed_nested_shape_exits_two(self, capsys, tmp_path, text, message):
        path = tmp_path / "shape.json"
        path.write_text(text)
        for command in ("validate", "blowup"):
            code, out, err = run(capsys, command, "--model", str(path))
            assert (code, out) == (2, "") and message in err, (command, err)
            assert "Traceback" not in err

    @pytest.mark.parametrize("coefficient", ["1e5", "1.5", "1_0", " 3 ", "+3", "1e200000"])
    def test_coefficients_outside_the_grammar_exit_two(self, capsys, tmp_path, coefficient):
        # exponent notation would build a 665-kbit integer from 8 bytes
        data = generate_model(7, 1).to_json_dict()
        data["q"]["terms"][0]["c"] = coefficient
        path = tmp_path / "grammar.json"
        path.write_text(json.dumps(data))
        for command in ("validate", "blowup"):
            code, out, err = run(capsys, command, "--model", str(path))
            assert (code, out) == (2, ""), command
            assert err == (f"error: coefficient {coefficient!r} is not an integer "
                           f"or a 'p/q' string\n"), command

    def test_blowup_rejects_invalid_model(self, capsys, tmp_path):
        # p = q = 0 at r=7 fails the q_weight check; no blow-up report is made
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"r": 7, "p": {"vars": ["x2", "x3", "x4"], "terms": []},
                                    "q": {"vars": ["x1", "x3", "x4"], "terms": []}}))
        code, data, err = run_json(capsys, "blowup", "--model", str(path))
        assert code == 1 and data["passed"] is False and data["r"] == 7
        assert [c["name"] for c in data["checks"] if not c["passed"]] == ["q_weight"]
        assert "charts" not in data and "q_weight" in err

    def test_blowup_manual_chart_exits_one(self, capsys, tmp_path):
        # p = 0 passes default validation, but the x3 chart needs manual analysis
        data = generate_model(7, 3).to_json_dict()
        data["p"]["terms"] = []
        path = tmp_path / "manual.json"
        path.write_text(json.dumps(data))
        code, _, _ = run(capsys, "validate", "--model", str(path))
        assert code == 0
        code, report, err = run_json(capsys, "blowup", "--model", str(path))
        manual = [c["variable"] for c in report["charts"] if c["finding"] == "manual"]
        assert code == 1 and manual == ["x3"]
        assert "manual analysis needed for charts x3" in err

    def test_internal_fault_exits_three(self, capsys, tmp_path, monkeypatch):
        # a broken invariant of the computation is neither bad input nor a
        # failed verification
        def broken(*args):
            raise ArithmeticError("strict transform lost semi-invariance")

        path = str(tmp_path / "model.json")
        run(capsys, "generate", "--r", "7", "--seed", "1", "--out", path)
        monkeypatch.setattr(blowup, "chart_singularities", broken)
        code, out, err = run(capsys, "blowup", "--model", path)
        assert (code, out) == (3, "")
        assert err == "internal error: strict transform lost semi-invariance\n"

    def test_missing_file_exits_two(self, capsys, tmp_path):
        code, _, err = run(capsys, "blowup", "--model", str(tmp_path / "nope.json"))
        assert code == 2

    def test_generate_rejects_bad_r(self, capsys, tmp_path):
        code, _, err = run(capsys, "generate", "--r", "12", "--seed", "0",
                           "--out", str(tmp_path / "x.json"))
        assert code == 2 and "error" in err

    def test_generate_limit_admits_exactly_its_steps(self, capsys, tmp_path, monkeypatch):
        # r=7, extra 4: (11 // 3 + 1) * (11 // 2 + 1) * 5 = 120 steps, the last
        # factor the values of c; more steps are refused before anything is listed
        monkeypatch.setattr(models, "GENERATE_STEP_LIMIT", 120)
        path = tmp_path / "model.json"
        code, _, _ = run(capsys, "generate", "--r", "7", "--seed", "1", "--out", str(path))
        assert code == 0 and path.exists()

        def no_listing(*args):
            raise AssertionError("monomials listed")

        monkeypatch.setattr(models, "_even_p_monomials", no_listing)
        monkeypatch.setattr(models, "_even_q_monomials", no_listing)
        for args, steps in ((["--r", "7", "--extra", "5"], 210), (["--r", "9"], 140)):
            out_path = tmp_path / "refused.json"
            code, out, err = run(capsys, "generate", *args, "--seed", "1",
                                 "--out", str(out_path))
            assert (code, out) == (2, "") and not out_path.exists(), args
            assert err.endswith(f"takes {steps} steps; at most GENERATE_STEP_LIMIT = 120\n")
            assert err.count("\n") == 1

    def test_generate_limit_is_named_in_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["generate", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert f"GENERATE_STEP_LIMIT = {models.GENERATE_STEP_LIMIT}" in text

    def test_square_root_limit_is_input_error(self, capsys, tmp_path, monkeypatch):
        # q = x3^2000000 + x3^1999999 is no square, and its peel would run
        # a million terms before an exponent turned negative
        data = generate_model(7, 1).to_json_dict()
        data["q"] = {"vars": ["x3"], "terms": [{"c": "1", "e": [2_000_000]},
                                               {"c": "1", "e": [1_999_999]}]}
        path = tmp_path / "long_root.json"
        path.write_text(json.dumps(data))
        monkeypatch.setattr(polynomials, "SQRT_STEP_LIMIT", 100)
        for command in ("validate", "blowup"):
            code, out, err = run(capsys, command, "--model", str(path))
            assert (code, out) == (2, "")
            assert err == ("error: the square root of a polynomial of 2 terms takes "
                           "more than SQRT_STEP_LIMIT = 100 steps\n")

    def test_generated_file_stable(self, capsys, tmp_path):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        run(capsys, "generate", "--r", "9", "--seed", "5", "--out", a)
        run(capsys, "generate", "--r", "9", "--seed", "5", "--out", b)
        assert open(a).read() == open(b).read()


def test_mutated_model_files_keep_the_exit_contract(capsys, tmp_path):
    # every check the equations' constructor skips ran when the file was read:
    # a defect is refused there (exit 2, one line), or the model it leaves is
    # validated and blown up (exit 0 or 1), never a traceback
    rng = random.Random(24)
    bases = [generate_model(r, seed).to_json_dict() for r in (7, 9, 15) for seed in (1, 2)]
    path = tmp_path / "model.json"
    exits = {0: 0, 1: 0, 2: 0}
    for _ in range(300):
        data = json.loads(json.dumps(rng.choice(bases)))
        for _ in range(rng.randint(1, 2)):
            if isinstance(data["p"], dict) and isinstance(data["q"], dict):
                mutate_model(rng, data)
        path.write_text(json.dumps(data))
        for fmt in ("table", "json"):
            for command in ("validate", "blowup"):
                code, out, err = run(capsys, "--format", fmt, command, "--model", str(path))
                assert code in exits and "Traceback" not in out + err, (data, command)
                if code == 2:
                    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
                exits[code] += 1
        if code != 2:
            # the constructor's checks, run again, change no term
            for eq in model_equations(CD2Model.from_json_dict(data)):
                assert SparsePoly(eq.variables, eq.terms).terms == eq.terms
    assert min(exits.values()) >= 10, exits


class TestParser:
    def test_parser_is_built_once_per_process(self, capsys, monkeypatch):
        built = []

        def counting():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        try:
            outputs = [run(capsys, "--format", "json", "dims", "--r", "7", "--imax", "4")
                       for _ in range(5)]
            with pytest.raises(SystemExit):
                main(["verify-dim", "--help"])
            shared_help = capsys.readouterr().out
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1
        assert outputs == outputs[:1] * 5 and outputs[0][0] == 0
        with pytest.raises(SystemExit):
            build_parser().parse_args(["verify-dim", "--help"])
        assert capsys.readouterr().out == shared_help

    def test_build_parser_returns_a_fresh_parser(self):
        assert build_parser() is not build_parser()
        assert build_parser().format_help() == cli._parser().format_help()

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dims", "--r", "7"])
        assert exc.value.code == 2
