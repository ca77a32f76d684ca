import json

import pytest

from threefold.cli import main
from threefold.models import generate_model


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, "--format", "json", *argv)
    return code, json.loads(out) if out else None, err


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

    def test_zero_denominator_is_input_error(self, capsys):
        code, out, err = run(capsys, "charts", "--ambient", "1/2(1,1,1,0,0)",
                             "--weights", "1/0,1,1,1,1")
        assert (code, out) == (2, "") and "error: zero denominator" in err


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
    ], ids=["term_not_object", "vars_not_list", "r_not_integer", "zero_denominator"])
    def test_malformed_nested_shape_exits_two(self, capsys, tmp_path, text, message):
        path = tmp_path / "shape.json"
        path.write_text(text)
        for command in ("validate", "blowup"):
            code, out, err = run(capsys, command, "--model", str(path))
            assert (code, out) == (2, "") and message in err, (command, err)
            assert "Traceback" not in err

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

    def test_missing_file_exits_two(self, capsys, tmp_path):
        code, _, err = run(capsys, "blowup", "--model", str(tmp_path / "nope.json"))
        assert code == 2

    def test_generate_rejects_bad_r(self, capsys, tmp_path):
        code, _, err = run(capsys, "generate", "--r", "12", "--seed", "0",
                           "--out", str(tmp_path / "x.json"))
        assert code == 2 and "error" in err

    def test_generated_file_stable(self, capsys, tmp_path):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        run(capsys, "generate", "--r", "9", "--seed", "5", "--out", a)
        run(capsys, "generate", "--r", "9", "--seed", "5", "--out", b)
        assert open(a).read() == open(b).read()


class TestParser:
    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dims", "--r", "7"])
        assert exc.value.code == 2
