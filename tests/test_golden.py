"""Byte-for-byte replay of the CLI's output in both renderings.

Each .json file under tests/golden/ is the ``--format json`` stdout of one
command below, and the .txt file of the same stem is its ``--format table``
stdout; model_r<r>_seed42.json is the model file ``generate --r <r> --seed 42``
writes, and model_r17_seed42.json is the one of r = 1 mod 8, the class whose
forced monomials differ.  model_square_r23.json keeps the p of
model_r23_seed42.json and takes q = (x3*s)^2 with
s = x4^9 + 2*x3^2*x4^5 - 1/3*x3^4*x4, so validate and blowup fail on the
square check alone.  model_p0_r7.json is the model
``generate --r 7 --seed 3`` writes with every term of p removed, so validate
meets the zero polynomial, whose weighted order is infinite.  A refactor
that changes any byte of that output fails here.  The path ``generate``
reports is replaced by OUT before comparing, since the test writes to a
temporary directory.
"""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from threefold.cli import main
from threefold.models import generate_model

GOLDEN = Path(__file__).parent / "golden"
MODEL = GOLDEN / "model_r7_seed42.json"
MODEL_R17 = GOLDEN / "model_r17_seed42.json"
MODEL_R23 = GOLDEN / "model_r23_seed42.json"
MODEL_R95 = GOLDEN / "model_r95_seed42.json"
MODEL_SQUARE = GOLDEN / "model_square_r23.json"
MODEL_P0 = GOLDEN / "model_p0_r7.json"
GENERATED = ("generate_r7_seed42.json", "generate_r7_seed42.txt")
OUT = "<out>"

# (golden file, exit code, arguments after --format json)
CASES = (
    ("ni_r23_i69.json", 0, ["ni", "--r", "23", "--i", "69"]),
    ("dims_r7_imax42.json", 0, ["dims", "--r", "7", "--imax", "42"]),
    ("verify_dim_r7.json", 0, ["verify-dim", "--r", "7"]),
    ("verify_dim_r23.json", 0, ["verify-dim", "--r", "23"]),
    ("terminal_1_14_1_13_11.json", 0, ["terminal", "--type", "1/14(1,13,11)"]),
    ("terminal_1_2_1_1_0.json", 1, ["terminal", "--type", "1/2(1,1,0)"]),
    ("charts_r95.json", 0, ["charts", "--ambient", "1/2(1,1,1,0,0)",
                            "--weights", "48,47,2,1,95"]),
    ("validate_r7_seed42.json", 0, ["validate", "--model", str(MODEL), "--strict-remark"]),
    ("blowup_r7_seed42.json", 0, ["blowup", "--model", str(MODEL)]),
    ("validate_r17_seed42.json", 0, ["validate", "--model", str(MODEL_R17), "--strict-remark"]),
    ("blowup_r17_seed42.json", 0, ["blowup", "--model", str(MODEL_R17)]),
    ("blowup_r23_seed42.json", 0, ["blowup", "--model", str(MODEL_R23)]),
    ("blowup_r95_seed42.json", 0, ["blowup", "--model", str(MODEL_R95)]),
    ("charts_1_5_2_3_1.json", 0, ["charts", "--ambient", "1/5(2,3,1)",
                                  "--weights", "2/5,3/5,1/5"]),
    ("charts_1_2_0_0_1.json", 0, ["charts", "--ambient", "1/2(0,0,1)",
                                  "--weights", "1,2,1"]),
    ("charts_1_4_0_0_0_1.json", 0, ["charts", "--ambient", "1/4(0,0,0,1)",
                                    "--weights", "2,1,2,1/2"]),
    ("validate_square_r23.json", 1, ["validate", "--model", str(MODEL_SQUARE)]),
    ("blowup_square_r23.json", 1, ["blowup", "--model", str(MODEL_SQUARE)]),
    ("validate_p0_r7.json", 0, ["validate", "--model", str(MODEL_P0)]),
)


def replay(argv, rendering="json") -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["--format", rendering, *argv])
    return code, out.getvalue()


def table_name(name: str) -> str:
    return name.removesuffix(".json") + ".txt"


@pytest.mark.parametrize("name, code, argv", CASES, ids=[case[0] for case in CASES])
def test_command_output(name, code, argv):
    assert replay(argv) == (code, (GOLDEN / name).read_text(encoding="utf-8"))


@pytest.mark.parametrize("name, code, argv", CASES, ids=[table_name(case[0]) for case in CASES])
def test_table_output(name, code, argv):
    expected = (GOLDEN / table_name(name)).read_text(encoding="utf-8")
    assert replay(argv, "table") == (code, expected)


def test_generate_output_and_model_file(tmp_path):
    path = tmp_path / "model.json"
    code, out = replay(["generate", "--r", "7", "--seed", "42", "--out", str(path)])
    assert code == 0
    assert out.replace(str(path), OUT) == (GOLDEN / GENERATED[0]).read_text(
        encoding="utf-8")
    assert path.read_bytes() == MODEL.read_bytes()


def test_generate_table_output(tmp_path):
    path = tmp_path / "model.json"
    code, out = replay(["generate", "--r", "7", "--seed", "42", "--out", str(path)], "table")
    assert code == 0
    assert out.replace(str(path), OUT) == (GOLDEN / GENERATED[1]).read_text(
        encoding="utf-8")
    assert path.read_bytes() == MODEL.read_bytes()


@pytest.mark.parametrize("model", (MODEL_R17, MODEL_R23, MODEL_R95), ids=lambda p: p.stem)
def test_generate_reproduces_the_model_golden(model, tmp_path):
    # these models draw optional p and q terms, which the r = 7 model does
    # not, so they pin the generator's monomial lists and coefficient draws
    path = tmp_path / "model.json"
    r = model.stem.split("_")[1].removeprefix("r")
    code, _ = replay(["generate", "--r", r, "--seed", "42", "--out", str(path)])
    assert code == 0
    assert path.read_bytes() == model.read_bytes()
    # the library's default extra degree is the CLI's
    assert generate_model(int(r), 42).to_json_dict() == json.loads(model.read_bytes())


def test_golden_inventory():
    # every golden file is read by a test above, and every case has both
    # renderings: an orphaned or half-written golden fails here
    cases = {name for case in CASES for name in (case[0], table_name(case[0]))}
    models = {path.name for path in (MODEL, MODEL_R17, MODEL_R23, MODEL_R95, MODEL_SQUARE,
                                     MODEL_P0)}
    expected = cases | models | set(GENERATED)
    assert sorted(path.name for path in GOLDEN.iterdir()) == sorted(expected)
