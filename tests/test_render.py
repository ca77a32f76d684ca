"""The CLI's JSON renderer against the json module it replaces.

cli._dumps must give exactly json.dumps(x, sort_keys=True, indent=2) for
every value built of dicts with str keys, lists, strs, ints, bools and None,
and refuse anything else with a TypeError.  The reference is json itself.
"""

import gc
import json
import random
from fractions import Fraction

import pytest

from threefold import cli
from threefold.models import generate_model

from test_golden import CASES


def reference(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2)


# quotes, backslashes, control characters, the JSON-legal line separators
# that JavaScript rejects, non-ASCII, astral and lone surrogate characters
CHARACTERS = ['a', 'Z', '0', ' ', '/', '"', '\\', '\x00', '\x08', '\t', '\n', '\r',
              '\x1f', '\x7f', '\u2028', '\u2029', '\xe9', '\xdf', '\u4e2d', '\ufeff',
              '\U0001f600', '\U00010000', '\ud800']


def random_string(rng: random.Random) -> str:
    return "".join(rng.choice(CHARACTERS) for _ in range(rng.randrange(6)))


def random_int(rng: random.Random) -> int:
    bound = 10 ** rng.choice((1, 3, 20, rng.randint(1, 1000)))
    return rng.randrange(-bound, bound)


def random_tree(rng: random.Random, depth: int):
    """A JSON value nested at most depth levels of containers deep."""
    kind = rng.randrange(9 if depth > 0 else 6)
    if kind == 0:
        return random_string(rng)
    if kind in (1, 2):
        return random_int(rng)
    if kind == 3:
        return True
    if kind == 4:
        return False
    if kind == 5:
        return None
    if kind in (6, 7):
        return [random_tree(rng, depth - 1) for _ in range(rng.randrange(5))]
    return {random_string(rng): random_tree(rng, depth - 1) for _ in range(rng.randrange(5))}


def test_random_trees_render_as_json_dumps():
    rng = random.Random(20111)
    for _ in range(3000):
        tree = random_tree(rng, 4)
        assert cli._dumps(tree) == reference(tree), tree


def test_edge_values_render_as_json_dumps():
    for value in ([], {}, [[]], {"": {}}, "", -0, 10 ** 999, -(10 ** 999),
                  [True, False, None], {"b": 1, "a": [2, {"c": None}], "A": "\u2028"}):
        assert cli._dumps(value) == reference(value)


REFUSED = {"float": (1.5, "float"), "nested float": ([0.0], "float"),
           "nan": ({"a": float("nan")}, "float"), "Fraction": (Fraction(1, 2), "Fraction"),
           "set": ({1, 2}, "set"), "tuple": ((1, 2), "tuple"), "int key": ({1: "x"}, "int"),
           "bool key": ({"a": {True: 1}}, "bool")}


@pytest.mark.parametrize("value, kind", REFUSED.values(), ids=list(REFUSED))
def test_anything_else_is_a_type_error(value, kind):
    with pytest.raises(TypeError, match=rf"\b{kind}\b"):
        cli._dumps(value)


def json_payloads(monkeypatch, argv) -> list:
    """The values a command hands to cli._dumps, in order."""
    seen = []
    render = cli._dumps

    def recording(value):
        seen.append(value)
        return render(value)

    with monkeypatch.context() as patch:
        patch.setattr(cli, "_dumps", recording)
        cli.main(["--format", "json", *argv])
    return seen


@pytest.mark.parametrize("name, code, argv", CASES, ids=[case[0] for case in CASES])
def test_golden_payloads_render_as_json_dumps(monkeypatch, capsys, name, code, argv):
    payloads = json_payloads(monkeypatch, argv)
    capsys.readouterr()
    assert len(payloads) == 1
    assert cli._dumps(payloads[0]) == reference(payloads[0])


@pytest.mark.parametrize("argv", [["ni", "--r", "23", "--i", "69"], ["verify-dim", "--r", "7"]],
                         ids=["ni", "verify-dim"])
def test_rendering_leaves_no_garbage(monkeypatch, capsys, argv):
    # a renderer that reaches itself through a closure makes a reference
    # cycle per call, which keeps that call's chunks alive until a collection
    payload, = json_payloads(monkeypatch, argv)
    capsys.readouterr()
    gc.collect()
    gc.disable()
    try:
        cli._dumps(payload)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("r", [7, 23, 47, 95])
def test_generated_model_files(tmp_path, capsys, r):
    for seed in range(5):
        path = tmp_path / f"r{r}_seed{seed}.json"
        assert cli.main(["generate", "--r", str(r), "--seed", str(seed),
                         "--out", str(path)]) == cli.PASS
        model = generate_model(r, seed, 4)
        assert path.read_text(encoding="utf-8") == reference(model.to_json_dict()) + "\n"
        assert cli._load_model(str(path)) == model
    capsys.readouterr()


def test_generate_reports_an_escaped_path(tmp_path, capsys):
    path = tmp_path / 'a "quoted\\" \xe9.json'
    assert cli.main(["--format", "json", "generate", "--r", "7", "--seed", "3",
                     "--out", str(path)]) == cli.PASS
    model = generate_model(7, 3, 4)
    expected = {"written": str(path), "r": 7, "seed": 3, "extra": 4,
                "p_terms": len(model.p.terms), "q_terms": len(model.q.terms)}
    out = capsys.readouterr().out
    assert out == reference(expected) + "\n"
    assert f'"written": {json.dumps(str(path))}' in out
    assert json.loads(out)["written"] == str(path)
