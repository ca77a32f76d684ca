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


# record keys: plain, empty, and ones that hold a % (the template's own
# character), a quote, non-ASCII or an astral character
RECORD_KEYS = ["i", "j", "dim", "exponents", "parity", "", "%", "a%d", "%%s", '"q"',
               "\xe9", "中", "\U0001f600"]

# how the one deviating record of a list differs from the first
DEVIATIONS = ["none", "missing key", "extra key", "other length", "bool in list", "bool",
              "str", "float", "float in list", "list for int", "int for list", "odd key",
              "not a dict"]


def random_records(rng: random.Random, deviation: str) -> list:
    """Same-shape records of int and int-list values, one of them changed by deviation."""
    keys = rng.sample(RECORD_KEYS, rng.randint(1, 4))
    lengths = {key: rng.choice((0, 0, 1, 3, 5)) for key in keys}  # 0 for an int value

    def record():
        return {key: random_int(rng) if not n else [random_int(rng) for _ in range(n)]
                for key, n in lengths.items()}

    records = [record() for _ in range(rng.randint(1, 6))]
    odd = record()
    ints = [key for key, n in lengths.items() if not n]
    lists = [key for key, n in lengths.items() if n]
    key = rng.choice(keys)
    if deviation == "missing key":
        del odd[key]
    elif deviation == "extra key":
        odd[rng.choice([k for k in RECORD_KEYS if k not in odd])] = random_int(rng)
    elif deviation == "odd key":
        odd[rng.choice(["%", "\xe9", "%d", "\U0001f600"]) + key] = odd.pop(key)
    elif deviation == "not a dict":
        odd = rng.choice([[1, 2], 3, None, "x"])
    elif deviation in ("other length", "bool in list", "float in list", "int for list") and lists:
        key = rng.choice(lists)
        if deviation == "other length":
            odd[key] = odd[key][:-1] if rng.randrange(2) else odd[key] + [0]
        elif deviation == "int for list":
            odd[key] = random_int(rng)
        else:
            odd[key][rng.randrange(len(odd[key]))] = True if deviation == "bool in list" else 0.5
    elif deviation in ("bool", "str", "float", "list for int") and ints:
        odd[rng.choice(ints)] = {"bool": False, "str": "7", "float": 2.0,
                                 "list for int": [random_int(rng)]}[deviation]
    records.insert(rng.randint(1, len(records)), odd)
    return records


def holds_float(value) -> bool:
    if type(value) is dict:
        value = list(value.values())
    return type(value) is float or type(value) is list and any(map(holds_float, value))


@pytest.mark.parametrize("deviation", DEVIATIONS)
def test_record_lists_render_as_json_dumps(deviation):
    rng = random.Random(f"records {deviation}")
    for _ in range(300):
        records = random_records(rng, deviation)
        value = {"r": 7, "points": records} if rng.randrange(2) else records
        if holds_float(value):
            with pytest.raises(TypeError, match="^Object of type float is not JSON serializable$"):
                cli._dumps(value)
        else:
            assert cli._dumps(value) == reference(value), value


def test_a_record_list_renders_through_one_template():
    records = [{"a%d": 1, "b": [2, -3]}, {"b": [4, 5], "a%d": 6}]
    text = cli._records(records, "\n  ")
    assert "[" + "\n  " + text + "\n]" == reference(records)
    assert cli._records(records + [{"a%d": 7, "b": [8, True]}], "\n  ") is None
    assert cli._records([{"b": []}], "\n  ") is None
    assert cli._records([{}], "\n  ") is None


REFUSED = {"float": (1.5, "float"), "nested float": ([0.0], "float"),
           "nan": ({"a": float("nan")}, "float"), "Fraction": (Fraction(1, 2), "Fraction"),
           "set": ({1, 2}, "set"), "tuple": ((1, 2), "tuple"), "int key": ({1: "x"}, "int"),
           "bool key": ({"a": {True: 1}}, "bool")}


@pytest.mark.parametrize("value, kind", REFUSED.values(), ids=list(REFUSED))
def test_anything_else_is_a_type_error(value, kind):
    with pytest.raises(TypeError, match=rf"\b{kind}\b"):
        cli._dumps(value)


class Key(str):
    pass


class Count(int):
    pass


class Loud:
    """An int-like value that %d would format; the renderer must refuse it unread."""

    def __index__(self):
        raise AssertionError("formatted before its type was checked")

    __int__ = __index__


# a record list refused anywhere is refused as the node-by-node pass refuses
# it; json.dumps takes subclasses of str and int, the renderer does not
RECORD_REFUSALS = {
    "int keys": ([{1: 2}, {1: 3}], "keys must be str, not int"),
    "int key in a later record": ([{"a": 1}, {1: 2}], "keys must be str, not int"),
    "str subclass key": ([{"a": 1}, {Key("a"): 2}], "keys must be str, not Key"),
    "int subclass": ([{"a": [1]}, {"a": [Count(2)]}],
                     "Object of type Count is not JSON serializable"),
    "int-like value": ([{"a": 1, "b": [2]}, {"a": Loud(), "b": [3]}],
                       "Object of type Loud is not JSON serializable"),
    "float before an odd record": ([{"a": 1}, {"a": 2.0}, {"b": 3}],
                                   "Object of type float is not JSON serializable"),
}


@pytest.mark.parametrize("value, message", RECORD_REFUSALS.values(), ids=list(RECORD_REFUSALS))
def test_a_refused_record_list_keeps_its_message(value, message):
    assert cli._records(value, "\n  ") is None
    with pytest.raises(TypeError) as refusal:
        cli._dumps(value)
    assert str(refusal.value) == message


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


# larger payloads than the goldens hold: a parity-filtered point list, and
# dimension rows with multi-digit degrees and dimensions
LARGER = (("ni_r7_i200_parity1", 0, ["ni", "--r", "7", "--i", "200", "--parity", "1"]),
          ("dims_r23_imax138", 0, ["dims", "--r", "23", "--imax", "138"]))


@pytest.mark.parametrize("name, code, argv", CASES + LARGER,
                         ids=[case[0] for case in CASES + LARGER])
def test_golden_payloads_render_as_json_dumps(monkeypatch, capsys, name, code, argv):
    payloads = json_payloads(monkeypatch, argv)
    capsys.readouterr()
    assert len(payloads) == 1
    assert cli._dumps(payloads[0]) == reference(payloads[0])


@pytest.mark.parametrize("argv, key", [(["ni", "--r", "23", "--i", "69"], "points"),
                                       (["dims", "--r", "7", "--imax", "42"], "dims")],
                         ids=["ni", "dims"])
def test_record_payloads_render_through_the_template(monkeypatch, capsys, argv, key):
    payload, = json_payloads(monkeypatch, argv)
    capsys.readouterr()
    texts = []
    records = cli._records

    def recording(value, newline):
        texts.append(records(value, newline))
        return texts[-1]

    monkeypatch.setattr(cli, "_records", recording)
    assert cli._dumps(payload) == reference(payload)
    assert len(texts) == 1 and texts[0] is not None
    assert texts[0] == ",\n    ".join(reference(item).replace("\n", "\n    ")
                                      for item in payload[key])


@pytest.mark.parametrize("argv", [["ni", "--r", "23", "--i", "69"],
                                  ["dims", "--r", "7", "--imax", "42"],
                                  ["verify-dim", "--r", "7"]],
                         ids=["ni", "dims", "verify-dim"])
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
