"""Single-site mutants of one module, each run against the tests.

    python tools/mutants.py src/threefold/models.py tests/test_models.py ...

Each mutant changes one site of the module: a comparison < <-> <=,
> <-> >= or == <-> !=, an int literal n -> n + 1, or and <-> or.  The
mutated module is written, through ast.unparse, into a copy of the
checkout in a temporary directory, and the given test files run there with
-x; a mutant they do not kill runs through all of tests/.  A run that
times out counts as killed.  The unmutated module, unparsed the same way,
must pass first.  Survivors are printed, those in EQUIVALENT with the
reason they cannot be killed.  Standard library only; it is not a test.
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.And: ast.Or, ast.Or: ast.And}

_CACHE = "a cache size: which record is evicted changes no result"
_ODD = "(r + 1) // 2 == (r + 2) // 2 for odd r, and every valid r is odd"
_EMPTY = "the extra pass only adds empty ranges"
_DRAW = "random() returns k / 2**53, never the float 0.2"
# (module file name, stripped source line, mutation): why no test can tell
EQUIVALENT = {
    ("blowup.py", "@lru_cache(maxsize=64)", "64 -> 65"): _CACHE,
    ("models.py", 'return {"x1": (r + 1) // 2, "x2": (r - 1) // 2, "x3": 2, "x4": 1, "x5": r}',
     "1 -> 2"): _ODD + "; an even r fails congruence, and only its q_weight row moves",
    ("models.py", 'return {"p": (0, (r + 1) // 2, 0), "q": (1, (r - 3) // 4, 0)}', "1 -> 2"): _ODD,
    ("models.py", "rest = (r - 1) - a * (r + 1) // 2", "1 -> 2"): _ODD,
    ("models.py", 'return {"p": (1, (r + 3) // 4, 0), "q": (0, (r - 1) // 2, 0)}', "3 -> 4"):
        "4 divides r + 3 when r = 1 mod 8",
    ("models.py", "for a in range(top // w2 + 1):", "1 -> 2"): _EMPTY,
    ("models.py", "for b in range((top - a * w2) // 2 + 1):", "1 -> 2"): _EMPTY,
    ("models.py", "if mono not in q_terms and rng.random() < 0.2:", "Lt -> LtE"): _DRAW,
    ("models.py", "if mono not in p_terms and rng.random() < 0.2:", "Lt -> LtE"): _DRAW,
    ("dimensions.py", "def _check_r(r: int, degree: int = 0) -> None:", "0 -> 1"):
        "the default degree is only checked to be an int",
    ("dimensions.py", "w1 = (r + 1) // 2", "1 -> 2"): _ODD,
    ("dimensions.py", "a, b = (0, r) if parity == 0 else ((r - 1) // 2, (r + 1) // 2)",
     "1 -> 2"): _ODD,
    ("dimensions.py", "for l5 in range(base // r + 1):", "1 -> 2"):
        _EMPTY + ": the extra l5 leaves rest in [-r, -1], with no l3",
    ("cli.py", "if len(text) > DIGIT_LIMIT:", "Gt -> GtE"):
        "check_digits accepts a numeral of DIGIT_LIMIT characters; only the message is built",
}


def sites(tree):
    """(node, operator index or None) for every site of tree, in walk order."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            yield from ((node, k) for k, op in enumerate(node.ops) if type(op) in SWAPS)
        elif isinstance(node, ast.BoolOp):
            yield node, None
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            yield node, None


def mutate(node, k):
    """Apply the site's mutation in place and describe it."""
    if isinstance(node, ast.Compare):
        old = node.ops[k]
        node.ops[k] = SWAPS[type(old)]()
        return f"{type(old).__name__} -> {type(node.ops[k]).__name__}"
    if isinstance(node, ast.BoolOp):
        old = node.op
        node.op = SWAPS[type(old)]()
        return f"{type(old).__name__} -> {type(node.op).__name__}"
    node.value += 1
    return f"{node.value - 1} -> {node.value}"


def killed(copy, tests, timeout=600):
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    env = {**os.environ, "PYTHONPATH": "src"}
    try:
        return subprocess.run(command, cwd=copy, env=env, capture_output=True,
                              timeout=timeout).returncode != 0
    except subprocess.TimeoutExpired:
        return True


def main(module, *tests):
    source = (ROOT / module).read_text(encoding="utf-8")
    lines = source.splitlines()
    count = sum(1 for _ in sites(ast.parse(source)))
    with tempfile.TemporaryDirectory() as scratch:
        copy = Path(scratch) / "checkout"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(".git", "__pycache__"))
        target = copy / module
        target.write_text(ast.unparse(ast.parse(source)), encoding="utf-8")
        if killed(copy, ["tests"]):
            sys.exit("the unmutated module, unparsed, fails the tests")
        survivors = []
        for index in range(count):
            tree = ast.parse(source)
            node, k = list(sites(tree))[index]
            change = mutate(node, k)
            target.write_text(ast.unparse(tree), encoding="utf-8")
            if not killed(copy, tests) and not killed(copy, ["tests"]):
                survivors.append((node.lineno, lines[node.lineno - 1].strip(), change))
    name = Path(module).name
    print(f"{name}: {count} mutants, {count - len(survivors)} killed")
    for line, text, change in survivors:
        reason = EQUIVALENT.get((name, text, change), "NOT KNOWN TO BE EQUIVALENT")
        print(f"  line {line}: {change} in `{text}`: {reason}")


if __name__ == "__main__":
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    main(*sys.argv[1:])
