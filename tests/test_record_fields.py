"""Every field of a namedtuple record in the package has a reader.

A record is a namedtuple("Name", fields) call in a module of src/threefold,
bound to a name or used as a class base; its fields are given as one string
of names separated by spaces or commas, or as a list or tuple of strings.
A field is read by an attribute load of its name anywhere in the package;
one that only unpacking reads is reported as unread.  The modules are
parsed with ast, neither imported nor run.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "threefold"


def record_fields(tree: ast.Module) -> dict[str, list[str]]:
    """{record name: its field names} for each namedtuple call in tree whose
    name and fields are literals."""
    found = {}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "namedtuple" and len(node.args) == 2):
            continue
        name, fields = node.args
        if isinstance(fields, ast.Constant) and isinstance(fields.value, str):
            names = fields.value.replace(",", " ").split()
        elif isinstance(fields, (ast.List, ast.Tuple)):
            names = [item.value for item in fields.elts]
        else:
            continue
        found[name.value] = names
    return found


def unread_fields(trees: dict[str, ast.Module]) -> list[str]:
    """The "module.Record.field" of each record field in trees ({module
    stem: tree}) that no attribute load in any of them reads."""
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return [f"{module}.{record}.{field}"
            for module, tree in trees.items()
            for record, fields in record_fields(tree).items()
            for field in fields if field not in read]


def test_every_record_field_in_the_package_is_read():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in sorted(SRC.glob("*.py"))}
    assert sum(len(record_fields(tree)) for tree in trees.values()) > 10
    assert unread_fields(trees) == []


def test_unread_fields_are_found():
    # a field read nowhere, one only stored, one read by unpacking alone,
    # and the readers that count: another module's load, a method's load
    trees = {
        "a": ast.parse("from collections import namedtuple\n"
                       "Pair = namedtuple('Pair', 'left, right spare')\n"
                       "class Box(namedtuple('Box', ['size', 'label'], defaults=(0,))):\n"
                       "    def area(self):\n        return self.size ** 2\n"
                       "def split(p):\n    left, right, _ = p\n    return left\n"),
        "b": ast.parse("def f(pair, obj):\n    obj.label = pair.right\n"),
    }
    assert unread_fields(trees) == ["a.Pair.left", "a.Pair.spare", "a.Box.label"]
