"""Every module-level private name of the package is read somewhere in it.

A name with a leading underscore has no reader outside src/threefold, so
one that no module of the package reads, beyond its own definition, is dead
code.  The modules are parsed with ast, not imported.  A private name is
bound at the top level of a module by def, class, assignment or
``from ... import``; it is read by a load of the name elsewhere in that
module, or by ``from .module import name`` in a sibling.  Annotations
count as loads; a recursive call inside the definition does not.
"""

import ast
from pathlib import Path

import threefold

SRC = Path(threefold.__file__).resolve().parent


def private_bindings(tree: ast.Module) -> dict[str, ast.stmt]:
    """{private name: the top-level statement that binds it}; dunders excluded."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        elif isinstance(node, ast.ImportFrom):
            names = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        found.update((name, node) for name in names
                     if name.startswith("_") and not name.endswith("__"))
    return found


def unread_private_names(trees: dict[str, ast.Module]) -> list[str]:
    """The "module.name" of each private binding in trees ({module stem:
    tree}) that no load in its module and no sibling's relative import reads."""
    imported = {(node.module, alias.name) for tree in trees.values()
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and node.level == 1 for alias in node.names}
    unread = []
    for module, tree in trees.items():
        loads: dict[str, list[ast.Name]] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loads.setdefault(node.id, []).append(node)
        for name, definition in private_bindings(tree).items():
            inside = set(map(id, ast.walk(definition)))
            if ((module, name) not in imported
                    and all(id(node) in inside for node in loads.get(name, ()))):
                unread.append(f"{module}.{name}")
    return unread


def test_every_private_name_in_the_package_is_read():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in sorted(SRC.glob("*.py"))}
    assert len(trees) > 5
    assert unread_private_names(trees) == []


def test_unread_names_are_found():
    # one name of a tuple assignment left without a reader, a function that
    # only calls itself, an unused import alias; and the readers that count
    trees = {
        "a": ast.parse("_ONE, _TWO = 1, 2\n"
                       "def _loop(n):\n    return _loop(n - 1)\n"
                       "from math import gcd as _gcd\n"
                       "def _shared():\n    return _ONE\n"
                       "def f(x: _Kind) -> int:\n    return 0\n"
                       "class _Kind:\n    pass\n"),
        "b": ast.parse("from .a import _shared\n"
                       "def g():\n    return _shared()\n"),
    }
    assert unread_private_names(trees) == ["a._TWO", "a._loop", "a._gcd"]
