"""Every public function, class and method of the package has a reader.

A public name has no leading underscore and is not a dunder.  It is bound
by a def or class at the top level of a module of src/threefold, or by a
def in the body of such a class.  It is read by a load of the name, or by
an attribute load of that name, anywhere in the package outside its own
definition.  __init__.py only re-exports, so it reads nothing.  A method is
matched by its bare name, so a dead method whose name some other attribute
shares goes unseen; a name that is read is never reported.  The modules are
parsed with ast, neither imported nor run.

A public name no module of the package reads is dead code, unless KEEP
names its reader outside the package.  KEEP must name exactly the names the
package leaves unread, and each reader must mention the name it keeps.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "threefold"

# {"module.name": the file outside src/threefold that reads it}
KEEP = {
    # the tracer's LAYERS resolve these by getattr when a traced run is set up
    "linalg.invert_unimodular": "perfbench/tracer.py",
    "linalg.rational_determinant": "perfbench/tracer.py",
    "dimensions.graded_dimension": "perfbench/tracer.py",
    "polynomials.weighted_order": "perfbench/tracer.py",
    "blowup.model_germ": "perfbench/tracer.py",
    # models-batch certifies each model through it
    "blowup.verify_blowup_profile": "perfbench/workloads.py",
}


def is_public(name: str) -> bool:
    return not name.startswith("_")


def public_definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """{"name" or "Class.method": its def or class statement} for the
    public top-level functions and classes of tree and the public methods
    of its top-level classes."""
    found = {}
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if is_public(node.name):
            found[node.name] = node
        if isinstance(node, ast.ClassDef):
            found.update((f"{node.name}.{item.name}", item) for item in node.body
                         if isinstance(item, ast.FunctionDef) and is_public(item.name))
    return found


def loads(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """(name, node) for each load of a name or of an attribute in tree."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.append((node.id, node))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.append((node.attr, node))
    return found


def unread_public_names(trees: dict[str, ast.Module]) -> list[str]:
    """The "module.name" of each public definition in trees ({module stem:
    tree}, __init__ left out) that no load in any of them reads outside
    the definition itself."""
    read: dict[str, list[ast.AST]] = {}
    for tree in trees.values():
        for name, node in loads(tree):
            read.setdefault(name, []).append(node)
    unread = []
    for module, tree in trees.items():
        for qualified, definition in public_definitions(tree).items():
            inside = set(map(id, ast.walk(definition)))
            bare = qualified.rpartition(".")[2]
            if all(id(node) in inside for node in read.get(bare, ())):
                unread.append(f"{module}.{qualified}")
    return unread


def test_every_public_name_in_the_package_is_read():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    assert len(trees) > 5
    assert sorted(unread_public_names(trees)) == sorted(KEEP)
    for qualified, reader in KEEP.items():
        name = qualified.rpartition(".")[2]
        text = (ROOT / reader).read_text(encoding="utf-8")
        assert re.search(rf"\b{name}\b", text), f"{reader} does not read {qualified}"


def test_unread_names_are_found():
    # a function only its own body calls, a method nothing calls, a class
    # read only inside itself, an unused import; and the readers that count
    trees = {
        "a": ast.parse("def loop(n):\n    return loop(n - 1)\n"
                       "class Box:\n"
                       "    def size(self):\n        return 1\n"
                       "    def spare(self):\n        return self.size()\n"
                       "    def copy(self):\n        return Box()\n"
                       "def helper():\n    return 0\n"
                       "def _private():\n    return 0\n"),
        "b": ast.parse("from .a import loop, helper\n"
                       "class Used:\n    def __str__(self):\n        return ''\n"
                       "def g():\n    return helper() + Used()\n"),
    }
    assert unread_public_names(trees) == ["a.loop", "a.Box", "a.Box.spare", "a.Box.copy",
                                          "b.g"]
