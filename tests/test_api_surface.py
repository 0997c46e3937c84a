"""Every public name in fenet has a caller in the program, not only in the tests.

The program is `src/`, `scripts/` and `perfbench/`. A public name is a
module-level function or class of `src/fenet`, or a method of one of its
classes, whose name does not start with an underscore. A reference is an
identifier, an attribute, an imported name, or a part of a dotted name in a
string such as perfbench's "nn.Network.forward_batch", found anywhere but
inside the named definition itself. Names are matched without their owner,
so a method counts as used when any attribute of that name is.
"""

import ast
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "fenet")
PROGRAM_DIRS = ("src", "scripts", "perfbench")

_DOTTED = re.compile(r"[A-Za-z_][\w.]*")


def _python_files(top):
    for base, _, files in os.walk(top):
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(base, name)


def _parse(path):
    with open(path) as fh:
        return ast.parse(fh.read(), filename=path)


def _public_definitions():
    """(name, where) for every public function, class and method of the package."""
    out = []
    for path in _python_files(PACKAGE):
        module = os.path.basename(path)[:-3]
        for node in _parse(path).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                out.append((node.name, f"{module}.{node.name}"))
            if isinstance(node, ast.ClassDef):
                out.extend(
                    (item.name, f"{module}.{node.name}.{item.name}")
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                )
    return out


def _docstrings(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                yield body[0].value


def _references(tree):
    """Names referenced in a module, each outside any definition of the same name."""
    skip = {id(c) for c in _docstrings(tree)}
    found = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        names = []
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.alias):
            names = node.name.split(".")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in skip:
            if _DOTTED.fullmatch(node.value):
                names = node.value.split(".")
        found.update(n for n in names if n not in enclosing)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return found


def test_every_public_name_has_a_caller_outside_the_tests():
    referenced = set()
    for top in PROGRAM_DIRS:
        for path in _python_files(os.path.join(ROOT, top)):
            referenced |= _references(_parse(path))
    unused = sorted(where for name, where in _public_definitions() if name not in referenced)
    assert unused == [], f"public names that only tests call: {unused}"
