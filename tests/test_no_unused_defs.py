"""Every function, class and method of the package is used by the package.

A definition counts as used when its name appears as a name or as an
attribute somewhere in src/ outside its own body, when it is exported
in orbitcount.__all__, or when it is a dunder (called by the language,
not by name).  Code that only the tests call has no place in src/.
"""

import ast
import os

import orbitcount

PACKAGE = os.path.dirname(orbitcount.__file__)


def _parse_package():
    trees = {}
    for f in sorted(os.listdir(PACKAGE)):
        if f.endswith(".py"):
            path = os.path.join(PACKAGE, f)
            with open(path) as fh:
                trees[f] = ast.parse(fh.read(), path)
    return trees


def test_every_definition_is_used_in_src():
    trees = _parse_package()
    defs, uses = [], []
    for f, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defs.append((f, node))
            elif isinstance(node, ast.Name):
                uses.append((f, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses.append((f, node.attr, node.lineno))
    unused = []
    for f, node in defs:
        name = node.name
        if name.startswith("__") and name.endswith("__"):
            continue
        if name in orbitcount.__all__:
            continue
        if any(name == used and not (uf == f and node.lineno <= line
                                     <= node.end_lineno)
               for uf, used, line in uses):
            continue
        unused.append(f"{f}:{node.lineno} {name}")
    assert not unused, "defined in src/ but never used there: " + ", ".join(
        unused)
