"""No module of the package holds an assert statement: invariants are
explicit checks, so python -O strips none of them."""

import ast
import os

import pytest

import orbitcount

PACKAGE = os.path.dirname(orbitcount.__file__)
MODULES = sorted(f[:-3] for f in os.listdir(PACKAGE) if f.endswith(".py"))


@pytest.mark.parametrize("module", MODULES)
def test_no_assert_statements(module):
    path = os.path.join(PACKAGE, module + ".py")
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert not lines, f"{module}.py has assert statements at lines {lines}"
