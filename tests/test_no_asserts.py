"""Modules whose invariants are explicit checks hold no assert statement,
so python -O strips none of them."""

import ast
import os

import pytest

import orbitcount

CLEARED = ["fqpoly", "gf", "group_ring", "hermitian", "invariants",
           "kspace", "linalg", "local_field", "order_lattices", "verify"]


@pytest.mark.parametrize("module", CLEARED)
def test_no_assert_statements(module):
    path = os.path.join(os.path.dirname(orbitcount.__file__), module + ".py")
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert not lines, f"{module}.py has assert statements at lines {lines}"
