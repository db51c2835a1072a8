"""Every function, class, method and stored field of the package is used
by the package.

A definition counts as used when its name appears as a name or as an
attribute somewhere in src/ outside its own body, when it is exported
in orbitcount.__all__, or when it is a dunder (called by the language,
not by name).  A field named in a class's __slots__ counts as used when
src/ reads some attribute of that name: a field that is only ever
stored is dead.  Fields stored as self.<name> = ... in classes without
__slots__ (the exceptions) are scanned the same way.  Code that only
the tests call has no place in src/.
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


def _slot_names(cls):
    """(name, lineno) of each field that cls's __slots__ lists."""
    for stmt in cls.body:
        if (isinstance(stmt, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__slots__"
                        for t in stmt.targets)
                and isinstance(stmt.value, (ast.Tuple, ast.List))):
            for elt in stmt.value.elts:
                if isinstance(elt, ast.Constant) and isinstance(elt.value,
                                                                str):
                    yield elt.value, elt.lineno


def _self_stores(cls):
    """(name, lineno) of each field that cls's methods store as
    self.<name> = ...; a class without __slots__ declares its fields
    only this way."""
    for stmt in cls.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(stmt):
                if (isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, ast.Store)
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "self"):
                    yield node.attr, node.lineno


# exception payloads: src/ raises them for the caller to read (README
# documents estimate, and the tests read both), not for itself
PUBLIC_PAYLOADS = {("BudgetExceeded", "estimate"), ("SchemaError", "field")}


def test_every_stored_field_is_read_in_src():
    trees = _parse_package()
    slotted, stored, loads = [], [], set()
    for f, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                slotted += [(f, node.name, name, line)
                            for name, line in _slot_names(node)]
                stored += [(f, node.name, name, line)
                           for name, line in _self_stores(node)]
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                loads.add(node.attr)
    assert slotted and stored, "no fields found: the scan has gone blind"
    unread = [f"{f}:{line} {cls}.{name}"
              for f, cls, name, line in slotted + stored
              if name not in loads and (cls, name) not in PUBLIC_PAYLOADS]
    assert not unread, "stored in src/ but never read there: " + ", ".join(
        unread)


# Method names that two or more classes define.  A use x.name() does not
# say which class it calls, so the first test counts every definition of
# such a name as used once any one is.  Each definition of each name
# here has been checked to have a use of its own; a name that newly
# joins (or leaves) the set fails the test below until that check is
# made for it and the set is updated.
SHARED_METHODS = {"agrees_with", "inv", "is_integral", "one", "prec",
                  "scaled", "slices", "truncated", "val", "zero"}


def test_method_names_shared_by_classes_are_pinned():
    owners = {}
    for tree in _parse_package().values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if (isinstance(stmt, (ast.FunctionDef,
                                          ast.AsyncFunctionDef))
                            and not (stmt.name.startswith("__")
                                     and stmt.name.endswith("__"))):
                        owners.setdefault(stmt.name, set()).add(node.name)
    shared = {name for name, classes in owners.items() if len(classes) > 1}
    assert shared == SHARED_METHODS, (
        f"newly shared: {sorted(shared - SHARED_METHODS)}; "
        f"no longer shared: {sorted(SHARED_METHODS - shared)}")
