"""Aut and its orbits are kept once, by the group: Mon keeps its
centralizer (``perm.PermGroup.centralizer``) and a group its orbit
partition (``PermGroup._partition``).  Outside ``perm`` only
``mapcore.automorphism_group`` asks Mon for its centralizer, no module
names a map's own cache of Aut or of its orbits, and no call of
``_orbit_partition`` outside ``PermGroup._partition`` reads Aut's or a
centralizer's tables."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "flagmaps"
MODULES = sorted(PACKAGE.glob("*.py"))
GONE = {"_aut_orbits", "_automorphism_group"}


def scoped(tree, scope=""):
    """(dotted name of the enclosing class or function, node) for every
    node of the tree."""
    for child in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        yield scope, child
        yield from scoped(child, inner)


def calls(path, name):
    """The scopes of the calls ``x.name(...)`` or ``name(...)`` in path,
    with each call's node."""
    for scope, node in scoped(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            func = node.func
            called = (func.attr if isinstance(func, ast.Attribute)
                      else getattr(func, "id", None))
            if called == name:
                yield scope, node


def names(path):
    """Every identifier and attribute name used in path."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name


def test_only_automorphism_group_asks_for_the_centralizer():
    askers = sorted((path.name, scope) for path in MODULES
                    if path.name != "perm.py"
                    for scope, _ in calls(path, "centralizer"))
    assert askers == [("mapcore.py", "automorphism_group")]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_names_a_map_cache_of_aut(path):
    assert sorted(GONE.intersection(names(path))) == []


def reads_aut(node):
    """Whether an expression reads Aut or a centralizer."""
    return any(isinstance(n, (ast.Name, ast.Attribute))
               and {getattr(n, "id", None), getattr(n, "attr", None)}
               & {"centralizer", "aut", "automorphism_group", *GONE}
               for n in ast.walk(node))


def test_aut_orbits_are_walked_only_by_the_group():
    walkers = sorted((path.name, scope) for path in MODULES
                     for scope, call in calls(path, "_orbit_partition")
                     if any(map(reads_aut, call.args)))
    assert walkers == []
    # the group's own walk reads its tables, which for Aut are Aut's
    assert "PermGroup._partition" in {
        scope for scope, _ in calls(PACKAGE / "perm.py", "_orbit_partition")}


@pytest.mark.parametrize("source, found", [
    ("_orbit_partition(automorphism_group(m).tables, n)", True),
    ("_orbit_partition(G.centralizer().tables, n)", True),
    ("_orbit_partition(aut.tables, n)", True),
    ("_orbit_partition(self._automorphism_group.tables, n)", True),
    ("_orbit_partition(fixers, n)", False),
    ("_orbit_partition(self.tables, self.degree)", False),
])
def test_the_detector_reads_aut(source, found):
    call = ast.parse(source, mode="eval").body
    assert any(map(reads_aut, call.args)) is found
