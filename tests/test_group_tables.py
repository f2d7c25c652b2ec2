"""One place builds a group's point tables: ``PermGroup.__init__`` keeps
the image tuples of the generators as ``PermGroup.tables``, and no other
code of the package rebuilds them with a comprehension
``x.images for x in <expr>.generators``.  ``context_cycle_orders`` reads
a ``LabeledGenerators``, which keeps no tables, and is the one other
place allowed to."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "flagmaps"
ALLOWED = {("perm.py", "PermGroup.__init__"),
           ("mapcore.py", "context_cycle_orders")}


def reads_generators(node):
    """Whether node is ``<expr>.generators`` or ``<expr>.generators()``."""
    if isinstance(node, ast.Call):
        node = node.func
    return isinstance(node, ast.Attribute) and node.attr == "generators"


def rebuilds_tables(node):
    """Whether node is a list or generator comprehension
    ``x.images for x in <expr>.generators``."""
    if not isinstance(node, (ast.ListComp, ast.GeneratorExp)):
        return False
    loop = node.generators[0]
    elt = node.elt
    return (isinstance(elt, ast.Attribute) and elt.attr == "images"
            and isinstance(elt.value, ast.Name)
            and isinstance(loop.target, ast.Name)
            and elt.value.id == loop.target.id
            and reads_generators(loop.iter))


def table_rebuilds(tree, scope=""):
    """The dotted name of the class or function around each table rebuild
    in the tree."""
    for child in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        elif rebuilds_tables(child):
            yield scope
        yield from table_rebuilds(child, inner)


def rebuilds_in(path):
    return [(path.name, scope)
            for scope in table_rebuilds(ast.parse(path.read_text()))]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_module_rebuilds_a_groups_tables(path):
    assert sorted(set(rebuilds_in(path)) - ALLOWED) == []


def test_the_allowed_builds_are_found():
    # the pattern must keep matching the two builds written today
    assert {found for path in PACKAGE.glob("*.py")
            for found in rebuilds_in(path)} == ALLOWED
