"""One place tests whether a table f carries a table s to a table d,
f[s[x]] == d[f[x]] for every x: ``perm._intertwines``.  No other code of
the package compares two ``_read`` compositions, or a product of two
``Perm``s with the product the other way round."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "flagmaps"
ALLOWED = {("perm.py", "_intertwines")}


def is_read(node):
    """Whether node is a call ``_read(...)``."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "_read")


def is_product(node):
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)


def swapped(left, right):
    """Whether left is ``a * b`` and right is ``b * a``."""
    return (is_product(left) and is_product(right)
            and ast.dump(left.left) == ast.dump(right.right)
            and ast.dump(left.right) == ast.dump(right.left))


def intertwining_test(node):
    """Whether node compares two ``_read`` calls, or a * b with b * a."""
    if not isinstance(node, ast.Compare):
        return False
    sides = [node.left, *node.comparators]
    return any((is_read(a) and is_read(b)) or swapped(a, b)
               for a, b in zip(sides, sides[1:]))


def checks_in(tree, scope=""):
    """The dotted name of the class or function around each intertwining
    test in the tree."""
    for child in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        elif intertwining_test(child):
            yield scope
        yield from checks_in(child, inner)


def found_in(path):
    return [(path.name, scope)
            for scope in checks_in(ast.parse(path.read_text()))]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_module_spells_out_an_intertwining_test(path):
    assert sorted(set(found_in(path)) - ALLOWED) == []


def test_the_allowed_test_is_found():
    # the pattern must keep matching the one comparison written today
    assert [found for path in PACKAGE.glob("*.py")
            for found in found_in(path)] == sorted(ALLOWED)


@pytest.mark.parametrize("source, found", [
    ("a * g != g * a", True),
    ("out * g == g * out", True),
    ("_read(c, x) == _read(x, c)", True),
    ("0 < _read(f, s) == _read(d, f)", True),
    ("a * g == a * g", False),
    ("K.order() * n != mon.order() * k", False),
    ("moved != _read(images, block_of)", False),
])
def test_the_detector_reads_both_forms(source, found):
    assert intertwining_test(ast.parse(source, mode="eval").body) is found
