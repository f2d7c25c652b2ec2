"""Every name a module of the package imports is used in that module, and
the element listing imports nothing from the package."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "flagmaps"


def imported_names(tree):
    """The names that the module's imports bind, but for ``__future__``
    features."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
    ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    # __init__.py imports to re-export, so it is left out
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(set(imported_names(tree)) - used) == []


def test_listing_imports_nothing_from_the_package():
    # perm imports _listing, so _listing stands below every other module
    tree = ast.parse((PACKAGE / "_listing.py").read_text())
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            modules.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
    assert modules and not [m for m in modules
                            if m.startswith((".", "flagmaps"))]
