"""Every backticked dotted name that starts with a module of the package,
such as ``perm._orbit_partition`` or `decomp.decomposability_general(m)`,
names something that exists, in README.md and in the package's own
docstrings and comments, and none of them cites a ROADMAP item by its
number, which changes whenever the ROADMAP is reordered.  A constant that
README.md gives with its value, as in `perm.DEFAULT_DEGREE_BOUND`
(10,000), has that value."""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "flagmaps"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
REFERENCE = re.compile(r"`+(" + "|".join(map(re.escape, MODULES))
                       + r")\.([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)")
SOURCES = [ROOT / "README.md"] + sorted(PACKAGE.glob("*.py"))
ITEM_NUMBER = re.compile(r"ROADMAP(?:'s)?\s+items?\s+\d", re.IGNORECASE)
# `module.NAME` (value, with a space or a line break before the parenthesis
VALUE = re.compile(r"`(" + "|".join(map(re.escape, MODULES))
                   + r")\.([A-Z][A-Z0-9_]*)`\s\(([\d,]+)")


def references(path):
    """(module, dotted attribute path) for each reference in the file."""
    return [m.groups() for m in REFERENCE.finditer(path.read_text())]


def resolves(module, dotted):
    obj = importlib.import_module(f"flagmaps.{module}")
    for part in dotted.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_doc_references_resolve(path):
    assert [f"{module}.{dotted}" for module, dotted in references(path)
            if not resolves(module, dotted)] == []


def test_doc_references_are_found():
    # the pattern must keep matching the references written today
    assert sum(len(references(path)) for path in SOURCES) >= 40


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_roadmap_items_are_cited_by_title(path):
    assert ITEM_NUMBER.findall(path.read_text()) == []


def stated_values(text):
    """(module, constant, value) for each constant given with its value."""
    return [(module, name, int(value.replace(",", "")))
            for module, name, value in VALUE.findall(text)]


def test_readme_states_the_bounds_they_are():
    stated = stated_values((ROOT / "README.md").read_text())
    assert len(stated) >= 8  # the pattern must keep matching them
    assert [(module, name, value) for module, name, value in stated
            if getattr(importlib.import_module(f"flagmaps.{module}"), name,
                       None) != value] == []


def test_stated_values_are_read_across_lines():
    assert stated_values("`perm.DEFAULT_DEGREE_BOUND`\n(10,000) bounds and\n"
                         "`fpres.MAX_WORD_LENGTH` (100,000 symbols)") == [
        ("perm", "DEFAULT_DEGREE_BOUND", 10_000),
        ("fpres", "MAX_WORD_LENGTH", 100_000)]
