"""Arbitrary text through the command line's file parsers: every run ends
with an exit code (0 success, 1 invalid input, 2 bound, 3 unknown), never
with an uncaught exception."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flagmaps.cli import main
from flagmaps.ettype import TYPE_GENERATORS

# Texts of any characters, and lines of a format's directives each followed
# by up to two small numbers or names, so that drawn texts get past the
# first line of the format's parser.
ATOMS = ("-1", "0", "1", "2", "a", "x")


def texts(*directives):
    line = st.builds(lambda directive, args: " ".join((directive, *args)),
                     st.sampled_from(directives),
                     st.lists(st.sampled_from(ATOMS), max_size=2))
    return st.one_of(st.lists(line, max_size=4).map("\n".join),
                     st.text(max_size=120))


FUZZ = settings(deadline=None, max_examples=150)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run_on(workdir, name, text, *argv):
    path = workdir / name
    path.write_text(text)
    return main([a if a != "FILE" else str(path) for a in argv])


@FUZZ
@given(texts("degree", "gen"), st.sampled_from(sorted(TYPE_GENERATORS)))
@example("degree -1\ngen", "2")  # once an IndexError traceback
def test_construct_takes_any_group_text(workdir, text, group_type):
    code = run_on(workdir, "g.grp", text, "construct", "--type", group_type,
                  "--group", "FILE", "-o", str(workdir / "out.map"))
    assert code in (0, 1, 2, 3)


@FUZZ
@given(texts("gens", "rel"))
def test_todd_coxeter_takes_any_presentation_text(workdir, text):
    code = run_on(workdir, "p.pres", text, "todd-coxeter", "FILE",
                  "--max-cosets", "200")
    assert code in (0, 1, 2, 3)


@FUZZ
@given(texts("flags", "T", "L", "R", "root"))
def test_analyze_takes_any_map_text(workdir, text):
    code = run_on(workdir, "m.map", text, "analyze", "FILE")
    assert code in (0, 1, 2, 3)
