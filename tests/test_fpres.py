import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flagmaps import parse_presentation, todd_coxeter, word_order
from flagmaps.fpres import (MAX_COSETS, EnumerationOverflow, Presentation,
                            PresentationError, evaluate_word,
                            format_presentation, parse_word, word_power)
from flagmaps.perm import congruent_labeled_groups, LabeledGenerators

from . import oracles
from .oracles import mulclose

F0_TEXT = """# the four standard relators
gens t l r
rel t^2
rel l^2
rel r^2
rel (t*l)^2
"""

TETRA_TEXT = F0_TEXT + "rel (r*t)^3\nrel (r*l)^3\n"


def test_parse_basic():
    p = parse_presentation("gens t l r\nrel t^2\nrel (t*l)^2")
    assert p.generators == ("t", "l", "r")
    assert len(p.relators) == 2
    assert p.relators[1] == (("t", 1), ("l", 1), ("t", 1), ("l", 1))


def test_parse_f0():
    p = parse_presentation(F0_TEXT)
    assert len(p.relators) == 4
    assert p.relators[0] == (("t", 2),)


def test_parse_undeclared_generator():
    with pytest.raises(PresentationError):
        parse_presentation("rel x^2")


def test_parse_syntax_error_location():
    with pytest.raises(PresentationError) as err:
        parse_presentation("gens a\nrel a^")
    assert err.value.line == 2


def test_parse_zero_exponent():
    with pytest.raises(PresentationError):
        parse_presentation("gens a\nrel a^0")


def test_word_parsing_nested():
    assert parse_word("((a*b)^2*c)^2") == (
        ("a", 1), ("b", 1), ("a", 1), ("b", 1), ("c", 1),
        ("a", 1), ("b", 1), ("a", 1), ("b", 1), ("c", 1))
    assert parse_word("a^-2") == (("a", -2),)
    assert parse_word("a*a") == (("a", 2),)
    assert parse_word("a*a^-1*b") == (("b", 1),)


@given(st.integers(-6, 6).filter(bool), st.integers(-6, 6))
def test_word_power_of_one_syllable(base, exp):
    # the power multiplies the exponent; the oracle expands and merges
    factors = [f"a^{base if exp > 0 else -base}"] * abs(exp)
    expected = parse_word("*".join(factors)) if factors else ()
    assert word_power((("a", base),), exp) == expected


def test_long_relator_overflows():
    p = parse_presentation("gens t\nrel t^2\nrel t^200001")
    assert p.relators[1] == (("t", 200001),)
    with pytest.raises(EnumerationOverflow):
        todd_coxeter(p)


def test_round_trip_through_printer():
    p = parse_presentation(TETRA_TEXT)
    text = format_presentation(p)
    again = parse_presentation(text)
    assert again == p
    assert format_presentation(again) == text


def test_todd_coxeter_order_two():
    _, order = todd_coxeter(parse_presentation("gens t\nrel t^2"))
    assert order == 2


def test_todd_coxeter_tetrahedral_group(geometric_tetrahedron):
    lg, order = todd_coxeter(parse_presentation(TETRA_TEXT))
    assert order == 24
    # brute-force closure of the returned permutations confirms the order
    assert len(mulclose(list(lg.generators))) == 24
    # and the group is congruent to the monodromy of the geometric tetrahedron
    geo = LabeledGenerators(("t", "l", "r"), geometric_tetrahedron.generators())
    assert congruent_labeled_groups(lg, geo)


def test_todd_coxeter_dm6_3():
    text = ("gens t l r\nrel t^2\nrel l\nrel r^2\nrel (t*l)^2\n"
            "rel (r*t)^3\nrel (r*l)^2\nrel (t*l*r)^3")
    _, order = todd_coxeter(parse_presentation(text))
    assert order == 6


def test_todd_coxeter_overflow():
    # free product Z2 * Z2 * Z2 is infinite
    with pytest.raises(EnumerationOverflow):
        todd_coxeter(parse_presentation("gens a b c\nrel a^2\nrel b^2\nrel c^2"),
                     max_cosets=200)


def test_todd_coxeter_caps_max_cosets():
    # the cap is checked before any table is allocated
    p = parse_presentation("gens a b c\nrel a^2\nrel b^2\nrel c^2")
    for max_cosets in (0, MAX_COSETS + 1, 10**12):
        with pytest.raises(ValueError, match="max_cosets"):
            todd_coxeter(p, max_cosets=max_cosets)
    _, order = todd_coxeter(parse_presentation(TETRA_TEXT),
                            max_cosets=MAX_COSETS)
    assert order == 24


def test_todd_coxeter_relators_satisfied():
    p = parse_presentation(TETRA_TEXT)
    lg, order = todd_coxeter(p)
    for relator in p.relators:
        assert evaluate_word(lg, relator).is_identity()


def test_todd_coxeter_action_regular():
    p = parse_presentation(TETRA_TEXT)
    lg, order = todd_coxeter(p)
    assert lg.group().is_transitive()
    assert lg.group().order() == order == lg.degree


@pytest.mark.parametrize("k", [2, 3, 5, 8])
def test_added_relator_divides_order(k):
    base = parse_presentation(
        f"gens t l r\nrel t^2\nrel l\nrel r^2\nrel (t*l)^2\n"
        f"rel (r*t)^{2 * k}\nrel (r*l)^2\nrel (t*l*r)^{2 * k}")
    _, big = todd_coxeter(base)
    extra = Presentation(base.generators,
                         base.relators + (word_power(parse_word("r*t"), k),))
    _, small = todd_coxeter(extra)
    assert big % small == 0 and small < big


@settings(deadline=None)
@given(st.integers(1, 9))
def test_dihedral_orders(k):
    text = f"gens a b\nrel a^2\nrel b^2\nrel (a*b)^{k}"
    lg, order = todd_coxeter(parse_presentation(text))
    assert order == 2 * k
    assert word_order(lg, "a*b") == k


def test_word_order_identity_word():
    lg, _ = todd_coxeter(parse_presentation("gens t\nrel t^2"))
    assert word_order(lg, ()) == 1


def test_word_order_dm7_5():
    from flagmaps import build_degenerate
    m = build_degenerate(7, 5)
    lg = LabeledGenerators(("t", "l", "r"), m.generators())
    assert word_order(lg, "r*l") == 5


def test_word_order_eps3():
    from flagmaps import build_slightly_degenerate
    m = build_slightly_degenerate("epsilon", 3)
    lg = LabeledGenerators(("t", "l", "r"), m.generators())
    assert word_order(lg, "t*l*r") == 6


def enumeration_outcome(enumerate_cosets, p, max_cosets):
    """Generator images and order, or "overflow"."""
    try:
        lg, order = enumerate_cosets(p, max_cosets)
    except EnumerationOverflow:
        return "overflow"
    return tuple(g.images for g in lg.generators), order


@st.composite
def presentations(draw):
    """1-3 generators, up to 5 relators of up to 6 syllables, exponents
    +-1..3; syllables are not merged, so a letter can meet its inverse."""
    names = ("a", "b", "c")[:draw(st.integers(1, 3))]
    syllable = st.tuples(st.sampled_from(names),
                         st.sampled_from((-3, -2, -1, 1, 2, 3)))
    relators = draw(st.lists(st.lists(syllable, min_size=1, max_size=6),
                             max_size=5))
    return Presentation(names, tuple(map(tuple, relators)))


@settings(deadline=None, max_examples=300)
@given(presentations(), st.sampled_from((1, 2, 5, 20, 64, 300)))
# scans leave two entries of a row to the final fill, whose order then
# decides the coset numbers
@example(Presentation(("a", "b"), ((("a", -2), ("b", -2), ("a", -2)),
                                   (("a", -3),))), 300)
# a letter next to its inverse: the forward re-read after a definition
# goes back along the new entry
@example(Presentation(("a", "b"), ((("a", 1), ("a", -1), ("b", 2)),
                                   (("a", 1), ("b", 1)))), 5)
# a gap whose two ends are one coset, with its last letter the inverse of
# its first: the backward re-read reads the entry just defined
@example(Presentation(("a", "b"), ((("a", 1), ("b", 1), ("a", -1)),
                                   (("a", 2),), (("b", 3),))), 20)
# a relator a*a^-1 does not make a an involution: a has order 3
@example(Presentation(("a",), ((("a", 1), ("a", -1)), (("a", 3),))), 20)
# a^-2 makes a an involution, and its inverse letters read as a
@example(Presentation(("a", "b"), ((("a", -2),), (("b", 2),),
                                   (("a", -1), ("b", 1)) * 3)), 20)
# the rewrite puts an involution letter next to itself, so the relator is
# not plain
@example(Presentation(("a", "b"), ((("a", 2),), (("b", 3), ("a", -3)))), 64)
# a dead coset that an involution fixes passes that entry to its root
@example(Presentation(("a", "b"), ((("a", -2),), (("b", 2),),
                                   (("a", 2), ("b", -1), ("a", 3),
                                    ("b", 3)))), 20)
def test_todd_coxeter_matches_reference_hlt(p, max_cosets):
    # same images and order, or an overflow at the same bound
    assert (enumeration_outcome(todd_coxeter, p, max_cosets)
            == enumeration_outcome(oracles.todd_coxeter, p, max_cosets))


def test_todd_coxeter_matches_reference_hlt_on_census_candidates():
    # every candidate at census_reflexible(24, 6) bounds, 2,592 of them
    from flagmaps.cli import candidate_vectors
    from flagmaps.degen import vector_presentation
    max_cosets = 8 * 24 + 256
    outcomes = set()
    for vec in candidate_vectors(6):
        p = vector_presentation(vec)
        got = enumeration_outcome(todd_coxeter, p, max_cosets)
        assert got == enumeration_outcome(oracles.todd_coxeter, p,
                                          max_cosets), vec
        outcomes.add(got == "overflow")
    assert outcomes == {True, False}


def test_todd_coxeter_census_candidates_satisfy_their_relators():
    # whatever the strategy, a finished enumeration gives images that
    # satisfy every relator and generate a regular group of the order
    from flagmaps.cli import candidate_vectors
    from flagmaps.degen import vector_presentation
    finished = 0
    for vec in candidate_vectors(6):
        p = vector_presentation(vec)
        try:
            lg, order = todd_coxeter(p, 8 * 24 + 256)
        except EnumerationOverflow:
            continue
        finished += 1
        for relator in p.relators:
            assert evaluate_word(lg, relator).is_identity(), vec
        assert lg.degree == order and lg.group().is_regular(), vec
    assert finished > 2500


@pytest.mark.parametrize("relators, message", [
    (((("a", 1), ("x", 2)),), "undeclared generator 'x'"),
    (((("a", 0),),), "zero exponent in relator"),
    # the first bad syllable in relator order names the error
    (((("a", 1),), (("a", 0),), (("y", 1),)), "zero exponent in relator"),
    (((("a", 1), ("y", 0)), (("a", 0),)), "undeclared generator 'y'"),
])
def test_presentation_check_messages(relators, message):
    with pytest.raises(PresentationError) as err:
        Presentation(("a", "b"), relators)
    assert str(err.value) == message


def test_presentation_duplicate_generator_message():
    with pytest.raises(PresentationError) as err:
        Presentation(("a", "a"), ())
    assert str(err.value) == "duplicate generator name"


@pytest.mark.parametrize("text, message", [
    # the directive is the line's first word, not a prefix of it
    ("gensx y", "unknown directive 'gensx' at line 1"),
    ("gens t\nrelt^2", "unknown directive 'relt^2' at line 2"),
    ("gens t\nrel(t*t)^2", "unknown directive 'rel(t*t)^2' at line 2"),
    # columns count from the start of the line
    ("gens a\nrel a^", "expected integer exponent at line 2, column 7"),
    ("gens a\n  rel a*(a", "expected ')' at line 2, column 11"),
    ("gens a\n\trel  a a # b", "trailing input 'a ' at line 2, column 9"),
])
def test_parse_directives_and_columns(text, message):
    with pytest.raises(PresentationError) as err:
        parse_presentation(text)
    assert str(err.value) == message


def test_parse_reads_a_directive_before_a_comment():
    p = parse_presentation("  gens a b  # two\n rel\t(a*b)^2#x\n")
    assert p == Presentation(("a", "b"), ((("a", 1), ("b", 1)) * 2,))


def test_printer_leaves_out_a_relator_that_cancels():
    p = parse_presentation("gens a b\nrel a*a^-1\nrel b^2")
    assert p.relators == ((), (("b", 2),))
    assert format_presentation(p) == "gens a b\nrel b^2\n"


GENERATOR_POOL = ("a", "b", "rel", "gens", "x1")


@st.composite
def presentations(draw):
    gens = tuple(draw(st.lists(st.sampled_from(GENERATOR_POOL), min_size=1,
                               max_size=4, unique=True)))
    syllable = st.tuples(st.sampled_from(gens),
                         st.integers(-4, 4).filter(bool))
    # joining the syllables of a list merges and cancels them: some
    # relators come out empty
    words = st.lists(syllable, max_size=6).map(
        lambda pairs: parse_word("*".join(f"{g}^{e}" for g, e in pairs))
        if pairs else ())
    return Presentation(gens, tuple(draw(st.lists(words, max_size=5))))


@settings(max_examples=200)
@given(presentations())
def test_printer_round_trips_but_for_empty_relators(p):
    again = parse_presentation(format_presentation(p))
    assert again == Presentation(p.generators,
                                 tuple(w for w in p.relators if w))
