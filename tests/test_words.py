"""The one word evaluator and the transversal of ``morphism_to_k_quotient``
against brute force: ``evaluate_word`` against following every letter from
every point, the context vector against repeated multiplication, and the
recovered K against the preimage of the target root."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagmaps import (LabeledGenerators, Perm, PermGroup, context_vector,
                      k_quotient, minimal_normal_subgroups, monodromy_quotient,
                      morphism_to_k_quotient)
from flagmaps.fpres import evaluate_word, parse_word
from flagmaps.mapcore import CONTEXT_WORDS, GENERATOR_NAMES
from flagmaps.quotient import StabilizerNotContained

from . import oracles
from .conftest import random_rooted_map

FIXTURES = ("tetrahedron", "geometric_tetrahedron", "c4_sphere",
            "fig3_quotient")
# generating sets of the subgroups K of the k-quotients
SUBGROUP_WORDS = (("r",), ("r*t",), ("l*r",), ("t*l*r",), ("r", "l*r*l"),
                  ("r*t", "t*r*l*r*l*t"))


@pytest.fixture(scope="module")
def fixture_maps(request):
    return [request.getfixturevalue(name) for name in FIXTURES]


def tlr(m):
    return LabeledGenerators(GENERATOR_NAMES, m.generators())


def letters(word):
    """The word as a letter string over t, l, r: T, L and R are
    involutions, so g^e is g^|e|."""
    return "".join(name * abs(exp) for name, exp in word)


def follow(lg, x, word):
    """The image of point x under the word, letter by letter: a negative
    exponent steps back along the generator's image list."""
    table = lg.as_dict()
    for name, exp in word:
        images = table[name].images
        for _ in range(abs(exp)):
            x = images[x] if exp > 0 else images.index(x)
    return x


def brute_order(p):
    q, k = p, 1
    while not q.is_identity():
        q, k = q * p, k + 1
    return k


exponents = st.integers(-4, 4).filter(bool)


@st.composite
def maps(draw, fixed):
    """A fixture map or a random map."""
    if draw(st.booleans()):
        return draw(st.sampled_from(fixed))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return random_rooted_map(rng, draw(st.integers(1, 6)))


@st.composite
def labeled_words(draw):
    """Random generators on a few points and a word over their labels."""
    n = draw(st.integers(1, 6))
    labels = ("a", "b", "c")[:draw(st.integers(1, 3))]
    gens = tuple(Perm(draw(st.permutations(range(n)))) for _ in labels)
    word = draw(st.lists(st.tuples(st.sampled_from(labels), exponents),
                         max_size=8))
    return LabeledGenerators(labels, gens), tuple(word)


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_evaluate_word_acts_as_the_map_does(fixture_maps, data):
    m = data.draw(maps(fixture_maps))
    word = tuple(data.draw(st.lists(
        st.tuples(st.sampled_from(GENERATOR_NAMES), exponents), max_size=8)))
    images = evaluate_word(tlr(m), word).images
    assert all(images[x] == m.act(x, letters(word))
               for x in range(m.n_flags))


@settings(deadline=None, max_examples=200)
@given(labeled_words())
def test_evaluate_word_follows_every_point(case):
    lg, word = case
    images = evaluate_word(lg, word).images
    assert all(images[x] == follow(lg, x, word) for x in range(lg.degree))


def test_context_vector_matches_brute_force(fixture_maps, random_maps,
                                            constructions):
    for m in fixture_maps + random_maps + [c for _, c in constructions]:
        expected = tuple(
            brute_order(Perm(m.act(x, letters(w)) for x in range(m.n_flags)))
            for w in CONTEXT_WORDS)
        assert context_vector(m).orders == expected


def assert_k_is_the_preimage(phi):
    src, tgt = phi.source, phi.target
    K = morphism_to_k_quotient(phi).K
    preimage = {g for g in oracles.mulclose(list(src.generators()))
                if phi(g.images[src.root]) == tgt.root}
    assert K.order() == len(preimage)
    assert all(g in K for g in preimage)
    assert all(g in preimage for g in K.generators)


def test_recovered_k_is_the_preimage_of_the_target_root(fixture_maps,
                                                        random_maps):
    small = [m for m in random_maps if m.monodromy_group().order() <= 2000]
    quotients = 0
    for m in fixture_maps + small:
        for H in minimal_normal_subgroups(m.monodromy_group()):
            assert_k_is_the_preimage(monodromy_quotient(m, H)[1])
            quotients += 1
        for texts in SUBGROUP_WORDS:
            K = PermGroup(m.n_flags, [evaluate_word(tlr(m), parse_word(t))
                                      for t in texts])
            try:
                _, phi = k_quotient(m, K)
            except StabilizerNotContained:
                continue
            assert_k_is_the_preimage(phi)
            quotients += 1
    assert quotients >= 100
