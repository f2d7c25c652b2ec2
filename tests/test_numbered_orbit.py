"""The one numbered-orbit routine against a plain breadth-first search, and
its four callers against the walks they replaced (kept in
``tests/oracles.py``): element lists with their right regular tables,
parallel products, K-quotient blocks and canonical flag numberings."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagmaps import (BoundExceeded, Perm, PermGroup, RootedMap,
                      automorphism_group, build_degenerate,
                      build_slightly_degenerate, canonicalize, k_quotient,
                      parallel_product, reroot)
from flagmaps.perm import _numbered_orbit
from flagmaps.quotient import (MapMorphism, StabilizerNotContained,
                               morphism_to_k_quotient)

from . import oracles
from .conftest import element_bound, random_rooted_map


@st.composite
def orbit_cases(draw):
    """1-3 arbitrary self-maps of n points (not only permutations), acting
    on points or, as in a parallel product, on pairs of points."""
    n = draw(st.integers(1, 12))
    point = st.integers(0, n - 1)
    tables = draw(st.lists(st.lists(point, min_size=n, max_size=n),
                           min_size=1, max_size=3))
    if draw(st.booleans()):
        return draw(point), lambda x: [t[x] for t in tables]
    others = draw(st.lists(st.lists(point, min_size=n, max_size=n),
                           min_size=len(tables), max_size=len(tables)))
    pairs = list(zip(tables, others))
    return ((draw(point), draw(point)),
            lambda xy: [(s[xy[0]], d[xy[1]]) for s, d in pairs])


@settings(deadline=None, max_examples=300)
@given(orbit_cases())
def test_numbered_orbit_matches_bfs(case):
    start, images = case
    expected = oracles.numbered_bfs(start, images)
    assert _numbered_orbit(start, images) == expected
    size = len(expected[0])
    assert _numbered_orbit(start, images, size, "too many") == expected
    if size > 1:
        with pytest.raises(BoundExceeded, match="^too many$"):
            _numbered_orbit(start, images, size - 1, "too many")


@pytest.fixture(scope="session")
def family_maps():
    """The DM rows, with k = 2, 3, 5 for DM6-8, and epsilon_k, delta_k."""
    return ([build_degenerate(i) for i in range(1, 6)]
            + [build_degenerate(i, k) for i in (6, 7, 8) for k in (2, 3, 5)]
            + [build_slightly_degenerate(family, k)
               for family in ("epsilon", "delta") for k in (3, 5, 8)])


@st.composite
def maps(draw, constructions, family_maps):
    """A random map, or a re-rooted construction or DM/epsilon/delta map."""
    kind = draw(st.sampled_from(["random", "construction", "family"]))
    if kind == "random":
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        return random_rooted_map(rng, draw(st.integers(1, 5)))
    if kind == "construction":
        _, m = draw(st.sampled_from(constructions))
    else:
        m = draw(st.sampled_from(family_maps))
    return reroot(m, draw(st.integers(0, m.n_flags - 1)))


def raised(call, *args):
    """The message of the BoundExceeded that call(*args) raises, or its
    result."""
    try:
        return call(*args)
    except BoundExceeded as exc:
        return f"BoundExceeded: {exc}"


def listed(G, bound):
    with element_bound(bound):
        els = G.elements()
        return els, [list(t) for t in G._right_tables(G.generators)]


@settings(deadline=None, max_examples=80)
@given(st.data())
def test_elements_match_reference(constructions, family_maps, data):
    m = data.draw(maps(constructions, family_maps))
    bound = data.draw(st.sampled_from([1, 24, 2_000]))
    for gens in (m.generators(), automorphism_group(m).generators):
        G = PermGroup(m.n_flags, gens)
        assert (raised(listed, G, bound)
                == raised(oracles.elements_and_right, G, bound))


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_parallel_product_matches_reference(constructions, family_maps, data):
    m = data.draw(maps(constructions, family_maps))
    n = data.draw(maps(constructions, family_maps))
    got, expected = parallel_product(m, n), oracles.parallel_product(m, n)
    assert got.product == expected.product
    assert got.left_projection == expected.left_projection
    assert got.right_projection == expected.right_projection
    assert got.pair_labels == expected.pair_labels


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_k_quotient_matches_reference(constructions, family_maps, data):
    # K is generated by the root stabilizer (the K of the identity
    # morphism) and a random word in T, L, R
    m = data.draw(maps(constructions, family_maps))
    identity = MapMorphism(m, m, tuple(range(m.n_flags)))
    stabilizer = morphism_to_k_quotient(identity).K
    word = data.draw(st.lists(st.sampled_from(m.generators()), max_size=8))
    g = Perm.identity(m.n_flags)
    for letter in word:
        g = g * letter
    K = PermGroup(m.n_flags, stabilizer.generators + (g,))
    expected = quotient_on_blocks(m, oracles.k_quotient_blocks(m, K))
    assert k_quotient(m, K) == expected


def quotient_on_blocks(m, blocks):
    """The quotient map on a block system and its projection: the blocks
    numbered in the given order, each acting through its least flag."""
    block_of = [0] * m.n_flags
    for i, block in enumerate(blocks):
        for x in block:
            block_of[x] = i
    induced = [Perm([block_of[g.images[min(block)]] for block in blocks])
               for g in m.generators()]
    quotient = RootedMap(*induced, root=block_of[m.root])
    return quotient, MapMorphism(m, quotient, tuple(block_of))


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_canonicalize_matches_reference(constructions, family_maps, data):
    m = data.draw(maps(constructions, family_maps))
    assert canonicalize(m) == oracles.canonicalize(m)


def test_k_quotient_walk_past_its_bound_is_not_a_block_system(monkeypatch):
    # K = <R> has root orbit {0, 2}, which meets its image {1, 2} under T;
    # with the orbit-stabilizer check forced to pass, the block walk finds
    # a third block where 4 / 2 fit
    m = RootedMap(Perm([1, 0, 2, 3]), Perm.identity(4), Perm([2, 3, 0, 1]))
    K = PermGroup(4, [m.r])
    monkeypatch.setattr(K, "order", lambda: 4)
    message = "^K-orbit of the root does not generate a block system$"
    with pytest.raises(StabilizerNotContained, match=message):
        oracles.k_quotient_blocks(m, K)
    with pytest.raises(StabilizerNotContained, match=message):
        k_quotient(m, K)
