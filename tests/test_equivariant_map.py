"""The one equivariant-map grower against the code it replaced: the
flag-bijection grower of the isomorphism tests and the Perm-product walk
of labeled congruence (both kept in ``tests/oracles.py``), and the
Perm-keyed regular representation of the reflexible cover."""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flagmaps import (BoundExceeded, LabeledGenerators, Perm, RootedMap,
                      automorphism_to, congruent_labeled_groups, du,
                      isomorphism, pe, perm, reroot, smallest_reflexible_cover)
from flagmaps.perm import _equivariant_map

from . import oracles
from .conftest import element_bound, random_rooted_map
from .test_perm import dihedral, regular_groups, small_groups


def tables(perms):
    return [p.images for p in perms]


def relabel_map(m, points):
    """m with flag x renamed points[x]."""
    def move(g):
        images = [0] * m.n_flags
        for x, y in enumerate(g.images):
            images[points[x]] = points[y]
        return Perm(images)
    return RootedMap(*map(move, m.generators()), root=points[m.root])


def generalized_reference(m, n):
    """isomorphism(m, n, "generalized") on the reference grower, with
    reflexibility decided by brute force."""
    if m.n_flags != n.n_flags:
        return None
    if len(oracles.automorphisms_brute(n)) == n.n_flags:
        targets = [n.root]
    else:
        targets = range(n.n_flags)
    for d in targets:
        image = oracles._grow_flag_bijection(m.generators(), m.root,
                                             n.generators(), d)
        if image is not None:
            return image
    return None


def cover_reference(m):
    """smallest_reflexible_cover as a Perm-keyed regular representation."""
    elements = m.monodromy_group().elements()
    index = {g: i for i, g in enumerate(elements)}
    perms = [Perm(index[e * g] for e in elements) for g in m.generators()]
    return RootedMap(*perms, root=index[Perm.identity(m.n_flags)])


@st.composite
def maps(draw, constructions):
    """A random map or a re-rooted construction."""
    if draw(st.booleans()):
        _, m = draw(st.sampled_from(constructions))
        return reroot(m, draw(st.integers(0, m.n_flags - 1)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return random_rooted_map(rng, draw(st.integers(1, 5)))


@st.composite
def table_pairs(draw):
    """Generator lists src and dst on the same points, dst often a
    relabeling of src, and a start point with a candidate image."""
    n = draw(st.integers(1, 7))
    k = draw(st.integers(1, 3))
    src = [Perm(draw(st.permutations(range(n)))) for _ in range(k)]
    kind = draw(st.sampled_from(["same", "relabeled", "random"]))
    if kind == "same":
        dst = src
    elif kind == "relabeled":
        pi = Perm(draw(st.permutations(range(n))))
        dst = [pi.inverse() * g * pi for g in src]
    else:
        dst = [Perm(draw(st.permutations(range(n)))) for _ in range(k)]
    return src, dst, draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))


@settings(deadline=None, max_examples=200)
@given(table_pairs())
def test_grower_matches_reference(case):
    src, dst, start, image = case
    assert (_equivariant_map(tables(src), start, tables(dst), image,
                             src[0].degree)
            == oracles._grow_flag_bijection(src, start, dst, image))


def test_grower_rejects_a_consistent_map_that_is_not_injective():
    # C4 onto the two 2-cycles of (0 1)(2 3): every equation holds and
    # every point is reached, but 0 and 2 both go to 0
    src, dst = [(1, 2, 3, 0)], [(1, 0, 3, 2)]
    assert _equivariant_map(src, 0, dst, 0, 4) is None
    assert oracles._grow_flag_bijection(
        [Perm(t) for t in src], 0, [Perm(t) for t in dst], 0) is None


def test_grower_needs_every_point():
    # (0 1)(2 3) is consistent from 0 but never reaches 2 or 3
    assert _equivariant_map([(1, 0, 3, 2)], 0, [(1, 0, 3, 2)], 1, 4) is None
    assert _equivariant_map([(1, 0, 2)], 0, [(1, 0, 2)], 1, 3) is None


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_automorphism_to_matches_reference(constructions, data):
    m = data.draw(maps(constructions))
    gens = m.generators()
    for d in range(m.n_flags):
        expected = oracles._grow_flag_bijection(gens, m.root, gens, d)
        got = automorphism_to(m, d)
        assert (got.images if got else None) == (
            tuple(expected) if expected else None)


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_isomorphism_matches_reference(constructions, data):
    m = data.draw(maps(constructions))
    points = data.draw(st.permutations(range(m.n_flags)))
    n = relabel_map(m, points)
    targets = [n, reroot(n, data.draw(st.integers(0, m.n_flags - 1))),
               du(n), pe(n), data.draw(maps(constructions))]
    for target in targets:
        rooted = (oracles._grow_flag_bijection(
                      m.generators(), m.root, target.generators(), target.root)
                  if target.n_flags == m.n_flags else None)
        assert isomorphism(m, target, mode="rooted") == rooted
        assert (isomorphism(m, target, mode="generalized")
                == generalized_reference(m, target))
    assert isomorphism(m, n) == [points[x] for x in range(m.n_flags)]


@st.composite
def labeled_pairs(draw):
    """A labeled group A from ``small_groups()``, sometimes with an
    identity or a repeated generator, and B: A on renamed points, its
    generators sometimes reassigned to other labels and its labels listed
    in another order."""
    G = draw(small_groups())
    assume(G.order() <= 720)
    gens = list(G.generators) or [Perm.identity(G.degree)]
    extra = draw(st.sampled_from(["none", "identity", "repeat"]))
    if extra == "identity":
        gens.insert(draw(st.integers(0, len(gens))), Perm.identity(G.degree))
    elif extra == "repeat":
        gens.append(draw(st.sampled_from(gens)))
    labels = tuple(f"g{i}" for i in range(len(gens)))
    A = LabeledGenerators(labels, tuple(gens))
    pi = Perm(draw(st.permutations(range(G.degree))))
    moved = [pi.inverse() * g * pi for g in gens]
    if draw(st.booleans()):
        moved = draw(st.permutations(moved))
    order = draw(st.permutations(range(len(gens))))
    B = LabeledGenerators(tuple(labels[i] for i in order),
                          tuple(moved[i] for i in order))
    return A, B


@settings(deadline=None, max_examples=100)
@given(labeled_pairs())
def test_congruence_matches_reference(pair):
    A, B = pair
    assert (congruent_labeled_groups(A, B)
            == oracles.congruent_labeled_groups(A, B))


def cyclic(n):
    return Perm(tuple((i + 1) % n for i in range(n)))


@pytest.mark.parametrize("a_gens, b_gens, expected", [
    # an identity generator, which PermGroup strips
    ((Perm.identity(4), cyclic(4)), (Perm.identity(4), cyclic(4) ** 3), True),
    ((Perm.identity(4), cyclic(4)), (cyclic(4) ** 2, cyclic(4)), False),
    ((cyclic(4), Perm.identity(4)), (cyclic(4), cyclic(4) ** 2), False),
    # two equal generators under different labels
    ((cyclic(4), cyclic(4)), (cyclic(4) ** 3, cyclic(4) ** 3), True),
    ((cyclic(4), cyclic(4)), (cyclic(4), cyclic(4) ** 3), False),
    ((cyclic(4), cyclic(4)), (cyclic(4), cyclic(4) ** 2), False),
], ids=["identity", "identity-clash", "identity-last", "repeated",
        "repeated-split", "repeated-order"])
def test_congruence_fixed_cases(a_gens, b_gens, expected):
    A = LabeledGenerators(("a", "b"), a_gens)
    B = LabeledGenerators(("a", "b"), b_gens)
    assert congruent_labeled_groups(A, B) is expected
    assert oracles.congruent_labeled_groups(A, B) is expected


def test_congruence_with_labels_in_another_order():
    rot, flip = dihedral(5).generators
    pi = Perm((2, 4, 1, 0, 3))
    moved = [pi.inverse() * g * pi for g in (rot, flip)]
    A = LabeledGenerators(("rot", "flip"), (rot, flip))
    B = LabeledGenerators(("flip", "rot"), (moved[1], moved[0]))
    swapped = LabeledGenerators(("flip", "rot"), (moved[0], moved[1]))
    for check in (congruent_labeled_groups, oracles.congruent_labeled_groups):
        assert check(A, B)
        assert not check(A, swapped)


def test_congruence_bound_threshold(monkeypatch):
    # the oracle's walk counts the elements but the identity, so a group
    # of bound + 1 elements still answers there; congruence lists its
    # groups, and raises past the element bound as every listing does
    lg = LabeledGenerators(("a",), (cyclic(6),))
    assert oracles.congruent_labeled_groups(lg, lg, bound=5)
    with pytest.raises(BoundExceeded):
        oracles.congruent_labeled_groups(lg, lg, bound=4)
    monkeypatch.setattr(perm, "DEFAULT_ELEMENT_BOUND", 6)
    assert congruent_labeled_groups(lg, lg)
    monkeypatch.setattr(perm, "DEFAULT_ELEMENT_BOUND", 5)
    with pytest.raises(BoundExceeded, match="^group exceeds element bound 5$"):
        congruent_labeled_groups(lg, lg)


@settings(deadline=None, max_examples=60)
@given(st.one_of(regular_groups(), small_groups()))
def test_is_regular_matches_reference(G):
    gens = G.generators
    found = [oracles._grow_flag_bijection(gens, 0, gens, g.images[0])
             for g in gens]
    regular = (bool(gens) or G.degree == 1) and None not in found
    assert G.is_regular() == regular
    if regular:
        assert G._left == found


def check_cover(m, bound):
    """The cover against the reference, under the element bound ``bound``."""
    with element_bound(bound):
        try:
            expected = cover_reference(m)
        except BoundExceeded:
            with pytest.raises(BoundExceeded):
                smallest_reflexible_cover(m)
            return
        got = smallest_reflexible_cover(m)
    assert got.generators() == expected.generators()
    assert got.root == expected.root


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_smallest_reflexible_cover_matches_reference(constructions, data):
    check_cover(data.draw(maps(constructions)), 720)


def test_smallest_reflexible_cover_with_identity_generators():
    # T and R are the identity: Mon is generated by L alone
    swap = Perm((1, 0))
    check_cover(RootedMap(Perm.identity(2), swap, Perm.identity(2)), 10)
    # T is the identity on a map with four flags
    m = RootedMap(Perm.identity(4), Perm((1, 0, 3, 2)), Perm((0, 2, 1, 3)))
    check_cover(m, 100)
