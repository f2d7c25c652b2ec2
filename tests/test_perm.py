import random
import time
from math import factorial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flagmaps import (BoundExceeded, LabeledGenerators, Perm, PermGroup,
                      congruent_labeled_groups, minimal_normal_subgroups,
                      normal_closure, parallel_product, perm)
from flagmaps.perm import (_orbit, _orbits, conjugacy_classes,
                           format_group_file, is_normal_in, parse_group_file)

from . import oracles
from .oracles import minimal_normals_brute, mulclose


def perm_strategy(n):
    return st.permutations(range(n)).map(Perm)


@given(st.integers(2, 8).flatmap(
    lambda n: st.tuples(perm_strategy(n), perm_strategy(n),
                        st.integers(0, n - 1))))
def test_composition_left_to_right(data):
    p, q, x = data
    assert (p * q)(x) == q(p(x))


@given(st.integers(1, 8).flatmap(perm_strategy))
def test_inverse_and_order(p):
    assert (p * p.inverse()).is_identity()
    assert (p ** p.order()).is_identity()
    for k in range(1, p.order()):
        assert not (p ** k).is_identity()


@given(st.integers(0, 8).flatmap(perm_strategy), st.integers(-6, 40))
def test_power_matches_repeated_multiplication(p, n):
    base = p if n >= 0 else p.inverse()
    expected = Perm.identity(p.degree)
    for _ in range(abs(n)):
        expected = expected * base
    assert p ** n == expected


def test_perm_rejects_non_bijection():
    with pytest.raises(ValueError):
        Perm([0, 0, 1])


def test_orbits_single_transposition():
    G = PermGroup(4, [Perm.from_cycles(4, [(0, 1)])])
    assert G.orbits() == [[0, 1], [2], [3]]
    assert not G.is_transitive()


def test_orbits_identity_group():
    G = PermGroup.trivial(3)
    assert G.orbits() == [[0], [1], [2]]


def test_orbits_tetrahedron_transitive(tetrahedron):
    assert tetrahedron.monodromy_group().is_transitive()


@given(st.lists(st.integers(2, 7).flatmap(perm_strategy), max_size=3))
def test_orbits_partition(gens):
    gens = [g for g in gens if g.degree == (gens[0].degree if gens else 0)]
    if not gens:
        return
    G = PermGroup(gens[0].degree, gens)
    blocks = G.orbits()
    covered = sorted(x for b in blocks for x in b)
    assert covered == list(range(G.degree))


@st.composite
def point_tables(draw):
    """1-4 image tables on n points, 1 <= n <= 40: the identity, random
    permutations and products of a few transpositions (mostly fixed
    points)."""
    n = draw(st.integers(1, 40))

    def swaps(pairs):
        images = list(range(n))
        for a, b in pairs:
            images[a], images[b] = images[b], images[a]
        return images

    point = st.integers(0, n - 1)
    table = st.one_of(st.just(list(range(n))), st.permutations(range(n)),
                      st.lists(st.tuples(point, point), max_size=3).map(swaps))
    return draw(st.lists(table, min_size=1, max_size=4)), n


def closure(tables, start):
    """The points reached from start, by repeated images until none is new."""
    found = {start}
    while True:
        more = found | {t[x] for t in tables for x in found}
        if more == found:
            return found
        found = more


@settings(deadline=None, max_examples=200)
@given(point_tables())
def test_orbits_partition_the_points(case):
    tables, n = case
    blocks = _orbits(tables, n)
    assert sorted(x for b in blocks for x in b) == list(range(n))
    least = [min(b) for b in blocks]
    assert least == sorted(least)
    for block in blocks:
        assert block[0] == min(block)
        assert block == _orbit(tables, block[0])
        assert set(block) == closure(tables, block[0])
        assert all(t[x] in block for t in tables for x in block)


def test_order_symmetric_group():
    G = PermGroup(3, [Perm.from_cycles(3, [(0, 1)]),
                      Perm.from_cycles(3, [(1, 2)])])
    assert G.order() == 6


def test_order_dm6_5():
    from flagmaps import build_degenerate
    assert build_degenerate(6, 5).monodromy_group().order() == 10


def test_membership_identity_group():
    G = PermGroup.trivial(2)
    assert not G.contains(Perm.from_cycles(2, [(0, 1)]))
    assert G.contains(Perm.identity(2))


# degree 8 often gives S8 or A8, whose oracle closure takes about 0.2 s
@settings(deadline=None, max_examples=40)
@given(st.integers(2, 8).flatmap(
    lambda n: st.tuples(st.lists(perm_strategy(n), min_size=1, max_size=4),
                        st.lists(perm_strategy(n), max_size=4))))
def test_order_matches_mulclose(data):
    gens, probes = data
    degree = gens[0].degree
    G = PermGroup(degree, gens)
    members = mulclose(gens)
    assert G.order() == len(members)
    assert set(G.elements()) == members
    ordered = sorted(members, key=lambda p: p.images)
    assert all(G.contains(p) for p in ordered[::max(1, len(ordered) // 100)])
    for p in probes:
        assert G.contains(p) == (p in members)


@pytest.mark.parametrize("n", [0, 1])
def test_composition_degree_below_two(n):
    # the one-key itemgetter edge: composition stays a tuple of images
    e = Perm.identity(n)
    assert (e * e).images == tuple(range(n))
    assert (e * e).is_identity()
    assert (e * e.inverse()) == e


def test_chain_order_budget():
    # Mon(DM6(500)) is regular, so order() would skip the chain: time it
    from flagmaps import build_degenerate
    start = time.perf_counter()
    assert build_degenerate(6, 500).monodromy_group().chain().order() == 1000
    assert time.perf_counter() - start < 3


def test_regular_order_budget():
    from flagmaps import build_degenerate
    G = build_degenerate(6, 500).monodromy_group()
    start = time.perf_counter()
    assert G.order() == 1000
    assert all(G.contains(g) for g in G.generators)
    assert not G.contains(Perm.from_cycles(1000, [(0, 1)]))
    assert G._chain is None
    assert time.perf_counter() - start < 0.3


def test_order_from_enumerated_elements():
    # a non-regular group whose elements are listed answers order() from
    # the list, with no chain; the degree bound still applies first
    G = symmetric(5)
    assert not G.is_regular()
    assert len(G.elements()) == 120
    assert G.order() == 120
    assert G._chain is None
    H = PermGroup(20_001, [Perm.from_cycles(20_001, [(0, 1)])])
    assert len(H.elements()) == 2
    with pytest.raises(BoundExceeded):
        H.order()


def test_listed_elements_still_answer_to_the_bound():
    from flagmaps import build_slightly_degenerate
    G = build_slightly_degenerate("epsilon", 10).monodromy_group()
    message = "^group exceeds element bound 20$"
    with pytest.raises(BoundExceeded, match=message):
        minimal_normal_subgroups(G, bound=20)
    assert len(G.elements()) == 40
    with pytest.raises(BoundExceeded, match=message):
        minimal_normal_subgroups(G, bound=20)
    with pytest.raises(BoundExceeded, match="^group exceeds element bound 5$"):
        G.elements(5)
    assert len(G.elements(40)) == 40


def test_known_order_raises_before_listing(monkeypatch):
    # with the order known (from a chain, or as the degree of a regular
    # group), elements(bound) raises before it lists a single element
    from flagmaps import build_slightly_degenerate
    walks = []
    walk = perm._numbered_orbit
    monkeypatch.setattr(perm, "_numbered_orbit",
                        lambda *args: walks.append(args) or walk(*args))
    s5 = PermGroup(5, [Perm((1, 2, 3, 4, 0)), Perm((1, 0, 2, 3, 4))])
    assert s5.order() == 120 and not s5.is_regular()
    regular = build_slightly_degenerate("epsilon", 10).monodromy_group()
    assert regular.is_regular()
    for G, bound in ((s5, 119), (regular, 39)):
        with pytest.raises(BoundExceeded,
                           match=f"^group exceeds element bound {bound}$"):
            G.elements(bound)
        with pytest.raises(BoundExceeded):
            minimal_normal_subgroups(G, bound)
        assert G._elements is None
    assert walks == []
    assert len(s5.elements(120)) == 120 and len(regular.elements(40)) == 40


def test_left_tables_are_left_multiplication():
    # regular groups read them from the centralizer, others grow them
    from flagmaps import (automorphism_group, build_degenerate,
                          build_slightly_degenerate)
    maps = [build_degenerate(7, 6), build_slightly_degenerate("delta", 6),
            build_slightly_degenerate("epsilon", 5)]
    groups = [m.monodromy_group() for m in maps]
    groups += [automorphism_group(m) for m in maps]
    groups.append(PermGroup(5, [Perm((1, 2, 3, 4, 0)), Perm((1, 0, 2, 3, 4))]))
    assert {G.is_regular() for G in groups} == {True, False}
    for G in groups:
        els = G.elements()
        where = {p: i for i, p in enumerate(els)}
        assert G._left_tables() == [[where[g * x] for x in els]
                                    for g in G.generators]


def test_degree_bound():
    with pytest.raises(BoundExceeded):
        PermGroup(20_001, [Perm.identity(20_001)]).chain()


def test_degree_bound_on_regular_groups():
    n = 20_001
    cycle = Perm(tuple((i + 1) % n for i in range(n)))
    with pytest.raises(BoundExceeded):
        PermGroup(n, [cycle]).order()
    with pytest.raises(BoundExceeded):
        PermGroup(n, [cycle]).contains(cycle)
    # the test itself is not bounded: it is the reflexibility test of maps
    assert PermGroup(n, [cycle]).is_regular()


def dihedral(n):
    rot = Perm(tuple((i + 1) % n for i in range(n)))
    flip = Perm(tuple((n - i) % n for i in range(n)))
    return PermGroup(n, [rot, flip])


def test_normal_closure_transposition_generates_s3():
    G = PermGroup(3, [Perm.from_cycles(3, [(0, 1)]),
                      Perm.from_cycles(3, [(1, 2)])])
    N = normal_closure(G, [Perm.from_cycles(3, [(0, 1)])])
    assert N.order() == 6


def test_normal_closure_center_of_d4():
    G = dihedral(4)
    center = G.generators[0] ** 2
    # oracle: the conjugation closure of the center is itself
    conjugates = {g.inverse() * center * g for g in mulclose(list(G.generators))}
    assert conjugates == {center}
    N = normal_closure(G, [center])
    assert N.order() == 2


def test_normal_closure_empty_seed():
    N = normal_closure(dihedral(4), [])
    assert N.order() == 1


def test_normal_closure_is_conjugation_invariant():
    import random
    rng = random.Random(7)
    G = dihedral(6)
    N = normal_closure(G, [G.generators[0] ** 2])
    for _ in range(100):
        # a random word in the generators of G
        w = Perm.identity(G.degree)
        for _ in range(rng.randrange(1, 8)):
            w = w * G.generators[rng.randrange(len(G.generators))]
        for h in N.generators:
            assert N.contains(w.inverse() * h * w)


def test_minimal_normals_klein_four():
    a = Perm.from_cycles(4, [(0, 1), (2, 3)])
    b = Perm.from_cycles(4, [(0, 2), (1, 3)])
    G = PermGroup(4, [a, b])
    minimals = minimal_normal_subgroups(G)
    assert len(minimals) == 3
    assert all(N.order() == 2 for N in minimals)


def test_minimal_normals_c4_sphere(c4_sphere):
    mon = c4_sphere.monodromy_group()
    assert mon.order() == 16
    assert len(minimal_normal_subgroups(mon)) == 3


def test_minimal_normals_d4_center_only():
    minimals = minimal_normal_subgroups(dihedral(4))
    assert len(minimals) == 1
    assert minimals[0].order() == 2


@pytest.mark.parametrize("n", [3, 4, 5, 6, 8, 12])
def test_minimal_normals_match_bruteforce_dihedral(n):
    G = dihedral(n)
    got = {frozenset(N.elements()) for N in minimal_normal_subgroups(G)}
    assert got == set(map(frozenset, minimal_normals_brute(G)))


@st.composite
def small_groups(draw):
    """Groups of degree <= 7 whose generators keep {0..cut-1} and
    {cut..n-1} apart, so that direct-product-like groups come up often."""
    n = draw(st.integers(3, 7))
    cut = draw(st.integers(0, n))
    gens = []
    for _ in range(draw(st.integers(2, 3))):
        left = draw(st.permutations(range(cut)))
        right = draw(st.permutations(range(cut, n)))
        gens.append(Perm(list(left) + list(right)))
    return PermGroup(n, gens)


@settings(deadline=None, max_examples=60)
@given(small_groups())
def test_minimal_normals_match_bruteforce_random(G):
    # the oracle's multiplication table is quadratic in the group order
    if G.order() > 360:
        return
    got = [frozenset(N.elements()) for N in minimal_normal_subgroups(G)]
    assert sorted(got, key=len) == got
    assert set(got) == set(map(frozenset, minimal_normals_brute(G)))


def element_sets(groups):
    return [frozenset(N.elements()) for N in groups]


def assert_matches_reference(G):
    """The same subgroups, in the same order, and the same classes as the
    reference searches kept in ``oracles``, and the same generators as the
    union-find one; each on a new group object, so that no element list is
    shared."""
    fresh = lambda: PermGroup(G.degree, G.generators)
    got = minimal_normal_subgroups(fresh())
    assert element_sets(got) == element_sets(
        oracles.minimal_normal_subgroups(fresh()))
    assert [N.generators for N in got] == [
        N.generators
        for N in oracles.minimal_normal_subgroups_union_find(fresh())]
    assert conjugacy_classes(fresh()) == oracles.conjugacy_classes(fresh())
    return got


@settings(deadline=None, max_examples=80)
@given(small_groups(), st.data())
def test_minimal_normals_match_reference(G, data):
    got = assert_matches_reference(G)
    for N in got:  # generated by the class of its least nontrivial element
        least = sorted(N.elements(), key=lambda p: p.images)[1]
        assert N.generators == tuple(next(
            c for c in conjugacy_classes(G) if least in c))
    order = G.order()
    if order == 1:
        return
    bound = data.draw(st.integers(1, order - 1), label="bound")
    for search in (minimal_normal_subgroups, oracles.minimal_normal_subgroups):
        with pytest.raises(BoundExceeded):
            search(PermGroup(G.degree, G.generators), bound)
    assert element_sets(minimal_normal_subgroups(
        PermGroup(G.degree, G.generators), order)) == element_sets(got)


@pytest.mark.parametrize("family, top", [
    ("DM6", 24), ("DM7", 24), ("DM8", 24), ("epsilon", 16), ("delta", 16)])
def test_minimal_normals_of_families_match_reference(family, top):
    from flagmaps import build_degenerate, build_slightly_degenerate
    for k in range(2, top + 1):
        m = (build_degenerate(int(family[2]), k) if family.startswith("DM")
             else build_slightly_degenerate(family, k))
        assert_matches_reference(m.monodromy_group())


def test_minimal_normals_of_aut_match_reference(constructions):
    from flagmaps import automorphism_group
    for _, m in constructions:
        assert_matches_reference(automorphism_group(m))


S4 = PermGroup(4, [Perm.from_cycles(4, [(0, 1, 2, 3)]),
                  Perm.from_cycles(4, [(0, 1)])])
# PSL(2,7) on the seven points of the Fano plane with lines {i, i+1, i+3}
PSL27 = PermGroup(7, [Perm(tuple((i + 1) % 7 for i in range(7))),
                      Perm.from_cycles(7, [(2, 4), (5, 6)])])


@pytest.mark.parametrize("G, order", [(S4, 4), (PSL27, 168)],
                         ids=["S4", "PSL(2,7)"])
def test_minimal_normals_match_bruteforce_named(G, order):
    # both have classes of order 4, which are never closed; the one
    # minimal normal subgroup is V4 in S4 and all of the simple PSL(2,7)
    assert any(p.order() == 4 for p in G.elements())
    minimals = minimal_normal_subgroups(G)
    got = {frozenset(N.elements()) for N in minimals}
    assert got == set(map(frozenset, minimal_normals_brute(G)))
    assert [N.order() for N in minimals] == [order]


@pytest.mark.parametrize("n", [4, 5, 7])
def test_minimal_normals_of_symmetric_groups_match_reference(n):
    # on its points S_n is not semiregular, so elements are named by their
    # image tuples; V4 in S4, A_n beyond
    got = assert_matches_reference(symmetric(n))
    assert [N.order() for N in got] == [4 if n == 4 else factorial(n) // 2]


def assert_closure_invariants(G, monkeypatch):
    """Run the search on G, recording each class closure: the element
    list, the class, the element names, the dead names it was handed and
    what it returned.  Classes are closed smallest first, ties in index
    order; each closure is handed as dead exactly the elements of the
    classes visited before it and of the classes of their powers, and no
    such class is closed again."""
    calls = []
    original = perm._class_closure

    def spy(els, cls, names, where, dead, by_point):
        before = frozenset(dead)
        found = original(els, cls, names, where, dead, by_point)
        calls.append((els, list(cls), names, before, found))
        return found

    monkeypatch.setattr(perm, "_class_closure", spy)
    minimals = minimal_normal_subgroups(G)
    monkeypatch.undo()
    if not calls:
        return minimals, calls
    els = calls[0][0]
    index = {p: i for i, p in enumerate(els)}
    class_of = {p: cls for cls in oracles.conjugacy_classes(G) for p in cls}
    expected = set()
    heads = []
    for _, cls, names, dead, _ in calls:
        assert dead == expected
        assert names[cls[0]] not in expected
        heads.append((len(cls), cls[0]))
        x = els[cls[0]]
        for k in range(1, x.order()):
            expected |= {names[index[y]] for y in class_of[x ** k]}
    assert heads == sorted(heads)
    return minimals, calls


def test_minimal_normals_close_smallest_class_first(monkeypatch):
    # in S7 the transpositions are closed first and complete all of S7,
    # which is not minimal; the 3-cycles complete A7, and every later
    # closure meets a class already visited and is dropped
    G = symmetric(7)
    minimals, calls = assert_closure_invariants(G, monkeypatch)
    assert [len(cls) for _, cls, _, _, _ in calls][:2] == [21, 70]
    assert [None if found is None else len(found)
            for *_, found in calls] == [5040, 2520] + [None] * 5
    assert [N.order() for N in minimals] == [2520]


def cyclic(n):
    return PermGroup(n, [Perm(tuple((i + 1) % n for i in range(n)))])


@pytest.mark.parametrize("G", [dihedral(5), dihedral(12), cyclic(15)],
                         ids=["D5", "D12", "C15"])
def test_minimal_normals_skip_power_classes(monkeypatch, G):
    # a rotation r of the n-gon is conjugate to r^-1 only, and in the
    # regular C15 every element is its own class, so the classes of the
    # other powers are marked when the class of r is visited
    minimals, _ = assert_closure_invariants(G, monkeypatch)
    assert set(element_sets(minimals)) == set(
        map(frozenset, minimal_normals_brute(G)))


@settings(deadline=None, max_examples=40)
@given(small_groups())
def test_minimal_normals_closure_invariants(G):
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_closure_invariants(G, monkeypatch)


def test_minimal_normals_budget():
    from flagmaps import build_degenerate
    G = symmetric(7)
    start = time.perf_counter()
    assert [N.order() for N in minimal_normal_subgroups(G)] == [2520]
    assert time.perf_counter() - start < 0.5
    G = build_degenerate(6, 500).monodromy_group()
    start = time.perf_counter()
    assert len(minimal_normal_subgroups(G)) == 2
    assert time.perf_counter() - start < 0.5


def test_minimal_normals_properties(c4_sphere, tetrahedron):
    for m in (c4_sphere, tetrahedron):
        G = m.monodromy_group()
        minimals = minimal_normal_subgroups(G)
        for N in minimals:
            assert not N.is_trivial()
            assert is_normal_in(N, G)
        for i, N1 in enumerate(minimals):
            for N2 in minimals[i + 1:]:
                shared = set(N1.elements()) & set(N2.elements())
                assert shared == {Perm.identity(G.degree)}


def test_congruent_identical():
    G = dihedral(5)
    lg = LabeledGenerators(("a", "b"), G.generators)
    assert congruent_labeled_groups(lg, lg)


def tlr_labeled(m):
    return LabeledGenerators(("t", "l", "r"), m.generators())


def test_congruent_dm2_vs_dm3():
    from flagmaps import build_degenerate
    dm2, dm3 = build_degenerate(2), build_degenerate(3)
    assert not congruent_labeled_groups(tlr_labeled(dm2), tlr_labeled(dm3))


def test_congruent_eps2_vs_product():
    from flagmaps import build_degenerate, build_slightly_degenerate
    eps2 = build_slightly_degenerate("epsilon", 2)
    prod = parallel_product(build_degenerate(7, 2), build_degenerate(3)).product
    assert congruent_labeled_groups(tlr_labeled(eps2), tlr_labeled(prod))


def test_congruent_rejects_label_mismatch():
    G = dihedral(3)
    with pytest.raises(ValueError):
        congruent_labeled_groups(
            LabeledGenerators(("a", "b"), G.generators),
            LabeledGenerators(("a", "c"), G.generators))


def test_conjugacy_classes_partition():
    G = dihedral(6)
    classes = conjugacy_classes(G)
    elements = sorted(G.elements(), key=lambda p: p.images)
    flattened = sorted((p for c in classes for p in c), key=lambda p: p.images)
    assert flattened == elements


def test_group_file_round_trip():
    G = dihedral(4)
    lg = LabeledGenerators(("rot", "flip"), G.generators)
    text = format_group_file(lg)
    back = parse_group_file(text)
    assert back == lg
    assert format_group_file(back) == text


def test_group_file_errors():
    with pytest.raises(ValueError):
        parse_group_file("gen a 0 1\n")  # no degree line
    with pytest.raises(ValueError):
        parse_group_file("degree 2\ngen a 0 0\n")  # not a bijection


# --- regular groups: order and membership from the point tables -------------

def right_regular(G):
    """The right regular representation of G, on its element list."""
    els = G.elements()
    index = {p: i for i, p in enumerate(els)}
    return PermGroup(len(els), [Perm(index[e * g] for e in els)
                                for g in G.generators])


@st.composite
def regular_groups(draw):
    """Mon of the smallest reflexible cover of a random map, or the right
    regular representation of a small group."""
    if draw(st.booleans()):
        from flagmaps import smallest_reflexible_cover
        from .conftest import random_rooted_map
        rng = random.Random(draw(st.integers(0, 2**32), label="map seed"))
        m = random_rooted_map(rng, draw(st.integers(1, 3)))
        try:
            return smallest_reflexible_cover(m, bound=720).monodromy_group()
        except BoundExceeded:
            pass
    G = draw(small_groups())
    assume(G.order() <= 720)
    return right_regular(G)


def assert_answers_match_chain(G, probes):
    """order() and contains() agree with a stabilizer chain built on a
    separate group object (an existing chain would answer for G itself)."""
    chain = PermGroup(G.degree, G.generators).chain()
    assert G.order() == chain.order()
    for p in probes:
        assert G.contains(p) == chain.contains(p)


@settings(deadline=None, max_examples=60)
@given(regular_groups(), st.randoms(use_true_random=False))
def test_regular_groups_answer_from_point_tables(G, rng):
    assert G.is_regular()
    members = mulclose(list(G.generators) or [Perm.identity(G.degree)])
    assert G.order() == len(members) == G.degree
    ordered = sorted(members, key=lambda p: p.images)
    sample = rng.sample(ordered, min(len(ordered), 30))
    # non-members: a transposition times a member (past degree 2 a regular
    # group has no transposition), and random permutations
    points = list(range(G.degree))
    near = [Perm.from_cycles(G.degree, [rng.sample(points, 2)]) * p
            for p in sample[:10]] if G.degree > 2 else []
    shuffled = [Perm(rng.sample(points, len(points))) for _ in range(10)]
    probes = sample + near + shuffled
    for p in probes:
        assert G.contains(p) == (p in members)
    assert not any(G.contains(p) for p in near)
    assert_answers_match_chain(G, probes)
    assert G._chain is None


def symmetric(n):
    return PermGroup(n, [Perm(tuple((i + 1) % n for i in range(n))),
                         Perm.from_cycles(n, [(0, 1)])])


# AGL(1,7): x -> ax + b on Z/7, generated by x + 1 and 3x
AGL17 = PermGroup(7, [Perm(tuple((x + 1) % 7 for x in range(7))),
                      Perm(tuple(3 * x % 7 for x in range(7)))])


@pytest.mark.parametrize("G", [symmetric(n) for n in (3, 4, 5, 6)]
                         + [dihedral(n) for n in (3, 4, 5, 8)] + [AGL17],
                         ids=[f"S{n}" for n in (3, 4, 5, 6)]
                         + [f"D{n}" for n in (3, 4, 5, 8)] + ["AGL(1,7)"])
def test_transitive_groups_that_are_not_regular(G):
    assert G.is_transitive() and not G.is_regular()
    members = sorted(mulclose(list(G.generators)), key=lambda p: p.images)
    rng = random.Random(G.degree)
    points = list(range(G.degree))
    probes = members[::3] + [Perm(rng.sample(points, G.degree))
                             for _ in range(20)]
    assert_answers_match_chain(G, probes)
    assert G.order() == len(members)


def test_aut_of_constructions_is_regular_iff_reflexible(constructions):
    from flagmaps import automorphism_group
    kinds = set()
    for _, m in constructions:
        aut = automorphism_group(m)
        reflexible = len(oracles.automorphisms_brute(m)) == m.n_flags
        kinds.add(reflexible)
        # Aut is semiregular; regular exactly when transitive
        assert aut.is_regular() == reflexible
        assert_answers_match_chain(aut, list(aut.elements())
                                   + list(m.generators()))
    assert kinds == {False, True}


def test_regular_groups_named():
    cyclic = PermGroup(6, [Perm(tuple((i + 1) % 6 for i in range(6)))])
    klein = PermGroup(4, [Perm.from_cycles(4, [(0, 1), (2, 3)]),
                          Perm.from_cycles(4, [(0, 2), (1, 3)])])
    assert cyclic.is_regular() and klein.is_regular()
    assert PermGroup.trivial(1).is_regular()
    assert not PermGroup.trivial(2).is_regular()
    # semiregular but not transitive
    assert not PermGroup(4, [Perm.from_cycles(4, [(0, 1), (2, 3)])]).is_regular()
    assert klein.order() == 4
    assert not klein.contains(Perm.from_cycles(4, [(0, 1)]))
    assert klein.contains(Perm.from_cycles(4, [(0, 3), (1, 2)]))
    assert not klein.contains(Perm.identity(5))
