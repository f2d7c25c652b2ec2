import random
import time
from math import factorial, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flagmaps import (BoundExceeded, LabeledGenerators, Perm, PermGroup,
                      congruent_labeled_groups, minimal_normal_subgroups,
                      normal_closure, parallel_product, perm)
from flagmaps.perm import (_breadth_first_tree, _orbit_partition,
                           conjugacy_classes, format_group_file,
                           is_normal_in, parse_group_file)

from . import oracles, reference_search
from .conftest import count_calls, element_bound
from .oracles import breadth_first_numbering, minimal_normals_brute, mulclose


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
    # one walk lists the orbits, numbered by least point and each breadth
    # first from it, and numbers each point by its orbit
    tables, n = case
    orbit_of, orbits = _orbit_partition(tables, n)
    assert sorted(x for o in orbits for x in o) == list(range(n))
    for orbit in orbits:
        assert orbit == list(breadth_first_numbering(tables, orbit[0]))
        assert set(orbit) == closure(tables, orbit[0])
        assert all(t[x] in orbit for t in tables for x in orbit)


@settings(deadline=None, max_examples=200)
@given(point_tables(), st.data())
def test_breadth_first_tree_records_first_discoveries(case, data):
    # the walk meets the points as a queue-driven search does, and each
    # reached point's parent is the first (a, j) in walk order whose image
    # a . g_j it is; points off the root's orbit have none
    tables, n = case
    root = data.draw(st.integers(0, n - 1))
    order, parent = _breadth_first_tree(tables, root, n)
    assert order == list(breadth_first_numbering(tables, root))
    assert parent[root] == (root, -1)
    first = {}
    for a in order:
        for j, images in enumerate(tables):
            first.setdefault(images[a], (a, j))
    for c in order[1:]:
        a, j = parent[c]
        assert tables[j][a] == c and parent[c] == first[c]
    assert all(parent[x] is None for x in set(range(n)) - set(order))


@settings(deadline=None, max_examples=200)
@given(point_tables())
def test_orbit_labels_number_the_orbits_by_least_point(case):
    # each point's label is the index of its orbit, and the orbits are
    # numbered in the order of their least points, which they list first
    tables, n = case
    orbit_of, orbits = _orbit_partition(tables, n)
    least = [min(o) for o in orbits]
    assert least == sorted(least)
    assert [o[0] for o in orbits] == least
    assert len(orbit_of) == n
    assert orbit_of == [next(i for i, o in enumerate(orbits) if x in o)
                        for x in range(n)]


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


def split_perm_strategy(n, k):
    """Permutations of n points that keep {0..k-1}: for k < n they
    generate an intransitive group."""
    return st.tuples(st.permutations(range(k)),
                     st.permutations(range(k, n))).map(
        lambda parts: Perm(parts[0] + parts[1]))


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 8).flatmap(lambda n: st.integers(1, n).flatmap(
    lambda k: st.tuples(
        st.lists(split_perm_strategy(n, k), min_size=1, max_size=3),
        st.lists(st.integers(0, 2), max_size=3),
        st.integers(0, 3),
        st.lists(perm_strategy(n), max_size=4)))))
def test_chain_matches_mulclose_with_repeated_and_identity_generators(data):
    # the chain itself, not PermGroup, which drops identity generators:
    # repeats and identities sift to the identity and change nothing
    gens, repeats, identity_at, probes = data
    degree = gens[0].degree
    given_gens = list(gens) + [gens[i % len(gens)] for i in repeats]
    given_gens.insert(min(identity_at, len(given_gens)),
                      Perm.identity(degree))
    chain = perm.StabilizerChain(given_gens, degree)
    members = mulclose(gens)
    assert chain.order() == len(members)
    assert all(map(chain.contains, members))
    for p in probes:
        assert chain.contains(p) == (p in members)
    assert not chain.contains(Perm.identity(degree + 1))


@pytest.mark.parametrize("n", [0, 1])
def test_composition_degree_below_two(n):
    # the one-key itemgetter edge: composition stays a tuple of images
    e = Perm.identity(n)
    assert (e * e).images == tuple(range(n))
    assert (e * e).is_identity()
    assert (e * e.inverse()) == e


@given(st.integers(1, 9).flatmap(lambda n: st.lists(
    st.permutations(range(n)), min_size=3, max_size=3)))
def test_table_primitives_match_dicts(tables):
    # degree 1 takes the one-key branch of _read
    p, q, order = tables
    assert perm._read(p, perm._inverse(p)) == tuple(range(len(p)))
    dp, dq = dict(enumerate(p)), dict(enumerate(q))
    assert (Perm(p) * Perm(q)).images == tuple(dq[dp[x]] for x in dp)
    inverse = {y: x for x, y in dp.items()}
    assert Perm(p).inverse().images == tuple(inverse[x] for x in dp)
    name = {x: i for i, x in enumerate(order)}
    renamed = [{name[x]: name[y] for x, y in d.items()} for d in (dp, dq)]
    assert perm._relabel([p, q], order) == [
        [d[i] for i in range(len(p))] for d in renamed]


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
    # S5 is neither regular nor named by its centralizer's orbits, so it
    # is listed on its chain's base, one name per element of the chain;
    # the chain's degree bound applies to such a listing as to order()
    G = symmetric(5)
    assert not G.is_regular()
    assert len(G.elements()) == 120
    assert G.order() == 120
    assert (symmetric(5)._listed().count
            == G.chain().order() == 120)
    H = PermGroup(20_001, [Perm.from_cycles(20_001, [(0, 1)])])
    with pytest.raises(BoundExceeded):
        H.elements()
    with pytest.raises(BoundExceeded):
        H.order()


def test_listed_elements_still_answer_to_the_bound():
    from flagmaps import build_slightly_degenerate
    G = build_slightly_degenerate("epsilon", 10).monodromy_group()
    message = "^group exceeds element bound 20$"
    with element_bound(20), pytest.raises(BoundExceeded, match=message):
        minimal_normal_subgroups(G)
    assert len(G.elements()) == 40
    with element_bound(20), pytest.raises(BoundExceeded, match=message):
        minimal_normal_subgroups(G)
    with element_bound(5), pytest.raises(
            BoundExceeded, match="^group exceeds element bound 5$"):
        G.elements()
    with element_bound(40):
        assert len(G.elements()) == 40


def test_known_order_raises_before_listing(monkeypatch):
    # with the order known (from a chain, or as the degree of a regular
    # group), elements() raises past the element bound before it lists a
    # single element
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
        monkeypatch.setattr(perm, "DEFAULT_ELEMENT_BOUND", bound)
        with pytest.raises(BoundExceeded,
                           match=f"^group exceeds element bound {bound}$"):
            G.elements()
        with pytest.raises(BoundExceeded):
            minimal_normal_subgroups(G)
        assert walks == []
    for G, order in ((s5, 120), (regular, 40)):
        monkeypatch.setattr(perm, "DEFAULT_ELEMENT_BOUND", order)
        assert len(G.elements()) == order


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
        listing = G._listed()
        images = listing.image_builder()
        els = [Perm(images(i)) for i in range(listing.count)]
        where = {p: i for i, p in enumerate(els)}
        assert len(where) == G.order()
        assert [list(t) for t in listing.left] == [
            [where[g * x] for x in els] for g in G.generators]
        assert [list(t) for t in listing.right] == [
            [where[x * g] for x in els] for g in G.generators]
        name_of = listing.times(listing.names[0])
        assert [listing.where[name_of(x.images)]
                for x in els] == list(range(len(els)))


def test_degree_bound():
    with pytest.raises(BoundExceeded):
        PermGroup(20_001, [Perm.identity(20_001)]).chain()


def test_degree_bound_on_regular_groups():
    # the bound is the stabilizer chain's: a regular group past it reads
    # its order and its members off its regularity, and builds no chain
    n = 20_001
    cycle = Perm(tuple((i + 1) % n for i in range(n)))
    assert PermGroup(n, [cycle]).order() == n
    assert PermGroup(n, [cycle]).contains(cycle)
    assert not PermGroup(n, [cycle]).contains(
        Perm(tuple(-i % n for i in range(n))))
    # the test itself is not bounded: it is the reflexibility test of maps
    assert PermGroup(n, [cycle]).is_regular()
    with pytest.raises(BoundExceeded):
        PermGroup(n, [cycle]).chain()


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
    reference searches kept in ``reference_search``, and the same
    generators as the union-find one; each on a new group object, so that
    no element list is shared."""
    fresh = lambda: PermGroup(G.degree, G.generators)
    got = minimal_normal_subgroups(fresh())
    assert element_sets(got) == element_sets(
        reference_search.minimal_normal_subgroups(fresh()))
    assert [N.generators for N in got] == [
        N.generators for N in
        reference_search.minimal_normal_subgroups_union_find(fresh())]
    assert (conjugacy_classes(fresh())
            == reference_search.conjugacy_classes(fresh()))
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
    with element_bound(bound), pytest.raises(BoundExceeded):
        minimal_normal_subgroups(PermGroup(G.degree, G.generators))
    with pytest.raises(BoundExceeded):
        reference_search.minimal_normal_subgroups(
            PermGroup(G.degree, G.generators), bound)
    with element_bound(order):
        assert element_sets(minimal_normal_subgroups(
            PermGroup(G.degree, G.generators))) == element_sets(got)


def test_stream_places_subgroups_found_at_different_class_sizes():
    # Z3 x S3 on 6 points: Z3 x 1 is closed from a class of one element,
    # 1 x A3 from a class of two, and both have order 3; the stream may
    # yield the first only once the classes reach three elements, and
    # which of the two comes first depends on the labeling
    rng = random.Random(20261020)
    firsts = set()
    for _ in range(60):
        relabel = rng.sample(range(6), 6)
        G = PermGroup(6, [Perm.from_cycles(6, [tuple(relabel[x] for x in c)
                                                for c in cycles])
                          for cycles in ([(0, 1, 2)], [(3, 4, 5)], [(3, 4)])])
        got = list(perm._minimal_normals(G))
        assert [N.generators for N in got] == [
            N.generators for N in
            reference_search.minimal_normal_subgroups_union_find(
                PermGroup(G.degree, G.generators))]
        assert [N.order() for N in got] == [3, 3]
        firsts.add(len(got[0].generators))
    assert firsts == {1, 2}


def test_stream_yields_before_closing_every_class(monkeypatch):
    # the epsilon map of k = 12 has a regular Mon with three minimal
    # normal subgroups; the first two are yielded before the classes
    # after them are closed
    from flagmaps import build_slightly_degenerate
    mon = build_slightly_degenerate("epsilon", 12).monodromy_group()
    closures = []
    original = perm._class_closure

    def counted(*args):
        closures.append(args[2])
        return original(*args)

    monkeypatch.setattr(perm, "_class_closure", counted)
    every = minimal_normal_subgroups(mon)
    all_closures = len(closures)
    del closures[:]
    stream = perm._minimal_normals(mon)
    first_two = [next(stream), next(stream)]
    assert [N.generators for N in first_two] == [
        N.generators for N in every[:2]]
    assert len(every) >= 3 and len(closures) < all_closures


def test_hash_lists_no_element():
    # equal groups have one degree and one order; S9 is past the element
    # bound, and two generating sets of S5 give one hash
    s9 = PermGroup(9, [Perm.from_cycles(9, [tuple(range(9))]),
                       Perm.from_cycles(9, [(0, 1)])])
    assert hash(s9) == hash((9, factorial(9)))
    with pytest.raises(BoundExceeded):
        s9.elements()
    a = PermGroup(5, [Perm.from_cycles(5, [(0, 1, 2, 3, 4)]),
                      Perm.from_cycles(5, [(0, 1)])])
    b = PermGroup(5, [Perm.from_cycles(5, [(0, 1)]),
                      Perm.from_cycles(5, [(1, 2)]),
                      Perm.from_cycles(5, [(2, 3)]),
                      Perm.from_cycles(5, [(3, 4)])])
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


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

    def spy(listing, images, cls, dead):
        before = frozenset(dead)
        found = original(listing, images, cls, dead)
        calls.append((listing, images, list(cls), before, found))
        return found

    monkeypatch.setattr(perm, "_class_closure", spy)
    minimals = minimal_normal_subgroups(G)
    monkeypatch.undo()
    if not calls:
        return minimals, calls
    listing, images = calls[0][:2]
    names, name_of = listing.names, listing.times(listing.names[0])
    class_of = {p: cls for cls in reference_search.conjugacy_classes(G)
                for p in cls}
    expected = set()
    heads = []
    for _, _, cls, dead, _ in calls:
        assert dead == expected
        assert names[cls[0]] not in expected
        heads.append((len(cls), cls[0]))
        x = Perm(images(cls[0]))
        for k in range(1, x.order()):
            expected |= {name_of(y.images) for y in class_of[x ** k]}
    assert heads == sorted(heads)
    return minimals, calls


def test_minimal_normals_close_smallest_class_first(monkeypatch):
    # in S7 the transpositions are closed first and complete all of S7,
    # which is not minimal; the 3-cycles complete A7, and every later
    # closure meets a class already visited and is dropped
    G = symmetric(7)
    minimals, calls = assert_closure_invariants(G, monkeypatch)
    assert [len(cls) for _, _, cls, _, _ in calls][:2] == [21, 70]
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
            with element_bound(720):
                return smallest_reflexible_cover(m).monodromy_group()
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


QUERIES = ("order", "is_regular", "elements", "contains",
           "minimal_normal_subgroups")


def answer(G, query, probes, bound):
    """G's answer to one of QUERIES under the element bound ``bound``, a
    bound exceeded being an answer."""
    try:
        if query == "order":
            return G.order()
        if query == "is_regular":
            return G.is_regular()
        if query == "contains":
            return [G.contains(p) for p in probes]
        with element_bound(bound):
            if query == "elements":
                return G.elements()
            return [(N.generators, N.order())
                    for N in minimal_normal_subgroups(G)]
    except BoundExceeded as exc:
        return str(exc)


def taught(G, source, order):
    """A new group on G's generators that has learned its order from
    ``source``: a regularity test (which teaches only a regular group),
    the count of a listing, the order handed in, or the chain of
    ``normal_closure``, whose generators may be fewer."""
    if source == "chain":
        return normal_closure(PermGroup(G.degree, G.generators),
                              G.generators)
    H = PermGroup(G.degree, G.generators)
    if source == "regularity":
        H.is_regular()
    elif source == "listing":
        H.elements()
    else:
        H._order = order
    return H


@settings(deadline=None, max_examples=60)
@given(st.one_of(regular_groups(), small_groups()),
       st.sampled_from(("regularity", "listing", "handed", "chain")),
       st.permutations(QUERIES), st.booleans(),
       st.randoms(use_true_random=False))
def test_order_bookkeeping_answers_alike_in_any_order(G, source, queries,
                                                      short, rng):
    # whatever a group learned its order from, and in whatever order it is
    # asked, it answers as a new group asked in a fixed order, order()
    # first; the order, once known, is kept in _order; a regular group
    # builds no chain, a group with a chain answers order() and contains()
    # with no regularity test, and once the order is known elements()
    # under an element bound below it raises before anything is walked
    order = PermGroup(G.degree, G.generators).chain().order()
    H, early = taught(G, source, order), taught(G, source, order)
    knows = H._order is not None or H._chain is not None
    assert knows == (source != "regularity" or H.is_regular())
    bound = order - 1 if short else order
    points = list(range(G.degree))
    probes = [g * h for g in H.generators for h in H.generators] + [
        Perm(rng.sample(points, len(points))) for _ in range(5)]
    reference = PermGroup(H.degree, H.generators)
    expected = {}
    for query in QUERIES:
        expected[query] = answer(reference, query, probes, bound)
        assert reference._order == order
    with pytest.MonkeyPatch.context() as mp:
        tested = count_calls(mp, perm, "_left_tables")
        walks = count_calls(mp, perm, "_numbered_orbit")
        if knows:
            with element_bound(order - 1), pytest.raises(BoundExceeded):
                early.elements()
            assert walks == [] and early._order == order
        for query in queries:
            before = len(tested)
            assert answer(H, query, probes, bound) == expected[query], query
            if source == "chain" and query in ("order", "contains"):
                assert len(tested) == before, query
    if expected["is_regular"]:
        assert reference._chain is None
        assert source == "chain" or H._chain is None
    assert H._order == order


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


def cycle_walk(images):
    """The nontrivial cycles, each from its least point, walked on a dict
    of the points not yet reached."""
    unvisited = dict(enumerate(images))
    cycles = []
    while unvisited:
        start = min(unvisited)
        cycle, x = [start], unvisited.pop(start)
        while x != start:
            cycle.append(x)
            x = unvisited.pop(x)
        if len(cycle) > 1:
            cycles.append(tuple(cycle))
    return cycles


@given(st.integers(1, 9).flatmap(perm_strategy))
def test_cycles_order_and_repr_match_a_cycle_walk(p):
    cycles = cycle_walk(p.images)
    assert p.cycles() == cycles
    assert p.order() == lcm(*map(len, cycles))
    body = "".join("(" + " ".join(map(str, c)) + ")" for c in cycles)
    assert repr(p) == (f"Perm[{body}]" if cycles
                       else f"Perm.identity({p.degree})")
    assert Perm.from_cycles(p.degree, cycles) == p


@st.composite
def table_triples(draw):
    """(f, s, d): f maps n points into m, s maps the n and d the m points
    into themselves.  Half the time s[x] is a point over d[f[x]] wherever
    there is one, so that the equations at x hold."""
    n = draw(st.integers(1, 9))
    m = draw(st.integers(1, 9))
    f = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    d = draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m))
    s = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    if draw(st.booleans()):
        over = {y: x for x, y in enumerate(f)}
        s = [over.get(d[f[x]], s[x]) for x in range(n)]
    return f, s, d


@given(table_triples())
def test_intertwines_is_the_per_point_definition(tables):
    f, s, d = tables
    assert perm._intertwines(f, s, d) == all(
        f[s[x]] == d[f[x]] for x in range(len(f)))


@given(st.integers(1, 9).flatmap(
    lambda n: st.tuples(perm_strategy(n), perm_strategy(n))))
def test_intertwines_with_itself_is_commuting(pair):
    p, q = pair
    assert perm._intertwines(p.images, q.images, q.images) == (p * q == q * p)
