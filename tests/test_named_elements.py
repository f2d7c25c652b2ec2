"""Elements named by the images of a base (``perm.Listing``): the
minimal-normal search on them against the search that listed every
element as its full image tuple (kept in ``tests/reference_search.py``),
the other readers of the listing against the oracles, and what the
search builds and where it stops."""

import random
from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagmaps import (BoundExceeded, LabeledGenerators, Perm, PermGroup,
                      RootedMap, analyze_map, automorphism_group,
                      build_degenerate, build_slightly_degenerate,
                      construct_from_group, minimal_normal_subgroups, perm)
from flagmaps.mapcore import triality_composites
from flagmaps.perm import Listing, conjugacy_classes

from . import oracles, reference_search
from .conftest import random_rooted_map

# <(0 1)(2 3), (2 3)> acts regularly on the orbit {0, 1} of point 0, yet
# has order 4: (2 3) fixes that orbit, so naming elements by the image of
# 0 would merge them in pairs
KERNEL_ON_ORBIT_OF_0 = PermGroup(4, [Perm.from_cycles(4, [(0, 1), (2, 3)]),
                                     Perm.from_cycles(4, [(2, 3)])])


def symmetric(n):
    return PermGroup(n, [Perm(tuple((i + 1) % n for i in range(n))),
                         Perm.from_cycles(n, [(0, 1)])])


def alternating(n):
    return PermGroup(n, [Perm.from_cycles(n, [(0, 1, i)])
                         for i in range(2, n)])


def assert_same_search(G):
    """The same subgroups, in the same order, with the same generators and
    orders as the full-tuple search, each on a new group object."""
    fresh = lambda: PermGroup(G.degree, G.generators)
    got = minimal_normal_subgroups(fresh())
    expected = reference_search.minimal_normal_subgroups_full_tuples(fresh())
    assert [N.generators for N in got] == [N.generators for N in expected]
    assert [N.order() for N in got] == [len(N.elements()) for N in expected]
    assert ([frozenset(N.elements()) for N in got]
            == [frozenset(N.elements()) for N in expected])
    return got


def family_maps():
    return ([build_degenerate(i, k) for i in (6, 7, 8) for k in range(2, 13)]
            + [build_slightly_degenerate(family, k)
               for family in ("epsilon", "delta") for k in range(2, 11)])


def test_family_maps_match_full_tuple_search():
    for m in family_maps():
        assert_same_search(m.monodromy_group())
        assert_same_search(automorphism_group(m))


def test_constructions_match_full_tuple_search(constructions):
    for _, m in constructions:
        assert_same_search(m.monodromy_group())
        assert_same_search(automorphism_group(m))


def test_random_maps_match_full_tuple_search(random_maps):
    rng = random.Random(20261019)
    maps = random_maps + [random_rooted_map(rng, rng.randint(1, 4))
                          for _ in range(30)]
    searched = 0
    for m in maps:
        for G in (m.monodromy_group(), automorphism_group(m)):
            if G.order() <= 5_000:
                assert_same_search(G)
                searched += 1
    assert searched > 100


@pytest.mark.parametrize("n", range(2, 8))
def test_symmetric_and_alternating_groups_match_full_tuple_search(n):
    assert [N.order() for N in assert_same_search(symmetric(n))] == (
        [2] if n == 2 else [3] if n == 3 else [4] if n == 4
        else [factorial(n) // 2])
    if n >= 3:
        assert_same_search(alternating(n))


def test_a_regular_orbit_of_0_is_not_enough():
    assert_same_search(KERNEL_ON_ORBIT_OF_0)
    listing = PermGroup(4, KERNEL_ON_ORBIT_OF_0.generators)._listed()
    assert listing.count == 4
    assert len(set(listing.names)) == 4
    assert conjugacy_classes(KERNEL_ON_ORBIT_OF_0) == [
        [p] for p in sorted(oracles.mulclose(
            list(KERNEL_ON_ORBIT_OF_0.generators)), key=lambda p: p.images)]


def test_every_group_on_three_points_matches():
    # every generating set of at most two permutations of three points,
    # transitive or not
    perms = [Perm(p) for p in permutations(range(3))]
    for a in perms:
        for b in perms:
            assert_same_search(PermGroup(3, [a, b]))


def test_listings_take_the_cheap_names(constructions):
    # regular groups are listed on their points with no walk, Aut of every
    # map on the orbit of point 0, and other groups on a base: for the
    # type-4 map over D6, which has 48 flags and |Aut| = 12, the least
    # flag of each of the four Aut-orbits
    reflexible = [build_degenerate(7, 5),
                  build_slightly_degenerate("delta", 4)]
    for m in reflexible:
        listing = m.monodromy_group()._listed()
        assert listing.names == range(m.n_flags)
    for _, m in constructions:
        aut = automorphism_group(m)
        assert aut.order() == len(oracles.automorphisms_brute(m))
        listing = aut._listed()
        assert listing.points and listing.count == aut.order()
        mon = m.monodromy_group()
        if not mon.is_regular():
            listing = mon._listed()
            assert not listing.points
            assert listing.count == mon.chain().order()
    mon = construct_from_group("4", TYPE4_D6)[0].monodromy_group()
    assert mon._listed().names[0] == (0, 1, 2, 3)


def reader_groups(constructions):
    regular = [build_degenerate(6, 4).monodromy_group(),
               build_slightly_degenerate("epsilon", 5).monodromy_group()]
    others = [G for G in (m.monodromy_group() for _, m in constructions[::5])
              if not G.is_regular()]
    auts = [automorphism_group(m) for _, m in constructions[::5]]
    assert all(G.is_regular() for G in regular) and len(others) > 4
    return regular + others + auts + [KERNEL_ON_ORBIT_OF_0, symmetric(5)]


def test_readers_of_the_listing_match_the_oracles(constructions):
    for G in reader_groups(constructions):
        fresh = lambda: PermGroup(G.degree, G.generators)
        els, right = oracles.elements_and_right(fresh())
        listed = fresh()
        assert listed._right_tables(listed.generators) == right
        assert listed.elements() == els
        assert (conjugacy_classes(fresh())
                == reference_search.conjugacy_classes(fresh()))


def test_readers_build_only_what_they_return(constructions, monkeypatch):
    # the right tables build no Perm; conjugacy classes build each
    # element once.  The centralizer generators that the regularity test
    # and the scan of a transitive group find are Perms, built first
    made = []
    real = perm._perm
    monkeypatch.setattr(perm, "_perm", lambda images: made.append(images)
                        or real(images))
    for G in reader_groups(constructions):
        tabled, classed = (PermGroup(G.degree, G.generators) for _ in "tc")
        for H in (tabled, classed):
            if not H.is_regular() and H.is_transitive():
                H.centralizer()
        made.clear()
        tabled._right_tables(G.generators)
        assert made == []
        classes = conjugacy_classes(classed)
        assert len(made) == sum(map(len, classes)) == G.order()


# the seed-1 type-4 construction over D6 of the benchmark's analyze corpus
TYPE4_D6 = LabeledGenerators(("sigma_x1", "theta2", "theta4"), (
    Perm([5, 4, 3, 2, 1, 0]), Perm([4, 3, 2, 1, 0, 5]),
    Perm([5, 4, 3, 2, 1, 0])))


def count_calls(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_analyze_reads_mon_order_from_the_listing(monkeypatch):
    # one scan finds Aut, the centralizer of Mon (|Aut| = 12, four orbits),
    # and Mon is listed in one walk from the least flag of each Aut-orbit;
    # the only _left_tables call is the regularity test on the 48 flags,
    # since the listing reads its left tables off its breadth-first tree
    built, _ = construct_from_group("4", TYPE4_D6)
    m = RootedMap(*built.generators(), root=built.root)  # nothing found yet
    assert m.n_flags == 48
    chains = count_calls(monkeypatch, perm.StabilizerChain, "__init__")
    listed = count_calls(monkeypatch, PermGroup, "elements")
    scans = count_calls(monkeypatch, perm, "_centralizer_scan")
    walks = count_calls(monkeypatch, perm, "_numbered_orbit")
    lefts = count_calls(monkeypatch, perm, "_left_tables")
    report = analyze_map(m)
    assert report.monodromy_order == 1728
    assert report.automorphism_order == 12
    assert report.decomposability["witness_orders"] == [2, 3]
    assert chains == [] and listed == []
    assert len(scans) == 1
    assert [start for start, *_ in walks] == [(0, 1, 2, 3)]
    assert [n for _, n in lefts] == [48]


def test_kept_mon_keeps_the_order_but_no_listing(monkeypatch):
    # the map keeps its Mon; the search lists it once and leaves only the
    # count, so |Mon| needs no chain and no listing outlives the search
    from flagmaps import decomposability_general
    m, _ = construct_from_group("4", TYPE4_D6)
    mon = m.monodromy_group()
    verdict = decomposability_general(m)
    assert verdict.decomposable and not mon.is_regular()
    assert m.monodromy_group() is mon
    chains = count_calls(monkeypatch, perm.StabilizerChain, "__init__")
    assert mon.order() == 1728 and chains == []
    assert mon._chain is None and kept_listings(mon) == []
    # a listing asked for by name is the caller's, not the group's
    assert len(mon.elements()) == 1728 and kept_listings(mon) == []


def kept_listings(G):
    """The names of G's attributes that hold a listing, or a tuple with
    one entry per element of G."""
    order = G.order()
    return [name for name, value in vars(G).items()
            if isinstance(value, Listing)
            or (isinstance(value, tuple) and len(value) == order)]


def centralizer_base(G):
    """The least point of each orbit of the centralizer of G."""
    tables = [c.images for c in G.centralizer().generators]
    return tuple(o[0] for o in perm._orbit_partition(tables, G.degree)[1])


def assert_left_multiplication(listing):
    """The left tables are bijections of the indices that take the
    identity to each generator and commute with every right table: they
    are left multiplication by the generators, which is also what the
    checked equivariant-map growth finds."""
    n = listing.count
    left = listing.left
    for row, table in zip(listing.right, left):
        assert sorted(table) == list(range(n))
        assert table[0] == row[0]
        for other in listing.right:
            assert [table[c] for c in other] == [other[a] for a in table]
    assert list(map(list, left)) == perm._left_tables(listing.right, n)


def test_mon_is_listed_on_one_flag_per_aut_orbit(constructions):
    # Mon of each construction, of its triality composites and of a
    # re-rooting: a non-regular Mon is named by the images of the least
    # flag of each Aut-orbit, walked once, and every reader of that
    # listing agrees with the oracles and the full-tuple search
    walked = 0
    for _, built in constructions:
        maps = triality_composites(built) + [
            RootedMap(*built.generators(), root=built.n_flags - 1)]
        for m in maps:
            G = m.monodromy_group()
            fresh = lambda: PermGroup(G.degree, G.generators)
            listing = G._listed()
            assert listing.count == fresh().chain().order()
            if not G.is_regular():
                base = centralizer_base(G)
                assert 2 <= len(base) <= 4  # edge-transitive: <= 4 orbits
                assert listing.names[0] == base
                assert listing._left is None  # read off the tree when asked
                walked += 1
            assert_left_multiplication(listing)
            els, right = oracles.elements_and_right(fresh())
            assert G.elements() == els
            assert G._right_tables(G.generators) == right
            assert (conjugacy_classes(G)
                    == reference_search.conjugacy_classes(fresh()))
            assert_same_search(G)
    assert walked > 100


def affine(p, a):
    """AGL(1, p): x -> x + 1 and x -> a x, for a primitive root a."""
    return PermGroup(p, [Perm([(x + 1) % p for x in range(p)]),
                         Perm([a * x % p for x in range(p)])])


@pytest.mark.parametrize("G, base", [
    (affine(7, 3), (0, 1)),
    (symmetric(5), (0, 1, 2, 3, 4)),
    (KERNEL_ON_ORBIT_OF_0, (0, 2)),
    (PermGroup(6, [Perm.from_cycles(6, [(0, 1, 2)]),
                   Perm.from_cycles(6, [(1, 2)]),
                   Perm.from_cycles(6, [(3, 4)])]), (0, 1, 3)),
], ids=["agl-1-7", "s5", "kernel", "s3-x-z2"])
def test_groups_whose_centralizer_says_nothing_keep_the_grown_base(G, base):
    # a transitive group with a trivial centralizer and an intransitive
    # group that knows no order are listed on the base of their stabilizer
    # chain, with the point 0 added and sorted, or on every point once
    # that base holds more than half of them (S5)
    fresh = PermGroup(G.degree, G.generators)
    if fresh.is_transitive():
        assert fresh.centralizer().is_trivial()
    else:
        with pytest.raises(ValueError):
            fresh.centralizer()
    listing = fresh._listed()
    assert listing.names[0] == base
    assert listing.count == PermGroup(G.degree, G.generators).chain().order()
    assert_left_multiplication(listing)


@st.composite
def small_groups(draw):
    """A group of degree at most 7 on one to three drawn generators: any
    permutations, or ones that keep {0..k-1} and {k..n-1} apart, so that
    the group is intransitive (and fixes 0 when k is 1)."""
    n = draw(st.integers(1, 7))
    split = draw(st.integers(0, n - 1))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        if split:
            images = (draw(st.permutations(range(split)))
                      + draw(st.permutations(range(split, n))))
        else:
            images = draw(st.permutations(range(n)))
        gens.append(Perm(images))
    return PermGroup(n, gens)


@settings(deadline=None, max_examples=100)
@given(small_groups())
def test_every_way_of_listing_matches_the_oracles(G):
    # each reader lists a new group three ways: knowing no order, after
    # its chain is built, and with the order handed in as the search sets
    # it on the subgroups it returns
    order = PermGroup(G.degree, G.generators).chain().order()

    def cold():
        return PermGroup(G.degree, G.generators)

    def chained():
        H = cold()
        H.chain()
        return H

    def ordered():
        H = cold()
        H._order = order
        return H

    els, right = oracles.elements_and_right(cold())
    classes = reference_search.conjugacy_classes(cold())
    expected = reference_search.minimal_normal_subgroups_full_tuples(cold())
    if order <= 120:
        assert ({frozenset(N.elements()) for N in expected}
                == set(oracles.minimal_normals_brute(cold())))
    for way in (cold, chained, ordered):
        listing = way()._listed()
        assert listing.count == order
        if listing.points:
            assert listing.names[0] == 0
        assert way().elements() == els
        H = way()
        assert H._right_tables(H.generators) == right
        assert conjugacy_classes(way()) == classes
        got = minimal_normal_subgroups(way())
        assert [N.generators for N in got] == [N.generators
                                               for N in expected]
        assert [N.order() for N in got] == [len(N.elements())
                                            for N in expected]


def test_aut_listing_skips_the_transitivity_walk(constructions, monkeypatch):
    # Aut knows an order below the degree, so it is intransitive and is
    # listed on the orbit of flag 0 with no transitivity test
    auts = [automorphism_group(m) for _, m in constructions
            if not m.monodromy_group().is_regular()]
    assert all(aut._order < aut.degree for aut in auts)
    tested = count_calls(monkeypatch, PermGroup, "is_transitive")
    for aut in auts:
        listing = aut._listed()
        assert listing.points and listing.count == aut.order()
    assert tested == []


def test_dropped_elements_leave_nothing_allocated():
    # DM6 with k = 500: |Mon| = 1,000 permutations of degree 1,000, some
    # 8 MB once listed; dropping the tuple must free them all
    import gc
    import tracemalloc
    mon = build_degenerate(6, 500).monodromy_group()
    assert mon.order() == 1000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        elements = mon.elements()
        assert len(elements) == 1000
        del elements
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert after - before < 100_000
    assert kept_listings(mon) == []


@pytest.mark.parametrize("G", [
    build_slightly_degenerate("epsilon", 6).monodromy_group(),
    automorphism_group(construct_from_group("4", TYPE4_D6)[0]),
    construct_from_group("4", TYPE4_D6)[0].monodromy_group(),
    symmetric(6), KERNEL_ON_ORBIT_OF_0],
    ids=["regular", "semiregular", "base", "every-point", "kernel"])
def test_search_stops_before_the_element_bound(G, monkeypatch):
    order = PermGroup(G.degree, G.generators).chain().order()
    walks = []
    real = perm._numbered_orbit

    def walk(start, images, bound, message):
        numbered = []
        try:
            return real(start, lambda a: numbered.append(a) or images(a),
                        bound, message)
        finally:
            walks.append((bound, len(set(numbered))))

    monkeypatch.setattr(perm, "_numbered_orbit", walk)
    for bound in sorted({1, order // 2, order - 1} - {0}):
        walks.clear()
        monkeypatch.setattr(perm, "DEFAULT_ELEMENT_BOUND", bound)
        with pytest.raises(BoundExceeded,
                           match=f"^group exceeds element bound {bound}$"):
            minimal_normal_subgroups(PermGroup(G.degree, G.generators))
        assert all(b == bound and named <= bound for b, named in walks)
    monkeypatch.setattr(perm, "DEFAULT_ELEMENT_BOUND", order)
    assert minimal_normal_subgroups(PermGroup(G.degree, G.generators))
