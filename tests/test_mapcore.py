import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagmaps import (Perm, RootedMap, automorphism_group,
                      build_degenerate, build_slightly_degenerate, canonicalize,
                      cells, cells_and_surface, classify_type, context_vector,
                      du, genus_symbol, is_reflexible, isomorphism, load_map,
                      map_symbol, named_automorphisms_present, pe,
                      regular_map_from_group, reroot, save_map, simple_reroots,
                      triality_class)
from flagmaps.mapcore import (MapFormatError, MapInvariantError,
                              _composite_invariants, triality_composites)
from flagmaps.perm import LabeledGenerators, congruent_labeled_groups

from . import oracles
from .conftest import count_fact_runs, map_from_vector, random_rooted_map
from .oracles import automorphisms_brute

DM9_LOOKING_TEXT = """flags 4
T 1 0 3 2
L 2 3 0 1
R 0 1 2 3
root 0
"""


def test_load_four_flag_map_is_dm9():
    m = load_map(DM9_LOOKING_TEXT)
    assert m.n_flags == 4
    # R = id forces e3 = 1: this is the DM9 row (not DM12, whose R = TL)
    lg = LabeledGenerators(("t", "l", "r"), m.generators())
    dm9 = build_degenerate(9)
    assert congruent_labeled_groups(lg, LabeledGenerators(("t", "l", "r"),
                                                          dm9.generators()))
    assert isomorphism(m, dm9, mode="generalized") is not None


def test_load_rejects_non_bijective_images():
    text = DM9_LOOKING_TEXT.replace("T 1 0 3 2", "T 1 1 3 2")
    with pytest.raises(MapFormatError):
        load_map(text)


def test_load_rejects_broken_commutation():
    # t=(0 1), l=(1 2) gives (tl) of order 3
    with pytest.raises(MapInvariantError) as err:
        RootedMap(Perm.from_cycles(3, [(0, 1)]),
                  Perm.from_cycles(3, [(1, 2)]),
                  Perm.identity(3))
    assert "(TL)^2" in str(err.value)


def test_load_rejects_intransitive():
    with pytest.raises(MapInvariantError) as err:
        RootedMap(Perm.identity(2), Perm.identity(2), Perm.identity(2))
    assert "transitive" in str(err.value)


def test_load_rejects_non_involution():
    with pytest.raises(MapInvariantError) as err:
        RootedMap(Perm.from_cycles(3, [(0, 1, 2)]), Perm.identity(3),
                  Perm.identity(3))
    assert "T not an involution" in str(err.value)


def test_save_load_round_trip(tetrahedron):
    text = save_map(tetrahedron)
    again = load_map(text)
    assert save_map(again) == text
    assert isomorphism(again, tetrahedron, mode="rooted") is not None


def test_canonicalize_is_stable(c4_sphere):
    c = canonicalize(c4_sphere)
    assert c.root == 0
    assert canonicalize(c) == c


def test_cells_tetrahedron(tetrahedron):
    info = cells_and_surface(tetrahedron)
    assert len(info.cells.vertices) == 4
    assert len(info.cells.edges) == 6
    assert len(info.cells.faces) == 4
    assert info.euler_characteristic == 2
    assert info.orientability == "orientable"
    assert info.signed_genus == 0


def test_surface_delta2():
    info = cells_and_surface(build_slightly_degenerate("delta", 2))
    assert info.orientability == "non-orientable"
    assert info.signed_genus == -1


def test_surface_boundary_degenerate():
    # DM9 has R = id: fixed points everywhere
    info = cells_and_surface(build_degenerate(9))
    assert info.orientability == "boundary-degenerate"
    assert info.genus_advisory


def test_edge_orbit_sizes(tetrahedron, fig3_quotient, random_maps):
    for m in [tetrahedron, fig3_quotient] + random_maps[:10]:
        for block in cells(m).edges:
            assert len(block) in (1, 2, 4)


def test_dual_preserves_euler_and_petrie(tetrahedron, c4_sphere, random_maps):
    for m in [tetrahedron, c4_sphere] + random_maps[:10]:
        d = du(m)
        assert (cells_and_surface(d).euler_characteristic
                == cells_and_surface(m).euler_characteristic)
        # Du swaps vertices and faces, and keeps Petrie circuits
        cm, cd = cells(m), cells(d)
        assert sorted(cm.vertices) == sorted(cd.faces)
        assert sorted(cm.faces) == sorted(cd.vertices)
        assert sorted(cm.petrie_circuits) == sorted(cd.petrie_circuits)


def test_genus_symbol_tetrahedron(tetrahedron):
    sym = genus_symbol(tetrahedron)
    assert sym.genera == (0, 0, -1, -1, -1, -1)
    assert sym.iso_symbol == (1, 1, 3, 3, 5, 5)
    assert sym.hexagonal_number == 3


def test_du_is_involution(tetrahedron, c4_sphere, fig3_quotient):
    for m in (tetrahedron, c4_sphere, fig3_quotient):
        assert isomorphism(du(du(m)), m, mode="generalized") is not None


def test_triality_relations(random_maps):
    for m in random_maps[:8]:
        assert isomorphism(du(du(m)), m, mode="generalized") is not None
        assert isomorphism(pe(pe(m)), m, mode="generalized") is not None
        dp = lambda x: du(pe(x))
        assert isomorphism(dp(dp(dp(m))), m, mode="generalized") is not None
        assert len(triality_class(m)) in (1, 2, 3, 6)


def test_rooted_isomorphism_self(tetrahedron):
    image = isomorphism(tetrahedron, tetrahedron, mode="rooted")
    assert image == list(range(tetrahedron.n_flags))


def test_eps3_delta3_not_isomorphic():
    eps3 = build_slightly_degenerate("epsilon", 3)
    delta3 = build_slightly_degenerate("delta", 3)
    assert isomorphism(eps3, delta3, mode="rooted") is None
    assert isomorphism(eps3, delta3, mode="generalized") is None


def test_petrie_of_eps3_is_delta3():
    eps3 = build_slightly_degenerate("epsilon", 3)
    delta3 = build_slightly_degenerate("delta", 3)
    assert isomorphism(pe(eps3), delta3, mode="generalized") is not None


def test_automorphisms_tetrahedron(tetrahedron):
    aut = automorphism_group(tetrahedron)
    assert aut.order() == tetrahedron.n_flags == 24
    assert is_reflexible(tetrahedron)


def test_automorphisms_fig3_quotient(fig3_quotient):
    aut = automorphism_group(fig3_quotient)
    assert not is_reflexible(fig3_quotient)
    assert aut.order() == 4
    assert len(aut.orbits()) == 2


def test_automorphisms_dm1():
    dm1 = build_degenerate(1)
    assert dm1.n_flags == 1
    assert automorphism_group(dm1).order() == 1
    assert is_reflexible(dm1)


def test_aut_semiregular_and_divides(tetrahedron, fig3_quotient, random_maps):
    for m in [tetrahedron, fig3_quotient] + random_maps[:10]:
        aut = automorphism_group(m)
        assert m.n_flags % aut.order() == 0
        # the automorphism to a given flag is unique
        seen = {}
        for a in aut.elements():
            image = a.images[m.root]
            assert image not in seen
            seen[image] = a


def test_automorphism_group_matches_all_flags_search(
        tetrahedron, fig3_quotient, c4_sphere, random_maps, constructions):
    from flagmaps import build_degenerate
    reflexible = [tetrahedron, c4_sphere] + [build_degenerate(6, k)
                                             for k in (5, 12)]
    for m in (reflexible + [fig3_quotient] + random_maps
              + [m for _, m in constructions]):
        aut = automorphism_group(m)
        assert set(aut.elements()) == automorphisms_brute(m)
        # each kept generator at least doubles the root's orbit
        assert len(aut.generators) <= aut.order().bit_length() - 1


def test_is_reflexible_matches_all_flags_search(
        tetrahedron, fig3_quotient, c4_sphere, random_maps, constructions):
    maps = ([tetrahedron, fig3_quotient, c4_sphere, build_degenerate(6, 12)]
            + random_maps + [m for _, m in constructions])
    for m in maps:
        for c in triality_composites(m):
            assert is_reflexible(c) == (
                len(automorphisms_brute(c)) == c.n_flags)


def test_automorphism_generators_found_once_per_map(tetrahedron):
    m = RootedMap(*tetrahedron.generators(), root=tetrahedron.root)
    assert "_automorphism_generators" not in vars(m)
    first = automorphism_group(m)
    cached = vars(m)["_automorphism_generators"]
    second = automorphism_group(m)
    assert vars(m)["_automorphism_generators"] is cached
    assert first is not second and first._chain is None
    assert first.generators == second.generators == cached
    # a new map object searches again and finds the same generators
    again = RootedMap(*tetrahedron.generators(), root=tetrahedron.root)
    assert automorphism_group(again).generators == first.generators


def test_monautreg_chain(tetrahedron, fig3_quotient, random_maps):
    for m in [tetrahedron, fig3_quotient] + random_maps[:10]:
        aut_order = automorphism_group(m).order()
        mon_order = m.monodromy_group().order()
        assert aut_order <= m.n_flags <= mon_order
        regular = aut_order == m.n_flags
        assert regular == (mon_order == m.n_flags)
        assert regular == is_reflexible(m)


def test_reroot_identity(tetrahedron):
    assert reroot(tetrahedron, tetrahedron.root) == tetrahedron


def test_reroots_of_reflexible_isomorphic(tetrahedron):
    for f in range(0, tetrahedron.n_flags, 5):
        assert isomorphism(reroot(tetrahedron, f), tetrahedron,
                           mode="rooted") is not None


def test_reroots_in_distinct_orbits_not_isomorphic(fig3_quotient):
    aut = automorphism_group(fig3_quotient)
    orbits = aut.orbits()
    assert len(orbits) == 2
    a = reroot(fig3_quotient, orbits[0][0])
    b = reroot(fig3_quotient, orbits[1][0])
    assert isomorphism(a, b, mode="rooted") is None
    # same orbit: isomorphic
    c = reroot(fig3_quotient, orbits[0][-1])
    assert isomorphism(a, c, mode="rooted") is not None


def reroot_facts(m):
    """Every fact of m that reroot may share or that depends on the root."""
    classified = classify_type(m)
    try:
        symbol = str(map_symbol(m))
    except ValueError as exc:  # degenerate, not edge-transitive or failing
        symbol = f"{type(exc).__name__}: {exc}"
    return (cells_and_surface(m), context_vector(m), is_reflexible(m),
            named_automorphisms_present(m),
            classified and (classified[0], classified[1].root,
                            classified[1].generators()),
            symbol, genus_symbol(m))


def check_reroot_shares_root_free_facts(m, flags):
    cells_and_surface(m), context_vector(m), automorphism_group(m)
    for f in flags:
        with pytest.MonkeyPatch.context() as mp:
            runs = [count_fact_runs(mp, name) for name in (
                "_surface", "_automorphism_generators", "_context_orders")]
            shared = reroot(m, f)
            shared_facts = reroot_facts(shared)
            shared_aut = automorphism_group(shared)
            assert runs == [[], [], []]  # found once, on m
        cold = RootedMap(m.t, m.l, m.r, f)
        assert shared_facts == reroot_facts(cold)
        assert shared_aut == automorphism_group(cold)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.data())
def test_reroot_shares_root_free_facts_of_random_maps(seed, n_edges, data):
    import random as _random
    m = random_rooted_map(_random.Random(seed), n_edges)
    flags = data.draw(st.lists(st.integers(0, m.n_flags - 1), min_size=1,
                               max_size=4))
    check_reroot_shares_root_free_facts(m, flags)


@settings(deadline=None, max_examples=30)
@given(st.data())
def test_reroot_shares_root_free_facts_of_constructions(constructions, data):
    _, m = data.draw(st.sampled_from(constructions))
    root, *flags = data.draw(st.lists(st.integers(0, m.n_flags - 1),
                                      min_size=2, max_size=4))
    check_reroot_shares_root_free_facts(reroot(m, root), flags)


def test_simple_reroots_order(tetrahedron):
    m = tetrahedron
    roots = [x.root for x in simple_reroots(m)]
    x = m.root
    assert roots == [x, m.t(x), m.l(x), m.l(m.t(x))]


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10_000), st.integers(1, 4))
def test_random_maps_satisfy_bookkeeping(seed, n_edges):
    import random as _random
    m = random_rooted_map(_random.Random(seed), n_edges)
    blocks = cells(m).edges
    assert sum(len(b) for b in blocks) == m.n_flags
    assert len(blocks) == n_edges
    info = cells_and_surface(m)
    assert info.euler_characteristic == (len(info.cells.vertices)
                                         - len(info.cells.edges)
                                         + len(info.cells.faces))


def test_genus_symbol_order_matches_composites(c4_sphere):
    composites = triality_composites(c4_sphere)
    sym = genus_symbol(c4_sphere)
    for i, c in enumerate(composites):
        assert cells_and_surface(c).signed_genus == sym.genera[i]


def test_petersen_map_row():
    # the reflexible Petersen-graph map in the projective plane: order 60,
    # monolithic, and its triality class meets non-orientable genus 5
    from .conftest import map_from_vector
    m = map_from_vector((2, 2, 2, 2, 3, 5, 5))
    assert m.n_flags == 60
    sym = genus_symbol(m)
    assert sym.genera == (-1, -1, -1, -5, -1, -5)
    assert sym.iso_symbol == (1, 2, 1, 4, 2, 4)
    assert sym.hexagonal_number == 3
    from flagmaps import decomposability_reflexible
    assert decomposability_reflexible(m).decomposable is False


@functools.cache
def regular_group_pool():
    """Regular representations labeled t, l, r: the DM rows, eps_k and
    delta_k, and the groups of a small census."""
    from flagmaps import census_reflexible
    maps = [build_degenerate(i) for i in (1, 2, 3, 4, 5, 9, 10, 11, 12)]
    maps += [build_degenerate(i, k) for i in (6, 7, 8) for k in (2, 3, 4, 6)]
    maps += [build_slightly_degenerate(family, k)
             for family in ("epsilon", "delta") for k in (2, 3, 4)]
    maps += [e.map for e in census_reflexible(24, 6, analyze=False).entries]
    return [LabeledGenerators(("t", "l", "r"), m.generators()) for m in maps]


def relabeled(lg, points):
    """lg with its points renamed by i -> points[i]."""
    pi = Perm(points)
    pi_inv = pi.inverse()
    return LabeledGenerators(lg.labels,
                             tuple(pi_inv * g * pi for g in lg.generators))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_canonical_key_agrees_with_congruence(data):
    pool = regular_group_pool()
    i = data.draw(st.integers(0, len(pool) - 1))
    # half the draws compare a group with a relabeling of itself
    j = data.draw(st.sampled_from([i, data.draw(st.integers(0, len(pool) - 1))]))
    a, b = pool[i], pool[j]
    b = relabeled(b, data.draw(st.permutations(range(b.degree))))
    key = lambda lg: save_map(regular_map_from_group(lg))
    assert congruent_labeled_groups(a, b) == (key(a) == key(b))
    if i == j:
        assert key(a) == key(b)


# --- triality facts from M's own partitions ----------------------------------

# Cells of the six triality composites (order M, Du, Pe, PeDu, DuPe,
# DuPeDu) as M's vertices V, edges E, faces F and Petrie circuits P.
COMPOSITE_CELLS = ("VEFP", "FEVP", "VEPF", "FEPV", "PEVF", "PEFV")


def cell_counts(m):
    cs = cells(m)
    return dict(V=len(cs.vertices), E=len(cs.edges), F=len(cs.faces),
                P=len(cs.petrie_circuits))


def check_triality_facts(m):
    """Cell counts against the table, and the genus symbol, named
    automorphisms and type of every composite against the references."""
    counts = cell_counts(m)
    invariants = _composite_invariants(m, cells_and_surface(m))
    fresh = triality_composites(RootedMap(*m.generators(), root=m.root))
    for i, (c, d) in enumerate(zip(triality_composites(m), fresh)):
        got = cell_counts(c)
        assert [got[k] for k in "VEFP"] == [counts[k]
                                           for k in COMPOSITE_CELLS[i]]
        assert invariants[i] == (got["V"], got["E"], got["F"], got["P"],
                                 cells_and_surface(c).orientation_orbits)
        assert genus_symbol(c) == oracles.genus_symbol(d)
        assert (named_automorphisms_present(c)
                == oracles.named_automorphisms_present(d))
        kind, want = classify_type(c), oracles.classify_type(d)
        if want is None:
            assert kind is None
        else:
            assert kind[0] == want[0]
            assert kind[1].root == want[1].root
            assert kind[1].generators() == want[1].generators()
    assert ([c.generators() for c in triality_class(m)]
            == [c.generators() for c in oracles.triality_class(m)])


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6))
def test_triality_facts_on_random_maps(seed, n_edges):
    import random as _random
    check_triality_facts(random_rooted_map(_random.Random(seed), n_edges))


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_triality_facts_on_constructions(constructions, data):
    _, m = data.draw(st.sampled_from(constructions))
    root = data.draw(st.integers(0, m.n_flags - 1))
    check_triality_facts(RootedMap(*m.generators(), root=root))


@pytest.mark.parametrize("build", [
    lambda: map_from_vector((2, 2, 2, 2, 3, 3, 4)),
    lambda: build_slightly_degenerate("epsilon", 5),
    lambda: build_slightly_degenerate("delta", 4),
    lambda: build_degenerate(7, 6),
])
def test_triality_facts_on_reflexible_maps(build):
    check_triality_facts(build())


# --- the .map text ------------------------------------------------------------

@settings(deadline=None, max_examples=100)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.randoms())
def test_save_load_round_trip_and_relabeling(seed, n_edges, rnd):
    import random as _random
    m = random_rooted_map(_random.Random(seed), n_edges)
    text = save_map(m)
    assert isomorphism(load_map(text), m, mode="rooted") is not None
    sigma = list(range(m.n_flags))
    rnd.shuffle(sigma)
    lg = relabeled(LabeledGenerators(("t", "l", "r"), m.generators()), sigma)
    other = RootedMap(*lg.generators, root=sigma[m.root])
    assert isomorphism(m, other, mode="rooted") == sigma
    assert save_map(other) == text
