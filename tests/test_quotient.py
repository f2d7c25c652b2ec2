import dataclasses
import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagmaps import (LabeledGenerators, Perm, PermGroup, automorphism_group,
                      automorphism_quotient, build_degenerate,
                      build_slightly_degenerate, is_reflexible,
                      isomorphism, k_quotient, minimal_normal_subgroups,
                      monodromy_quotient, morphism_to_k_quotient,
                      project_automorphism)
from flagmaps.fpres import evaluate_word
from flagmaps.mapcore import RootedMap, automorphism_to
from flagmaps.perm import BoundExceeded, _orbit_partition, is_normal_in
from flagmaps.quotient import (MapMorphism, NotAnAutomorphism, NotNormal,
                               StabilizerNotContained, _orbit_quotient)

from .conftest import element_bound, random_rooted_map


def stabilizer_subgroup(m):
    els = m.monodromy_group().elements()
    return PermGroup(m.n_flags, [g for g in els
                                 if g.images[m.root] == m.root])


def test_morphism_validation(tetrahedron):
    identity = tuple(range(tetrahedron.n_flags))
    MapMorphism(tetrahedron, tetrahedron, identity)  # fine
    broken = (1, 0) + identity[2:]
    with pytest.raises(ValueError):
        MapMorphism(tetrahedron, tetrahedron, broken)


def test_k_quotient_by_stabilizer(fig3_quotient):
    K = stabilizer_subgroup(fig3_quotient)
    assert K.order() == 2  # |Mon| = 16 on 8 flags
    quotient, morphism = k_quotient(fig3_quotient, K)
    assert isomorphism(quotient, fig3_quotient, mode="rooted") is not None


def test_k_quotient_by_whole_monodromy(tetrahedron):
    quotient, _ = k_quotient(tetrahedron, tetrahedron.monodromy_group())
    assert quotient.n_flags == 1


def test_k_quotient_tetrahedron_by_r(tetrahedron):
    K = PermGroup(tetrahedron.n_flags, [tetrahedron.r])
    quotient, morphism = k_quotient(tetrahedron, K)
    assert quotient.n_flags == 12  # cosets: 24 / |<R>|
    assert morphism.flag_map[tetrahedron.root] == quotient.root


def test_k_quotient_stabilizer_not_contained(fig3_quotient):
    with pytest.raises(StabilizerNotContained):
        k_quotient(fig3_quotient, PermGroup.trivial(fig3_quotient.n_flags))


def test_monodromy_quotient_trivial(c4_sphere):
    H = PermGroup.trivial(c4_sphere.n_flags)
    quotient, _ = monodromy_quotient(c4_sphere, H)
    assert isomorphism(quotient, c4_sphere, mode="rooted") is not None


def test_monodromy_quotient_minimal_normals(c4_sphere):
    minimals = minimal_normal_subgroups(c4_sphere.monodromy_group())
    assert len(minimals) == 3
    for H in minimals:
        quotient, _ = monodromy_quotient(c4_sphere, H)
        assert quotient.n_flags == 8
        assert is_reflexible(quotient)


def test_monodromy_quotient_whole_group(c4_sphere):
    quotient, _ = monodromy_quotient(c4_sphere, c4_sphere.monodromy_group())
    assert quotient.n_flags == 1


def test_monodromy_quotient_not_normal(tetrahedron):
    H = PermGroup(tetrahedron.n_flags, [tetrahedron.r])
    with pytest.raises(NotNormal):
        monodromy_quotient(tetrahedron, H)


def test_monodromy_quotient_matches_k_quotient(c4_sphere):
    # the monodromy quotient by H is the K-quotient by G_id H
    H = minimal_normal_subgroups(c4_sphere.monodromy_group())[0]
    qm, _ = monodromy_quotient(c4_sphere, H)
    stab = stabilizer_subgroup(c4_sphere)
    K = PermGroup(c4_sphere.n_flags, stab.generators + H.generators)
    qk, _ = k_quotient(c4_sphere, K)
    assert isomorphism(qm, qk, mode="rooted") is not None


def test_automorphism_quotient_trivial(c4_sphere):
    quotient, _ = automorphism_quotient(
        c4_sphere, PermGroup.trivial(c4_sphere.n_flags))
    assert isomorphism(quotient, c4_sphere, mode="rooted") is not None


def test_automorphism_quotient_fig3(c4_sphere, fig3_quotient):
    assert fig3_quotient.n_flags == 8
    assert not is_reflexible(fig3_quotient)
    assert fig3_quotient.monodromy_group().order() == 16


def test_automorphism_quotient_full_aut(tetrahedron):
    quotient, _ = automorphism_quotient(
        tetrahedron, automorphism_group(tetrahedron))
    assert quotient.n_flags == 1


def test_automorphism_quotient_rejects_non_automorphism(tetrahedron):
    A = PermGroup(tetrahedron.n_flags, [tetrahedron.t])
    with pytest.raises(NotAnAutomorphism):
        automorphism_quotient(tetrahedron, A)


def test_project_identity(c4_sphere):
    H = minimal_normal_subgroups(c4_sphere.monodromy_group())[0]
    _, proj = monodromy_quotient(c4_sphere, H)
    identity = Perm.identity(c4_sphere.n_flags)
    assert project_automorphism(proj, identity).is_identity()


def test_project_alpha_t_along_minimal_quotients(c4_sphere):
    alpha_t = automorphism_to(c4_sphere, c4_sphere.t(c4_sphere.root))
    assert alpha_t is not None
    for H in minimal_normal_subgroups(c4_sphere.monodromy_group()):
        quotient, proj = monodromy_quotient(c4_sphere, H)
        image = project_automorphism(proj, alpha_t)
        # the image takes the quotient root one T-step
        assert image.images[quotient.root] == quotient.t(quotient.root)


def test_all_automorphisms_project_and_quotient_reflexible(c4_sphere):
    aut = automorphism_group(c4_sphere)
    for H in minimal_normal_subgroups(c4_sphere.monodromy_group()):
        quotient, proj = monodromy_quotient(c4_sphere, H)
        projected = {project_automorphism(proj, a) for a in aut.elements()}
        assert len(projected) == quotient.n_flags
        assert is_reflexible(quotient)


def test_morphism_to_k_quotient_identity(tetrahedron):
    phi = MapMorphism(tetrahedron, tetrahedron,
                      tuple(range(tetrahedron.n_flags)))
    result = morphism_to_k_quotient(phi)
    # K is the (here trivial) root stabilizer
    assert result.K.order() == tetrahedron.monodromy_group().order() // tetrahedron.n_flags
    assert isomorphism(result.quotient, tetrahedron, mode="rooted") is not None


def test_morphism_to_k_quotient_monodromy_projection(c4_sphere):
    H = minimal_normal_subgroups(c4_sphere.monodromy_group())[0]
    _, proj = monodromy_quotient(c4_sphere, H)
    result = morphism_to_k_quotient(proj)
    stab = stabilizer_subgroup(c4_sphere)
    assert result.K.order() == stab.order() * H.order()
    for g in stab.generators + H.generators:
        assert result.K.contains(g)


def test_morphism_to_one_flag_map(c4_sphere):
    quotient, proj = monodromy_quotient(c4_sphere, c4_sphere.monodromy_group())
    result = morphism_to_k_quotient(proj)
    assert result.K.order() == c4_sphere.monodromy_group().order()


def test_quotient_type_is_at_least_source_type(fig3_quotient, c4_sphere):
    # quotients of an edge-transitive map of type T have type T' >= T
    from flagmaps import classify_type, minimal_normal_subgroups, partial_order
    for m in (fig3_quotient, c4_sphere):
        label = classify_type(m)[0]
        for H in minimal_normal_subgroups(m.monodromy_group()):
            quotient, _ = monodromy_quotient(m, H)
            classified = classify_type(quotient)
            assert classified is not None
            assert partial_order(label, classified[0])


def group_kernel_of_morphism(phi):
    """Elements of the source monodromy that act trivially on the target."""
    mon = phi.source.monodromy_group()
    kernel_els = []
    for g in mon.elements():
        if all(phi.flag_map[g.images[x]] == phi.flag_map[x]
               for x in range(phi.source.n_flags)):
            kernel_els.append(g)
    return PermGroup(phi.source.n_flags,
                     [g for g in kernel_els if not g.is_identity()])


@pytest.mark.parametrize("subgroup_words", [("r",), ("rt",), ("r", "lrl")])
def test_morphism_factors_through_monodromy_quotient(c4_sphere, subgroup_words):
    # Any morphism factors as (r, Id) . (monodromy projection by ker psi),
    # where r is a further flag morphism whose group part is an isomorphism.
    m = c4_sphere
    lg = LabeledGenerators(("t", "l", "r"), m.generators())
    K = PermGroup(m.n_flags, [evaluate_word(lg, tuple((ch, 1) for ch in w))
                              for w in subgroup_words])
    target, phi = k_quotient(m, K)
    kernel = group_kernel_of_morphism(phi)
    mq, mproj = monodromy_quotient(m, kernel)
    # r is determined by phi = r . p; check it is well defined...
    r = {}
    for x in range(m.n_flags):
        z = mproj.flag_map[x]
        assert r.setdefault(z, phi.flag_map[x]) == phi.flag_map[x]
    # ...and a morphism in its own right
    MapMorphism(mq, target, tuple(r[z] for z in range(mq.n_flags)))
    # the group part is an isomorphism: labeled monodromy groups congruent
    from flagmaps import congruent_labeled_groups
    assert congruent_labeled_groups(
        LabeledGenerators(("t", "l", "r"), mq.generators()),
        LabeledGenerators(("t", "l", "r"), target.generators()))


def test_block_check_rejects_partitions_that_are_not_block_systems():
    # the check compares each generator's whole table at once; a partition
    # that some generator does not map onto itself must still be refused
    m = build_degenerate(6, 12)
    mon = m.monodromy_group()
    H = minimal_normal_subgroups(mon)[0]
    tables = [g.images for g in H.generators]
    _orbit_quotient(m, tables)  # a block system
    # swap a flag of orbit 0 with the least flag of orbit 1, and cycle
    # each part of the result: a table whose orbits are no block system
    orbits = _orbit_partition(tables, m.n_flags)[1]
    x, y = orbits[0][1], orbits[1][0]
    orbits[0][1], orbits[1][0] = y, x
    cycled = list(range(m.n_flags))
    for orbit in orbits:
        for a, b in zip(orbit, orbit[1:] + orbit[:1]):
            cycled[a] = b
    assert sorted(map(sorted, _orbit_partition([cycled], m.n_flags)[1])) == \
        sorted(map(sorted, orbits))
    with pytest.raises(ValueError, match="not a block system"):
        _orbit_quotient(m, [cycled])
    H = PermGroup(m.n_flags, [m.r])
    assert not is_normal_in(H, mon)
    with pytest.raises(ValueError, match="not a block system"):
        _orbit_quotient(m, [m.r.images])


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5))
def test_block_quotient_equals_the_checked_map(seed, n_edges):
    # the quotient is built with no axiom checked again; the checked
    # constructor must accept the same generators and root, and each
    # generator must send every flag's block where it sends the block
    m = random_rooted_map(random.Random(seed), n_edges)
    n = m.n_flags
    # each flag alone, all flags in one block, and the orbits of each
    # minimal normal subgroup
    partitions = [[], [g.images for g in m.generators()]]
    try:
        with element_bound(5000):
            for H in minimal_normal_subgroups(m.monodromy_group()):
                partitions.append([g.images for g in H.generators])
    except BoundExceeded:
        pass
    for tables in partitions:
        quotient, block_of = _orbit_quotient(m, tables)
        checked = RootedMap(*(Perm(g.images) for g in quotient.generators()),
                            root=quotient.root)
        assert quotient == checked
        assert quotient.root == block_of[m.root]
        for g, q in zip(m.generators(), quotient.generators()):
            assert all(block_of[g.images[x]] == q.images[block_of[x]]
                       for x in range(n))


# The three involutions of the Klein four-group on four flags: any two of
# them are the T and L of a map with one edge, whatever R is.
KLEIN = [Perm.from_cycles(4, cycles)
         for cycles in ([(0, 1), (2, 3)], [(0, 2), (1, 3)], [(0, 3), (1, 2)])]
ONE_EDGE = RootedMap(KLEIN[0], KLEIN[1], KLEIN[0])


def respects(f, s, d):
    return all(f[s.images[x]] == d.images[f[x]] for x in range(len(f)))


@pytest.mark.parametrize("name", ["t", "l", "r"])
def test_morphism_rejects_a_flag_map_breaking_one_generator(name):
    # the identity onto a map that differs from the source in one generator
    target = dataclasses.replace(ONE_EDGE, **{name: KLEIN[2]})
    identity = tuple(range(4))
    broken = [respects(identity, s, d) is False for s, d in
              zip(ONE_EDGE.generators(), target.generators())]
    assert broken == [g == name for g in "tlr"]
    with pytest.raises(ValueError) as err:
        MapMorphism(ONE_EDGE, target, identity)
    assert str(err.value) == "flag_map does not respect the generators"


def test_automorphism_quotient_names_a_generator_that_is_no_automorphism():
    # KLEIN[0] commutes with T and L, but not with R = (0 2)
    m = RootedMap(KLEIN[0], KLEIN[1], Perm.from_cycles(4, [(0, 2)]))
    assert [respects(KLEIN[0].images, g, g) for g in m.generators()] == [
        True, True, False]
    with pytest.raises(NotAnAutomorphism) as err:
        automorphism_quotient(m, PermGroup(4, [KLEIN[0]]))
    assert str(err.value) == ("generator of A does not commute with the "
                              "monodromy action")


def test_project_rejects_a_permutation_that_splits_a_fiber(c4_sphere):
    H = minimal_normal_subgroups(c4_sphere.monodromy_group())[0]
    _, proj = monodromy_quotient(c4_sphere, H)
    f = proj.flag_map
    fiber = [x for x in range(c4_sphere.n_flags) if f[x] == f[0]]
    other = next(x for x in range(c4_sphere.n_flags) if f[x] != f[0])
    assert len(fiber) > 1
    # 0 leaves its fiber and the rest of the fiber stays
    swap = Perm.from_cycles(c4_sphere.n_flags, [(0, other)])
    with pytest.raises(ValueError) as err:
        project_automorphism(proj, swap)
    assert str(err.value) == "automorphism does not project along this morphism"


def test_project_rejects_a_permutation_that_is_no_automorphism(tetrahedron):
    identity = MapMorphism(tetrahedron, tetrahedron,
                           tuple(range(tetrahedron.n_flags)))
    # T projects along the identity, and it does not commute with R
    assert not respects(tetrahedron.t.images, tetrahedron.r, tetrahedron.r)
    with pytest.raises(ValueError) as err:
        project_automorphism(identity, tetrahedron.t)
    assert str(err.value) == "projected permutation is not an automorphism"


@functools.cache
def projections():
    """Each monodromy projection of three small reflexible maps by a
    minimal normal subgroup, with the map's automorphisms."""
    out = []
    for m in (build_degenerate(6, 3), build_degenerate(7, 4),
              build_slightly_degenerate("epsilon", 4)):
        aut = automorphism_group(m).elements()
        for H in minimal_normal_subgroups(m.monodromy_group()):
            out.append((monodromy_quotient(m, H)[1], aut))
    return out


@settings(deadline=None, max_examples=80)
@given(st.data())
def test_projection_matches_a_fiber_by_fiber_reading(data):
    # an automorphism, or a random permutation of the flags: it projects
    # exactly when it takes fibers into fibers, onto the image of any flag
    # of each fiber, and the image must commute with T, L and R
    proj, aut = data.draw(st.sampled_from(projections()))
    n, f = proj.source.n_flags, proj.flag_map
    a = data.draw(st.one_of(st.sampled_from(aut),
                            st.permutations(range(n)).map(Perm)))
    fibers = [set() for _ in range(proj.target.n_flags)]
    for x in range(n):
        fibers[f[x]].add(f[a.images[x]])
    if any(len(images) > 1 for images in fibers):
        assert a not in aut  # every automorphism projects
        with pytest.raises(ValueError, match="does not project"):
            project_automorphism(proj, a)
        return
    image = [images.pop() for images in fibers]
    if all(respects(image, g, g) for g in proj.target.generators()):
        assert project_automorphism(proj, a).images == tuple(image)
    else:
        assert a not in aut
        with pytest.raises(ValueError, match="is not an automorphism"):
            project_automorphism(proj, a)
