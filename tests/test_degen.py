import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagmaps import (BoundExceeded, ContextVector, build_degenerate,
                      build_slightly_degenerate, cells_and_surface,
                      classify_degeneracy, context_vector, du,
                      isomorphism, lcm_vector_predict, parallel_product, pe,
                      regular_map_from_group, save_map,
                      smallest_reflexible_cover, todd_coxeter)
from flagmaps.degen import (DM_FIXED, DM_PARAMETRIC, broken_forcing,
                            classify_vector, dm_group_order, dm_vector,
                            slightly_degenerate_presentation, triality_images,
                            vector_presentation)
from flagmaps.fpres import evaluate_word
from flagmaps.mapcore import TRIALITY, canonicalize, triality_composites
from flagmaps.perm import LabeledGenerators

from . import oracles
from .conftest import element_bound, random_rooted_map


def test_context_vector_dm6_5():
    assert context_vector(build_degenerate(6, 5)).orders == (2, 1, 2, 2, 5, 2, 5)


def test_context_vector_eps4(c4_sphere):
    assert context_vector(c4_sphere).orders == (2, 2, 2, 2, 2, 4, 4)


def test_context_vector_dm1():
    assert context_vector(build_degenerate(1)).orders == (1,) * 7


def test_context_vector_validation():
    with pytest.raises(ValueError):
        ContextVector((3, 2, 2, 2, 2, 2, 2))  # e1 > 2
    with pytest.raises(ValueError):
        ContextVector((1, 2, 2, 1, 2, 2, 2))  # e4 = 1 but e1 != e2
    with pytest.raises(ValueError, match="t trivial forces r.t and r "):
        ContextVector((1, 2, 2, 2, 3, 2, 2))  # e1 = 1 but e5 != e3


def test_real_context_vectors_satisfy_forced_equalities(
        default_census, tetrahedron, geometric_tetrahedron, c4_sphere,
        fig3_quotient, constructions, random_maps):
    rng = random.Random(20261018)
    maps = [tetrahedron, geometric_tetrahedron, c4_sphere, fig3_quotient]
    maps += [m for _, m in constructions]
    maps += random_maps
    maps += [random_rooted_map(rng, rng.randint(1, 3)) for _ in range(300)]
    maps += [build_degenerate(index) for index in DM_FIXED]
    maps += [build_degenerate(index, k)
             for index in DM_PARAMETRIC for k in range(1, 9)]
    maps += [build_slightly_degenerate(family, k)
             for family in ("epsilon", "delta") for k in range(2, 9)]
    maps += [entry.map for entry in default_census.entries]
    for m in maps:
        assert broken_forcing(m._context_orders) is None, m._context_orders
    # every row is exercised: each context word is trivial in some map
    assert {i for m in maps for i, e in enumerate(m._context_orders)
            if e == 1} == set(range(7))



def triality_table_misses(table, maps):
    """The maps m whose vector, read through table, is not the context
    vector of du(m) or of pe(m)."""
    return [m for m in maps for name, op in (("Du", du), ("Pe", pe))
            if tuple(m._context_orders[i] for i in table[name])
            != context_vector(op(m)).orders]


@pytest.fixture(scope="module")
def reflexible_maps(default_census):
    rng = random.Random(20261019)
    maps = [entry.map for entry in default_census.entries]
    while len(maps) < 86 + 40:
        try:
            with element_bound(2000):
                maps.append(smallest_reflexible_cover(
                    random_rooted_map(rng, rng.randint(1, 3))))
        except BoundExceeded:
            continue
    return maps


# the position in m's context vector of the order of word i in each
# composite, as triality_images reads it: its image of (0, 1, ..., 6)
TRIALITY_POSITIONS = triality_images(range(7))


def test_triality_positions_are_the_duals_vectors(reflexible_maps):
    assert triality_table_misses(TRIALITY_POSITIONS, reflexible_maps) == []
    for m in reflexible_maps:
        assert list(triality_images(m._context_orders).values()) == [
            context_vector(c).orders for c in oracles.triality_composites(m)]


@pytest.mark.parametrize("name", ["Du", "Pe"])
def test_triality_positions_catch_a_swap(reflexible_maps, name):
    # a table with any two of its positions swapped misreads some map
    for i, j in itertools.combinations(range(7), 2):
        positions = list(TRIALITY_POSITIONS[name])
        positions[i], positions[j] = positions[j], positions[i]
        mutant = {**TRIALITY_POSITIONS, name: tuple(positions)}
        assert triality_table_misses(mutant, reflexible_maps), (i, j)


def test_classify_degenerate():
    assert classify_degeneracy(build_degenerate(9)) == "degenerate"


def test_classify_slightly_degenerate():
    assert classify_degeneracy(build_slightly_degenerate("delta", 6)) == \
        "slightly-degenerate"


def test_classify_non_degenerate(tetrahedron):
    assert context_vector(tetrahedron).orders == (2, 2, 2, 2, 3, 3, 4)
    assert classify_degeneracy(tetrahedron) == "non-degenerate"


def test_build_dm8_7():
    m = build_degenerate(8, 7)
    assert m.n_flags == 14
    assert context_vector(m).orders == (2, 2, 2, 1, 7, 7, 2)


def test_build_dm10():
    m = build_degenerate(10)
    assert m.n_flags == 4
    assert context_vector(m).orders == (2, 2, 2, 2, 1, 2, 2)


def test_build_degenerate_parameter_validation():
    with pytest.raises(ValueError):
        build_degenerate(6)
    with pytest.raises(ValueError):
        build_degenerate(2, 3)
    with pytest.raises(ValueError):
        build_degenerate(13)


def test_build_eps3():
    m = build_slightly_degenerate("epsilon", 3)
    assert m.n_flags == 12
    lg = LabeledGenerators(("t", "l", "r"), m.generators())
    for text in slightly_degenerate_presentation("epsilon", 3).relators:
        assert evaluate_word(lg, text).is_identity()
    assert context_vector(m).orders[5] == 3  # (LR)^3 is the exact order
    assert context_vector(m).orders[6] == 6


def test_build_delta4():
    m = build_slightly_degenerate("delta", 4)
    assert m.n_flags == 16
    lg = LabeledGenerators(("t", "l", "r"), m.generators())
    relators = slightly_degenerate_presentation("delta", 4).relators
    assert any(w[0] == ("t", 1) and len(w) > 1 for w in relators)
    for w in relators:
        assert evaluate_word(lg, w).is_identity()


def test_build_eps2_sphere():
    m = build_slightly_degenerate("epsilon", 2)
    assert m.n_flags == 8
    info = cells_and_surface(m)
    assert info.orientability == "orientable"
    assert info.signed_genus == 0


def test_build_slightly_degenerate_validation():
    with pytest.raises(ValueError):
        build_slightly_degenerate("epsilon", 1)
    with pytest.raises(ValueError):
        build_slightly_degenerate("zeta", 3)


def test_lcm_vector_idempotent():
    v = context_vector(build_degenerate(7, 4))
    assert lcm_vector_predict(v, v) == v


def test_lcm_vector_dm7():
    v = context_vector(build_degenerate(7, 4))
    w = context_vector(build_degenerate(7, 6))
    assert lcm_vector_predict(v, w).orders == (1, 2, 2, 2, 2, 12, 12)
    assert lcm_vector_predict(v, w) == dm_vector(7, 12)


def test_lcm_vector_dm2_dm3():
    v = context_vector(build_degenerate(2))
    w = context_vector(build_degenerate(3))
    assert lcm_vector_predict(v, w).orders == (2, 1, 2, 2, 2, 2, 2)
    assert lcm_vector_predict(v, w) == dm_vector(6, 2)


def families_with_order_at_most(limit):
    maps = []
    for index in (6, 7, 8):
        for k in range(1, 13):
            if 2 * k <= limit:
                maps.append((f"DM{index}({k})", build_degenerate(index, k)))
    for family in ("epsilon", "delta"):
        for k in range(2, 13):
            if 4 * k <= limit:
                maps.append((f"{family}_{k}", build_slightly_degenerate(family, k)))
    return maps


def test_lcm_property_spot_pairs():
    samples = families_with_order_at_most(24)
    for name_m, m in samples[:6]:
        for name_n, n in samples[6:12]:
            product = parallel_product(m, n).product
            assert context_vector(product) == \
                lcm_vector_predict(context_vector(m), context_vector(n)), \
                (name_m, name_n)


@pytest.mark.parametrize("k", [3, 5, 7])
def test_petrie_of_eps_is_delta_odd(k):
    eps = build_slightly_degenerate("epsilon", k)
    delta = build_slightly_degenerate("delta", k)
    assert isomorphism(pe(eps), delta, mode="generalized") is not None


def test_triality_permutes_vector(tetrahedron, c4_sphere):
    for m in (tetrahedron, c4_sphere, build_degenerate(6, 4)):
        e = context_vector(m).orders
        assert context_vector(du(m)).orders == \
            (e[1], e[0], e[2], e[3], e[5], e[4], e[6])
        assert context_vector(pe(m)).orders == \
            (e[0], e[3], e[2], e[1], e[4], e[6], e[5])


def test_degenerate_families_exhaustive_at_small_scale(default_census):
    """All degenerate reflexible maps with |Mon| <= 24 are DM family rows."""
    expected = set()
    for index in (1, 2, 3, 4, 5, 9, 10, 11, 12):
        expected.add(dm_vector(index).orders)
    for index in (6, 7, 8):
        for k in range(1, 13):
            expected.add(dm_vector(index, k).orders)
    census_degenerate = {
        entry.vector for entry in default_census.entries
        if entry.group_order <= 24 and classify_vector(
            ContextVector(entry.vector)) == "degenerate"}
    expected_in_range = {v for v in expected
                         if dm_order_of_vector(v) <= 24}
    assert census_degenerate == expected_in_range


def dm_order_of_vector(v):
    for index in (1, 2, 3, 4, 5, 9, 10, 11, 12):
        if dm_vector(index).orders == v:
            return dm_group_order(index)
    for index in (6, 7, 8):
        for k in range(1, 13):
            if dm_vector(index, k).orders == v:
                return dm_group_order(index, k)
    raise AssertionError(f"unexpected degenerate vector {v}")


@settings(deadline=None, max_examples=20)
@given(st.sampled_from([6, 7, 8]), st.integers(1, 8))
def test_dm_families_have_table_order(index, k):
    m = build_degenerate(index, k)
    assert m.n_flags == 2 * k
    assert context_vector(m) == dm_vector(index, k)


def test_one_cycle_embeddings_are_dm11_dm12():
    # the 1-cycle in the sphere is DM11; in the projective plane it is DM12
    dm11 = build_degenerate(11)
    info = cells_and_surface(dm11)
    assert info.orientability == "orientable"
    assert info.signed_genus == 0
    dm12 = build_degenerate(12)
    info = cells_and_surface(dm12)
    assert info.orientability == "non-orientable"
    assert info.signed_genus == -1


def enumerated_text(presentation):
    """The save_map text of the map coset enumeration finds for a
    presentation: the builders' oracle."""
    return save_map(regular_map_from_group(todd_coxeter(presentation)[0]))


def test_degenerate_builds_are_the_enumerated_maps():
    cases = [(index, None) for index in DM_FIXED]
    cases += [(index, k) for index in sorted(DM_PARAMETRIC)
              for k in range(1, 65)]
    misses = [(index, k) for index, k in cases
              if save_map(build_degenerate(index, k))
              != enumerated_text(vector_presentation(dm_vector(index, k)))]
    assert misses == []


def test_slightly_degenerate_builds_are_the_enumerated_maps():
    misses = [(family, k) for family in ("epsilon", "delta")
              for k in range(2, 41)
              if save_map(build_slightly_degenerate(family, k))
              != enumerated_text(slightly_degenerate_presentation(family, k))]
    assert misses == []


def test_builds_carry_breadth_first_labels():
    for m in (build_degenerate(12), build_degenerate(8, 5),
              build_slightly_degenerate("epsilon", 3),
              build_slightly_degenerate("delta", 4)):
        assert m.root == 0
        assert canonicalize(m).generators() == m.generators()


def triality_composite(m, name):
    return triality_composites(m)[[n for n, _, _ in TRIALITY].index(name)]


@pytest.mark.parametrize("image, name, source", [
    (4, "Du", 3), (5, "Pe", 3), (11, "Du", 10), (12, "PeDu", 10),
    (9, "Du", 9)])
def test_fixed_rows_are_closed_under_triality(image, name, source):
    assert save_map(build_degenerate(image)) == save_map(
        triality_composite(build_degenerate(source), name))


def test_dm7_and_dm8_are_the_dual_and_petrie_dual_of_dm6():
    for k in range(1, 31):
        dm6 = build_degenerate(6, k)
        assert save_map(build_degenerate(7, k)) == save_map(
            triality_composite(dm6, "Du")), k
        assert save_map(build_degenerate(8, k)) == save_map(
            triality_composite(dm6, "Pe")), k


@pytest.mark.parametrize("index, k", [
    (13, None), (0, None), (-3, None), (2, 3), (9, 1), (6, None), (7, 0),
    (8, -2)])
def test_dm_group_order_rejects_what_dm_vector_rejects(index, k):
    with pytest.raises(ValueError) as vector_error:
        dm_vector(index, k)
    with pytest.raises(ValueError) as order_error:
        dm_group_order(index, k)
    assert str(order_error.value) == str(vector_error.value)


def test_the_flag_bound_admits_its_own_count():
    # 4 * 25000 flags meet the 100,000 bound; 4 * 25002 pass it (test_cli)
    assert build_slightly_degenerate("delta", 25000).n_flags == 100_000
