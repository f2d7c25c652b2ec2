import time

import pytest

from flagmaps import (Perm, automorphism_group, build_degenerate,
                      build_slightly_degenerate, du, genus_symbol,
                      is_reflexible, isomorphism,
                      minimal_normal_subgroups, monodromy_quotient,
                      parallel_product, pe, reroot, smallest_reflexible_cover,
                      total_parallel_product, totally_symmetric_cover)
from flagmaps.mapcore import automorphism_to
from flagmaps.perm import DEFAULT_ELEMENT_BOUND, BoundExceeded
from flagmaps.product import NotReflexible, fold_parallel_product

from .conftest import map_from_vector


def test_product_witness_projections(tetrahedron, c4_sphere):
    w = parallel_product(tetrahedron, c4_sphere)
    assert w.left_projection.source is w.product
    assert w.left_projection.target is tetrahedron
    assert w.pair_labels[w.product.root] == (tetrahedron.root, c4_sphere.root)
    assert w.product.n_flags <= tetrahedron.n_flags * c4_sphere.n_flags


def test_product_self_absorption(tetrahedron, fig3_quotient):
    for m in (tetrahedron, fig3_quotient):
        w = parallel_product(m, m)
        assert isomorphism(w.product, m, mode="rooted") is not None


def test_product_dm2_dm3_is_dm6_2():
    w = parallel_product(build_degenerate(2), build_degenerate(3))
    assert isomorphism(w.product, build_degenerate(6, 2),
                       mode="rooted") is not None


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_product_dm7_dm3_is_eps(k):
    w = parallel_product(build_degenerate(7, k), build_degenerate(3))
    eps = build_slightly_degenerate("epsilon", k)
    assert isomorphism(w.product, eps, mode="rooted") is not None


def test_product_commutative_associative():
    a = build_degenerate(6, 3)
    b = build_degenerate(7, 2)
    c = build_slightly_degenerate("delta", 2)
    ab = parallel_product(a, b).product
    ba = parallel_product(b, a).product
    assert isomorphism(ab, ba, mode="rooted") is not None
    left = parallel_product(ab, c).product
    right = parallel_product(a, parallel_product(b, c).product).product
    assert isomorphism(left, right, mode="rooted") is not None


def test_absorption_along_morphism(c4_sphere):
    # a morphism m -> n exists (monodromy quotient), so m || n = m
    H = minimal_normal_subgroups(c4_sphere.monodromy_group())[0]
    n, _ = monodromy_quotient(c4_sphere, H)
    w = parallel_product(c4_sphere, n)
    assert isomorphism(w.product, c4_sphere, mode="rooted") is not None


def test_unique_minimal_cover(tetrahedron):
    m = build_degenerate(6, 2)
    n = build_degenerate(7, 2)
    mn = parallel_product(m, n).product
    # any common cover c of m and n covers m || n
    for extra in (build_degenerate(8, 3), tetrahedron):
        c = fold_parallel_product([m, n, extra])
        assert isomorphism(parallel_product(c, mn).product, c,
                           mode="rooted") is not None


def test_common_automorphisms_lift(c4_sphere, fig3_quotient):
    words = ["t", "l", "r", "rt", "lr"]
    pairs = [(c4_sphere, fig3_quotient), (fig3_quotient, fig3_quotient)]
    for m, n in pairs:
        w = parallel_product(m, n)
        for word in words:
            has_m = automorphism_to(m, m.act(m.root, word)) is not None
            has_n = automorphism_to(n, n.act(n.root, word)) is not None
            if has_m and has_n:
                p = w.product
                assert automorphism_to(p, p.act(p.root, word)) is not None


def test_triality_distributes_over_product():
    samples = [(build_degenerate(6, 4), build_degenerate(7, 3)),
               (build_slightly_degenerate("epsilon", 3),
                build_slightly_degenerate("delta", 2))]
    for m, n in samples:
        assert isomorphism(du(parallel_product(m, n).product),
                           parallel_product(du(m), du(n)).product,
                           mode="rooted") is not None
        assert isomorphism(pe(parallel_product(m, n).product),
                           parallel_product(pe(m), pe(n)).product,
                           mode="rooted") is not None


def test_cover_of_reflexible_is_itself(tetrahedron):
    cover = smallest_reflexible_cover(tetrahedron)
    assert cover.n_flags == 24
    assert isomorphism(cover, tetrahedron, mode="generalized") is not None


def test_cover_of_fig3_quotient(c4_sphere, fig3_quotient):
    cover = smallest_reflexible_cover(fig3_quotient)
    assert cover.n_flags == 16
    assert isomorphism(cover, c4_sphere, mode="generalized") is not None


def test_total_parallel_product_matches_cover(fig3_quotient, c4_sphere):
    total = total_parallel_product(fig3_quotient)
    assert isomorphism(total, c4_sphere, mode="generalized") is not None


def test_total_parallel_product_reflexible_fixed(tetrahedron):
    total = total_parallel_product(build_degenerate(6, 3))
    assert isomorphism(total, build_degenerate(6, 3),
                       mode="generalized") is not None


def test_total_parallel_product_dm1():
    dm1 = build_degenerate(1)
    assert total_parallel_product(dm1).n_flags == 1


def test_rerooted_product_with_distinct_orbits_gives_cover(c4_sphere,
                                                           fig3_quotient):
    # re-root in the two different Aut orbits; the product is the cover
    orbits = automorphism_group(fig3_quotient).orbits()
    a = reroot(fig3_quotient, orbits[0][0])
    b = reroot(fig3_quotient, orbits[1][0])
    w = parallel_product(a, b)
    assert isomorphism(w.product, c4_sphere, mode="generalized") is not None


def test_component_swap_automorphism(fig3_quotient):
    # two re-rootings with isomorphic rootings: the coordinate swap maps the
    # product orbit to itself and induces an automorphism
    orbits = automorphism_group(fig3_quotient).orbits()
    a = reroot(fig3_quotient, orbits[0][0])
    b = reroot(fig3_quotient, orbits[0][1])
    assert isomorphism(a, b, mode="rooted") is not None
    w = parallel_product(a, b)
    pair_index = {pair: i for i, pair in enumerate(w.pair_labels)}
    swapped = [(y, x) for x, y in w.pair_labels]
    assert all(pair in pair_index for pair in swapped)
    swap = Perm(pair_index[pair] for pair in swapped)
    for g in w.product.generators():
        assert swap * g == g * swap


def test_totally_symmetric_cover_of_k44_torus():
    k44 = map_from_vector((2, 2, 2, 2, 4, 4, 4))
    assert genus_symbol(k44).hexagonal_number == 1
    cover = totally_symmetric_cover(k44)
    assert isomorphism(cover, k44, mode="generalized") is not None


def test_totally_symmetric_cover_tetrahedron(tetrahedron):
    cover = totally_symmetric_cover(tetrahedron)
    assert cover.n_flags == 13824  # frozen from the construction run
    assert is_reflexible(cover)
    assert isomorphism(du(cover), cover, mode="generalized") is not None
    assert isomorphism(pe(cover), cover, mode="generalized") is not None
    # covers every member of the triality class
    assert isomorphism(parallel_product(cover, tetrahedron).product, cover,
                       mode="rooted") is not None
    assert isomorphism(parallel_product(cover, pe(tetrahedron)).product, cover,
                       mode="generalized") is not None


def test_totally_symmetric_cover_dm1():
    assert totally_symmetric_cover(build_degenerate(1)).n_flags == 1


def test_totally_symmetric_cover_needs_reflexible(fig3_quotient):
    with pytest.raises(NotReflexible):
        totally_symmetric_cover(fig3_quotient)


def test_totally_symmetric_cover_bound_checked_while_building(monkeypatch):
    # delta_100 has 400 flags; its triality class folds to 80,000 flags
    # and then to 4,000,000, which must be refused before it is built
    from flagmaps import product
    built = []
    original = product.RootedMap

    def recorded(*args, **kwargs):
        built.append(original(*args, **kwargs))
        return built[-1]

    m = build_slightly_degenerate("delta", 100)
    monkeypatch.setattr(product, "RootedMap", recorded)
    start = time.perf_counter()
    with pytest.raises(BoundExceeded):
        totally_symmetric_cover(m)
    assert time.perf_counter() - start < 5
    assert built and max(b.n_flags for b in built) <= DEFAULT_ELEMENT_BOUND + 1
