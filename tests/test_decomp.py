import json

import pytest

from flagmaps import (PermGroup, build_degenerate, build_slightly_degenerate,
                      congruent_labeled_groups, decomposability_edge_transitive,
                      decomposability_general, decomposability_reflexible,
                      decompose_with_certificate, du, isomorphism, k_quotient,
                      load_map, monodromy_quotient, parallel_product, pe)
from flagmaps.decomp import NotEdgeTransitive
from flagmaps.perm import LabeledGenerators
from flagmaps.product import NotReflexible

from .oracles import decomposable_brute, is_prime_power


def tlr(m):
    return LabeledGenerators(("t", "l", "r"), m.generators())


@pytest.fixture(scope="module")
def non_edge_transitive(tetrahedron):
    K = PermGroup(tetrahedron.n_flags, [tetrahedron.r])
    quotient, _ = k_quotient(tetrahedron, K)
    return quotient


def test_c4_decomposable_all_pairs(c4_sphere):
    verdict = decomposability_general(c4_sphere)
    assert verdict.decomposable
    assert verdict.certificate is not None
    product = parallel_product(*verdict.factors).product
    assert isomorphism(product, c4_sphere, mode="rooted") is not None


def test_simple_monodromy_not_decomposable():
    # Mon(DM2) is Z2: a single minimal normal subgroup
    assert decomposability_general(build_degenerate(2)).decomposable is False


def test_dm6_12_decomposable_with_congruent_factors():
    m = build_degenerate(6, 12)
    f1, f2, cert = decompose_with_certificate(m)
    got = {f1.n_flags, f2.n_flags}
    # minimal normal witnesses of the dihedral group of order 24 quotient
    # to the dihedral maps of orders 8 and 12
    assert got == {8, 12}
    expected = {8: build_degenerate(6, 4), 12: build_degenerate(6, 6)}
    for factor in (f1, f2):
        assert congruent_labeled_groups(tlr(factor),
                                        tlr(expected[factor.n_flags]))


def test_factor_invariants(c4_sphere):
    verdict = decomposability_general(c4_sphere)
    one_flag = build_degenerate(1)
    for factor in verdict.factors:
        assert factor.n_flags < c4_sphere.n_flags
        assert isomorphism(factor, c4_sphere, mode="generalized") is None
        assert isomorphism(factor, one_flag, mode="generalized") is None


@pytest.mark.parametrize("k", range(2, 31))
def test_dm6_prime_power_criterion(k):
    verdict = decomposability_reflexible(build_degenerate(6, k))
    expected = (k == 2) or not is_prime_power(k)
    assert verdict.decomposable == expected


def test_decompose_dm6_2_factors():
    f1, f2, _ = decompose_with_certificate(build_degenerate(6, 2))
    names = set()
    for factor in (f1, f2):
        for index in (2, 3):
            if isomorphism(factor, build_degenerate(index),
                           mode="generalized") is not None:
                names.add(index)
    assert names == {2, 3}


def test_eps6_factors_absorb_to_table_families():
    # eps_6 = DM7(6) || DM3; the minimal-normal factors absorb into that pair
    eps6 = build_slightly_degenerate("epsilon", 6)
    f1, f2, _ = decompose_with_certificate(eps6)
    dm7_6 = build_degenerate(7, 6)
    dm3 = build_degenerate(3)
    for factor in (f1, f2):
        absorbed = [isomorphism(parallel_product(factor, n).product, factor,
                                mode="rooted") is not None
                    for n in (dm7_6, dm3)]
        assert any(absorbed)  # each factor sits under one table family


def test_tetrahedron_monolithic(tetrahedron):
    verdict = decomposability_reflexible(tetrahedron)
    assert verdict.decomposable is False
    from flagmaps import minimal_normal_subgroups
    assert len(minimal_normal_subgroups(tetrahedron.monodromy_group())) == 1


@pytest.mark.parametrize("k", [4])
def test_delta_prime_power_indecomposable(k):
    verdict = decomposability_reflexible(build_slightly_degenerate("delta", k))
    assert verdict.decomposable is False


def test_eps4_decomposable(c4_sphere):
    assert decomposability_reflexible(c4_sphere).decomposable


def test_reflexible_requires_reflexible(fig3_quotient):
    with pytest.raises(NotReflexible):
        decomposability_reflexible(fig3_quotient)


def verdict_facts(v):
    return (v.decomposable, v.reason, v.witness_group, v.certificate,
            [[g.images for g in H.generators] for H in v.witnesses or ()],
            [f.generators() + (f.root,) for f in v.factors or ()])


def test_reflexible_agrees_with_general(default_census):
    # the reflexible route is the general search on a regular Mon: the
    # same verdicts, witnesses, factors and certificates
    maps = [build_degenerate(index, k) for index in (6, 7, 8)
            for k in range(1, 13)]
    maps += [build_slightly_degenerate(family, k)
             for family in ("epsilon", "delta") for k in range(2, 13)]
    maps += [entry.map for entry in default_census.entries]
    verdicts = set()
    for m in maps:
        reflexible = decomposability_reflexible(m)
        assert verdict_facts(reflexible) == verdict_facts(
            decomposability_general(m))
        verdicts.add(reflexible.decomposable)
    assert verdicts == {False, True}


def test_factors_are_the_checked_monodromy_quotients(constructions):
    # the search quotients by the witnesses' orbits without checking them
    # again; the public, checked route must give the same factors
    maps = [build_degenerate(index, k) for index in (6, 7, 8)
            for k in range(1, 13)]
    maps += [build_slightly_degenerate(family, k)
             for family in ("epsilon", "delta") for k in range(2, 13)]
    maps += [m for _, m in constructions]
    decomposable = 0
    for m in maps:
        verdict = decomposability_general(m)
        if not verdict.decomposable:
            continue
        decomposable += 1
        for H, factor in zip(verdict.witnesses, verdict.factors):
            quotient, _ = monodromy_quotient(m, H)
            assert (quotient.generators() + (quotient.root,)
                    == factor.generators() + (factor.root,))
        product = parallel_product(*verdict.factors).product
        cert = verdict.certificate
        assert sorted(cert) == list(range(m.n_flags))
        assert cert[product.root] == m.root
        for gp, gm in zip(product.generators(), m.generators()):
            assert all(cert[gp.images[x]] == gm.images[cert[x]]
                       for x in range(m.n_flags))
    assert decomposable >= 10


def test_edge_transitive_route_reflexible(tetrahedron, c4_sphere):
    for m in (tetrahedron, c4_sphere):
        et = decomposability_edge_transitive(m)
        assert et.decomposable == decomposability_reflexible(m).decomposable
        if et.decomposable:
            assert et.factors is not None  # materialized for type 1


def test_edge_transitive_route_fig3(fig3_quotient):
    verdict = decomposability_edge_transitive(fig3_quotient)
    assert verdict.witness_group == "automorphism"
    # Aut is the Klein four group: three minimal normal subgroups
    assert verdict.decomposable is True
    assert verdict.factors is None


def test_edge_transitive_route_rejects(non_edge_transitive):
    with pytest.raises(NotEdgeTransitive):
        decomposability_edge_transitive(non_edge_transitive)


def test_monolithic_aut_edge_transitive_indecomposable(tetrahedron):
    assert decomposability_edge_transitive(tetrahedron).decomposable is False


def test_agrees_with_bruteforce_small(fig3_quotient, non_edge_transitive,
                                      random_maps):
    samples = [build_degenerate(6, 6), build_degenerate(6, 8),
               build_slightly_degenerate("delta", 2), fig3_quotient,
               non_edge_transitive]
    samples += [m for m in random_maps
                if m.monodromy_group().order() <= 64]
    # two non-transitive minimal normal subgroups whose root blocks meet in
    # two flags: indecomposable, though the blocks overlap only a little
    samples.append(load_map("flags 6\nT 0 2 1 4 3 5\nL 0 3 4 1 2 5\n"
                            "R 1 0 4 5 2 3\nroot 0\n"))
    for m in samples:
        verdict = decomposability_general(m)
        assert verdict.decomposable == decomposable_brute(m)


def test_triality_invariance():
    for m in (build_degenerate(6, 6), build_degenerate(6, 8),
              build_slightly_degenerate("delta", 4)):
        base = decomposability_general(m).decomposable
        assert decomposability_general(du(m)).decomposable == base
        assert decomposability_general(pe(m)).decomposable == base


def test_verdict_serialization(c4_sphere):
    verdict = decomposability_general(c4_sphere)
    payload = verdict.to_json_dict()
    text = json.dumps(payload)
    again = json.loads(text)
    assert again["decomposable"] is True
    assert again["witness_orders"] == [2, 2]
    assert again["certificate_checked"] is True


def test_decompose_with_certificate_rejects_indecomposable(tetrahedron):
    with pytest.raises(ValueError):
        decompose_with_certificate(tetrahedron)


def test_minimal_normal_reduction_against_bruteforce():
    # the minimal-normal pair search, decided on the blocks root.H, agrees
    # with the oracle's stabilizer-product test over all normal pairs
    samples = [build_degenerate(index, k) for index in (6, 7, 8)
               for k in range(1, 13)]
    samples += [build_slightly_degenerate(family, k)
                for family in ("epsilon", "delta") for k in range(2, 13)]
    for m in samples:
        assert decomposability_general(m).decomposable == decomposable_brute(m)
