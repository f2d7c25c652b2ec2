import json

import pytest

from flagmaps import (Perm, PermGroup, build_degenerate,
                      build_slightly_degenerate, cells, congruent_labeled_groups,
                      construct_from_group,
                      decomposability_edge_transitive,
                      decomposability_general, decomposability_reflexible,
                      decompose_with_certificate, du, isomorphism, k_quotient,
                      load_map, monodromy_quotient, parallel_product, pe,
                      smallest_reflexible_cover)
from flagmaps import cli, decomp, ettype, mapcore
from flagmaps import product as product_module
from flagmaps.decomp import NotEdgeTransitive, VerificationFailed
from flagmaps.ettype import is_edge_transitive
from flagmaps.mapcore import RootedMap, automorphism_group, canonicalize
from flagmaps.perm import (DEFAULT_ELEMENT_BOUND, LabeledGenerators,
                           _breadth_first_tree, _numbered_orbit,
                           minimal_normal_subgroups)
from flagmaps.product import NotReflexible
from flagmaps.quotient import MapMorphism

from .conftest import count_calls
from .oracles import decomposable_brute, is_prime_power, mulclose


def tlr(m):
    return LabeledGenerators(("t", "l", "r"), m.generators())


def affine_type5(p, a):
    """The type-5 map from AGL(1, p), with sigma_x1 = x + 1 and
    sigma_x2 = a x, checked to be detected as exactly type 5."""
    m, report = construct_from_group("5", LabeledGenerators(
        ("sigma_x1", "sigma_x2"), (Perm([(x + 1) % p for x in range(p)]),
                                   Perm([a * x % p for x in range(p)]))))
    assert report.detected == "5" and report.exact
    return m


@pytest.fixture(scope="module")
def affine_product():
    """The parallel product of the type-5 maps from AGL(1, 5) and
    AGL(1, 7): a decomposable map of detected type 5."""
    return parallel_product(affine_type5(5, 2), affine_type5(7, 3)).product


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
            for k in range(1, 21)]
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


def test_search_builds_only_what_the_verdict_returns(monkeypatch, c4_sphere):
    # one root orbit walked per minimal normal subgroup read up to the
    # witness pair, which on a regular Mon is the first two, and m's own
    # from the root (the certificate); the orbit quotients of the two
    # witnesses only, and no morphism, projection, product, isomorphism
    # search or checked map
    assert not {"parallel_product", "isomorphism", "_orbits"} & set(vars(decomp))
    unread = 0
    for m in (c4_sphere, build_degenerate(6, 12),
              build_slightly_degenerate("epsilon", 12)):
        with monkeypatch.context() as mp:
            morphisms = count_calls(mp, MapMorphism, "__post_init__")
            checked_maps = count_calls(mp, RootedMap, "__post_init__")
            products = count_calls(mp, product_module, "parallel_product")
            isomorphisms = count_calls(mp, mapcore, "isomorphism")
            root_orbits = count_calls(mp, decomp, "_breadth_first_tree")
            quotients = count_calls(mp, decomp, "_orbit_quotient")
            verdict = decomposability_general(m)
        assert verdict.decomposable
        assert morphisms == checked_maps == products == isomorphisms == []
        minimals = minimal_normal_subgroups(m.monodromy_group())
        unread += len(minimals) - 2
        assert ([H.generators for H in verdict.witnesses]
                == [H.generators for H in minimals[:2]])
        tables = tuple(g.images for g in m.generators())
        n = m.n_flags
        assert root_orbits == [(tuple(g.images for g in H.generators),
                                m.root, n) for H in minimals[:2]] + [
                                    (tables, m.root, n)]
        assert quotients == [(m, tuple(g.images for g in H.generators))
                             for H in verdict.witnesses]
    assert unread > 0


def test_certificate_is_the_rooted_isomorphism_from_the_product(
        default_census, constructions, fig3_quotient, affine_product):
    # the independent route: build the product of the factors and search
    # for the rooted isomorphism onto m; the pairing proof must return it,
    # and the product must be m numbered breadth first from its root
    maps = [build_degenerate(index, k) for index in (6, 7, 8)
            for k in range(1, 33)]
    maps += [build_slightly_degenerate(family, k)
             for family in ("epsilon", "delta") for k in range(2, 21)]
    maps += [entry.map for entry in default_census.entries]
    maps += [m for _, m in constructions]
    # the edge-transitive route on the constructions, the Figure 3 map and
    # the AGL product: Aut witnesses of detected types 2, 2*, 3, 4 and 5
    verdicts = [decomposability_general(m) for m in maps]
    et_maps = [m for _, m in constructions] + [fig3_quotient, affine_product]
    maps += et_maps
    verdicts += [decomposability_edge_transitive(m) for m in et_maps]
    decomposable = aut_witnesses = 0
    for m, verdict in zip(maps, verdicts):
        if not verdict.decomposable:
            continue
        decomposable += 1
        if verdict.witness_group == "automorphism":
            # A is normal in Aut, so Aut projects onto each factor
            aut_witnesses += 1
            assert all(map(is_edge_transitive, verdict.factors))
        product = parallel_product(*verdict.factors).product
        assert verdict.certificate == tuple(
            isomorphism(product, m, mode="rooted"))
        c = canonicalize(m)
        assert (product.generators(), product.root) == (c.generators(),
                                                        c.root)
    assert decomposable >= 50 and aut_witnesses >= 15


def test_type5_product_decomposes_on_aut(affine_product):
    # each factor is indecomposable of type 5, and so is their product's
    # type; Mon of the product is past the element bound, Aut has order 420
    for p, a, n_flags in ((5, 2, 80), (7, 3, 168)):
        m = affine_type5(p, a)
        assert m.n_flags == n_flags and ettype.classify_type(m)[0] == "5"
        assert decomposability_edge_transitive(m).decomposable is False
    m = affine_product
    assert m.n_flags == 1680 and ettype.classify_type(m)[0] == "5"
    assert automorphism_group(m).order() == 420
    verdict = decomposability_edge_transitive(m)
    assert verdict.decomposable and verdict.witness_group == "automorphism"
    assert [H.order() for H in verdict.witnesses] == [5, 7]
    assert [f.n_flags for f in verdict.factors] == [336, 240]
    assert [ettype.classify_type(f)[0] for f in verdict.factors] == ["5", "5"]
    assert verdict.to_json_dict()["certificate_checked"]
    general = decomposability_general(m)
    assert general.decomposable is None
    assert general.reason == f"group exceeds element bound {DEFAULT_ELEMENT_BOUND}"


def test_decompose_command_falls_back_to_aut(capsys, tmp_path,
                                             affine_product):
    # Mon is past the element bound, and the Aut route's checked
    # certificate decides the map
    src = tmp_path / "affine.map"
    src.write_text(mapcore.save_map(affine_product))
    factors = tmp_path / "factors"
    code = cli.main(["decompose", str(src), "--emit-factors", str(factors)])
    payload = json.loads(capsys.readouterr().out)
    assert code == cli.EXIT_OK
    assert payload["decomposable"] is True
    assert payload["witness_group"] == "automorphism"
    assert payload["certificate_checked"] is True
    assert "reason" not in payload
    assert [load_map((factors / f"factor{i}.map").read_text()).n_flags
            for i in (1, 2)] == [336, 240]


def test_decompose_command_keeps_unknown_without_aut_proof(
        capsys, monkeypatch, tmp_path, non_edge_transitive):
    # an indecomposable type-5 map whose Mon route is made unknown: the
    # Aut route finds no pair, which certifies nothing, so the verdict
    # stays unknown and names both outcomes
    unknown = decomp.DecompositionVerdict(
        decomposable=None, reason="group exceeds element bound 10")
    monkeypatch.setattr(cli, "decomposability_general", lambda m: unknown)
    src = tmp_path / "agl7.map"
    src.write_text(mapcore.save_map(affine_type5(7, 3)))
    code = cli.main(["decompose", str(src), "--emit-factors",
                     str(tmp_path / "factors")])
    payload = json.loads(capsys.readouterr().out)
    assert code == cli.EXIT_UNKNOWN
    assert payload["decomposable"] is None
    assert payload["witness_group"] == "monodromy"
    assert payload["reason"] == (
        "group exceeds element bound 10; automorphism route: no two "
        "minimal normal subgroups of Aut, with no certificate")
    assert not (tmp_path / "factors").exists()
    # a map that is not edge-transitive has no Aut route
    src.write_text(mapcore.save_map(non_edge_transitive))
    assert cli.main(["decompose", str(src)]) == cli.EXIT_UNKNOWN
    assert json.loads(capsys.readouterr().out)["reason"] == unknown.reason


def test_pairing_check_refuses_blocks_that_do_not_separate_flags(
        c4_sphere, fig3_quotient):
    # a witness paired with itself, of Mon or of Aut, or two witnesses
    # whose root blocks meet in two flags, pair two flags with the same
    # pair of blocks
    verdicts = [(m, decomposability_general(m)) for m in (
        c4_sphere, build_degenerate(6, 12),
        build_slightly_degenerate("epsilon", 12))]
    verdicts.append((fig3_quotient,
                     decomposability_edge_transitive(fig3_quotient)))
    assert verdicts[-1][1].witness_group == "automorphism"
    for m, verdict in verdicts:
        H = verdict.witnesses[0]
        with pytest.raises(VerificationFailed, match="do not separate"):
            decomp._verified_factor_pair(m, H, H)
    m = load_map("flags 6\nT 0 2 1 4 3 5\nL 0 3 4 1 2 5\n"
                 "R 1 0 4 5 2 3\nroot 0\n")
    H1, H2 = [H for H in minimal_normal_subgroups(m.monodromy_group())
              if len(H.orbit(m.root)) < m.n_flags][:2]
    with pytest.raises(VerificationFailed, match="do not separate"):
        decomp._verified_factor_pair(m, H1, H2)


def classify_type_route(m):
    """The edge-transitive route as it read the cells and the type row:
    edge-transitivity from the edge cells that the automorphisms reach
    from the root's, the type from ``classify_type``, the reflexible route
    on type 1, and otherwise the first two minimal normal subgroups of
    Aut, proved by their orbit quotients."""
    edges = cells(m).edges
    edge_of = {x: i for i, edge in enumerate(edges) for x in edge}
    if len({edge_of[a.images[m.root]] for a in
            automorphism_group(m).elements()}) != len(edges):
        raise NotEdgeTransitive("map is not edge-transitive")
    label, _ = ettype.classify_type(m)
    if label == "1":
        return decomposability_reflexible(m)
    minimals = minimal_normal_subgroups(automorphism_group(m))
    if len(minimals) < 2:
        return decomp.DecompositionVerdict(decomposable=False,
                                           witness_group="automorphism")
    factors, cert = decomp._verified_factor_pair(m, *minimals[:2])
    return decomp.DecompositionVerdict(
        decomposable=True, witnesses=tuple(minimals[:2]), factors=factors,
        certificate=cert, witness_group="automorphism")


def test_edge_transitive_route_reads_only_aut(
        monkeypatch, constructions, tetrahedron, c4_sphere, fig3_quotient,
        non_edge_transitive):
    # the route raises exactly when classify_type finds no type, takes the
    # reflexible route exactly on type 1, and gives the type-row route's
    # verdict, witnesses and witness group; it builds no cell partition
    # and matches no type row
    assert "classify_type" not in vars(decomp)
    samples = [m for _, m in constructions] + [
        tetrahedron, c4_sphere, fig3_quotient, non_edge_transitive]
    types = set()
    for sample in samples:
        classified = ettype.classify_type(fresh_copy(sample))
        types.add(classified and classified[0])
        try:
            expected = classify_type_route(fresh_copy(sample))
        except NotEdgeTransitive:
            expected = None
        m = fresh_copy(sample)
        with monkeypatch.context() as mp:
            classify_calls = count_calls(mp, ettype, "classify_type")
            general_calls = count_calls(mp, decomp, "decomposability_general")
            if expected is None:
                with pytest.raises(NotEdgeTransitive):
                    decomposability_edge_transitive(m)
                assert classified is None
                continue
            verdict = decomposability_edge_transitive(m)
        assert classified is not None and classify_calls == []
        assert (general_calls == [(m,)]) == (
            classified[0] == "1")
        # the verdict, the witness orders and the witness group
        assert verdict.to_json_dict() == expected.to_json_dict()
        if verdict.witnesses:
            assert [H.generators for H in verdict.witnesses] == [
                H.generators for H in expected.witnesses]
        assert (verdict.certificate, plain_factors(verdict)) == (
            expected.certificate, plain_factors(expected))
        if classified[0] != "1":
            assert "_surface" not in vars(m)
    assert {None, "1"} < types


def fresh_copy(m):
    """m as a new map object, with no fact kept on it."""
    return RootedMap(*m.generators(), root=m.root)


def plain_factors(verdict):
    return verdict.factors and [(f.generators(), f.root)
                                for f in verdict.factors]


def test_edge_transitive_route_reflexible(tetrahedron, c4_sphere):
    for m in (tetrahedron, c4_sphere):
        et = decomposability_edge_transitive(m)
        assert et.decomposable == decomposability_reflexible(m).decomposable
        if et.decomposable:
            assert et.factors is not None  # materialized for type 1


def test_edge_transitive_route_fig3(fig3_quotient):
    verdict = decomposability_edge_transitive(fig3_quotient)
    assert verdict.witness_group == "automorphism"
    # Aut is the Klein four group: three minimal normal subgroups, and the
    # first two give two verified 4-flag factors
    assert verdict.decomposable is True
    assert [f.n_flags for f in verdict.factors] == [4, 4]
    assert verdict.to_json_dict()["certificate_checked"] is True


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


# --- the lazy witness pair -------------------------------------------------

def full_double_loop(minimals, root, n):
    """The pair of the full rule over the whole sorted list: the first H_i
    with a proper root block that has a partner, and its first partner."""
    blocks = []
    for H in minimals:
        block = frozenset(_breadth_first_tree(
            [g.images for g in H.generators], root, n)[0])
        blocks.append(block if len(block) < n else None)
    for i, block_i in enumerate(blocks):
        for j, block_j in enumerate(blocks):
            if (i != j and block_i is not None and block_j is not None
                    and block_i & block_j == {root}):
                return minimals[i], minimals[j]
    return None


def test_lazy_pair_is_the_full_double_loop(random_maps, constructions):
    # on Mon of random maps, their regular covers and the constructions,
    # and on Aut of the constructions: the same pair, and the stream is
    # read up to the second witness only
    cases = []
    maps = list(random_maps) + [m for _, m in constructions]
    maps += [smallest_reflexible_cover(m) for m in random_maps
             if m.monodromy_group().order() <= 400]
    for m in maps:
        if m.monodromy_group().order() <= DEFAULT_ELEMENT_BOUND:
            cases.append((m.monodromy_group(), m))
    cases += [(automorphism_group(m), m) for _, m in constructions]
    pairs = stopped_early = 0
    for group, m in cases:
        minimals = minimal_normal_subgroups(group)
        stream = iter(minimals)
        pair = decomp._first_witness_pair(stream, m.root, m.n_flags)
        expected = full_double_loop(minimals, m.root, m.n_flags)
        assert pair == expected
        if pair is not None:
            pairs += 1
            assert pair[1] is minimals[len(minimals) - len(list(stream)) - 1]
            stopped_early += pair[1] is not minimals[-1]
    assert pairs >= 40 and stopped_early >= 10


def a4_cube_on_cosets():
    """A4 x A4 x A4 on the 432 right cosets of S = <(u, v, 1), (u', 1, w)>,
    for u, u' distinct and v, w nontrivial in the Klein four-groups V of
    the factors, numbered breadth first from S.  The minimal normal
    subgroups are the three V's, and S meets none of them."""
    P = lambda cycles: Perm.from_cycles(12, cycles)
    gens = [P(cycles) for offset in (0, 4, 8) for cycles in (
        [(offset, offset + 1, offset + 2)],
        [(offset, offset + 1), (offset + 2, offset + 3)])]
    S = mulclose([P([(0, 1), (2, 3), (4, 5), (6, 7)]),
                  P([(0, 2), (1, 3), (8, 9), (10, 11)])])
    start = frozenset(s.images for s in S)

    def right_cosets(coset):
        return [frozenset(tuple(g.images[i] for i in c) for c in coset)
                for g in gens]

    cosets, tables = _numbered_orbit(start, right_cosets)
    return PermGroup(len(cosets), [Perm(t) for t in tables])


def test_first_proper_subgroup_without_partner():
    # root.V1 meets root.V2 and root.V3 in two points each, and root.V2
    # meets root.V3 only in the root: the first proper subgroup has no
    # partner, the stream is read to its end and the double loop gives
    # (V2, V3).  No map among the random maps, their regular covers and
    # the constructions has this shape; A4^3 is not generated by
    # involutions, so it is no Mon.
    G = a4_cube_on_cosets()
    assert (G.degree, G.order()) == (432, 1728)
    minimals = minimal_normal_subgroups(G)
    blocks = [set(_breadth_first_tree([g.images for g in H.generators], 0,
                                      G.degree)[0])
              for H in minimals]
    assert [len(b) for b in blocks] == [4, 4, 4]
    assert [len(blocks[0] & blocks[1]), len(blocks[0] & blocks[2]),
            len(blocks[1] & blocks[2])] == [2, 2, 1]
    pair = decomp._first_witness_pair(iter(minimals), 0, G.degree)
    assert pair == full_double_loop(minimals, 0, G.degree)
    assert pair == (minimals[1], minimals[2])


# --- the two routes answer two questions -----------------------------------

# the constructions that decompose into two automorphism quotients but not
# into two monodromy quotients
AUT_ONLY = ["type3-V4-0", "type3-V4-1", "type4-V4-0", "type4-V4-1",
            "type4-S3-1", "type3-D4-0", "type5-D4-0"]


def test_routes_answer_different_questions(constructions):
    # decomposability_general asks for two normal subgroups of Mon and
    # decomposability_edge_transitive for two of Aut; on these seven maps
    # only Aut has them, the Mon verdict agreeing with the all-pairs
    # oracle and the Aut verdict carrying a checked certificate
    differ = []
    for name, m in constructions:
        on_mon = decomposability_general(m)
        on_aut = decomposability_edge_transitive(m)
        if on_mon.decomposable == on_aut.decomposable:
            continue
        differ.append(name)
        assert on_mon.decomposable is False
        assert on_mon.witness_group == "monodromy"
        assert decomposable_brute(m) is False
        assert on_aut.decomposable is True
        assert on_aut.witness_group == "automorphism"
        assert on_aut.certificate == tuple(isomorphism(
            parallel_product(*on_aut.factors).product, m, mode="rooted"))
    assert sorted(differ) == sorted(AUT_ONLY)
