"""Acceptance criteria, one test per criterion, each printing a pass line
and enforcing its stated time budget."""

import random
import time
from contextlib import contextmanager

from flagmaps import (LabeledGenerators, PermGroup, automorphism_group,
                      build_degenerate, build_slightly_degenerate,
                      cells_and_surface, classify_type, construct_from_group,
                      context_vector, decomposability_general,
                      decomposability_reflexible, du, genus_symbol,
                      is_reflexible, isomorphism, k_quotient,
                      lcm_vector_predict, minimal_normal_subgroups,
                      monodromy_quotient, morphism_to_k_quotient,
                      named_automorphisms_present, parallel_product, pe,
                      project_automorphism, smallest_reflexible_cover,
                      todd_coxeter, type_transforms)
from flagmaps.degen import dm_vector, slightly_degenerate_presentation
from flagmaps.ettype import NAMED_AUTOMORPHISM_WORDS
from flagmaps.fpres import evaluate_word

from .conftest import vertex_rotation
from .oracles import decomposable_brute, is_prime_power


@contextmanager
def criterion(number, name, budget_seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number} ({name}): PASS in {elapsed:.2f}s "
          f"(budget {budget_seconds}s)")
    assert elapsed < budget_seconds, \
        f"criterion {number} exceeded its {budget_seconds}s budget"


def tlr(m):
    return LabeledGenerators(("t", "l", "r"), m.generators())


def test_criterion_1_degenerate_family_rows():
    with criterion(1, "degenerate family rows", 1.0):
        for index in (1, 2, 3, 4, 5, 9, 10, 11, 12):
            m = build_degenerate(index)
            assert m.monodromy_group().order() == m.n_flags
            assert context_vector(m) == dm_vector(index)
        for index in (6, 7, 8):
            for k in range(1, 13):
                m = build_degenerate(index, k)
                assert m.monodromy_group().order() == 2 * k
                assert context_vector(m) == dm_vector(index, k)


def test_criterion_2_slightly_degenerate_family_rows():
    with criterion(2, "slightly-degenerate family rows", 5.0):
        for k in range(2, 13):
            eps = build_slightly_degenerate("epsilon", k)
            assert eps.monodromy_group().order() == 4 * k
            info = cells_and_surface(eps)
            assert info.orientability == "orientable"
            assert info.signed_genus == 0  # sphere
            delta = build_slightly_degenerate("delta", k)
            assert delta.monodromy_group().order() == 4 * k
            info = cells_and_surface(delta)
            assert info.orientability == "non-orientable"
            assert info.signed_genus == -1  # projective plane
            for family, m in (("epsilon", eps), ("delta", delta)):
                presentation = slightly_degenerate_presentation(family, k)
                for relator in presentation.relators:
                    assert evaluate_word(tlr(m), relator).is_identity()


def _vector_product_family():
    maps = []
    for index in (6, 7, 8):
        for a in range(1, 13):
            if 2 * a <= 48:
                maps.append(build_degenerate(index, a))
    for family in ("epsilon", "delta"):
        for a in range(2, 13):
            if 4 * a <= 48:
                maps.append(build_slightly_degenerate(family, a))
    return maps


def test_criterion_3_vector_product_lemma():
    with criterion(3, "vector product lemma", 30.0):
        maps = _vector_product_family()
        vectors = [context_vector(m) for m in maps]
        for i in range(len(maps)):
            for j in range(i, len(maps)):
                product = parallel_product(maps[i], maps[j]).product
                assert context_vector(product) == \
                    lcm_vector_predict(vectors[i], vectors[j])


def test_criterion_4_dm_prime_power_proposition():
    with criterion(4, "DM6/DM7/DM8 prime-power proposition", 60.0):
        for index in (6, 7, 8):
            for k in range(2, 31):
                m = build_degenerate(index, k)
                expected = (k == 2) or not is_prime_power(k)
                verdict = decomposability_reflexible(m)
                assert verdict.decomposable == expected, (index, k)


def test_criterion_5_delta_and_epsilon_propositions():
    with criterion(5, "delta/epsilon propositions", 60.0):
        for n in range(1, 5):
            m = build_slightly_degenerate("delta", 2 ** n)
            assert decomposability_reflexible(m).decomposable is False
        for k in (6, 10, 12, 20):
            m = build_slightly_degenerate("delta", k)
            assert decomposability_reflexible(m).decomposable is True
        dm3 = build_degenerate(3)
        for k in range(2, 11):
            eps = build_slightly_degenerate("epsilon", k)
            product = parallel_product(build_degenerate(7, k), dm3).product
            assert isomorphism(product, eps, mode="generalized") is not None


def test_criterion_6_c4_example(c4_sphere):
    with criterion(6, "C4-on-sphere example", 5.0):
        mon = c4_sphere.monodromy_group()
        minimals = minimal_normal_subgroups(mon)
        assert len(minimals) == 3
        quotients = [monodromy_quotient(c4_sphere, H)[0] for H in minimals]
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                product = parallel_product(quotients[i], quotients[j]).product
                assert isomorphism(product, c4_sphere,
                                   mode="rooted") is not None
        # the Figure 3 automorphism quotient covers back to the original
        from flagmaps import automorphism_quotient
        rotation = vertex_rotation(c4_sphere)
        quotient, _ = automorphism_quotient(
            c4_sphere, PermGroup(c4_sphere.n_flags, [rotation]))
        cover = smallest_reflexible_cover(quotient)
        assert isomorphism(cover, c4_sphere, mode="generalized") is not None


def test_criterion_7_landmark_spot_rows(tetrahedron):
    with criterion(7, "tetrahedron and K4,4-torus spot rows", 30.0):
        sym = genus_symbol(tetrahedron)
        assert sym.genera == (0, 0, -1, -1, -1, -1)
        assert sym.iso_symbol == (1, 1, 3, 3, 5, 5)
        assert sym.hexagonal_number == 3
        assert decomposability_reflexible(tetrahedron).decomposable is False
        # the K4,4 torus map: its order-64 type-1 group, fed through the
        # construction
        relators = "rel tau^2\nrel lambda^2\nrel theta1^2\n" \
                   "rel (tau*lambda)^2\nrel (theta1*tau)^4\n" \
                   "rel (lambda*theta1)^4\nrel (tau*lambda*theta1)^4"
        from flagmaps import parse_presentation
        lg, order = todd_coxeter(
            parse_presentation("gens tau lambda theta1\n" + relators))
        assert order == 64
        k44, report = construct_from_group("1", lg)
        assert k44.n_flags == 64
        assert report.exact
        sym = genus_symbol(k44)
        assert sym.genera == (1, 1, 1, 1, 1, 1)
        assert sym.hexagonal_number == 1


def _sampled_pairs(entries, rng, count):
    small = [e.map for e in entries if e.map.n_flags <= 48]
    return [(small[rng.randrange(len(small))], small[rng.randrange(len(small))])
            for _ in range(count)]


def test_criterion_8_property_suites(default_census, random_maps, c4_sphere,
                                     tetrahedron):
    with criterion(8, "property suites", 300.0):
        rng = random.Random(8)
        census_maps = [e.map for e in default_census.entries]

        # (a) |Aut| <= flags <= |Mon| with equality iff regular
        for m in census_maps + random_maps:
            aut_order = automorphism_group(m).order()
            mon_order = m.monodromy_group().order()
            assert aut_order <= m.n_flags <= mon_order
            assert (aut_order == m.n_flags) == (mon_order == m.n_flags) \
                == is_reflexible(m)

        # (b) Du/Pe distributivity over the product on 20 sampled pairs
        for m, n in _sampled_pairs(default_census.entries, rng, 20):
            assert isomorphism(du(parallel_product(m, n).product),
                               parallel_product(du(m), du(n)).product,
                               mode="rooted") is not None
            assert isomorphism(pe(parallel_product(m, n).product),
                               parallel_product(pe(m), pe(n)).product,
                               mode="rooted") is not None

        # (c) morphism images are K-quotients, for 20 sampled (map, K) pairs
        sampled = 0
        for m in [c4_sphere, tetrahedron] + census_maps:
            if sampled >= 20:
                break
            for word in ("r", "rt", "lr", "tlr", "rl"):
                if sampled >= 20:
                    break
                K = PermGroup(m.n_flags, [evaluate_word(
                    tlr(m), tuple((ch, 1) for ch in word))])
                try:
                    _, phi = k_quotient(m, K)
                except ValueError:
                    continue
                result = morphism_to_k_quotient(phi)
                assert isomorphism(result.quotient, phi.target,
                                   mode="rooted") is not None
                sampled += 1
        assert sampled == 20

        # (d) every automorphism projects along sampled monodromy quotients
        sources = [c4_sphere, build_slightly_degenerate("epsilon", 6),
                   build_degenerate(6, 12)]
        for m in sources:
            aut = automorphism_group(m)
            for H in minimal_normal_subgroups(m.monodromy_group()):
                _, proj = monodromy_quotient(m, H)
                for a in aut.elements():
                    project_automorphism(proj, a)  # raises on failure

        # (e) decomposability agrees with the all-normal-pairs oracle
        checked = 0
        for m in census_maps + random_maps:
            if m.monodromy_group().order() <= 64:
                assert decomposability_general(m).decomposable \
                    == decomposable_brute(m)
                checked += 1
        assert checked >= 50


def test_criterion_9_triality_algebra(default_census):
    with criterion(9, "triality algebra", 60.0):
        for entry in default_census.entries:
            m = entry.map
            assert isomorphism(du(du(m)), m, mode="generalized") is not None
            assert isomorphism(pe(pe(m)), m, mode="generalized") is not None
            dupe = du(pe(m))
            third = du(pe(du(pe(dupe))))
            assert isomorphism(third, m, mode="generalized") is not None


def test_criterion_10_edge_transitive_machinery(default_census, tetrahedron):
    with criterion(10, "edge-transitive machinery", 60.0):
        label, rooted = classify_type(tetrahedron)
        assert label == "1"
        assert named_automorphisms_present(rooted) == \
            frozenset(NAMED_AUTOMORPHISM_WORDS)
        # conversion table against Du/Pe on all edge-transitive census maps
        for entry in default_census.entries:
            classified = classify_type(entry.map)
            assert classified is not None  # reflexible, hence edge-transitive
            t_label, rooted = classified
            du_label, pe_label = type_transforms(t_label)
            assert classify_type(du(rooted))[0] == du_label
            assert classify_type(pe(rooted))[0] == pe_label
        # construct_from_group round-trips type-1 inputs
        for m in [tetrahedron, build_slightly_degenerate("epsilon", 5)]:
            lg = LabeledGenerators(("tau", "lambda", "theta1"), m.generators())
            result, report = construct_from_group("1", lg)
            assert report.exact
            assert isomorphism(result, m, mode="generalized") is not None


def test_criterion_11_families_at_a_thousand():
    # the family sizes of the ROADMAP's proposed workload at the paper's sizes
    with criterion(11, "DM6/7/8 and epsilon/delta builds at k = 1000", 2.0):
        for index in (6, 7, 8):
            for k in (1000, 1001):
                m = build_degenerate(index, k)
                assert m.n_flags == 2 * k
                assert context_vector(m) == dm_vector(index, k)
        for family, orders in (("epsilon", (2, 2, 2, 2, 2, 1000, 1000)),
                               ("delta", (2, 2, 2, 2, 2, 2000, 2000))):
            m = build_slightly_degenerate(family, 1000)
            assert m.n_flags == 4000
            assert context_vector(m).orders == orders
