"""The independent list of rooted maps (``rooted_map_oracle``) against
Hall's count, and the package's canonical form, reflexibility, type-1
construction and type classification on every map it lists."""

from collections import Counter

import pytest

from flagmaps import (LabeledGenerators, Perm, RootedMap, classify_type,
                      construct_from_group, is_reflexible, isomorphism,
                      save_map)

from .rooted_map_oracle import hall_counts, rooted_maps

MOST = 10
COUNTS = [1, 7, 9, 43, 65, 279, 469, 1923, 3537, 13983]


@pytest.fixture(scope="module")
def listed():
    return [RootedMap(*map(Perm, tables)) for tables in rooted_maps(MOST)]


@pytest.fixture(scope="module")
def reflexible(listed):
    return [m for m in listed if is_reflexible(m)]


def test_list_and_count_agree(listed):
    flags = Counter(m.n_flags for m in listed)
    assert [flags[n] for n in range(1, MOST + 1)] == COUNTS
    assert hall_counts(MOST) == COUNTS


def test_listed_maps_have_distinct_canonical_forms(listed):
    assert len(listed) == 20_316
    assert len(set(map(save_map, listed))) == len(listed)


def test_reflexible_maps_are_their_type_1_constructions(reflexible):
    assert len(reflexible) == 28
    assert sum(m.n_flags <= 8 for m in reflexible) == 25
    for m in reflexible:
        built, _ = construct_from_group("1", LabeledGenerators(
            ("tau", "lambda", "theta1"), m.generators()))
        assert isomorphism(built, m, mode="rooted") is not None


def test_edge_transitive_types_up_to_eight_flags(listed):
    types = Counter()
    for m in listed:
        if m.n_flags <= 8:
            classified = classify_type(m)
            if classified is not None:
                types[classified[0]] += 1
    assert types == {"1": 25, **dict.fromkeys(
        ("2", "2*", "2P", "3", "4", "4*", "4P"), 8)}
