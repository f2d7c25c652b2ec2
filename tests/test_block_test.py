"""The block test that settles decomposability without listing Mon.

M = M1 v M2 with proper factors needs two proper blocks of G = <Mon(M),
Aut(M)> at the root that meet only in the root (the root orbits of the two
witnesses, which Aut permutes since it centralizes Mon).
``decomp._root_blocks_meet_only_in_root`` looks for such a pair among the
least blocks B_x of G holding the root and x, found by
``perm._least_block`` once per orbit of a group of root fixers; when there
is none, the verdict is "indecomposable" with no element of Mon listed.
The least block is checked against a brute-force least invariant
partition, the root fixers against the root and G, every settled verdict
against the all-pairs oracle, every other verdict against the full
minimal-normal search, and three unsound block tests must be caught by the
same checks.
"""

import itertools
import json
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagmaps import (LabeledGenerators, Perm, PermGroup, RootedMap,
                      analyze_map, construct_from_group,
                      decomposability_general, save_map)
from flagmaps import decomp
from flagmaps.cli import main
from flagmaps.ettype import TYPE_GENERATORS
from flagmaps.mapcore import automorphism_group
from flagmaps.perm import (_breadth_first_tree, _least_block,
                           _orbit_partition)

from .conftest import random_rooted_map
from .oracles import (automorphisms_brute, breadth_first_numbering,
                      decomposable_brute)
from .test_decomp import verdict_facts

# A 7-flag map whose monodromy group is S7 (T, L, R images and the root).
S7_MAP = ((1, 0, 3, 2, 4, 5, 6), (2, 3, 0, 1, 5, 4, 6),
          (2, 1, 0, 4, 3, 6, 5), 0)

# |Mon| up to which a settled verdict is compared with the all-pairs oracle;
# above it, with the full minimal-normal search.
BRUTE_MON_LIMIT = 128


def set_partitions(points):
    """Every partition of the list ``points``, as lists of blocks."""
    if not points:
        yield []
        return
    first, rest = points[0], points[1:]
    for partition in set_partitions(rest):
        yield [[first]] + partition
        for i in range(len(partition)):
            yield partition[:i] + [[first] + partition[i]] + partition[i + 1:]


def least_block_brute(tables, n, a, b):
    """The class of a in the meet of every partition of {0..n-1} that joins
    a and b and that each table maps onto itself, found by trying them all."""
    meet = set(range(n))
    for partition in set_partitions(list(range(n))):
        block_of = {x: i for i, block in enumerate(partition) for x in block}
        if block_of[a] != block_of[b]:
            continue
        if all(len({block_of[images[x]] for x in block}) == 1
               for images in tables for block in partition):
            meet &= set(partition[block_of[a]])
    return sorted(meet)


@st.composite
def block_cases(draw):
    """1-3 permutations of at most 6 points and two points, often equal."""
    n = draw(st.integers(1, 6))
    tables = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=3))
    point = st.integers(0, n - 1)
    return tables, n, draw(point), draw(point)


@settings(deadline=None, max_examples=300)
@given(block_cases())
def test_least_block_matches_brute_force(case):
    assert _least_block(*case) == least_block_brute(*case)


def test_least_block_of_named_groups():
    # S4 is 2-transitive, so primitive; D4 on the square's corners keeps
    # the diagonals {0, 2} and {1, 3} together and nothing finer
    s4 = [(1, 2, 3, 0), (1, 0, 2, 3)]
    assert all(_least_block(s4, 4, 0, x) == [0, 1, 2, 3] for x in (1, 2, 3))
    d4 = [(1, 2, 3, 0), (0, 3, 2, 1)]
    assert _least_block(d4, 4, 0, 2) == [0, 2]
    assert _least_block(d4, 4, 0, 1) == [0, 1, 2, 3]


# --- verdicts -----------------------------------------------------------------

def boundary_constructions():
    """Every type-3 and type-4 construction over Z2 with at least one
    non-identity generator; many fix flags (boundary-degenerate maps)."""
    identity, swap = Perm((0, 1)), Perm((1, 0))
    out = []
    for type_label in ("3", "4"):
        labels = TYPE_GENERATORS[type_label]
        for gens in itertools.product((identity, swap), repeat=len(labels)):
            if all(g == identity for g in gens):
                continue
            m, _ = construct_from_group(type_label,
                                        LabeledGenerators(labels, gens))
            bits = "".join("1" if g == swap else "0" for g in gens)
            out.append((f"boundary-type{type_label}-{bits}", m))
    return out


def least_block_orbital(tables, n, a, b):
    """The least block holding a and b, another way: the component of a in
    the orbital graph whose edges {a . g, b . g} are the orbit of the pair
    (a, b) under the tables (Dixon and Mortimer, Permutation Groups, 1.5)."""
    edges = [(a, b)]
    seen = set(edges)
    for x, y in edges:  # grows while it is read: a breadth-first queue
        for images in tables:
            edge = (images[x], images[y])
            if edge not in seen:
                seen.add(edge)
                edges.append(edge)
    neighbours = [[] for _ in range(n)]
    for x, y in edges:
        neighbours[x].append(y)
        neighbours[y].append(x)
    component = [a]
    for x in component:  # grows while it is read: a breadth-first queue
        for y in neighbours[x]:
            if y not in component:
                component.append(y)
    return sorted(component)


def two_root_blocks_meet_only_in_root(m, with_aut=True):
    """The block test's premise, from the orbital graphs of Mon and every
    automorphism (``oracles.automorphisms_brute``), or of Mon alone."""
    tables = [g.images for g in m.generators()]
    if with_aut:
        tables += [a.images for a in automorphisms_brute(m)]
    blocks = [set(least_block_orbital(tables, m.n_flags, m.root, x))
              for x in range(m.n_flags) if x != m.root]
    proper = [block for block in blocks if len(block) < m.n_flags]
    return any(len(b1 & b2) == 1 for b1, b2 in itertools.combinations(proper, 2))


@pytest.fixture(scope="module")
def block_corpus(constructions):
    """Seeded random maps, the type 2-5 constructions over V4, S3, D4 and
    D5, the Z2 boundary constructions and the S7 map.  Each comes with the
    verdict facts of the full minimal-normal search on it (unknown when Mon
    is too large to list) and with the all-pairs oracle's verdict when
    |Mon| <= BRUTE_MON_LIMIT."""
    rng = random.Random(20261019)
    maps = [(f"random-{i}", random_rooted_map(rng, rng.randint(1, 4)))
            for i in range(80)]
    maps += constructions + boundary_constructions()
    t, l, r, root = S7_MAP
    maps.append(("mon-s7", RootedMap(Perm(t), Perm(l), Perm(r), root=root)))
    corpus = []
    for name, m in maps:
        mon = m.monodromy_group()
        order = mon.order()  # known, so a Mon too large raises at once
        search = decomp._minimal_normal_search(m, mon, "monodromy")
        brute = decomposable_brute(m) if order <= BRUTE_MON_LIMIT else None
        corpus.append((name, m, verdict_facts(search), brute))
    return corpus


def block_test_problems(block_corpus):
    """The maps on which decomposability_general disagrees with the checks.
    A verdict the block test settles must be indecomposable under the
    all-pairs oracle and the full search; when Mon is too large for both,
    the orbital graphs must confirm that no two proper root blocks meet
    only in the root.  Any other verdict must be the full search's, with
    its witnesses, factors and certificate."""
    problems = []
    for name, m, search, brute in block_corpus:
        verdict = decomposability_general(m)
        if verdict.reason != decomp.BLOCK_TEST_REASON:
            if verdict_facts(verdict) != search:
                problems.append(name)
        elif (verdict.decomposable is not False or brute or search[0]
              or (search[0] is None
                  and two_root_blocks_meet_only_in_root(m))):
            problems.append(name)
    return problems


def test_settled_verdicts_are_sound(block_corpus):
    assert block_test_problems(block_corpus) == []
    verdicts = {name: decomposability_general(m)
                for name, m, _, _ in block_corpus}
    settled = {name for name, v in verdicts.items()
               if v.reason == decomp.BLOCK_TEST_REASON}
    # unknown before: Mon too large to list, and now settled
    unknown_before = {name for name, _, search, _ in block_corpus
                      if search[0] is None}
    assert "mon-s7" in settled and len(settled) >= 30
    assert unknown_before and unknown_before <= settled
    assert sum(bool(v.decomposable) for v in verdicts.values()) >= 10


def test_least_block_matches_orbital_graphs(block_corpus):
    for _, m, _, _ in block_corpus[:40]:
        tables = [g.images for g in m.generators()]
        for x in range(m.n_flags):
            assert (_least_block(tables, m.n_flags, m.root, x)
                    == least_block_orbital(tables, m.n_flags, m.root, x))


def settles_at_first_proper_block(m, mon):
    """Unsound: the test ends at the first proper block and settles there,
    with no meet check, so it settles every map."""
    return False


def compares_the_first_two_proper_blocks(m, mon):
    """Unsound: only the first two proper blocks are compared."""
    tables = [g.images for g in mon.generators]
    proper = []
    for x in _breadth_first_tree(tables, m.root, m.n_flags)[0][1:]:
        block = set(_least_block(tables, m.n_flags, m.root, x))
        if len(block) < m.n_flags:
            proper.append(block)
        if len(proper) == 2:
            return len(proper[0] & proper[1]) == 1
    return False


def closes_once_per_aut_orbit(m, mon):
    """Unsound: one closure per orbit of Aut, whose elements move the root,
    so B_{x.a} = B_x is taken for granted where it fails."""
    mon_tables = [g.images for g in mon.generators]
    aut_tables = [a.images for a in automorphism_group(m).generators]
    orbit_of = _orbit_partition(aut_tables, m.n_flags)[0]
    done = set()
    blocks = []
    for x in _breadth_first_tree(mon_tables, m.root, m.n_flags)[0][1:]:
        if orbit_of[x] in done:
            continue
        done.add(orbit_of[x])
        block = set(_least_block(mon_tables + aut_tables, m.n_flags,
                                 m.root, x))
        if len(block) == m.n_flags:
            continue
        if any(len(block & other) == 1 for other in blocks):
            return True
        blocks.append(block)
    return False


DECOMPOSABLE_BOUNDARY = {
    "boundary-type3-0011", "boundary-type3-0101", "boundary-type3-0110",
    "boundary-type3-1001", "boundary-type3-1010", "boundary-type3-1100",
    "boundary-type4-011", "boundary-type4-100"}


@pytest.mark.parametrize("mutant, caught", [
    (settles_at_first_proper_block,
     DECOMPOSABLE_BOUNDARY | {"type5-S3-1", "type3-S3-0", "type3-S3-1"}),
    (compares_the_first_two_proper_blocks,
     {"boundary-type3-0110", "boundary-type3-1001"}),
    (closes_once_per_aut_orbit,
     {"boundary-type3-1001", "type3-S3-0", "type3-S3-1", "type5-S3-1",
      "type5-D5-0", "type5-D5-1"}),
])
def test_unsound_block_tests_are_caught(monkeypatch, block_corpus, mutant,
                                        caught):
    monkeypatch.setattr(decomp, "_root_blocks_meet_only_in_root", mutant)
    assert caught <= set(block_test_problems(block_corpus))


def test_root_fixers_fix_the_root_inside_mon_and_aut(block_corpus):
    # each h = a * u^-1 fixes the root and lies in <Mon, Aut>, and the
    # least block B_x is the same along each orbit of the group they make
    tried = 0
    for name, m, _, _ in block_corpus:
        mon = m.monodromy_group()
        aut = automorphism_group(m)
        if mon.is_regular() or aut.is_trivial():
            continue
        mon_tables = [g.images for g in mon.generators]
        aut_tables = [a.images for a in aut.generators]
        order, parent = _breadth_first_tree(mon_tables, m.root, m.n_flags)
        walk = list(breadth_first_numbering(mon_tables, m.root))
        assert order == walk, name
        fixers = decomp._root_fixers(mon_tables, aut_tables, m.root, parent)
        assert len(fixers) == len(aut_tables)
        both = PermGroup(m.n_flags, mon.generators + aut.generators)
        for h in fixers:
            assert h[m.root] == m.root, name
            assert both.contains(Perm(h)), name
        orbit_of = _orbit_partition(fixers, m.n_flags)[0]
        least = {}
        for x in range(m.n_flags):
            block = _least_block(mon_tables + aut_tables, m.n_flags, m.root, x)
            assert least.setdefault(orbit_of[x], block) == block, name
        tried += 1
    assert tried >= 20


# --- nothing listed -------------------------------------------------------------

def count_calls(mp, owner, name):
    """The calls to ``owner.name`` from now on, recorded through the
    MonkeyPatch ``mp``."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    mp.setattr(owner, name, counted)
    return calls


def test_s7_analysis_lists_no_element(monkeypatch):
    t, l, r, root = S7_MAP
    m = RootedMap(Perm(t), Perm(l), Perm(r), root=root)
    listed = count_calls(monkeypatch, PermGroup, "elements")
    searched = count_calls(monkeypatch, decomp, "_minimal_normals")
    report = analyze_map(m)
    assert listed == searched == []
    assert report.monodromy_order == 5040
    assert report.decomposability == {
        "decomposable": False, "witness_orders": None,
        "witness_group": "monodromy", "certificate_checked": False,
        "reason": decomp.BLOCK_TEST_REASON}


def test_d5_construction_settled_by_aut_lists_nothing(monkeypatch,
                                                       constructions):
    # |Mon| = 1000; two proper blocks of Mon alone meet only in the root,
    # so only the blocks of <Mon, Aut> settle the verdict.  The fixture's
    # map keeps what the corpus found on it, so a new one is built
    built = dict(constructions)["type3-D5-0"]
    m = RootedMap(*built.generators(), root=built.root)
    assert two_root_blocks_meet_only_in_root(m, with_aut=False)
    assert not two_root_blocks_meet_only_in_root(m)
    listed = count_calls(monkeypatch, PermGroup, "_listed")
    searched = count_calls(monkeypatch, decomp, "_minimal_normals")
    report = analyze_map(m)
    assert listed == searched == []
    mon = m.monodromy_group()
    assert mon._chain is not None and mon._order == mon.chain().order()
    assert report.monodromy_order == mon.chain().order() == 1000
    assert report.decomposability["decomposable"] is False
    assert report.decomposability["reason"] == decomp.BLOCK_TEST_REASON


def giant_map(n_flags):
    """The maps of the giant-group problem: every edge free, R a random
    fixed-point-free involution from random.Random(1), drawn again until
    the map is connected.  Mon is then almost always A_n or S_n."""
    rng = random.Random(1)
    t_images, l_images = [], []
    for a in range(0, n_flags, 4):
        t_images += [a + 1, a, a + 3, a + 2]
        l_images += [a + 2, a + 3, a, a + 1]
    while True:
        points = list(range(n_flags))
        rng.shuffle(points)
        r_images = [0] * n_flags
        for a, b in zip(points[::2], points[1::2]):
            r_images[a], r_images[b] = b, a
        m = RootedMap(Perm(t_images), Perm(l_images), Perm(r_images), root=0)
        if m.monodromy_group().is_transitive():
            return m


def test_giant_analysis_is_indecomposable():
    report = analyze_map(giant_map(40))
    assert report.decomposability["decomposable"] is False
    assert report.decomposability["reason"] == decomp.BLOCK_TEST_REASON


# Seconds for the 200-flag verdict; it took 0.025 s on a 2-core Xeon with
# Python 3.11, the scan for Aut (trivial here, 0.001 s) included, and
# listing Mon took minutes before it ended in a bound.
GIANT_BUDGET_S = 5.0


def test_giant_verdict_lists_nothing_within_budget(monkeypatch):
    m = giant_map(200)
    listed = count_calls(monkeypatch, PermGroup, "elements")
    searched = count_calls(monkeypatch, decomp, "_minimal_normals")
    start = time.perf_counter()
    verdict = decomposability_general(m)
    elapsed = time.perf_counter() - start
    assert (verdict.decomposable, verdict.reason) == (
        False, decomp.BLOCK_TEST_REASON)
    assert listed == searched == []
    assert elapsed < GIANT_BUDGET_S


def test_giant_decompose_exits_zero(capsys, tmp_path):
    path = tmp_path / "giant.map"
    path.write_text(save_map(giant_map(40)))
    assert main(["decompose", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["decomposable"] is False
    assert payload["reason"] == decomp.BLOCK_TEST_REASON
