import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagmaps import (LabeledGenerators, Perm, PermGroup, RootedMap,
                      automorphism_group, build_degenerate,
                      build_slightly_degenerate, cells, classify_type,
                      construct_from_group, context_vector, du,
                      is_edge_transitive, is_reflexible, isomorphism,
                      k_quotient, map_symbol, named_automorphisms_present,
                      partial_order, pe, reroot, type_transforms, word_order)
from flagmaps.ettype import (NAMED_AUTOMORPHISM_WORDS, TYPE_GENERATORS,
                             TYPE_LABELS, TYPE_REQUIRED_RELATIONS, TYPE_TABLE,
                             DegenerateSymbolAdvisory, LabelMismatch,
                             RelationViolation, _CONSTRUCTIONS,
                             _cell_sizes_by_orbit)
from flagmaps.fpres import _normalize, parse_word
from flagmaps.mapcore import CONTEXT_WORDS, GENERATOR_NAMES

from . import oracles
from .conftest import map_from_vector
from .oracles import automorphisms_brute
from .test_equivariant_map import maps


def test_reflexible_has_all_thirteen(tetrahedron):
    assert named_automorphisms_present(tetrahedron) == \
        frozenset(NAMED_AUTOMORPHISM_WORDS)


def test_classify_tetrahedron(tetrahedron):
    label, rooted = classify_type(tetrahedron)
    assert label == "1"


def test_classify_eps5():
    label, _ = classify_type(build_slightly_degenerate("epsilon", 5))
    assert label == "1"


def test_classify_fig3_quotient(fig3_quotient):
    # the 8-flag path map is edge-transitive of type 2 at every rooting
    assert is_edge_transitive(fig3_quotient)
    label, rooted = classify_type(fig3_quotient)
    assert label == "2"
    assert named_automorphisms_present(rooted) == TYPE_TABLE["2"]


def test_classify_non_edge_transitive(tetrahedron):
    K = PermGroup(tetrahedron.n_flags, [tetrahedron.r])
    quotient, _ = k_quotient(tetrahedron, K)
    assert classify_type(quotient) is None


def test_map_symbol_tetrahedron(tetrahedron):
    assert str(map_symbol(tetrahedron)) == "<3; 3; 4>"


def test_map_symbol_k44_torus():
    k44 = map_from_vector((2, 2, 2, 2, 4, 4, 4))
    sym = map_symbol(k44)
    assert (sym.a, sym.b, sym.c) == ((4,), (4,), (4,))


def test_map_symbol_fig3(fig3_quotient):
    sym = map_symbol(fig3_quotient)
    assert len(sym.a) == 2  # two vertex orbits (type 2 shape)
    assert len(sym.b) == 1 and len(sym.c) == 1
    assert sym.b[0] % 2 == 0 and sym.c[0] % 2 == 0


def test_map_symbol_rejects_degenerate():
    from flagmaps import build_degenerate
    with pytest.raises(DegenerateSymbolAdvisory):
        map_symbol(build_degenerate(9))


def test_type_transforms_table():
    assert {label: type_transforms(label) for label in TYPE_LABELS} == {
        "1": ("1", "1"), "2": ("2*", "2"), "2*": ("2", "2P"),
        "2P": ("2P", "2*"), "2ex": ("2*ex", "2ex"), "2*ex": ("2ex", "2Pex"),
        "2Pex": ("2Pex", "2*ex"), "3": ("3", "3"), "4": ("4*", "4"),
        "4*": ("4", "4P"), "4P": ("4P", "4*"), "5": ("5*", "5"),
        "5*": ("5", "5P"), "5P": ("5P", "5*")}


def test_type_transforms_are_involutions():
    for label in TYPE_LABELS:
        du_label, pe_label = type_transforms(label)
        assert type_transforms(du_label)[0] == label
        assert type_transforms(pe_label)[1] == label


def test_partial_order_against_type_one():
    for label in TYPE_LABELS:
        assert partial_order(label, "1")
    assert partial_order("5", "2")
    assert not partial_order("2", "5")
    assert not partial_order("2", "2*")


def regular_rep_labeled(m, labels=("tau", "lambda", "theta1")):
    return LabeledGenerators(labels, m.generators())


def test_construct_type1_round_trip(tetrahedron):
    result, report = construct_from_group("1", regular_rep_labeled(tetrahedron))
    assert result.n_flags == 24
    assert report.exact and report.detected == "1"
    assert isomorphism(result, tetrahedron, mode="generalized") is not None


def test_construct_type2_s3_example():
    g = LabeledGenerators(
        ("tau", "theta1", "theta2"),
        (Perm.from_cycles(3, [(0, 1)]), Perm.from_cycles(3, [(0, 1)]),
         Perm.from_cycles(3, [(1, 2)])))
    result, report = construct_from_group("2", g)
    assert result.n_flags == 12  # |S3| x |Z2|
    assert report.requested == "2"
    assert report.detected is not None  # record: the report is the contract


def test_construct_type3_flag_count():
    gens = (Perm.from_cycles(4, [(0, 1)]), Perm.from_cycles(4, [(1, 2)]),
            Perm.from_cycles(4, [(2, 3)]), Perm.from_cycles(4, [(0, 3)]))
    g = LabeledGenerators(("theta1", "theta2", "theta3", "theta4"), gens)
    result, report = construct_from_group("3", g)
    assert result.n_flags == 4 * g.group().order()


def test_construct_type5_no_relations_needed():
    g = LabeledGenerators(
        ("sigma_x1", "sigma_x2"),
        (Perm.from_cycles(3, [(0, 1, 2)]), Perm.from_cycles(3, [(0, 1)])))
    result, report = construct_from_group("5", g)
    assert result.n_flags == 4 * 6


def test_construct_label_mismatch(tetrahedron):
    with pytest.raises(LabelMismatch):
        construct_from_group("2", regular_rep_labeled(tetrahedron))


def test_construct_relation_violation():
    g = LabeledGenerators(
        ("tau", "theta1", "theta2"),
        (Perm.from_cycles(3, [(0, 1, 2)]),  # tau not an involution
         Perm.from_cycles(3, [(0, 1)]), Perm.from_cycles(3, [(1, 2)])))
    with pytest.raises(RelationViolation):
        construct_from_group("2", g)


def walk_rows(moves, composite, sheet):
    """The sheet that the rows ``composite`` (indices into T, L, R), read
    in turn from ``sheet``, end on, and the free reduction of the word of
    group labels they read ("-label" is the inverse)."""
    letters = []
    for row in composite:
        name, _, target = moves[row][sheet].partition(":")
        if name:
            letters.append((name.lstrip("-"), -1 if name[0] == "-" else 1))
        sheet = int(target)
    return sheet, _normalize(letters)


@pytest.mark.parametrize("type_label", sorted(_CONSTRUCTIONS))
def test_required_relations_are_exactly_what_the_rows_need(type_label):
    # T^2, L^2, R^2 and (TL)^2 return every flag (g, s) to its sheet s, and
    # to g exactly when the composite's label word is trivial in the group:
    # the non-trivial words are the type's required relations
    sheets, rows = _CONSTRUCTIONS[type_label]
    moves = [row.split() for row in rows]
    assert [len(row) for row in moves] == [sheets] * 3
    words = set()
    for composite in ((0, 0), (1, 1), (2, 2), (0, 1, 0, 1)):
        for sheet in range(sheets):
            end, word = walk_rows(moves, composite, sheet)
            assert end == sheet, (composite, sheet)
            if word:
                words.add(word)
    assert words == set(map(parse_word, TYPE_REQUIRED_RELATIONS[type_label]))


def test_constructed_group_acts_regularly_on_blocks():
    g = LabeledGenerators(
        ("tau", "theta1", "theta2"),
        (Perm.from_cycles(3, [(0, 1)]), Perm.from_cycles(3, [(0, 1)]),
         Perm.from_cycles(3, [(1, 2)])))
    result, _ = construct_from_group("2", g)
    order = g.group().order()
    s_size = result.n_flags // order
    blocks = [tuple(range(i * s_size, (i + 1) * s_size))
              for i in range(order)]
    # left translations by group elements are automorphisms permuting the
    # blocks; regularity: block 0 reaches every block exactly once
    elements = list(g.group().elements())
    index = {e: i for i, e in enumerate(elements)}
    reached = set()
    for h in elements:
        images = [0] * result.n_flags
        for ei, e in enumerate(elements):
            target = index[h * e]
            for offset in range(s_size):
                images[ei * s_size + offset] = target * s_size + offset
        translation = Perm(images)
        for gen in result.generators():
            assert translation * gen == gen * translation
        reached.add(images[0] // s_size)
    assert reached == set(range(order))


def test_du_pe_conversion_on_samples(tetrahedron, fig3_quotient):
    for m in (tetrahedron, fig3_quotient,
              build_slightly_degenerate("epsilon", 3)):
        label, rooted = classify_type(m)
        du_label, pe_label = type_transforms(label)
        assert classify_type(du(rooted))[0] == du_label
        assert classify_type(pe(rooted))[0] == pe_label


def test_smallest_cover_of_edge_transitive_shares_monodromy(fig3_quotient):
    # product of the 4 simple re-rootings is reflexible with congruent Mon
    from flagmaps import simple_reroots
    from flagmaps.product import fold_parallel_product
    from flagmaps import is_reflexible, congruent_labeled_groups
    n = fold_parallel_product(simple_reroots(fig3_quotient))
    assert is_reflexible(n)
    assert congruent_labeled_groups(
        LabeledGenerators(("t", "l", "r"), n.generators()),
        LabeledGenerators(("t", "l", "r"), fig3_quotient.generators()))


@pytest.fixture(scope="module")
def type4_map():
    g = LabeledGenerators(
        ("sigma_x1", "theta2", "theta4"),
        (Perm.from_cycles(4, [(0, 1, 2, 3)]),
         Perm.from_cycles(4, [(0, 1)]),
         Perm.from_cycles(4, [(1, 3)])))
    return construct_from_group("4", g)


def test_construct_type4_exact(type4_map):
    result, report = type4_map
    assert result.n_flags == 96
    assert report.exact and report.detected == "4"
    assert not report.extra_automorphisms


def test_type4_symbol_side_conditions(type4_map):
    result, _ = type4_map
    label, rooted = classify_type(result)
    sym = map_symbol(rooted, label)
    assert len(sym.a) == 2 and all(x % 2 == 0 for x in sym.a)
    assert len(sym.b) == 1 and sym.b[0] % 4 == 0
    assert len(sym.c) == 1 and sym.c[0] % 4 == 0


def test_type4_duality_conversion(type4_map):
    result, _ = type4_map
    _, rooted = classify_type(result)
    assert classify_type(du(rooted))[0] == "4*"
    assert classify_type(pe(rooted))[0] == "4"
    assert classify_type(pe(du(rooted)))[0] == "4P"


def test_construct_collapse_is_reported():
    # extra automorphisms may appear; the report records the collapse
    g = LabeledGenerators(
        ("tau", "sigma_f1"),
        (Perm.from_cycles(4, [(0, 1)]), Perm.from_cycles(4, [(0, 1, 2, 3)])))
    _, report = construct_from_group("2ex", g)
    assert report.detected == "1"
    assert not report.exact
    assert report.extra_automorphisms


def test_boundary_degenerate_symbol_names_failed_condition():
    # R fixes flags 3 and 5, so the halved cell sizes miss the type's
    # divisibility condition; the failure names that condition
    from flagmaps import load_map
    from flagmaps.ettype import SymbolConditionFailed
    from .conftest import BOUNDARY_TYPE4_TEXT
    label, rooted = classify_type(load_map(BOUNDARY_TYPE4_TEXT))
    assert label == "4"
    with pytest.raises(SymbolConditionFailed) as info:
        map_symbol(rooted, label)
    assert info.value.type_label == "4"
    assert info.value.condition == "2|a"


def block_index(blocks, n):
    """For each of the n points, the index of its block in a partition."""
    block_of = [0] * n
    for i, block in enumerate(blocks):
        for x in block:
            block_of[x] = i
    return block_of


def brute_cell_orbits(m, blocks, auts):
    """The cell partition that the automorphisms induce, as sets of cell
    indices: the root's cell's orbit first, the others by least cell."""
    cell_of = block_index(blocks, m.n_flags)
    orbits = sorted({frozenset(cell_of[a.images[block[0]]] for a in auts)
                     for block in blocks}, key=min)
    orbits.sort(key=lambda orbit: cell_of[m.root] not in orbit)
    return orbits


@pytest.fixture(scope="module")
def boundary_degenerate(random_maps):
    """Maps whose T, L or R fix flags, as (name, map) pairs: the random
    maps, the type-3 and type-4 constructions over Z2 (R fixes flags), and
    DM6 and DM7 (L or T fixes flags; edge-transitive with several edges)."""
    identity, swap = Perm.identity(2), Perm([1, 0])
    out = [(f"random-{i}", m) for i, m in enumerate(random_maps)]
    for type_label in ("3", "4"):
        labels = TYPE_GENERATORS[type_label]
        for images in itertools.product((identity, swap), repeat=len(labels)):
            if swap in images:
                m, _ = construct_from_group(
                    type_label, LabeledGenerators(labels, images))
                out.append((f"type{type_label}-Z2-{images}", m))
    out += [(f"DM{index}-{k}", build_degenerate(index, k))
            for index in (6, 7) for k in range(1, 7)]
    return out


def check_edge_transitivity(m, auts):
    """is_edge_transitive, which reads only Aut, against the Aut-orbits of
    the edges by brute force."""
    brute = len(brute_cell_orbits(m, cells(m).edges, auts)) == 1
    assert is_edge_transitive(m) == brute
    return brute


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_cell_orbits_match_brute_force_automorphisms(
        constructions, boundary_degenerate, data):
    m = data.draw(maps(constructions + boundary_degenerate))
    auts = automorphisms_brute(m)
    # one cell size per Aut-orbit of each cell kind, in the brute orbits'
    # order; automorphisms keep cell sizes
    cs = cells(m)
    for blocks in (cs.vertices, cs.edges, cs.faces, cs.petrie_circuits):
        sizes = [{len(blocks[i]) for i in orbit}
                 for orbit in brute_cell_orbits(m, blocks, auts)]
        assert all(len(size) == 1 for size in sizes)
        assert _cell_sizes_by_orbit(m, blocks) == [size.pop() for size in sizes]
    check_edge_transitivity(m, auts)


def test_edge_transitivity_of_boundary_degenerate_maps(boundary_degenerate):
    # where T or L fix flags the root edge has fewer than four flags; every
    # rooting of every map is checked
    verdicts = set()
    for _, base in boundary_degenerate:
        auts = automorphisms_brute(base)
        for root in range(base.n_flags):
            m = RootedMap(*base.generators(), root=root)
            folded = bool(m.t.fixed_points() or m.l.fixed_points())
            verdicts.add((check_edge_transitivity(m, auts), folded,
                          len(cells(m).edges) > 1))
    assert {(True, True, True), (False, True, True),
            (True, False, True)} <= verdicts


def test_named_automorphisms_and_types_at_every_flag(constructions,
                                                     boundary_degenerate):
    # the flags labeled by Aut-orbit once per map, against an automorphism
    # searched for each word at each rooting; the re-rootings share the
    # map's labels, as classify_type's do
    types = set()
    for _, base in constructions + boundary_degenerate:
        named_automorphisms_present(base)
        for root in range(base.n_flags):
            m = reroot(base, root)
            fresh = RootedMap(*base.generators(), root=root)
            assert (named_automorphisms_present(m)
                    == oracles.named_automorphisms_present(fresh))
            got, want = classify_type(m), oracles.classify_type(fresh)
            assert (got and (got[0], got[1].root, got[1].generators())) == (
                want and (want[0], want[1].root, want[1].generators()))
            types.add(got and got[0])
    assert {None, "1", "2", "2P", "3", "4"} <= types


def word_orders(m):
    lg = LabeledGenerators(GENERATOR_NAMES, m.generators())
    return tuple(word_order(lg, w) for w in CONTEXT_WORDS)


def test_context_orders_of_reroots_are_the_word_orders(
        constructions, boundary_degenerate):
    # test_words checks each map at its root; here every re-rooting that
    # shares Mon and Aut asks first, and reads the orders from its own
    # root, or from one flag per Aut-orbit, on boundary-degenerate maps
    # and maps with trivial and nontrivial Aut
    kinds = set()
    for _, m in constructions + boundary_degenerate:
        want = word_orders(m)
        base = RootedMap(*m.generators(), root=m.root)
        aut = automorphism_group(base)
        kinds.add((is_reflexible(base), aut.order() > 1))
        for root in range(base.n_flags):
            first = reroot(base, root)
            assert automorphism_group(first) is aut
            assert context_vector(first).orders == want
            assert context_vector(reroot(first, base.root)).orders == want
    assert {(False, False), (False, True), (True, True)} <= kinds
