import json
import time

import pytest

from flagmaps import (analyze_map, build_degenerate, build_slightly_degenerate,
                      census_reflexible, congruent_labeled_groups,
                      isomorphism, load_map, save_map)
from flagmaps.cli import (CENSUS_OUTCOMES, _has_context_orders,
                          candidate_vectors, main, write_census)
from flagmaps.degen import broken_forcing, vector_presentation
from flagmaps.fpres import EnumerationOverflow, todd_coxeter
from flagmaps.mapcore import MapFormatError
from flagmaps.perm import LabeledGenerators


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def dm6_5_file(tmp_path):
    path = tmp_path / "dm6_5.map"
    path.write_text(save_map(build_degenerate(6, 5)))
    return path


def test_analyze_json(capsys, dm6_5_file):
    code, out, _ = run_cli(capsys, "analyze", str(dm6_5_file), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["monodromy_order"] == 10
    assert payload["context_vector"] == [2, 1, 2, 2, 5, 2, 5]
    assert payload["reflexible"] is True


def test_analyze_text(capsys, dm6_5_file):
    code, out, _ = run_cli(capsys, "analyze", str(dm6_5_file))
    assert code == 0
    assert "|Mon|                10" in out


def test_analyze_bad_file(capsys, tmp_path):
    bad = tmp_path / "bad.map"
    bad.write_text("flags 2\nT 0 0\nL 0 1\nR 0 1\nroot 0\n")
    code, _, err = run_cli(capsys, "analyze", str(bad))
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("text, line", [
    ("flags\nT\nL\nR\nroot 0\n", 1),                      # no value
    ("flags 2\nT 1 x\nL 1 0\nR 1 0\nroot 0\n", 2),          # not an int
    ("flags 2\nT 1 0\nL 1 0\nR 1 0\nroot\n", 5),            # no value
])
def test_analyze_malformed_map(capsys, tmp_path, text, line):
    with pytest.raises(MapFormatError, match=f"line {line}:"):
        load_map(text)
    bad = tmp_path / "bad.map"
    bad.write_text(text)
    code, _, err = run_cli(capsys, "analyze", str(bad))
    assert code == 1
    assert f"error: line {line}:" in err


def test_analyze_boundary_degenerate_symbol(capsys, tmp_path):
    # type 4 at its canonical rooting, but R has fixed points: the map
    # symbol's side condition 2|a fails and the report leaves it out
    from .conftest import BOUNDARY_TYPE4_TEXT
    path = tmp_path / "boundary.map"
    path.write_text(BOUNDARY_TYPE4_TEXT)
    code, out, _ = run_cli(capsys, "analyze", str(path), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["edge_transitive_type"] == "4"
    assert payload["orientability"] == "boundary-degenerate"
    assert payload["map_symbol"] is None


def test_product_command(capsys, tmp_path):
    a = tmp_path / "dm2.map"
    b = tmp_path / "dm3.map"
    out = tmp_path / "out.map"
    a.write_text(save_map(build_degenerate(2)))
    b.write_text(save_map(build_degenerate(3)))
    code, _, _ = run_cli(capsys, "product", str(a), str(b), "-o", str(out))
    assert code == 0
    result = load_map(out.read_text())
    dm6_2 = build_degenerate(6, 2)
    assert congruent_labeled_groups(
        LabeledGenerators(("t", "l", "r"), result.generators()),
        LabeledGenerators(("t", "l", "r"), dm6_2.generators()))


def test_du_twice_round_trips(capsys, tmp_path, tetrahedron):
    src = tmp_path / "in.map"
    src.write_text(save_map(tetrahedron))
    once = tmp_path / "once.map"
    twice = tmp_path / "twice.map"
    assert run_cli(capsys, "du", str(src), "-o", str(once))[0] == 0
    assert run_cli(capsys, "du", str(once), "-o", str(twice))[0] == 0
    assert twice.read_text() == src.read_text()


def test_quotient_command(capsys, tmp_path, c4_sphere):
    src = tmp_path / "c4.map"
    src.write_text(save_map(c4_sphere))
    out = tmp_path / "q.map"
    code, _, _ = run_cli(capsys, "quotient", str(src),
                         "--normal-closure", "rtlrtl", "-o", str(out))
    # the normal closure of (RT LR TL)-ish word: just check exit and validity
    assert code == 0
    load_map(out.read_text())


def test_kquotient_command(capsys, tmp_path, tetrahedron):
    src = tmp_path / "tet.map"
    src.write_text(save_map(tetrahedron))
    out = tmp_path / "q.map"
    code, _, _ = run_cli(capsys, "kquotient", str(src),
                         "--subgroup-words", "r", "-o", str(out))
    assert code == 0
    assert load_map(out.read_text()).n_flags == 12


def test_kquotient_stabilizer_error(capsys, tmp_path, fig3_quotient):
    src = tmp_path / "fig3.map"
    src.write_text(save_map(fig3_quotient))
    out = tmp_path / "q.map"
    code, _, err = run_cli(capsys, "kquotient", str(src),
                           "--subgroup-words", "", "-o", str(out))
    assert code == 1


def test_decompose_command(capsys, tmp_path, c4_sphere):
    src = tmp_path / "c4.map"
    src.write_text(save_map(c4_sphere))
    factors = tmp_path / "factors"
    code, out, _ = run_cli(capsys, "decompose", str(src),
                           "--emit-factors", str(factors))
    assert code == 0
    payload = json.loads(out)
    assert payload["decomposable"] is True
    assert payload["certificate_checked"] is True
    assert len(payload["factor_files"]) == 2
    f1 = load_map((factors / "factor1.map").read_text())
    assert f1.n_flags == 8


def test_cover_command(capsys, tmp_path, fig3_quotient, c4_sphere):
    src = tmp_path / "fig3.map"
    src.write_text(save_map(fig3_quotient))
    out = tmp_path / "cover.map"
    code, _, _ = run_cli(capsys, "cover", str(src), "-o", str(out))
    assert code == 0
    cover = load_map(out.read_text())
    assert isomorphism(cover, c4_sphere, mode="generalized") is not None


def test_cover_totally_symmetric_past_the_bound(capsys, tmp_path):
    src = tmp_path / "delta100.map"
    src.write_text(save_map(build_slightly_degenerate("delta", 100)))
    code, _, err = run_cli(capsys, "cover", str(src), "--totally-symmetric",
                           "-o", str(tmp_path / "cover.map"))
    assert code == 2
    assert "resource bound exceeded" in err


def test_cover_totally_symmetric(capsys, tmp_path, tetrahedron):
    src = tmp_path / "tet.map"
    src.write_text(save_map(tetrahedron))
    out = tmp_path / "cover.map"
    code, _, _ = run_cli(capsys, "cover", str(src), "--totally-symmetric",
                         "-o", str(out))
    assert code == 0
    from flagmaps import du as du_op
    cover = load_map(out.read_text())
    assert isomorphism(du_op(cover), cover, mode="generalized") is not None


def test_build_command(capsys, tmp_path):
    out = tmp_path / "dm7_3.map"
    code, _, _ = run_cli(capsys, "build", "dm7", "--k", "3", "-o", str(out))
    assert code == 0
    assert load_map(out.read_text()).n_flags == 6
    out2 = tmp_path / "eps5.map"
    code, _, _ = run_cli(capsys, "build", "epsilon", "--k", "5", "-o", str(out2))
    assert code == 0
    assert load_map(out2.read_text()).n_flags == 20


def test_build_unknown_preset(capsys, tmp_path):
    code, _, err = run_cli(capsys, "build", "nope", "-o",
                           str(tmp_path / "x.map"))
    assert code == 1


@pytest.mark.parametrize("group_type", ["2", "3", "4", "5"])
@pytest.mark.parametrize("text, message", [
    ("degree -1\ngen\n", "line 1: degree '-1'"),
    ("degree 2.5\ngen a 0 1\n", "line 1: degree '2.5'"),
    ("degree 3\ngen\n", "line 2: 'gen' without a label"),
])
def test_construct_malformed_group(capsys, tmp_path, group_type, text,
                                   message):
    grp = tmp_path / "g.grp"
    grp.write_text(text)
    code, _, err = run_cli(capsys, "construct", "--type", group_type,
                           "--group", str(grp), "-o", str(tmp_path / "o.map"))
    assert code == 1
    assert message in err


def test_construct_command(capsys, tmp_path, tetrahedron):
    from flagmaps.perm import format_group_file
    grp = tmp_path / "tet.grp"
    grp.write_text(format_group_file(
        LabeledGenerators(("tau", "lambda", "theta1"),
                          tetrahedron.generators())))
    out = tmp_path / "c.map"
    code, text, _ = run_cli(capsys, "construct", "--type", "1",
                            "--group", str(grp), "-o", str(out))
    assert code == 0
    payload = json.loads(text)
    assert payload["exact"] is True
    result = load_map(out.read_text())
    assert isomorphism(result, tetrahedron, mode="generalized") is not None


def test_todd_coxeter_command(capsys, tmp_path):
    pres = tmp_path / "tet.pres"
    pres.write_text("gens t l r\nrel t^2\nrel l^2\nrel r^2\n"
                    "rel (t*l)^2\nrel (r*t)^3\nrel (r*l)^3\n")
    code, out, _ = run_cli(capsys, "todd-coxeter", str(pres), "--json")
    assert code == 0
    assert json.loads(out)["order"] == 24


def test_todd_coxeter_overflow_exit_code(capsys, tmp_path):
    pres = tmp_path / "free.pres"
    pres.write_text("gens a b c\nrel a^2\nrel b^2\nrel c^2\n")
    code, _, err = run_cli(capsys, "todd-coxeter", str(pres),
                           "--max-cosets", "100")
    assert code == 2
    assert "bound" in err


@pytest.mark.parametrize("relator, code", [
    ("(" * 3000 + "t" + ")" * 3000, 1),  # nesting past the parser's cap
    ("t^99999999", 2),                   # relator past the length cap
    ("(t*l)^99999999", 1),               # power past the length cap
])
def test_todd_coxeter_bounded_words(capsys, tmp_path, relator, code):
    pres = tmp_path / "big.pres"
    pres.write_text(f"gens t l\nrel {relator}\n")
    start = time.perf_counter()
    got, _, err = run_cli(capsys, "todd-coxeter", str(pres))
    assert time.perf_counter() - start < 2
    assert got == code
    assert err


def test_enum_reflexible_command(capsys, tmp_path):
    out = tmp_path / "census"
    code, text, _ = run_cli(capsys, "enum-reflexible", "--max-order", "8",
                            "--context-bound", "8", "--out", str(out))
    # candidates overflowed and were skipped (logged), so the exit code
    # reports the resource bound while the output stays complete
    assert code == 2
    assert (out / "census.json").exists()
    assert (out / "manifest.json").exists()
    summary = json.loads((out / "census.json").read_text())
    vectors = {tuple(e["vector"]) for e in summary}
    from flagmaps.degen import dm_vector
    # every Table-1 row whose group order fits the bound appears
    for index in (1, 2, 3, 4, 5, 9, 10, 11, 12):
        assert dm_vector(index).orders in vectors
    for index in (6, 7, 8):
        for k in range(1, 5):
            assert dm_vector(index, k).orders in vectors


def test_census_determinism(tmp_path):
    a = census_reflexible(8, 6, analyze=False)
    b = census_reflexible(8, 6, analyze=False)
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    write_census(a, dir_a)
    write_census(b, dir_b)
    files_a = sorted(p.name for p in dir_a.iterdir())
    assert files_a == sorted(p.name for p in dir_b.iterdir())
    for name in files_a:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


def test_census_entries_reflexible_and_sufficient(default_census):
    from flagmaps import context_vector, is_reflexible
    for entry in default_census.entries[:20]:
        assert is_reflexible(entry.map)
        assert context_vector(entry.map).orders == entry.vector


def test_census_triality_closure(default_census):
    vectors = {entry.vector for entry in default_census.entries}
    for e in vectors:
        du_vec = (e[1], e[0], e[2], e[3], e[5], e[4], e[6])
        pe_vec = (e[0], e[3], e[2], e[1], e[4], e[6], e[5])
        assert du_vec in vectors
        assert pe_vec in vectors


def test_analysis_report_consistency(tetrahedron):
    report = analyze_map(tetrahedron)
    assert report.reflexible == (report.automorphism_order == report.n_flags)
    assert report.edge_transitive_type == "1"
    assert report.map_symbol == "<3; 3; 4>"
    assert report.decomposability["decomposable"] is False


def test_analysis_builds_one_monodromy_group(monkeypatch, tetrahedron,
                                             fig3_quotient, c4_sphere,
                                             random_maps):
    # a cold map: one Mon, one surface and one Aut generator search serve
    # the whole report, the decomposition of a decomposable map included
    from flagmaps import RootedMap, decomposability_general
    from flagmaps.degen import context_vector
    from flagmaps.mapcore import genus_symbol, is_reflexible

    from .conftest import count_fact_runs
    built = []
    original = RootedMap.monodromy_group

    def counted(m):
        built.append(m)
        return original(m)

    decomposable = 0
    for m in [tetrahedron, fig3_quotient, c4_sphere, build_degenerate(6, 6)
              ] + random_maps[:15]:
        copy = RootedMap(*m.generators(), root=m.root)
        expected = (decomposability_general(copy).to_json_dict(),
                    is_reflexible(copy), copy.monodromy_group().order())
        gsym = genus_symbol(copy)
        decomposable += bool(expected[0]["decomposable"])
        m = RootedMap(*m.generators(), root=m.root)
        with monkeypatch.context() as mp:
            mp.setattr(RootedMap, "monodromy_group", counted)
            surfaces = count_fact_runs(mp, "_surface")
            searches = count_fact_runs(mp, "_automorphism_generators")
            built.clear()
            report = analyze_map(m)
        assert built == surfaces == searches == [m]
        assert (report.decomposability, report.reflexible,
                report.monodromy_order) == expected
        assert (report.genus_symbol, report.isomorphism_symbol,
                report.hexagonal_number) == (gsym.genera, gsym.iso_symbol,
                                             gsym.hexagonal_number)
        assert report.context_vector == context_vector(copy).orders
    assert decomposable >= 2


def test_census_contents_honor_context_sufficiency(default_census):
    # eps_even is reachable by seven-word vectors; delta_even needs the
    # non-power relators and eps/delta odd beyond the context bound carry
    # word orders above 12, so neither can appear at default bounds
    from flagmaps import build_slightly_degenerate, context_vector
    vector_orders = {e.vector: e.group_order for e in default_census.entries}
    for k in (2, 4, 6, 8, 10, 12):
        eps = build_slightly_degenerate("epsilon", k)
        assert vector_orders.get(context_vector(eps).orders) == 4 * k
    for k in (3, 5):
        for family in ("epsilon", "delta"):
            m = build_slightly_degenerate(family, k)
            assert vector_orders.get(context_vector(m).orders) == 4 * k
    for k in (4, 6):  # delta_even vectors present eps_2k, twice as large
        delta = build_slightly_degenerate("delta", k)
        assert vector_orders.get(context_vector(delta).orders) == 8 * k


def test_census_outcome_counts(tmp_path):
    result = census_reflexible(8, 6, analyze=False)
    counts = result.outcome_counts
    assert set(counts) == set(CENSUS_OUTCOMES)
    assert sum(counts.values()) == len(list(candidate_vectors(6))) == 2592
    # the forced-equality rule runs before enumeration, so twelve
    # candidates whose groups exceed order 8 count as insufficient
    assert counts == {"overflow": 17, "order_too_large": 43,
                      "insufficient_context": 2510, "duplicate": 0,
                      "kept": 22}
    assert counts["kept"] == len(result.entries)
    assert counts["overflow"] == len(result.skipped)
    # a kept map's context vector is its candidate vector, and candidate
    # vectors are distinct, so no kept candidate repeats an earlier map
    assert counts["duplicate"] == 0
    write_census(result, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["outcome_counts"] == counts
    assert manifest["skipped_candidates"] == [list(v) for v in result.skipped]


def test_default_census_outcomes(default_census):
    assert default_census.outcome_counts == {
        "overflow": 796, "order_too_large": 54,
        "insufficient_context": 19800, "duplicate": 0, "kept": 86}
    # a group of order 24 on which HLT passes the 1,024-coset bound: a
    # change in the order of definitions or coincidences shows here first
    assert (2, 2, 2, 2, 3, 8, 9) in default_census.skipped


@pytest.mark.parametrize("max_order, context_bound", [(24, 6), (8, 8)])
def test_forced_insufficient_candidates_fail_on_the_full_path(
        max_order, context_bound):
    # a candidate the census rules out unenumerated would have been
    # dropped by enumeration too: it overflows, is too large, or some word
    # order differs from the vector
    max_cosets = 8 * max_order + 256
    ruled_out = 0
    for vec in candidate_vectors(context_bound):
        if broken_forcing(vec) is None:
            continue
        ruled_out += 1
        try:
            lg, order = todd_coxeter(vector_presentation(vec),
                                     max_cosets=max_cosets)
        except EnumerationOverflow:
            continue
        assert order > max_order or not _has_context_orders(lg, vec), vec
    assert ruled_out > 0


def pairwise_census_vectors(max_order, context_bound):
    """The census kept-vector list with duplicates found by pairwise labeled
    congruence against every earlier entry (the reference dedupe)."""
    from flagmaps import word_order
    from flagmaps.degen import CONTEXT_WORDS
    kept, groups = [], []
    for vec in candidate_vectors(context_bound):
        try:
            lg, order = todd_coxeter(vector_presentation(vec),
                                     max_cosets=8 * max_order + 256)
        except EnumerationOverflow:
            continue
        if order > max_order:
            continue
        if tuple(word_order(lg, w) for w in CONTEXT_WORDS) != vec:
            continue
        if any(congruent_labeled_groups(lg, prev) for prev in groups):
            continue
        groups.append(lg)
        kept.append(vec)
    return kept


def test_census_canonical_dedupe_matches_pairwise_congruence():
    result = census_reflexible(24, 6, analyze=False)
    assert [e.vector for e in result.entries] == pairwise_census_vectors(24, 6)
