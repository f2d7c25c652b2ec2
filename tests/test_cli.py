import dataclasses
import hashlib
import itertools
import json
import time
from collections.abc import Iterator

import pytest

from flagmaps import (analyze_map, build_degenerate, build_slightly_degenerate,
                      census_reflexible, congruent_labeled_groups,
                      isomorphism, load_map, save_map)
from flagmaps.cli import (CENSUS_OUTCOMES, TooLargeCertificate,
                          TrialityTransfer, candidate_vectors, main,
                          write_census)
from flagmaps.degen import (broken_forcing, triality_images,
                            vector_presentation)
from flagmaps.fpres import EnumerationOverflow, todd_coxeter
from flagmaps.mapcore import (MapFormatError, context_cycle_orders,
                              regular_map_from_group)
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


def test_degree_bound_stops_only_stabilizer_chains(capsys, tmp_path,
                                                   monkeypatch, random_maps):
    # past the degree bound, a proven verdict still prints its witnesses'
    # known orders and a regular Mon its order; a Mon with a trivial Aut
    # is listed through a stabilizer chain, and still exits 2
    from flagmaps import automorphism_group, perm
    monkeypatch.setattr(perm, "DEFAULT_DEGREE_BOUND", 8)
    src = tmp_path / "dm6_6.map"
    src.write_text(save_map(build_degenerate(6, 6)))
    factors = tmp_path / "factors"
    code, out, _ = run_cli(capsys, "decompose", str(src),
                           "--emit-factors", str(factors))
    assert code == 0
    payload = json.loads(out)
    assert payload["decomposable"] is True
    assert payload["certificate_checked"] is True
    assert sorted(p.name for p in factors.iterdir()) == ["factor1.map",
                                                         "factor2.map"]
    assert run_cli(capsys, "analyze", str(src), "--json")[0] == 0
    m = next(m for m in random_maps
             if m.n_flags > 8 and automorphism_group(m).is_trivial())
    src.write_text(save_map(m))
    code, _, err = run_cli(capsys, "analyze", str(src), "--json")
    assert code == 2
    assert f"degree {m.n_flags} exceeds bound 8" in err


@pytest.mark.parametrize("argv", [
    ("du", "MAP", "-o", "DIR"),
    ("analyze", "DIR"),
    ("enum-reflexible", "--max-order", "4", "--context-bound", "2",
     "--out", "FILE"),
    ("decompose", "MAP", "--emit-factors", "FILE"),
])
def test_filesystem_errors_exit_1(capsys, tmp_path, c4_sphere, argv):
    # a directory where a file is read or written, or a file where a
    # directory is made: an error message and exit 1, not a traceback
    paths = {"MAP": tmp_path / "c4.map", "DIR": tmp_path / "dir",
             "FILE": tmp_path / "file"}
    paths["MAP"].write_text(save_map(c4_sphere))
    paths["DIR"].mkdir()
    paths["FILE"].write_text("")
    code, _, err = run_cli(capsys, *(str(paths.get(a, a)) for a in argv))
    assert code == 1
    assert err.startswith("error: ")


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


@pytest.mark.parametrize("argv, message", [
    (("dm1", "--k", "3"), "DM1 takes no parameter"),
    (("dm6",), "DM6 needs a parameter k >= 1"),
    (("dm8", "--k", "0"), "DM8 needs a parameter k >= 1"),
    (("dm13",), "no degenerate family DM13"),
    (("dmx",), "unknown preset 'dmx'"),
    (("dm",), "unknown preset 'dm'"),
    (("dm-1",), "unknown preset 'dm-1'"),
])
def test_build_rejects_a_bad_preset_or_parameter(capsys, tmp_path, argv,
                                                  message):
    # --k goes to the builder as given, so a DM row that takes no
    # parameter refuses one, and a malformed row index is an unknown name
    out = tmp_path / "x.map"
    code, _, err = run_cli(capsys, "build", *argv, "-o", str(out))
    assert code == 1
    assert message in err and "int()" not in err
    assert not out.exists()


@pytest.mark.parametrize("preset", ["epsilon", "dm6"])
def test_build_past_the_word_length_cap_is_a_bound(capsys, tmp_path,
                                                   preset):
    # a relator power past the word-length cap is the bound a relator
    # past it is: exit 2, before any word is expanded
    out = tmp_path / "x.map"
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "build", preset, "--k", "60000", "-o",
                           str(out))
    assert time.perf_counter() - start < 2
    assert code == 2
    assert "power of a word longer than 100000 symbols" in err
    assert not out.exists()


@pytest.mark.parametrize("preset", ["epsilon", "delta"])
def test_build_past_the_flag_bound_is_a_bound(capsys, tmp_path, preset):
    # 4 * 25002 = 100,008 flags: the relators fit the word-length cap, the
    # flags pass the bound coset enumeration of the family had
    out = tmp_path / "x.map"
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "build", preset, "--k", "25002", "-o",
                           str(out))
    assert time.perf_counter() - start < 2
    assert code == 2
    assert (f"{preset}_25002 has 100,008 flags, past the flag bound 100,000"
            in err)
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (("--max-order", "-5"), "max_group_order must be from 1 to 124,968"),
    (("--max-order", "0"), "max_group_order must be from 1 to 124,968"),
    (("--max-order", "124969"), "not 124969"),
    (("--context-bound", "0"), "context_bound must be at least 1"),
    (("--context-bound", "-3"), "context_bound must be at least 1"),
    (("--context-bound", "25"), "context_bound must be at most 24, not 25"),
    (("--context-bound", "100000"), "context_bound must be at most 24"),
])
def test_enum_reflexible_rejects_bad_bounds(capsys, tmp_path, argv, message):
    out = tmp_path / "census"
    code, _, err = run_cli(capsys, "enum-reflexible", *argv, "--out",
                           str(out))
    assert code == 1
    assert message in err
    assert not out.exists()


def test_census_order_bound_is_the_coset_cap():
    from flagmaps.cli import MAX_CENSUS_ORDER
    from flagmaps.fpres import MAX_COSETS
    assert MAX_CENSUS_ORDER == 124_968
    assert (8 * MAX_CENSUS_ORDER + 256 <= MAX_COSETS
            < 8 * (MAX_CENSUS_ORDER + 1) + 256)
    for order, bound in ((0, 6), (-5, 6), (MAX_CENSUS_ORDER + 1, 6),
                         (8, 0)):
        with pytest.raises(ValueError):
            census_reflexible(order, bound, analyze=False)
    # the smallest bounds are accepted: only the trivial group fits
    assert [e.group_order for e in
            census_reflexible(1, 1, analyze=False).entries] == [1]


def test_census_context_bound_has_a_ceiling():
    # 12 * b**3 candidates: a bound above the ceiling is refused before
    # any work
    from flagmaps.cli import MAX_CENSUS_CONTEXT_BOUND
    assert MAX_CENSUS_CONTEXT_BOUND == 24
    for bound in (MAX_CENSUS_CONTEXT_BOUND + 1, 100_000):
        with pytest.raises(ValueError, match="at most 24"):
            census_reflexible(1, bound, analyze=False)
    # the ceiling itself is accepted, at the smallest order bound
    assert len(list(candidate_vectors(MAX_CENSUS_CONTEXT_BOUND))) == 165_888
    result = census_reflexible(1, MAX_CENSUS_CONTEXT_BOUND, analyze=False)
    assert sum(result.outcome_counts.values()) == 165_888


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


@pytest.mark.parametrize("argv", [
    ("todd-coxeter", "{pres}", "--max-cosets", "100000000"),
    # the census asks 8 * 200,000 + 256 cosets of each candidate
    ("enum-reflexible", "--max-order", "200000", "--out", "{out}"),
])
def test_coset_bound_is_capped(capsys, tmp_path, argv):
    pres = tmp_path / "free.pres"
    pres.write_text("gens a b c\nrel a^2\nrel b^2\nrel c^2\n")
    out = tmp_path / "census"
    start = time.perf_counter()
    code, _, err = run_cli(capsys, *(arg.format(pres=pres, out=out)
                                     for arg in argv))
    assert time.perf_counter() - start < 1
    assert code == 1
    assert "max_cosets" in err


@pytest.mark.parametrize("relator, code", [
    ("(" * 3000 + "t" + ")" * 3000, 1),  # nesting past the parser's cap
    ("t^99999999", 2),                   # relator past the length cap
    ("(t*l)^99999999", 2),               # power past the length cap
])
def test_todd_coxeter_bounded_words(capsys, tmp_path, relator, code):
    pres = tmp_path / "big.pres"
    pres.write_text(f"gens t l\nrel {relator}\n")
    start = time.perf_counter()
    got, _, err = run_cli(capsys, "todd-coxeter", str(pres))
    assert time.perf_counter() - start < 2
    assert got == code
    assert err


@pytest.mark.parametrize("text, message", [
    ("gensx y\n", "unknown directive 'gensx' at line 1"),
    ("gens t\nrelt^2\n", "unknown directive 'relt^2' at line 2"),
    ("gens t\nrel(t*t)^2\n", "unknown directive 'rel(t*t)^2' at line 2"),
    ("gens a\nrel a^\n", "expected integer exponent at line 2, column 7"),
    ("gens a\n  rel a*(a\n", "expected ')' at line 2, column 11"),
])
def test_todd_coxeter_rejects_bad_directives_and_words(capsys, tmp_path,
                                                       text, message):
    pres = tmp_path / "bad.pres"
    pres.write_text(text)
    code, out, err = run_cli(capsys, "todd-coxeter", str(pres))
    assert code == 1
    assert out == ""
    assert message in err


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


def test_context_cycle_orders_are_the_word_orders(default_census):
    # on each entry's regular Mon, the cycle through flag 0 gives each
    # context word's order
    from flagmaps import word_order
    from flagmaps.mapcore import CONTEXT_WORDS, GENERATOR_NAMES
    assert len(default_census.entries) == 86
    for entry in default_census.entries:
        lg = LabeledGenerators(GENERATOR_NAMES, entry.map.generators())
        orders = tuple(word_order(lg, w) for w in CONTEXT_WORDS)
        assert tuple(context_cycle_orders(lg)) == orders == entry.vector


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
    # a cold map: one Mon, one surface and one scan for Aut (the
    # centralizer of Mon) serve the whole report, the decomposition of a
    # decomposable map included
    from flagmaps import RootedMap, decomposability_general, perm
    from flagmaps.degen import context_vector
    from flagmaps.mapcore import genus_symbol, is_reflexible

    from .conftest import count_calls, count_fact_runs
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
            built = count_fact_runs(mp, "_monodromy_group")
            surfaces = count_fact_runs(mp, "_surface")
            scans = count_calls(mp, perm, "_centralizer_scan")
            report = analyze_map(m)
        assert built == surfaces == [m]
        assert scans == [(m.monodromy_group().tables, m.n_flags)]
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


@pytest.mark.parametrize("context_bound", [1, 2, 3, 4])
def test_candidate_vectors_are_the_sorted_filtered_product(context_bound):
    # e1..e4 are 1 or 2, e5..e7 run up to the bound, and TL = 1 (e4 = 1)
    # forces T and L to have one order
    values = range(1, max(context_bound, 2) + 1)
    expected = sorted(
        vec for vec in itertools.product(values, repeat=7)
        if max(vec[:4]) <= 2 and max(vec[4:]) <= context_bound
        and not (vec[3] == 1 and vec[0] != vec[1]))
    assert list(candidate_vectors(context_bound)) == expected


def test_census_outcome_counts(tmp_path):
    result = census_reflexible(8, 6, analyze=False)
    counts = result.outcome_counts
    assert set(counts) == set(CENSUS_OUTCOMES)
    assert sum(counts.values()) == len(list(candidate_vectors(6))) == 2592
    # the forced-equality rule runs before enumeration, so twelve
    # candidates whose groups exceed order 8 count as insufficient; the
    # groups found too large certify 46 candidates unenumerated, eight of
    # which would overflow
    assert counts == {"overflow": 7, "order_too_large": 53,
                      "insufficient_context": 2510, "duplicate": 0,
                      "kept": 22}
    assert len(result.certified) == 46
    assert len(result.transferred) == 65
    assert counts["kept"] == len(result.entries)
    assert counts["overflow"] == len(result.skipped)
    # a kept map's context vector is its candidate vector, and candidate
    # vectors are distinct, so no kept candidate repeats an earlier map
    assert counts["duplicate"] == 0
    write_census(result, tmp_path)
    text = (tmp_path / "manifest.json").read_text()
    manifest = json.loads(text)
    # the record lists are iterators, written one record at a time
    assert manifest == json.loads(json.dumps(
        {key: list(value) if isinstance(value, Iterator) else value
         for key, value in result.manifest().items()}))
    assert manifest["outcome_counts"] == counts
    assert manifest["skipped_candidates"] == [list(v) for v in result.skipped]
    # braces, one line per key, and one per list item and list end
    lists = [v for v in manifest.values() if isinstance(v, list) and v]
    assert len(lists) == 3 and len(text.splitlines()) == (
        2 + len(manifest) + sum(len(v) + 1 for v in lists))


def test_too_large_certificates_round_trip(tmp_path):
    # the manifest holds each certificate whole, and re-running the
    # enumeration it names checks it
    result = census_reflexible(8, 6, analyze=False)
    write_census(result, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    read = tuple(TooLargeCertificate(
        tuple(c["vector"]), tuple(c["enumerated"]), c["enumerated_order"],
        c["image"], tuple(c["image_orders"]))
        for c in manifest["too_large_certificates"])
    assert read == result.certified and len(read) == 46
    for c in read:
        lg, order = todd_coxeter(vector_presentation(c.enumerated),
                                 max_cosets=manifest["max_cosets_per_candidate"])
        assert order == c.enumerated_order > manifest["max_group_order"]
        images = triality_images(tuple(context_cycle_orders(lg)))
        assert images[c.image] == c.image_orders
        assert all(v % w == 0 for v, w in zip(c.vector, c.image_orders))
        assert c.enumerated < c.vector


def test_triality_transfers_round_trip(tmp_path):
    # the manifest holds each transfer whole, and re-running the
    # enumeration it names checks that it presents the vector's group
    result = census_reflexible(8, 6, analyze=False)
    write_census(result, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    read = tuple(TrialityTransfer(tuple(t["vector"]), tuple(t["enumerated"]),
                                  t["image"])
                 for t in manifest["triality_transfers"])
    assert read == result.transferred and len(read) == 65
    for t in read:
        _, order = todd_coxeter(vector_presentation(t.enumerated),
                                max_cosets=manifest["max_cosets_per_candidate"])
        assert order <= manifest["max_group_order"]
        assert triality_images(t.enumerated)[t.image] == t.vector
        assert t.enumerated < t.vector


def test_default_census_outcomes(default_census):
    assert default_census.outcome_counts == {
        "overflow": 511, "order_too_large": 331,
        "insufficient_context": 19808, "duplicate": 0, "kept": 86}
    assert len(default_census.certified) == 318
    assert len(default_census.transferred) == 414
    assert default_census.outcome_counts["overflow"] == len(
        default_census.skipped)
    # a group of order 24 on which HLT passes the 1,024-coset bound: a
    # change in the order of definitions or coincidences shows here first
    assert (2, 2, 2, 2, 3, 8, 9) in default_census.skipped


# The SHA-256 of manifest.json at the defaults, 103,744 bytes.
DEFAULT_MANIFEST_SHA256 = (
    "a2c7b4867f76ce833e5646bdde97b84c2900f707c665bbfb4628d0b0ae2aac15")


def test_default_manifest_is_byte_identical(default_census, tmp_path):
    # records are written from their fields in place, each as a deep copy
    # (dataclasses.asdict) would write it
    write_census(default_census, tmp_path)
    data = (tmp_path / "manifest.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == DEFAULT_MANIFEST_SHA256
    manifest = json.loads(data)
    for key, records in (("too_large_certificates", default_census.certified),
                         ("triality_transfers", default_census.transferred)):
        assert manifest[key] == [
            json.loads(json.dumps(dataclasses.asdict(r))) for r in records]


# Transferred candidates whose own enumeration overflows the census's
# coset bound: each is a triality image of a vector presenting a group of
# order 2.
TRANSFERRED_OVERFLOWS = {
    (24, 6): set(),
    (96, 12): {(2, 2, 2, 2, 6, 3, 11), (2, 2, 2, 2, 10, 3, 7),
               (2, 2, 2, 2, 5, 4, 7)},
}


@pytest.mark.parametrize("max_order, context_bound", [(24, 6), (96, 12)])
def test_transferred_candidates_match_enumeration(
        default_census, max_order, context_bound):
    # a candidate settled by triality gets what its own enumeration gives:
    # the same group order, insufficient exactly when its word orders miss
    # the vector, and otherwise the same canonical map
    if (max_order, context_bound) == (96, 12):
        result = default_census
    else:
        result = census_reflexible(max_order, context_bound, analyze=False)
    kept = {e.vector: e for e in result.entries}
    assert result.outcome_counts["duplicate"] == 0
    overflowed = set()
    for t in result.transferred:
        assert triality_images(t.enumerated)[t.image] == t.vector
        source, order = todd_coxeter(vector_presentation(t.enumerated),
                                     max_cosets=result.max_cosets)
        assert order <= max_order
        try:
            lg, own_order = todd_coxeter(vector_presentation(t.vector),
                                         max_cosets=result.max_cosets)
        except EnumerationOverflow:
            overflowed.add(t.vector)
            assert order == 2
            continue
        assert own_order == order, t
        sufficient = tuple(context_cycle_orders(lg)) == t.vector
        assert sufficient == (
            tuple(context_cycle_orders(source)) == t.enumerated), t
        assert sufficient == (t.vector in kept), t
        if sufficient:
            entry = kept[t.vector]
            assert entry.group_order == order
            assert entry.text == save_map(regular_map_from_group(lg)), t
    assert overflowed == TRANSFERRED_OVERFLOWS[max_order, context_bound]
    assert {t.vector for t in result.transferred}.isdisjoint(
        [c.vector for c in result.certified] + list(result.skipped))


@pytest.mark.parametrize("max_order, context_bound", [(24, 6), (96, 12)])
def test_certified_candidates_fail_on_the_full_path(
        default_census, max_order, context_bound):
    # a candidate certified too large without enumeration would have been
    # dropped by enumeration too: it overflows or its group is too large
    if (max_order, context_bound) == (96, 12):
        result = default_census
    else:
        result = census_reflexible(max_order, context_bound, analyze=False)
    assert result.certified
    for c in result.certified:
        try:
            _, order = todd_coxeter(vector_presentation(c.vector),
                                    max_cosets=result.max_cosets)
        except EnumerationOverflow:
            continue
        assert order > max_order, c.vector
    assert {c.vector for c in result.certified}.isdisjoint(
        [e.vector for e in result.entries] + list(result.skipped))


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
        assert (order > max_order
                or tuple(context_cycle_orders(lg)) != vec), vec
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


def test_census_entries_differ_by_their_vectors(default_census):
    # why the census makes no duplicate test: the candidate vectors are
    # distinct, and a kept map's context vector is its candidate vector, so
    # no two kept maps are isomorphic
    from flagmaps import context_vector
    vectors = [e.vector for e in default_census.entries]
    assert len(set(vectors)) == len(vectors) == 86
    for entry in default_census.entries:
        assert context_vector(entry.map).orders == entry.vector
    assert default_census.outcome_counts["duplicate"] == 0


def private_flagmaps_names(source):
    """The underscore-prefixed names that Python source takes from another
    flagmaps module: imported by name, or read as an attribute of a
    flagmaps module it imported."""
    import ast
    tree = ast.parse(source)
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("flagmaps")):
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append(alias.name)
                elif node.module in (None, "flagmaps"):
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_cli_imports_no_private_name():
    # the benchmark's tracer wraps public names only, so a private helper
    # called from the command-line surface would run unseen
    from pathlib import Path
    cli = Path(__file__).resolve().parent.parent / "src" / "flagmaps" / "cli.py"
    assert private_flagmaps_names(cli.read_text()) == []
    assert private_flagmaps_names(
        "from . import decomp\nfrom .perm import Perm, _least_block\n"
        "decomp._decomposability_general\n") == [
            "_least_block", "decomp._decomposability_general"]
