"""Show that the output checks catch corrupted results.

    python3 bench/check_checks.py

Each case feeds ``checks.py`` a correct result, which must pass, and then a
corrupted copy (a dropped census entry, a flipped verdict, a damaged
certificate, a wrong report field), which must fail.  Exits 1 when any
corruption goes unnoticed.
"""

from __future__ import annotations

import copy
import sys

import checks
import corpus
from workload import load_program


def census_case(fm):
    reference = corpus.load_reference("census.json")
    entries = [(tuple(e["vector"]), e["group_order"],
                tuple(tuple(g) for g in e["form"]))
               for e in reference["entries"]]
    geometric = corpus.geometric_maps()
    run = lambda es: checks.check_census(es, reference, geometric, 96)
    yield "census as built", run(entries), False
    yield "census with an entry dropped", run(entries[1:]), True
    tetra = checks.canonical_form(*geometric["tetrahedron"])
    yield ("census without the tetrahedron",
           run([e for e in entries if e[2] != tetra]), True)
    vector, order, gens = entries[5]
    wrong = vector[:-1] + (vector[-1] + 1,)
    yield ("census entry with a wrong vector",
           run(entries[:5] + [(wrong, order, gens)] + entries[6:]), True)


def decompose_case(fm):
    for family, k, m in (("DM6", 6, fm.build_degenerate(6, 6)),
                         ("DM6", 4, fm.build_degenerate(6, 4)),
                         ("delta", 8, fm.build_slightly_degenerate("delta", 8))):
        item = corpus.from_program_map(f"{family}-{k}", m, family=family, k=k)
        v = fm.decomp.decomposability_general(corpus.program_map(fm, item))
        factors = (tuple(((tuple(g.images for g in f.generators()), f.root))
                         for f in v.factors) if v.factors else None)
        outcome = (v.decomposable, factors, v.certificate)
        yield f"{item.name} verdict", checks.check_verdict(item, outcome, fm.oracles), False
        flipped = (not v.decomposable,) + outcome[1:]
        yield f"{item.name} verdict flipped", checks.check_verdict(item, flipped, fm.oracles), True
        if v.certificate:
            bad = list(v.certificate)
            bad[0], bad[1] = bad[1], bad[0]
            yield (f"{item.name} certificate damaged",
                   checks.check_verdict(item, outcome[:2] + (tuple(bad),), fm.oracles),
                   True)
    for stratum in corpus.load_reference("constructions.json")["strata"][8:10]:
        m = corpus.construction(fm, stratum["type"], stratum["labels"],
                                stratum["tuples"][0])
        item = corpus.from_program_map(f"type{stratum['type']}-{stratum['group']}",
                                       m, family="edge-transitive")
        v = fm.decomp.decomposability_edge_transitive(corpus.program_map(fm, item))
        outcome = (v.decomposable, None, None)
        yield f"{item.name} verdict", checks.check_verdict(item, outcome, fm.oracles), False
        yield (f"{item.name} verdict flipped",
               checks.check_verdict(item, (not v.decomposable, None, None), fm.oracles),
               True)


def analyze_case(fm):
    stratum = corpus.load_reference("constructions.json")["strata"][0]
    m = corpus.construction(fm, stratum["type"], stratum["labels"],
                            stratum["tuples"][0])
    items = [corpus.from_program_map("type2-V4", m,
                                     requested_type=stratum["type"]),
             corpus.from_program_map("DM7-6", fm.build_degenerate(7, 6))]
    for item in items:
        m = corpus.program_map(fm, item)
        report = fm.cli.analyze_map(m).to_json_dict()
        run = lambda r: checks.check_analysis(item, m, r, fm.oracles, fm.partial_order)
        yield f"{item.name} report", run(report), False
        for field, value in (("reflexible", not report["reflexible"]),
                             ("n_edges", report["n_edges"] + 1),
                             ("orientability", "orientable"
                              if report["orientability"] != "orientable"
                              else "non-orientable")):
            bad = copy.deepcopy(report)
            bad[field] = value
            yield f"{item.name} report with {field} changed", run(bad), True
        bad = copy.deepcopy(report)
        bad["decomposability"]["decomposable"] = \
            not report["decomposability"]["decomposable"]
        yield f"{item.name} report with its verdict flipped", run(bad), True


def main():
    fm = load_program()
    missed = 0
    for case in (census_case, decompose_case, analyze_case):
        for name, problems, must_fail in case(fm):
            caught = bool(problems)
            ok = caught == must_fail
            missed += not ok
            print(f"{'ok ' if ok else 'BAD'} {name}: "
                  f"{problems[0] if problems else 'passes'}")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
