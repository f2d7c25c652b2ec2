"""Rebuild the benchmark's reference files from the program in this checkout.

    python3 bench/make_reference.py [census|constructions]

``reference/census.json`` holds each entry of the default census
(|Mon| <= 96, context bound 12): its context vector, group order and
breadth-first canonical form.  The ``census`` workload compares its output
with it, so rebuild it only when a change to the census output is intended.

``reference/constructions.json`` holds labeled generating tuples for
``construct_from_group``, found by a fixed-seed random search, two for each
stratum (type, source group, |Mon| of the result).  ``analyze`` uses the
first of each stratum and ``decompose`` both.
"""

from __future__ import annotations

import json
import random
import sys

from checks import canonical_form, closure_order
from corpus import REFERENCE_DIR
from workload import load_program

MAX_ORDER = 96
CONTEXT_BOUND = 12

GROUPS = {
    "V4": [[(0, 1), (2, 3)], [(0, 2), (1, 3)]],
    "S3": [[(0, 1)], [(0, 1, 2)]],
    "D4": [[(0, 1, 2, 3)], [(0, 2)]],
    "D5": [[(0, 1, 2, 3, 4)], [(1, 4), (2, 3)]],
    "A4": [[(0, 1, 2)], [(0, 1), (2, 3)]],
    "D6": [[(0, 1, 2, 3, 4, 5)], [(1, 5), (2, 4)]],
}

# (type, source group, |Mon| of the construction).  Types 2ex come out
# reflexible on every source group tried; they are kept for ``analyze``.
STRATA = [
    ("2", "V4", 16), ("2", "S3", 36), ("2", "D4", 64), ("2", "D5", 100),
    ("2", "D6", 72),
    ("2ex", "S3", 12), ("2ex", "D4", 16), ("2ex", "D5", 20),
    ("3", "V4", 64), ("3", "S3", 216), ("3", "D4", 512), ("3", "D5", 1000),
    ("3", "D6", 432),
    ("4", "V4", 64), ("4", "S3", 216), ("4", "D4", 512), ("4", "D5", 1000),
    ("4", "A4", 1152), ("4", "D6", 1728),
    ("5", "S3", 144), ("5", "D4", 64), ("5", "D5", 400), ("5", "A4", 576),
    ("5", "D6", 144),
]
TUPLES_PER_STRATUM = 2
TRIES = 300
INVOLUTION_LABELS = {"tau", "theta1", "theta2", "theta3", "theta4"}


def from_cycles(n, cycles):
    images = list(range(n))
    for cycle in cycles:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            images[a] = b
    return tuple(images)


def group_elements(spec):
    n = max(max(c) for gen in spec for c in gen) + 1
    gens = [from_cycles(n, gen) for gen in spec]
    els = {tuple(range(n))}
    frontier = list(els)
    while frontier:
        new = []
        for a in frontier:
            for g in gens:
                c = tuple(g[i] for i in a)
                if c not in els:
                    els.add(c)
                    new.append(c)
        frontier = new
    return sorted(els)


def build_census(fm):
    result = fm.census_reflexible(MAX_ORDER, CONTEXT_BOUND, analyze=False)
    entries = []
    for entry in result.entries:
        gens = tuple(g.images for g in entry.map.generators())
        entries.append({
            "vector": list(entry.vector),
            "group_order": entry.group_order,
            "form": [list(g) for g in canonical_form(gens, entry.map.root)],
        })
    return {"max_group_order": MAX_ORDER, "context_bound": CONTEXT_BOUND,
            "entries": entries}


def build_constructions(fm):
    rng = random.Random(20051)
    wanted = {}
    for type_label, group, mon in STRATA:
        wanted.setdefault((type_label, group), {})[mon] = []
    strata = []
    for (type_label, group), buckets in wanted.items():
        els = group_elements(GROUPS[group])
        ident = tuple(range(len(els[0])))
        involutions = [e for e in els if e != ident
                       and tuple(e[i] for i in e) == ident]
        others = [e for e in els if e != ident]
        labels = fm.TYPE_GENERATORS[type_label]
        seen = set()
        for _ in range(TRIES):
            if all(len(b) >= TUPLES_PER_STRATUM for b in buckets.values()):
                break
            images = tuple(rng.choice(involutions if lbl in INVOLUTION_LABELS
                                      else others) for lbl in labels)
            if images in seen or closure_order(images) != len(els):
                continue
            seen.add(images)
            m, _ = fm.construct_from_group(type_label, fm.LabeledGenerators(
                labels, tuple(fm.Perm(g) for g in images)))
            gens = tuple(g.images for g in m.generators())
            tl = tuple(gens[1][i] for i in gens[0])
            if any(p[x] == x for p in gens + (tl,) for x in range(len(tl))):
                continue
            mon = closure_order(gens, max(buckets))
            if mon in buckets and len(buckets[mon]) < TUPLES_PER_STRATUM:
                buckets[mon].append([list(g) for g in images])
        for mon, tuples in buckets.items():
            if not tuples:
                sys.exit(f"no tuple found for type {type_label}, {group}, "
                         f"|Mon| = {mon}")
            flags = len(els) * {"2": 2, "2ex": 2}.get(type_label, 4)
            strata.append({"type": type_label, "group": group, "mon": mon,
                           "labels": list(labels), "flags": flags,
                           "reflexible": mon == flags, "tuples": tuples})
    return {"strata": strata}


def main(argv):
    which = argv[1:] or ["census", "constructions"]
    fm = load_program()
    for name in which:
        build = {"census": build_census,
                 "constructions": build_constructions}[name]
        data = build(fm)
        path = REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(data, separators=(",", ":")) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main(sys.argv)
