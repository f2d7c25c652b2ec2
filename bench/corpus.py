"""Seeded inputs for the ``analyze`` and ``decompose`` workloads, and the
maps built from incidence geometry that the census must contain.

Every map handed to the program is built here during set-up.  Maps from
families and constructions carry the breadth-first labels that
``flagmaps`` writes to ``.map`` files, as a user of ``flagmaps build`` and
``flagmaps analyze`` would pass them; the program's cost depends on the
labels (a stabilizer chain's base points are least moved points), so
they are not left to the seed.  The seed draws the random rooted maps,
with their own labels, and orders each corpus.  The families,
constructions and strata are fixed, so that the cost profile of a round,
and with it the latency percentiles, stays the same from seed to seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import combinations, product
from pathlib import Path

from checks import canonical_form, closure_order

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Random rooted maps: drawn with 1 to 3 edge orbits and kept while their
# stratum, (flags, |Mon|), still wants maps.  Fixing the strata keeps the
# seed's draw from moving the latency percentiles; capping |Mon| at 120
# keeps every draw cheap (an 8-flag map whose Mon is S8 takes minutes).
RANDOM_EDGES = (1, 3)
RANDOM_STRATA = {
    (1, 1): 2, (2, 2): 4, (3, 6): 4, (4, 4): 4, (4, 8): 4, (4, 24): 2,
    (5, 10): 2, (5, 60): 3, (5, 120): 3, (6, 12): 3, (6, 24): 3, (6, 48): 3,
    (6, 120): 3,
}
RANDOM_MON_CAP = max(mon for _, mon in RANDOM_STRATA)

# A 7-flag map whose monodromy group is S7.  decomposability_general builds
# the product set S.H for its minimal normal subgroup A7 (720 x 2520
# products), which makes this one of the slowest maps the program handles.
S7_MAP = ((1, 0, 3, 2, 4, 5, 6), (2, 3, 0, 1, 5, 4, 6), (2, 1, 0, 4, 3, 6, 5), 0)

# Reflexible maps for ``analyze``: every third entry of the census reference.
REFLEXIBLE_STRIDE = 3

# The decomposability sweep of ``decompose``.
DM_K = range(2, 33)
SLIGHTLY_K = range(2, 21)
ET_PER_STRATUM = 2


@dataclass
class Item:
    """One input map as plain image tuples (T, L, R) and a root."""

    name: str
    gens: tuple
    root: int
    requested_type: str | None = None
    family: str | None = None
    k: int | None = None


def load_reference(name):
    return json.loads((REFERENCE_DIR / name).read_text())


def program_map(fm, item):
    """A new ``RootedMap`` for the item.  Each operation gets its own, so
    that nothing cached on a map object carries over between rounds."""
    return fm.RootedMap(*(fm.Perm(g) for g in item.gens), root=item.root)


def canonical_item(name, gens, root, **extra):
    """The map with breadth-first labels from the root, which becomes 0."""
    return Item(name, canonical_form(gens, root), 0, **extra)


def from_program_map(name, m, **extra):
    return canonical_item(name, tuple(g.images for g in m.generators()),
                          m.root, **extra)


# --- maps built from incidence geometry -------------------------------------

def incidence_map(vertices, edges, faces):
    """Flags are (vertex, edge, face) triples; T changes the face, L the
    vertex and R the edge.  Edges and faces are frozensets of vertices."""
    flags = [(v, e, f) for f in faces for e in edges if e < f for v in e]
    index = {flag: i for i, flag in enumerate(flags)}

    def t_move(v, e, f):
        return v, e, next(g for g in faces if e < g and g != f)

    def l_move(v, e, f):
        return next(u for u in e if u != v), e, f

    def r_move(v, e, f):
        return v, next(d for d in edges if d < f and v in d and d != e), f

    gens = tuple(tuple(index[move(*flag)] for flag in flags)
                 for move in (t_move, l_move, r_move))
    return gens, 0


def geometric_maps():
    """Tetrahedron, cube and octahedron from their incidence geometry."""
    tetra = incidence_map(
        range(4),
        [frozenset(e) for e in combinations(range(4), 2)],
        [frozenset(f) for f in combinations(range(4), 3)])
    cube_vertices = list(product((0, 1), repeat=3))
    cube = incidence_map(
        cube_vertices,
        [frozenset((a, b)) for a, b in combinations(cube_vertices, 2)
         if sum(x != y for x, y in zip(a, b)) == 1],
        [frozenset(v for v in cube_vertices if v[axis] == side)
         for axis in range(3) for side in (0, 1)])
    octa_vertices = [(axis, sign) for axis in range(3) for sign in (1, -1)]
    octa = incidence_map(
        octa_vertices,
        [frozenset((a, b)) for a, b in combinations(octa_vertices, 2)
         if a[0] != b[0]],
        [frozenset(((0, s0), (1, s1), (2, s2)))
         for s0, s1, s2 in product((1, -1), repeat=3)])
    return {"tetrahedron": tetra, "cube": cube, "octahedron": octa}


# --- random rooted maps ------------------------------------------------------

def random_rooted_map(rng, n_edges):
    """Random T, L, R images with the given number of edge orbits, built as
    ``tests/conftest.random_rooted_map`` builds them; returns (gens, root)
    or None when the result is not transitive."""
    t_images, l_images = [], []
    offset = 0
    for _ in range(n_edges):
        pattern = rng.choice(["free", "t-fold", "l-fold", "tl-fold", "point"])
        if pattern == "free":
            a, b, c, d = offset, offset + 1, offset + 2, offset + 3
            t_images += [b, a, d, c]
            l_images += [c, d, a, b]
            offset += 4
        elif pattern == "t-fold":
            t_images += [offset + 1, offset]
            l_images += [offset, offset + 1]
            offset += 2
        elif pattern == "l-fold":
            t_images += [offset, offset + 1]
            l_images += [offset + 1, offset]
            offset += 2
        elif pattern == "tl-fold":
            t_images += [offset + 1, offset]
            l_images += [offset + 1, offset]
            offset += 2
        else:
            t_images.append(offset)
            l_images.append(offset)
            offset += 1
    n = offset
    points = list(range(n))
    rng.shuffle(points)
    r_images = list(range(n))
    for i in range(0, len(points) - 1, 2):
        if rng.random() < 0.85:
            a, b = points[i], points[i + 1]
            r_images[a], r_images[b] = b, a
    gens = (tuple(t_images), tuple(l_images), tuple(r_images))
    seen = {0}
    stack = [0]
    while stack:
        x = stack.pop()
        for g in gens:
            if g[x] not in seen:
                seen.add(g[x])
                stack.append(g[x])
    if len(seen) != n:
        return None
    return gens, rng.randrange(n)


def random_maps(rng):
    wanted = dict(RANDOM_STRATA)
    out = []
    while any(wanted.values()):
        built = random_rooted_map(rng, rng.randint(*RANDOM_EDGES))
        if built is None:
            continue
        stratum = (len(built[0][0]), closure_order(built[0], RANDOM_MON_CAP))
        if wanted.get(stratum):
            wanted[stratum] -= 1
            out.append(Item(f"random-{len(out)}", *built))
    return out


# --- constructions from groups ----------------------------------------------

def construction(fm, type_label, labels, gens_images):
    lg = fm.LabeledGenerators(tuple(labels),
                              tuple(fm.Perm(g) for g in gens_images))
    m, _ = fm.construct_from_group(type_label, lg)
    return m


def stratum_constructions(fm, pool, per_stratum, skip_reflexible):
    """The first ``per_stratum`` constructions of each stratum.
    Constructions with the same |Mon| can still differ in cost by half, so
    the seed does not choose among them."""
    out = []
    for stratum in pool["strata"]:
        if skip_reflexible and stratum["reflexible"]:
            continue
        for tuple_images in stratum["tuples"][:per_stratum]:
            m = construction(fm, stratum["type"], stratum["labels"],
                             tuple_images)
            name = f"type{stratum['type']}-{stratum['group']}-mon{stratum['mon']}"
            out.append(from_program_map(name, m,
                                        requested_type=stratum["type"]))
    return out


def boundary_constructions(fm):
    """Every type-3 and type-4 construction over Z2 with at least one
    non-identity generator.  Many fix flags (boundary-degenerate maps).
    They do not depend on the seed."""
    out = []
    identity, swap = (0, 1), (1, 0)
    for type_label in ("3", "4"):
        labels = fm.TYPE_GENERATORS[type_label]
        for images in product((identity, swap), repeat=len(labels)):
            if all(g == identity for g in images):
                continue
            m = construction(fm, type_label, labels, images)
            name = f"boundary-type{type_label}-" + "".join(
                "1" if g == swap else "0" for g in images)
            out.append(from_program_map(name, m, requested_type=type_label))
    return out


# --- corpora -----------------------------------------------------------------

def analyze_corpus(fm, seed):
    rng = random.Random(seed)
    census = load_reference("census.json")
    items = []
    for entry in census["entries"][::REFLEXIBLE_STRIDE]:
        lg, _ = fm.todd_coxeter(fm.vector_presentation(entry["vector"]))
        m = fm.regular_map_from_group(lg)
        name = "reflexible-" + "_".join(map(str, entry["vector"]))
        items.append(from_program_map(name, m))
    pool = load_reference("constructions.json")
    items += stratum_constructions(fm, pool, 1, skip_reflexible=False)
    items += random_maps(rng)
    t, l, r, root = S7_MAP
    items.append(canonical_item("mon-s7", (t, l, r), root))
    rng.shuffle(items)
    return items + boundary_constructions(fm)


def decompose_corpus(fm, seed):
    rng = random.Random(seed)
    items = []
    for index in (6, 7, 8):
        for k in DM_K:
            items.append(from_program_map(
                f"DM{index}-{k}", fm.build_degenerate(index, k),
                family=f"DM{index}", k=k))
    for family in ("epsilon", "delta"):
        for k in SLIGHTLY_K:
            items.append(from_program_map(
                f"{family}-{k}", fm.build_slightly_degenerate(family, k),
                family=family, k=k))
    pool = load_reference("constructions.json")
    for item in stratum_constructions(fm, pool, ET_PER_STRATUM,
                                      skip_reflexible=True):
        item.family = "edge-transitive"
        items.append(item)
    rng.shuffle(items)
    return items
