import random
from contextlib import contextmanager
from functools import cached_property
from itertools import combinations

import pytest

from flagmaps import (LabeledGenerators, Perm, PermGroup, RootedMap,
                      build_slightly_degenerate, census_reflexible,
                      construct_from_group, regular_map_from_group,
                      todd_coxeter)
from flagmaps import perm
from flagmaps.ettype import TYPE_GENERATORS
from flagmaps.mapcore import automorphism_to

from .oracles import mulclose

# A type-4 construction over Z2 (R fixes flags 3 and 5): boundary-degenerate,
# so its halved cell sizes miss the type's map-symbol side condition 2|a.
BOUNDARY_TYPE4_TEXT = """flags 8
T 1 0 3 2 5 4 7 6
L 2 3 0 1 6 7 4 5
R 1 0 4 3 2 5 7 6
root 0
"""


@contextmanager
def element_bound(k):
    """``perm.DEFAULT_ELEMENT_BOUND`` lowered to k inside the block, for
    the tests that change it more than once or run under hypothesis."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(perm, "DEFAULT_ELEMENT_BOUND", k)
        yield


def count_fact_runs(mp, name):
    """The maps on which RootedMap's kept fact ``name`` (a cached property)
    is computed from now on, recorded through the MonkeyPatch ``mp``."""
    runs = []
    find = vars(RootedMap)[name].func

    def counted(m):
        runs.append(m)
        return find(m)

    fact = cached_property(counted)
    fact.__set_name__(RootedMap, name)
    mp.setattr(RootedMap, name, fact)
    return runs


def count_calls(mp, owner, name):
    """The positional arguments of each call of ``owner.name`` (a function
    of a module or of a class) from now on, recorded through the
    MonkeyPatch ``mp``."""
    calls = []
    call = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return call(*args)

    mp.setattr(owner, name, counted)
    return calls


def map_from_vector(vec):
    """Reflexible map whose seven-word context is (exactly or not) vec."""
    from flagmaps.degen import vector_presentation
    lg, _ = todd_coxeter(vector_presentation(vec))
    return regular_map_from_group(lg)


@pytest.fixture(scope="session")
def tetrahedron():
    return map_from_vector((2, 2, 2, 2, 3, 3, 4))


@pytest.fixture(scope="session")
def geometric_tetrahedron():
    """The tetrahedron built from its incidence geometry, independently of
    any presentation: flags are (vertex, edge, face) triples."""
    vertices = range(4)
    edges = [frozenset(e) for e in combinations(vertices, 2)]
    faces = [frozenset(f) for f in combinations(vertices, 3)]
    flags = [(v, e, f) for f in faces for e in edges if e < f
             for v in e]
    index = {flag: i for i, flag in enumerate(flags)}

    def t_move(flag):  # change face: the other face containing the edge
        v, e, f = flag
        f2 = next(g for g in faces if e < g and g != f)
        return (v, e, f2)

    def l_move(flag):  # change vertex: the other end of the edge
        v, e, f = flag
        v2 = next(u for u in e if u != v)
        return (v2, e, f)

    def r_move(flag):  # change edge: the other edge of the face at the vertex
        v, e, f = flag
        e2 = next(d for d in edges if d < f and v in d and d != e)
        return (v, e2, f)

    perms = [Perm(index[move(flag)] for flag in flags)
             for move in (t_move, l_move, r_move)]
    return RootedMap(*perms, root=0)


@pytest.fixture(scope="session")
def c4_sphere():
    """The 4-cycle embedded in the sphere (16 flags)."""
    return build_slightly_degenerate("epsilon", 4)


def vertex_rotation(m):
    """The automorphism taking the root one step around its vertex."""
    a = automorphism_to(m, m.act(m.root, "rt"))
    assert a is not None
    return a


@pytest.fixture(scope="session")
def fig3_quotient(c4_sphere):
    """Automorphism quotient of the 4-cycle by the rotation about one
    vertex: the 8-flag path map with two Aut orbits."""
    from flagmaps import PermGroup, automorphism_quotient
    rotation = vertex_rotation(c4_sphere)
    A = PermGroup(c4_sphere.n_flags, [rotation])
    quotient, _ = automorphism_quotient(c4_sphere, A)
    return quotient


@pytest.fixture(scope="session")
def default_census():
    return census_reflexible(analyze=False)


def random_rooted_map(rng, n_edges):
    """A random valid rooted map with the given number of edge orbits."""
    while True:
        t_images = []
        l_images = []
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
        try:
            m = RootedMap(Perm(t_images), Perm(l_images), Perm(r_images),
                          root=rng.randrange(n))
        except ValueError:
            continue
        return m


@pytest.fixture(scope="session")
def random_maps():
    rng = random.Random(20260810)
    return [random_rooted_map(rng, rng.randint(1, 5)) for _ in range(50)]


# generating cycles of four small groups, as permutations of 4 or 5 points
CONSTRUCTION_GROUPS = {
    "V4": (4, [[(0, 1), (2, 3)], [(0, 2), (1, 3)]]),
    "S3": (3, [[(0, 1, 2)], [(0, 1)]]),
    "D4": (4, [[(0, 1, 2, 3)], [(1, 3)]]),
    "D5": (5, [[(0, 1, 2, 3, 4)], [(1, 4), (2, 3)]]),
}


@pytest.fixture(scope="session")
def constructions():
    """Type 2, 2ex, 3, 4 and 5 constructions over V4, S3, D4 and D5: for
    each type and group, the first two generator tuples of a seeded draw
    that generate the whole group (involutions for tau and the thetas)."""
    rng = random.Random(20261018)
    out = []
    for name, (degree, spec) in CONSTRUCTION_GROUPS.items():
        elements = sorted(mulclose([Perm.from_cycles(degree, c) for c in spec]),
                          key=lambda p: p.images)
        others = [p for p in elements if not p.is_identity()]
        involutions = [p for p in others if (p * p).is_identity()]
        for type_label in ("2", "2ex", "3", "4", "5"):
            labels = TYPE_GENERATORS[type_label]
            found = 0
            while found < 2:
                gens = tuple(rng.choice(involutions
                                        if label.startswith(("tau", "theta"))
                                        else others) for label in labels)
                if PermGroup(degree, gens).order() != len(elements):
                    continue
                m, _ = construct_from_group(
                    type_label, LabeledGenerators(labels, gens))
                out.append((f"type{type_label}-{name}-{found}", m))
                found += 1
    return out
