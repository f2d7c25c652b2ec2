"""Output checks made apart from the program.

Maps arrive here as plain image tuples (``gens = (t, l, r)``, ``root``), so
every count, closure and relabelling below is the benchmark's own
permutation arithmetic.  Where a check needs a brute-force group oracle it
uses ``tests/oracles.py`` from the checkout, imported and not edited.

Each ``check_*`` function returns a list of problem strings; an empty list
means the outputs passed.
"""

from __future__ import annotations

from collections import deque
from types import SimpleNamespace

# The seven context words, over generator indices 0 = T, 1 = L, 2 = R.
CONTEXT_WORDS = ((0,), (1,), (2,), (0, 1), (2, 0), (2, 1), (0, 1, 2))

# |Mon| up to which decomposability is compared with the all-pairs oracle.
BRUTE_MON_LIMIT = 64
# |Mon| up to which a plain closure counts the monodromy group.
CLOSURE_LIMIT = 20_000


# --- plain permutation arithmetic ------------------------------------------

def compose(p, q):
    """x . (p * q) == (x . p) . q, as in the program."""
    return tuple(q[i] for i in p)


def perm_order(p):
    n = 1
    ident = tuple(range(len(p)))
    q = p
    while q != ident:
        q = compose(q, p)
        n += 1
    return n


def word_perm(gens, word):
    out = tuple(range(len(gens[0])))
    for g in word:
        out = compose(out, gens[g])
    return out


def context_vector(gens):
    return tuple(perm_order(word_perm(gens, w)) for w in CONTEXT_WORDS)


def orbit_count(perms, n):
    seen = [False] * n
    count = 0
    for start in range(n):
        if seen[start]:
            continue
        count += 1
        seen[start] = True
        stack = [start]
        while stack:
            x = stack.pop()
            for p in perms:
                y = p[x]
                if not seen[y]:
                    seen[y] = True
                    stack.append(y)
    return count


def closure_order(perms, limit=CLOSURE_LIMIT):
    """Order of the generated group by plain closure, or None past limit."""
    ident = tuple(range(len(perms[0])))
    seen = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for a in frontier:
            for g in perms:
                c = compose(a, g)
                if c not in seen:
                    seen.add(c)
                    new.append(c)
                    if len(seen) > limit:
                        return None
        frontier = new
    return len(seen)


def canonical_form(gens, root):
    """Breadth-first relabelling from the root over T, L, R."""
    number = {root: 0}
    order = [root]
    queue = deque([root])
    while queue:
        x = queue.popleft()
        for g in gens:
            y = g[x]
            if y not in number:
                number[y] = len(order)
                order.append(y)
                queue.append(y)
    return tuple(tuple(number[g[x]] for x in order) for g in gens)


def automorphisms(gens, root):
    """Every automorphism, as the flag bijection grown from root -> d."""
    n = len(gens[0])
    out = []
    for d in range(n):
        image = [-1] * n
        image[root] = d
        stack = [root]
        ok = True
        while stack and ok:
            x = stack.pop()
            for g in gens:
                y, iy = g[x], g[image[x]]
                if image[y] == -1:
                    image[y] = iy
                    stack.append(y)
                elif image[y] != iy:
                    ok = False
                    break
        if ok and len(set(image)) == n:
            out.append(tuple(image))
    return out


def is_rooted_isomorphism(image, source, target):
    """Whether ``image`` maps source flags onto target flags, root to root,
    commuting with T, L and R."""
    sgens, sroot = source
    tgens, troot = target
    n = len(sgens[0])
    if len(image) != n or len(tgens[0]) != n or sorted(image) != list(range(n)):
        return False
    if image[sroot] != troot:
        return False
    return all(image[gs[x]] == gt[image[x]]
               for gs, gt in zip(sgens, tgens) for x in range(n))


def bfs_parallel_product(left, right):
    """Orbit of the root pair under the paired generators, numbered
    breadth first in T, L, R order; returns (gens, root)."""
    (lgens, lroot), (rgens, rroot) = left, right
    start = (lroot, rroot)
    index = {start: 0}
    order = [start]
    queue = deque([start])
    while queue:
        x, y = queue.popleft()
        for gl, gr in zip(lgens, rgens):
            z = (gl[x], gr[y])
            if z not in index:
                index[z] = len(order)
                order.append(z)
                queue.append(z)
    gens = tuple(tuple(index[(gl[x], gr[y])] for x, y in order)
                 for gl, gr in zip(lgens, rgens))
    return gens, 0


def surface(gens):
    """Edge count, Euler characteristic and orientability from orbits."""
    t, l, r = gens
    n = len(t)
    tl = compose(t, l)
    vertices = orbit_count((t, r), n)
    edges = orbit_count((t, l), n)
    faces = orbit_count((l, r), n)
    if any(p[x] == x for p in (t, l, r, tl) for x in range(n)):
        kind = "boundary-degenerate"
    elif orbit_count((compose(r, t), compose(r, l)), n) == 2:
        kind = "orientable"
    else:
        kind = "non-orientable"
    return edges, vertices - edges + faces, kind


# --- census --------------------------------------------------------------

def check_census(entries, reference, geometric, max_order):
    """``entries``: (vector, group_order, gens) triples with root 0.
    ``reference``: the committed census reference.  ``geometric``: maps
    built from incidence geometry, each of which must appear once."""
    problems = []
    forms = []
    for i, (vector, order, gens) in enumerate(entries):
        if context_vector(gens) != tuple(vector):
            problems.append(f"entry {i}: context vector differs from {vector}")
        n = len(gens[0])
        mon = closure_order(gens, max_order)
        if mon is None or mon != n or order != n:
            problems.append(f"entry {i}: not reflexible with |Mon| <= {max_order}")
        forms.append(canonical_form(gens, 0))
    if len(set(forms)) != len(forms):
        problems.append("two census entries share a canonical form")
    for name, (gens, root) in geometric.items():
        hits = forms.count(canonical_form(gens, root))
        if hits != 1:
            problems.append(f"{name} appears {hits} times, expected once")
    ref_forms = sorted(tuple(tuple(g) for g in e["form"])
                       for e in reference["entries"])
    if len(entries) != len(reference["entries"]):
        problems.append(f"{len(entries)} entries, reference has "
                        f"{len(reference['entries'])}")
    elif sorted(forms) != ref_forms:
        problems.append("canonical forms differ from the reference")
    return problems


# --- analyze ---------------------------------------------------------------

def check_analysis(item, program_map, report, oracles, partial_order):
    """One analysed map against its own invariants.  ``item`` carries
    ``gens``, ``root`` and, for constructions, ``requested_type``;
    ``program_map`` is the same map as the oracles take it."""
    gens = item.gens
    n = len(gens[0])
    problems = []
    edges, chi, kind = surface(gens)
    if (report["n_edges"], report["euler_characteristic"],
            report["orientability"]) != (edges, chi, kind):
        problems.append("edge count, Euler characteristic or orientability")
    aut = report["automorphism_order"]
    if n % aut:
        problems.append("|Aut| does not divide the number of flags")
    mon = closure_order(gens)
    if mon is None or mon != report["monodromy_order"]:
        problems.append("|Mon| differs from a plain closure")
    if not (report["reflexible"] == (aut == n) == (report["monodromy_order"] == n)):
        problems.append("reflexibility, |Aut| = flags and |Mon| = flags disagree")
    if mon is not None and mon <= BRUTE_MON_LIMIT:
        if report["decomposability"]["decomposable"] != \
                oracles.decomposable_brute(program_map):
            problems.append("decomposability differs from the all-pairs oracle")
    elif report["decomposability"]["decomposable"] is None:
        problems.append("decomposability verdict unknown")
    requested = item.requested_type
    if requested is not None:
        detected = report["edge_transitive_type"]
        if detected is None or not partial_order(requested, detected):
            problems.append(f"type-{requested} construction detected as {detected}")
    return [f"{item.name}: {p}" for p in problems]


# --- decompose ---------------------------------------------------------------

def expected_family_verdict(family, k, oracles):
    if family in ("DM6", "DM7", "DM8"):
        return k == 2 or not oracles.is_prime_power(k)
    if family == "delta":
        return k & (k - 1) != 0
    if family == "epsilon":
        return True
    raise ValueError(family)


def check_verdict(item, verdict, oracles):
    """``verdict``: (decomposable, factors, certificate), factors as
    (gens, root) pairs; the edge-transitive route of a non-reflexible map
    returns no factors."""
    decomposable, factors, certificate = verdict
    problems = []
    if item.family == "edge-transitive":
        auts = automorphisms(item.gens, item.root)
        group = SimpleNamespace(degree=len(item.gens[0]),
                                generators=[oracles.Perm(a) for a in auts])
        expected = len(oracles.minimal_normals_brute(group)) >= 2
    else:
        expected = expected_family_verdict(item.family, item.k, oracles)
    if decomposable is not expected:
        problems.append(f"verdict {decomposable}, expected {expected}")
    if decomposable and (certificate is not None
                         or item.family != "edge-transitive"):
        if factors is None or certificate is None:
            problems.append("positive verdict without factors and certificate")
        else:
            product = bfs_parallel_product(*factors)
            if not is_rooted_isomorphism(certificate, product,
                                         (item.gens, item.root)):
                problems.append("certificate is not a rooted isomorphism "
                                "from the product of the factors")
    return [f"{item.name}: {p}" for p in problems]
