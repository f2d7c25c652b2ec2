"""Brute-force oracles, kept independent of the production algorithms.

Group work here runs over an explicit multiplication table on element
indices, so closures and joins are plain integer BFS.
"""

from collections import deque
from operator import itemgetter
from typing import NamedTuple

from flagmaps import Perm
from flagmaps.ettype import (NAMED_AUTOMORPHISM_WORDS, TYPE_TABLE,
                             is_edge_transitive)
from flagmaps.fpres import (DEFAULT_MAX_COSETS, MAX_WORD_LENGTH,
                            EnumerationOverflow, Presentation,
                            PresentationError, Word, word_length)
from flagmaps.mapcore import (GenusSymbol, RootedMap, _tables,
                              automorphism_to, cells_and_surface, du,
                              isomorphism, pe, simple_reroots)
from flagmaps.perm import (DEFAULT_ELEMENT_BOUND, BoundExceeded,
                           LabeledGenerators, PermGroup)
from flagmaps.quotient import MapMorphism, StabilizerNotContained


def mulclose(perms, bound=100_000):
    """Full element set by repeated multiplication (no stabilizer chain)."""
    degree = perms[0].degree
    els = {Perm.identity(degree)}
    frontier = list(els)
    while frontier:
        new = []
        for a in frontier:
            for g in perms:
                c = a * g
                if c not in els:
                    els.add(c)
                    new.append(c)
                    if len(els) > bound:
                        raise RuntimeError("oracle bound exceeded")
        frontier = new
    return els


class GroupTable:
    """A small group as a multiplication table over element indices."""

    def __init__(self, generator_perms):
        self.elements = sorted(mulclose(list(generator_perms), bound=4096),
                               key=lambda p: p.images)
        index = {p: i for i, p in enumerate(self.elements)}
        n = len(self.elements)
        self.mul = [[index[a * b] for b in self.elements]
                    for a in self.elements]
        self.inv = [index[a.inverse()] for a in self.elements]
        self.identity = index[Perm.identity(generator_perms[0].degree)]

    def close(self, seed):
        """Subgroup generated by a set of element indices."""
        members = {self.identity}
        queue = [self.identity]
        seed = list(seed)
        while queue:
            a = queue.pop()
            for s in seed:
                b = self.mul[a][s]
                if b not in members:
                    members.add(b)
                    queue.append(b)
        return frozenset(members)

    def conjugacy_classes(self):
        n = len(self.elements)
        seen = [False] * n
        classes = []
        for x in range(n):
            if seen[x]:
                continue
            cls = {self.mul[self.mul[self.inv[g]][x]][g] for g in range(n)}
            for y in cls:
                seen[y] = True
            classes.append(frozenset(cls))
        return classes

    def normal_subgroups(self):
        """Every normal subgroup as a frozenset of element indices.

        Normal closures of single classes, then closure of the family under
        pairwise joins; every normal subgroup is a join of class closures.
        """
        family = {frozenset([self.identity])}
        for cls in self.conjugacy_classes():
            if cls == frozenset([self.identity]):
                continue
            family.add(self.close(cls))
        while True:
            additions = set()
            pool = list(family)
            for i, a in enumerate(pool):
                for b in pool[i + 1:]:
                    if a <= b or b <= a:
                        continue
                    join = self.close(a | b)
                    if join not in family:
                        additions.add(join)
            if not additions:
                return family
            family |= additions


def all_normal_subgroups(group):
    """Every normal subgroup of a PermGroup, as frozen element sets."""
    gens = list(group.generators) or [Perm.identity(group.degree)]
    table = GroupTable(gens)
    return {frozenset(table.elements[i] for i in N)
            for N in table.normal_subgroups()}


def minimal_normals_brute(group):
    """Inclusion-minimal nontrivial normal subgroups via full enumeration."""
    normals = [N for N in all_normal_subgroups(group) if len(N) > 1]
    return [N for N in normals
            if not any(M < N for M in normals if len(M) > 1)]


def decomposable_brute(m):
    """Decomposability by trying every pair of nontrivial normal subgroups
    of the monodromy group against the decomposition conditions."""
    table = GroupTable(list(m.generators()))
    root = m.root
    stabilizer = frozenset(i for i, g in enumerate(table.elements)
                           if g.images[root] == root)

    def transitive(indices):
        seen = {0}
        queue = [0]
        while queue:
            x = queue.pop()
            for i in indices:
                y = table.elements[i].images[x]
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        return len(seen) == m.n_flags

    def product_set(a, b):
        return frozenset(table.mul[x][y] for x in a for y in b)

    normals = [N for N in table.normal_subgroups() if len(N) > 1]
    for N1 in normals:
        if transitive(N1):
            continue
        for N2 in normals:
            if N1 is N2 or transitive(N2):
                continue
            if N1 & N2 != {table.identity}:
                continue
            if product_set(stabilizer, N1) & product_set(stabilizer, N2) \
                    == stabilizer:
                return True
    return False


def automorphisms_brute(m):
    """Every automorphism of m, one candidate per flag d: the map grown
    from root -> d along T, L and R, kept when it is a bijection that
    commutes with all three."""
    gens = [g.images for g in m.generators()]
    out = set()
    for d in range(m.n_flags):
        image = {m.root: d}
        queue = [m.root]
        while queue:
            x = queue.pop()
            for g in gens:
                if g[x] not in image:
                    image[g[x]] = g[image[x]]
                    queue.append(g[x])
        if (len(image) == m.n_flags
                and len(set(image.values())) == m.n_flags
                and all(image[g[x]] == g[image[x]]
                        for g in gens for x in range(m.n_flags))):
            out.add(Perm([image[x] for x in range(m.n_flags)]))
    return out


def is_prime_power(k):
    if k < 2:
        return False
    for p in range(2, k + 1):
        if k % p == 0:
            while k % p == 0:
                k //= p
            return k == 1
    return False


# --- reference HLT coset enumeration ------------------------------------
#
# The enumerator as it stood before its table moved to columns and its
# helpers were inlined, kept as the reference: the production
# ``todd_coxeter`` must give the same images, order and overflow points.
# Its one change since is the involution rule the production kernel also
# follows: a generator with a relator x x (x its symbol or its inverse's)
# is its own inverse, its inverse letters read as the generator's, and its
# x x relators are not scanned.

def _flatten(p: Presentation, word: Word) -> list[int]:
    """Flatten a word to symbol indices: 2*g for generator g, 2*g+1 for its
    inverse."""
    if word_length(word) > MAX_WORD_LENGTH:
        raise EnumerationOverflow(
            f"relator longer than {MAX_WORD_LENGTH} symbols")
    index = {name: i for i, name in enumerate(p.generators)}
    out: list[int] = []
    for name, exp in word:
        sym = 2 * index[name] + (1 if exp < 0 else 0)
        out.extend([sym] * abs(exp))
    return out


def todd_coxeter(p: Presentation,
                 max_cosets: int = DEFAULT_MAX_COSETS) -> tuple[LabeledGenerators, int]:
    """Enumerate the cosets of the trivial subgroup.

    HLT strategy: relator tables are filled by scanning every relator at
    every live coset, with a union-find coincidence queue; after scanning,
    any undefined entries of the row are defined so the table completes.
    Returns the regular permutation representation (generators labeled as
    in the presentation) and the group order.
    """
    if max_cosets < 1:
        raise ValueError("max_cosets must be at least 1")
    ngens = len(p.generators)
    if ngens == 0:
        raise PresentationError("presentation declares no generators")
    nsym = 2 * ngens
    relators = [_flatten(p, w) for w in p.relators if w]
    involutions = {w[0] // 2 for w in relators if len(w) == 2 and w[0] == w[1]}
    # symbol s pairs with s ^ 1, except that an involution's symbol 2g is its
    # own inverse and its symbol 2g + 1 is never used
    inv = [s ^ 1 for s in range(nsym)]
    for g in involutions:
        inv[2 * g] = 2 * g
    # each symbol as a relator letter, and the symbols in use
    letter = [s - s % 2 if s // 2 in involutions else s for s in range(nsym)]
    syms = sorted(set(letter))
    relators = [[letter[s] for s in w] for w in relators
                if not (len(w) == 2 and w[0] == w[1])]
    table: list[list[int]] = [[-1] * nsym]
    parent = [0]
    dead = 0
    # hard allocation cap keeps the table bounded even before coincidences
    alloc_cap = 4 * max_cosets + 512

    def rep(a: int) -> int:
        r = a
        while parent[r] != r:
            r = parent[r]
        while parent[a] != r:
            parent[a], a = r, parent[a]
        return r

    def merge(a: int, b: int, queue: list[int]) -> None:
        a, b = rep(a), rep(b)
        if a != b:
            if a > b:
                a, b = b, a
            parent[b] = a
            queue.append(b)

    def coincidence(a: int, b: int) -> None:
        nonlocal dead
        queue: list[int] = []
        merge(a, b, queue)
        while queue:
            e = queue.pop()
            dead += 1
            row = table[e]
            for x in syms:
                f = row[x]
                if f == -1:
                    continue
                table[f][inv[x]] = -1
                e1, f1 = rep(e), rep(f)
                u = table[e1][x]
                if u != -1:
                    merge(f1, rep(u), queue)
                else:
                    v = table[f1][inv[x]]
                    if v != -1:
                        merge(e1, rep(v), queue)
                    else:
                        table[e1][x] = f1
                        table[f1][inv[x]] = e1

    def define(a: int, x: int) -> int:
        b = len(table)
        if b - dead >= max_cosets or b >= alloc_cap:
            raise EnumerationOverflow(
                f"live cosets exceed max_cosets={max_cosets}")
        table.append([-1] * nsym)
        parent.append(b)
        table[a][x] = b
        table[b][inv[x]] = a
        return b

    def scan_and_fill(a: int, w: list[int]) -> None:
        f = b = a
        i, j = 0, len(w) - 1
        while True:
            while i <= j:
                nxt = table[f][w[i]]
                if nxt == -1:
                    break
                f = nxt
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i:
                nxt = table[b][inv[w[j]]]
                if nxt == -1:
                    break
                b = nxt
                j -= 1
            if j < i:
                coincidence(f, b)
                return
            if j == i:
                table[f][w[i]] = b
                table[b][inv[w[i]]] = f
                return
            f = define(f, w[i])
            i += 1

    alpha = 0
    while alpha < len(table):
        if rep(alpha) != alpha:
            alpha += 1
            continue
        for w in relators:
            scan_and_fill(alpha, w)
            if rep(alpha) != alpha:
                break
        else:
            for x in syms:
                if rep(alpha) != alpha:
                    break
                if table[alpha][x] == -1:
                    define(alpha, x)
        alpha += 1

    live = [a for a in range(len(table)) if rep(a) == a]
    index = {a: i for i, a in enumerate(live)}
    perms = tuple(
        Perm(index[rep(table[a][2 * g])] for a in live) for g in range(ngens))
    lg = LabeledGenerators(p.generators, perms)
    return lg, len(live)


# --- reference genus symbol and edge-transitive type ----------------------
#
# The genus symbol as it stood when it built the six triality composites,
# their 24 cell partitions and a generalized isomorphism test per pair, and
# the type as it stood when each named automorphism was its own flag
# bijection grown at each candidate rooting; kept unchanged as references.

def triality_composites(m: RootedMap) -> list[RootedMap]:
    return [m, du(m), pe(m), pe(du(m)), du(pe(m)), du(pe(du(m)))]


def genus_symbol(m: RootedMap) -> GenusSymbol:
    composites = triality_composites(m)
    infos = [cells_and_surface(c) for c in composites]
    genera = tuple(info.signed_genus for info in infos)
    iso = []
    for i, ci in enumerate(composites):
        first = i
        for j in range(i):
            if isomorphism(composites[j], ci, mode="generalized") is not None:
                first = j
                break
        iso.append(first + 1)
    return GenusSymbol(
        genera=genera,
        iso_symbol=tuple(iso),
        hexagonal_number=len(set(iso)),
        advisory=any(info.genus_advisory for info in infos),
    )


def triality_class(m: RootedMap) -> list[RootedMap]:
    """Pairwise non-isomorphic members among the six composites."""
    out: list[RootedMap] = []
    for c in triality_composites(m):
        if all(isomorphism(prev, c, mode="generalized") is None for prev in out):
            out.append(c)
    return out


def named_automorphisms_present(m: RootedMap) -> frozenset[str]:
    """Which of the thirteen named automorphisms m contains at its root."""
    present = set()
    for name, word in NAMED_AUTOMORPHISM_WORDS.items():
        if automorphism_to(m, m.act(m.root, word)) is not None:
            present.add(name)
    return frozenset(present)


def classify_type(m: RootedMap) -> tuple[str, RootedMap] | None:
    """The edge-transitive type and a canonical rooting, or None when the
    map is not edge-transitive.

    The four simple re-rootings are tried in the order root, root.T,
    root.L, root.TL; the first whose named-automorphism set equals a type
    row wins.
    """
    if not is_edge_transitive(m):
        return None
    for candidate in simple_reroots(m):
        present = named_automorphisms_present(candidate)
        for label, required in TYPE_TABLE.items():
            if present == required:
                return label, candidate
    raise RuntimeError(
        "edge-transitive map matches no type row at any simple re-rooting")


# --- reference equivariant maps -----------------------------------------
#
# The flag-bijection grower of the isomorphism and automorphism tests and
# the Perm-product Cayley walk of labeled congruence, as they stood before
# both moved onto ``perm._equivariant_map``, kept unchanged as references.

def _grow_flag_bijection(m_gens: tuple[Perm, ...], m_root: int,
                         n_gens: tuple[Perm, ...],
                         root_image: int) -> list[int] | None:
    """The unique bijection from the flags of the map on ``m_gens`` to
    those of the map on ``n_gens`` that respects the generators pairwise
    and takes m_root to root_image, or None when no such bijection exists."""
    size = m_gens[0].degree
    if n_gens[0].degree != size:
        return None
    image = [-1] * size
    image[m_root] = root_image
    stack = [m_root]
    gen_pairs = list(zip(m_gens, n_gens))
    while stack:
        x = stack.pop()
        ix = image[x]
        for gm, gn in gen_pairs:
            y = gm.images[x]
            iy = gn.images[ix]
            if image[y] == -1:
                image[y] = iy
                stack.append(y)
            elif image[y] != iy:
                return None
    # transitivity reached every flag; verify every edge of the flag graph
    for gm, gn in gen_pairs:
        for x in range(size):
            if image[gm.images[x]] != gn.images[image[x]]:
                return None
    if len(set(image)) != size:
        return None
    return image


def congruent_labeled_groups(A: LabeledGenerators, B: LabeledGenerators,
                             bound: int = DEFAULT_ELEMENT_BOUND) -> bool:
    """Whether the label-respecting generator assignment extends to an
    isomorphism of the generated groups.

    Walks the Cayley graph of A breadth first, carrying the would-be image
    in B, and fails on the first coincidence the images disagree on.  A
    conflict-free walk defines an epimorphism A -> B; it is an isomorphism
    exactly when the group orders match.
    """
    if sorted(A.labels) != sorted(B.labels):
        raise ValueError("label multisets differ")
    gens_a = [A.generator(lbl) for lbl in A.labels]
    gens_b = [B.generator(lbl) for lbl in A.labels]
    if A.group().order() != B.group().order():
        return False
    image = {Perm.identity(A.degree): Perm.identity(B.degree)}
    frontier = list(image)
    count = 0
    while frontier:
        new = []
        for a in frontier:
            b = image[a]
            for ga, gb in zip(gens_a, gens_b):
                a2 = a * ga
                b2 = b * gb
                prev = image.get(a2)
                if prev is None:
                    image[a2] = b2
                    new.append(a2)
                    count += 1
                    if count > bound:
                        raise BoundExceeded(
                            f"group exceeds element bound {bound}")
                elif prev != b2:
                    return False
        frontier = new
    return len(set(image.values())) == len(image)


# --- reference numbered orbits -------------------------------------------
#
# The four hand-written "number it as you find it" walks as they stood
# before all moved onto ``perm._numbered_orbit``, kept unchanged as
# references: the element listing of ``PermGroup.elements``, the pair walk
# of ``parallel_product``, the block walk of ``k_quotient`` and the flag
# renumbering of ``canonicalize``; and a plain level-by-level BFS that the
# routine itself is checked against.

def numbered_bfs(start, images):
    """The orbit of start under ``images`` in breadth-first discovery
    order, and ``tables[j][i]``, the position of the j-th image of the
    i-th object, found after the walk."""
    order = [start]
    seen = {start}
    queue = deque([start])
    while queue:
        a = queue.popleft()
        for b in images(a):
            if b not in seen:
                seen.add(b)
                order.append(b)
                queue.append(b)
    position = {x: i for i, x in enumerate(order)}
    rows = [[position[b] for b in images(a)] for a in order]
    return order, [list(column) for column in zip(*rows)]


def elements_and_right(G: PermGroup, bound: int = DEFAULT_ELEMENT_BOUND):
    """The elements of G breadth first from the identity, and the right
    regular tables on their indices."""
    identity = tuple(range(G.degree))
    index = {identity: 0}
    found = [identity]
    gen_images = [g.images for g in G.generators]
    right: list[list[int]] = [[] for _ in gen_images]
    for a in found:  # grows while it is read: a breadth-first queue
        times_a = itemgetter(*a)
        for g, row in zip(gen_images, right):
            c = times_a(g)
            k = index.setdefault(c, len(found))
            if k == len(found):
                if k >= bound:
                    raise BoundExceeded(
                        f"group exceeds element bound {bound}")
                found.append(c)
            row.append(k)
    return tuple(map(Perm, found)), right


class ReferenceProduct(NamedTuple):
    """A parallel product with both projections built and checked at once."""

    product: RootedMap
    left_projection: MapMorphism
    right_projection: MapMorphism
    pair_labels: tuple


def parallel_product(m: RootedMap, n: RootedMap) -> ReferenceProduct:
    """Breadth-first orbit of (root, root) under (T,T), (L,L), (R,R)."""
    pairs: dict[tuple[int, int], int] = {(m.root, n.root): 0}
    order: list[tuple[int, int]] = [(m.root, n.root)]
    gen_pairs = list(zip(m.generators(), n.generators()))
    for x, y in order:  # grows while it is read: a breadth-first queue
        for gm, gn in gen_pairs:
            z = (gm.images[x], gn.images[y])
            if z not in pairs:
                if len(order) == DEFAULT_ELEMENT_BOUND:
                    raise BoundExceeded(
                        f"parallel product exceeds {DEFAULT_ELEMENT_BOUND} flags")
                pairs[z] = len(order)
                order.append(z)
    perms = [Perm(pairs[(gm.images[x], gn.images[y])] for x, y in order)
             for gm, gn in gen_pairs]
    product = RootedMap(*perms, root=0)
    left = MapMorphism(product, m, tuple(x for x, _ in order))
    right = MapMorphism(product, n, tuple(y for _, y in order))
    return ReferenceProduct(product, left, right, tuple(order))


def k_quotient_blocks(m: RootedMap, K: PermGroup) -> list[tuple[int, ...]]:
    """The block system of the K-quotient: the K-orbit of the root pushed
    around by the monodromy generators, blocks in discovery order."""
    base = frozenset(K.orbit(m.root))
    block_of = [-1] * m.n_flags
    blocks: list[tuple[int, ...]] = []

    def add_block(flags: frozenset[int]) -> None:
        idx = len(blocks)
        blocks.append(tuple(sorted(flags)))
        for x in flags:
            if block_of[x] != -1:
                raise StabilizerNotContained(
                    "K-orbit of the root does not generate a block system")
            block_of[x] = idx

    add_block(base)
    for block in blocks:  # grows while it is read: a breadth-first queue
        for g in m.generators():
            image = frozenset(g.images[x] for x in block)
            seen = {block_of[x] for x in image}
            if seen == {-1}:
                add_block(image)
            elif len(seen) != 1 or blocks[seen.pop()] != tuple(sorted(image)):
                raise StabilizerNotContained(
                    "K-orbit of the root does not generate a block system")
    return blocks


def breadth_first_numbering(tables, start):
    """Each point reached from start under the tables, numbered in the
    order a queue-driven breadth-first search first meets it."""
    number = {start: 0}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for images in tables:
            y = images[x]
            if y not in number:
                number[y] = len(number)
                queue.append(y)
    return number


def canonicalize(m: RootedMap) -> RootedMap:
    """Renumber flags by BFS from the root over T, L, R; root becomes 0."""
    number = breadth_first_numbering(_tables(m), m.root)
    order = list(number)
    relabeled = [Perm(number[g.images[x]] for x in order)
                 for g in m.generators()]
    return RootedMap(*relabeled, root=0)
