"""Earlier minimal-normal-subgroup searches, kept unchanged as references
for the search on named elements (``perm.Listing``): the Perm-set
search with one stabilizer-chain normal closure per class, the union-find
search on the right regular action, and the search that listed every
element as its full image tuple.  They live apart from ``oracles.py``, which the
benchmark compiles at start-up.  Each keeps its own ``bound``, checked
here, since the program's listings take none.
"""

from math import isqrt
from operator import itemgetter
from typing import Sequence

from flagmaps.perm import (DEFAULT_ELEMENT_BOUND, BoundExceeded, Perm,
                           PermGroup, _equivariant_map, _numbered_orbit,
                           _perm, normal_closure)


def _orbits(tables, n: int) -> list[list[int]]:
    """The orbits of {0..n-1} under point tables, ordered by least point,
    each breadth first from its least point."""
    seen = [False] * n
    out = []
    for x in range(n):
        if not seen[x]:
            seen[x] = True
            block = [x]
            for a in block:  # grows while it is read: a breadth-first queue
                for images in tables:
                    if not seen[images[a]]:
                        seen[images[a]] = True
                        block.append(images[a])
            out.append(block)
    return out


def _block_index(blocks, n: int) -> list[int]:
    """For each of the n points, the index of its block in a partition."""
    block_of = [0] * n
    for i, block in enumerate(blocks):
        for x in block:
            block_of[x] = i
    return block_of

# --- reference minimal normal subgroups ---------------------------------
#
# ``conjugacy_classes`` and ``minimal_normal_subgroups`` as they stood
# before the search moved to the regular representation (Perm-set class
# BFS, one stabilizer-chain normal closure per prime-order class), kept
# unchanged as the reference: the production functions must give the same
# classes, and the same subgroups in the same order.

def _elements(G: PermGroup, bound: int) -> tuple[Perm, ...]:
    """G's elements, raising as a listing does when there are more than
    bound of them: so each reference answers to its own bound."""
    els = G.elements()
    if len(els) > bound:
        raise BoundExceeded(f"group exceeds element bound {bound}")
    return els


def conjugacy_classes(G: PermGroup,
                      bound: int = DEFAULT_ELEMENT_BOUND) -> list[list[Perm]]:
    """Conjugacy classes of G as sorted element lists, by least representative."""
    els = _elements(G, bound)
    inv_gens = [g.inverse() for g in G.generators]
    seen: set[Perm] = set()
    classes = []
    for x in sorted(els, key=lambda p: p.images):
        if x in seen:
            continue
        cls = {x}
        queue = [x]
        while queue:
            y = queue.pop()
            for g, gi in zip(G.generators, inv_gens):
                z = gi * y * g
                if z not in cls:
                    cls.add(z)
                    queue.append(z)
        seen |= cls
        classes.append(sorted(cls, key=lambda p: p.images))
    return classes


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))


def _within(H: PermGroup, G: PermGroup) -> bool:
    """Whether H is a subgroup of G (membership of H's generators)."""
    return all(G.contains(h) for h in H.generators)


def minimal_normal_subgroups(G: PermGroup,
                             bound: int = DEFAULT_ELEMENT_BOUND) -> list[PermGroup]:
    """All inclusion-minimal nontrivial normal subgroups of G.

    Every minimal normal subgroup N is the normal closure of any one of its
    nontrivial elements.  By Cauchy's theorem N holds an element x of prime
    order, and the class of x lies in N, so closing one representative of
    each conjugacy class of prime order and keeping the inclusion-minimal
    results is complete.  Closures are compared by order and membership of
    generators; only the minimal ones are enumerated, for the sort.
    Results are sorted by order, then by element list, for determinism.
    """
    if G.is_trivial():
        return []
    closures: list[PermGroup] = []
    for cls in conjugacy_classes(G, bound):
        rep = cls[0]
        if not _is_prime(rep.order()):
            continue
        N = normal_closure(G, [rep])
        if not any(M.order() == N.order() and _within(N, M) for M in closures):
            closures.append(N)
    minimal = [N for N in closures
               if not any(M.order() < N.order() and _within(M, N)
                          for M in closures)]
    minimal.sort(key=lambda N: (N.order(),
                                sorted(p.images for p in N.elements())))
    return minimal


# --- reference union-find minimal normal subgroups ------------------------
#
# ``minimal_normal_subgroups`` as it stood when each prime-order class, in
# index order, was closed by one union-find pass over the right regular
# action of all of G, kept as the reference: the production search must
# give the same subgroups, in the same order, with the same generators.
# Its classes and element orders come from Perm products, not from the
# production tables.

def _bfs_tree(right: list[list[int]], n: int) -> list[tuple[int, int]]:
    """``tree[c] = (a, j)``: the breadth-first enumeration behind the right
    tables first reached index c > 0 as a * g_j (``tree[0]`` is a dummy)."""
    tree = [(0, -1)]
    for a in range(n):
        for j, row in enumerate(right):
            if row[a] == len(tree):
                tree.append((a, j))
    return tree


def _power_indices(right: list[list[int]], tree: list[tuple[int, int]],
                   x: int, k: int) -> list[int]:
    """The indices of x^2, ..., x^(k-1): right multiplication by x is the
    word of x along the breadth-first tree, read through the right tables."""
    word = []
    c = x
    while c:
        c, j = tree[c]
        word.append(right[j])
    word.reverse()
    out = []
    y = x
    for _ in range(k - 2):
        for row in word:
            y = row[y]
        out.append(y)
    return out


def _identity_block(right: list[list[int]], n: int,
                    seed: list[int]) -> list[int]:
    """The subgroup generated by the seed indices, as an index list.

    It is the identity's block in the finest partition of the indices that
    joins 0 with every seed and is preserved by every right table (its
    blocks are the right cosets).  Union-find with the smaller root
    surviving, so index 0 stays a root; each point that stops being a root
    is queued once and joins its images to its root's images (Atkinson, An
    algorithm for finding the blocks of a permutation group, 1975).
    """
    parent = list(range(n))
    queue = []
    for s in seed:
        if parent[s] != 0:
            parent[s] = 0
            queue.append(s)
    for a in queue:  # grows while it is read
        r = a
        while parent[r] != r:
            r = parent[r]
        for row in right:
            u = row[a]
            while parent[u] != u:
                parent[u] = parent[parent[u]]
                u = parent[u]
            v = row[r]
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            if u != v:
                if u > v:
                    u, v = v, u
                parent[v] = u
                queue.append(v)
    # a parent is never larger than its child, so one ascending pass
    # takes every point to its root
    for x in range(n):
        parent[x] = parent[parent[x]]
    return [x for x in range(n) if parent[x] == 0]


def minimal_normal_subgroups_union_find(G: PermGroup,
                                         bound: int = DEFAULT_ELEMENT_BOUND) -> list[PermGroup]:
    """All inclusion-minimal nontrivial normal subgroups of G.

    Works on G's regular representation: G is enumerated once, elements
    become indices, and classes and closures are integer table lookups.
    Every minimal normal subgroup N is the normal closure of any one of
    its nontrivial elements.  By Cauchy's theorem N holds an element x of
    prime order, and the class of x lies in N, so closing each conjugacy
    class of prime order and keeping the inclusion-minimal results is
    complete.  The normal closure of x is the subgroup generated by its
    class, found as a block of the right regular action; x^k for k prime
    to the order of x has the same closure, so the classes of the powers
    of a closed x are skipped.  Results are sorted by order, then by
    element list, and each is generated by the conjugacy class of its
    least nontrivial element.  The classes are the orbits of conjugation
    by the generators, found here by Perm products.
    """
    if G.is_trivial():
        return []
    els = _elements(G, bound)
    right = G._right_tables(G.generators)
    n = len(els)
    index = {p: i for i, p in enumerate(els)}
    classes = _orbits([[index[g.inverse() * x * g] for x in els]
                       for g in G.generators], n)
    class_of = [0] * n
    for ci, cls in enumerate(classes):
        for x in cls:
            class_of[x] = ci
    order_of = Perm.order
    skip = [False] * len(classes)
    closures = set()
    tree = None
    for ci, cls in enumerate(classes):
        if skip[ci]:
            continue
        k = order_of(els[cls[0]])
        if not _is_prime(k):
            continue
        closures.add(frozenset(_identity_block(right, n, cls)))
        if k > 2:
            tree = tree or _bfs_tree(right, n)
            for y in _power_indices(right, tree, cls[0], k):
                skip[class_of[y]] = True
    keyed = []
    for N in closures:
        if any(M < N for M in closures):
            continue
        members = sorted(N, key=lambda i: els[i].images)
        keyed.append((len(N), [els[i].images for i in members], members[1]))
    keyed.sort(key=lambda entry: entry[:2])
    return [PermGroup(G.degree, sorted(
                (els[i] for i in next(c for c in classes if least in c)),
                key=lambda p: p.images))
            for _, _, least in keyed]


# --- reference full-tuple minimal normal subgroups ------------------------
#
# The former ``PermGroup.elements``, ``PermGroup._left_tables``,
# ``_index_classes``, ``_class_closure`` and ``minimal_normal_subgroups``,
# which listed every element as its full image tuple.  The bodies are
# unchanged but for ``ListedGroup``, which stands in for the ``PermGroup``
# that held the element list, so that the reference never touches the
# state of the group it is handed, and which grows the left tables of
# every group with ``_equivariant_map``, so that the reference reads no
# centralizer of the code it checks.

class ListedGroup:
    """The generators of a group, with the element list and the right
    regular tables of the former ``PermGroup.elements``."""

    def __init__(self, G: PermGroup):
        self.degree = G.degree
        self.generators = G.generators
        self._elements = None
        self._right = None

    def is_trivial(self) -> bool:
        return not self.generators

    def _known_order(self) -> int:
        return 0 if self._elements is None else len(self._elements)

    def elements(self, bound: int = DEFAULT_ELEMENT_BOUND) -> tuple[Perm, ...]:
        message = f"group exceeds element bound {bound}"
        if self._known_order() > bound:
            raise BoundExceeded(message)
        if self._elements is None:
            gen_images = [g.images for g in self.generators]
            found, self._right = _numbered_orbit(
                tuple(range(self.degree)),
                lambda a: map(itemgetter(*a), gen_images), bound, message)
            self._elements = tuple(map(_perm, found))
        return self._elements

    def _left_tables(self) -> list[list[int]]:
        # g_j * x is the map that commutes with the right tables and takes
        # the identity to g_j, for every group: no centralizer is read
        right = self._right
        return [_equivariant_map(right, 0, right, row[0], len(self._elements))
                for row in right]


def _index_classes(G: ListedGroup) -> list[list[int]]:
    n = len(G._elements)
    conj = []
    for rrow, lrow in zip(G._right, G._left_tables()):
        table = [0] * n
        for x, y in enumerate(lrow):  # y = g_j * x: g_j^-1 * y * g_j = x * g_j
            table[y] = rrow[x]
        conj.append(table)
    return _orbits(conj, n)


def _cycle_length_at_0(p: Perm) -> int:
    images = p.images
    length, x = 1, images[0]
    while x:
        length, x = length + 1, images[x]
    return length


def _right_cosets(H: list, by_point: bool):
    if not by_point:
        after = [itemgetter(*h) for h in H]
        return lambda t: [h_then(t) for h_then in after]
    if len(H) > 1:
        return itemgetter(*H)
    return lambda t: (t[0],)  # H is trivial: the name of t alone


def _class_closure(els: Sequence[Perm], cls: list[int], names: list,
                   where, dead: set, by_point: bool) -> list | None:
    identity = names[0]
    found = [identity]
    inside = {identity}
    gens: list[tuple[int, ...]] = []
    for c in cls:
        if names[c] in inside:
            continue
        gens.append(els[c].images)
        coset_of = _right_cosets(found, by_point)
        reps = [identity]
        for r in reps:  # grows while it is read: a breadth-first queue
            times_r = itemgetter(r) if by_point else itemgetter(*r)
            for g in gens:
                t = times_r(g)
                if t in inside:
                    continue
                coset = coset_of(els[where[t]].images if by_point else t)
                if not dead.isdisjoint(coset):
                    return None
                inside.update(coset)
                found.extend(coset)
                reps.append(t)
    return found


def minimal_normal_subgroups_full_tuples(
        G: PermGroup, bound: int = DEFAULT_ELEMENT_BOUND) -> list[PermGroup]:
    G = ListedGroup(G)
    if G.is_trivial():
        return []
    els = G.elements(bound)
    n = len(els)
    classes = _index_classes(G)
    class_of = _block_index(classes, n)
    names: list = [p.images[0] for p in els]
    by_point = len(set(names)) == n
    if by_point:
        order_of = _cycle_length_at_0
        where: list[int] | dict[tuple[int, ...], int] = [0] * G.degree
        for i, name in enumerate(names):
            where[name] = i
    else:
        order_of = Perm.order
        names = [p.images for p in els]
        where = {name: i for i, name in enumerate(names)}
    dead: set = set()  # the names in the classes visited
    kept = []
    for cls in sorted(classes, key=len):  # stable: ties in index order
        if names[cls[0]] in dead:
            continue
        x = els[cls[0]]
        k = order_of(x)
        if not _is_prime(k):
            continue
        found = _class_closure(els, cls, names, where, dead, by_point)
        if found is not None:
            kept.append(frozenset(map(where.__getitem__, found)))
        power = names[cls[0]]
        for _ in range(k - 1):  # x, x^2, ..., x^(k-1)
            if power not in dead:
                dead.update(names[i] for i in classes[class_of[where[power]]])
            power = (x.images[power] if by_point
                     else itemgetter(*power)(x.images))
    keyed = []
    for N in kept:
        if any(M < N for M in kept):
            continue
        members = sorted(N, key=lambda i: els[i].images)
        keyed.append((len(N), [els[i].images for i in members], members[1]))
    keyed.sort(key=lambda entry: entry[:2])
    return [PermGroup(G.degree, sorted((els[i] for i in classes[class_of[least]]),
                                       key=lambda p: p.images))
            for _, _, least in keyed]
