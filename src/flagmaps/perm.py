"""Permutation algebra on the points {0..n-1}.

Composition is left to right everywhere: ``x . (p * q) == (x . p) . q``.
Groups are given by generating permutations.  A regular group (Mon of a
reflexible map, Aut of one) is recognised from its point tables: its order
is the degree and membership is commuting with its centralizer.  Other
groups get orders and membership from an incremental Schreier-Sims
stabilizer chain with explicit inverse transversals.  Orbits whose
objects are numbered come from ``_numbered_orbit``, a bounded breadth-first
walk that records its Schreier tables; element lists are the orbit of the
identity, with the right regular tables.  Conjugacy classes run on those,
with elements as indices, and minimal normal subgroups grow the closure of
each class inside itself.  Plain orbits and orbit partitions of points
come from ``_orbit`` and ``_orbits``, and the least block holding two
points from ``_least_block``.  One routine grows the unique map that
turns one list of tables into another: it finds the centralizer of a
regular group (which also gives its left regular tables), left
multiplication on the right regular tables of other groups, labeled
congruence of groups, and the isomorphisms and automorphisms of maps.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import inf, isqrt, lcm
from operator import itemgetter
from typing import Any, Callable, Hashable, Iterable, Sequence

DEFAULT_DEGREE_BOUND = 10_000
DEFAULT_ELEMENT_BOUND = 100_000


class BoundExceeded(RuntimeError):
    """A configured size bound (degree or element count) was exceeded."""


class Perm:
    """A permutation of {0..n-1}, stored as the tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        images = tuple(images)
        if set(images) != set(range(len(images))):
            raise ValueError("images are not a bijection on {0..n-1}")
        self.images = images

    @staticmethod
    def identity(n: int) -> "Perm":
        return Perm(range(n))

    @staticmethod
    def from_cycles(n: int, cycles: Iterable[Sequence[int]]) -> "Perm":
        images = list(range(n))
        for cycle in cycles:
            for a, b in zip(cycle, cycle[1:]):
                images[a] = b
            if cycle:
                images[cycle[-1]] = cycle[0]
        return Perm(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def apply(self, x: int) -> int:
        """The image x . p of a point under the right action."""
        return self.images[x]

    __call__ = apply

    def __mul__(self, other: "Perm") -> "Perm":
        # x . (p * q) = (x . p) . q
        p = Perm.__new__(Perm)
        if len(self.images) > 1:
            p.images = itemgetter(*self.images)(other.images)
        else:  # itemgetter needs a key, and with one key returns a scalar
            p.images = tuple(other.images[i] for i in self.images)
        return p

    def inverse(self) -> "Perm":
        out = [0] * len(self.images)
        for i, j in enumerate(self.images):
            out[j] = i
        p = Perm.__new__(Perm)
        p.images = tuple(out)
        return p

    def __pow__(self, n: int) -> "Perm":
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return _perm(tuple(range(len(self.images))))
        # square only while higher bits remain
        result = None
        square = self
        while True:
            if n & 1:
                result = square if result is None else result * square
            n >>= 1
            if not n:
                return result
            square = square * square

    def is_identity(self) -> bool:
        return self.images == tuple(range(len(self.images)))

    def fixed_points(self) -> list[int]:
        return [i for i, j in enumerate(self.images) if i == j]

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its least point."""
        seen = [False] * len(self.images)
        out = []
        for i in range(len(self.images)):
            if seen[i] or self.images[i] == i:
                seen[i] = True
                continue
            cyc = [i]
            j = self.images[i]
            seen[i] = True
            while j != i:
                seen[j] = True
                cyc.append(j)
                j = self.images[j]
            out.append(tuple(cyc))
        return out

    def order(self) -> int:
        n = 1
        for cyc in self.cycles():
            n = lcm(n, len(cyc))
        return n

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return f"Perm.identity({len(self.images)})"
        body = "".join("(" + " ".join(map(str, c)) + ")" for c in cycs)
        return f"Perm[{body}]"


def _perm(images: tuple[int, ...]) -> Perm:
    """A Perm from an image tuple already known to be a bijection."""
    p = Perm.__new__(Perm)
    p.images = images
    return p


class _Level:
    """One level of a stabilizer chain: a base point, strong generators
    (each fixes the earlier base points), and the orbit of the base point
    under them with one inverse transversal element per orbit point."""

    __slots__ = ("point", "gens", "gen_invs", "points", "inv", "done",
                 "cursor")

    def __init__(self, point: int, degree: int):
        self.point = point
        self.gens: list[Perm] = []
        self.gen_invs: list[Perm] = []
        # orbit points in discovery order; inv[pt] is u^-1 for the
        # transversal element u with point . u == pt
        self.points = [point]
        self.inv = {point: Perm.identity(degree)}
        # done[k]: the number of generators whose Schreier generators at
        # points[k] have been sifted; every point before cursor is done
        self.done = [0]
        self.cursor = 0

    def add_generator(self, s: Perm, s_inv: Perm) -> None:
        """Append a generator and grow the orbit breadth first: the points
        already known under s alone, the new points under every generator."""
        self.gens.append(s)
        self.gen_invs.append(s_inv)
        self.cursor = 0
        points, inv = self.points, self.inv
        old = len(points)
        step = [(s.images, s_inv)]
        k = 0
        while k < len(points):
            if k == old:
                step = [(g.images, g_inv)
                        for g, g_inv in zip(self.gens, self.gen_invs)]
            a = points[k]
            for images, g_inv in step:
                b = images[a]
                if b not in inv:
                    # u_b = u_a * g, so u_b^-1 = g^-1 * u_a^-1
                    inv[b] = g_inv * inv[a]
                    points.append(b)
                    self.done.append(0)
            k += 1


class StabilizerChain:
    """Incremental deterministic Schreier-Sims chain for order/membership.

    Level i carries the base point b_i, strong generators that fix
    b_0..b_{i-1}, and for each point pt in the orbit of b_i under them the
    inverse u^-1 of a transversal element u with b_i . u == pt.  Only the
    inverse is stored, one permutation per orbit point, so the chain holds
    sum(orbit size) * degree image entries.  Sifting multiplies by the
    stored inverses.  Each Schreier generator u_a * s * u_{a.s}^-1 of
    level i is sifted once, from level i+1 on; a nontrivial residue that
    stops at level j becomes a strong generator of levels i+1..j, and work
    resumes at level j (Holt, Handbook of Computational Group Theory,
    SCHREIERSIMS).  A generator added from outside is sifted from level 0
    the same way.
    """

    def __init__(self, gens: Sequence[Perm], degree: int):
        if degree > DEFAULT_DEGREE_BOUND:
            raise BoundExceeded(
                f"degree {degree} exceeds bound {DEFAULT_DEGREE_BOUND}")
        self.degree = degree
        self.levels: list[_Level] = []
        for g in gens:
            self._add(g)

    def _sift(self, p: Perm, start: int = 0) -> tuple[Perm, int]:
        """Reduce p by transversal elements from level ``start`` on; the
        residue is the identity iff p is a member.  Also returns the level
        where sifting stopped."""
        levels = self.levels
        for i in range(start, len(levels)):
            level = levels[i]
            x = p.images[level.point]
            if x != level.point:
                u_inv = level.inv.get(x)
                if u_inv is None:
                    return p, i
                p = p * u_inv
        return p, len(levels)

    def _insert(self, h: Perm, first: int, last: int) -> None:
        """Make h a strong generator of levels first..last, opening a new
        level at the least point h moves when last is past the end."""
        if last == len(self.levels):
            moved = next(k for k, v in enumerate(h.images) if k != v)
            self.levels.append(_Level(moved, self.degree))
        h_inv = h.inverse()
        for level in self.levels[first:last + 1]:
            level.add_generator(h, h_inv)

    def _unsifted_residue(self, i: int) -> tuple[Perm, int] | None:
        """Sift the Schreier generators of level i not yet sifted, through
        the levels below it, up to the first nontrivial residue."""
        level = self.levels[i]
        gens, points, inv, done = level.gens, level.points, level.inv, level.done
        for k in range(level.cursor, len(points)):
            level.cursor = k
            if done[k] == len(gens):
                continue
            a = points[k]
            u_a = inv[a].inverse()
            for s in gens[done[k]:]:
                done[k] += 1
                residue, j = self._sift(u_a * s * inv[s.images[a]], i + 1)
                if not residue.is_identity():
                    return residue, j
        level.cursor = len(points)
        return None

    def _add(self, g: Perm) -> None:
        """Extend the chain to the group generated by its group and g."""
        residue, i = self._sift(g)
        if residue.is_identity():
            return
        self._insert(residue, 0, i)
        while i >= 0:
            found = self._unsifted_residue(i)
            if found is None:
                i -= 1
                continue
            residue, j = found
            self._insert(residue, i + 1, j)
            i = j

    def order(self) -> int:
        n = 1
        for level in self.levels:
            n *= len(level.points)
        return n

    def contains(self, p: Perm) -> bool:
        if p.degree != self.degree:
            return False
        residue, _ = self._sift(p)
        return residue.is_identity()


class PermGroup:
    """A permutation group given by generators on a fixed point set."""

    def __init__(self, degree: int, generators: Sequence[Perm]):
        if degree < 1:
            raise ValueError("degree must be at least 1")
        for g in generators:
            if g.degree != degree:
                raise ValueError("generator degree mismatch")
        self.degree = degree
        self.generators = tuple(g for g in generators if not g.is_identity())
        self._chain: StabilizerChain | None = None
        self._elements: tuple[Perm, ...] | None = None
        self._right: list[list[int]] | None = None
        # set by is_regular: None until tested; for a regular group,
        # generators of its centralizer in Sym(degree)
        self._regular: bool | None = None
        self._centralizer: tuple[Perm, ...] = ()

    @staticmethod
    def trivial(degree: int) -> "PermGroup":
        return PermGroup(degree, ())

    def chain(self) -> StabilizerChain:
        if self._chain is None:
            self._chain = StabilizerChain(self.generators, self.degree)
        return self._chain

    def is_regular(self) -> bool:
        """Whether G acts regularly: transitively, with trivial stabilizers.

        For each generator g, the map that takes 0 to 0 . g and commutes
        with every generator is grown breadth first from 0.  All of them
        exist exactly when G is regular: they then generate the centralizer
        C(G), which is transitive, and G = C(C(G)) (Dixon and Mortimer,
        Permutation Groups, 4.2).  The first conflict answers no.
        O(degree * ngens^2) integer work with no Perm product, cached.
        """
        if self._regular is None:
            tables = [g.images for g in self.generators]
            regular = bool(tables) or self.degree == 1
            centralizer = []
            for images in tables:
                c = _equivariant_map(tables, 0, tables, images[0], self.degree)
                if c is None:
                    regular = False
                    break
                centralizer.append(_perm(tuple(c)))
            self._regular = regular
            if regular:
                self._centralizer = tuple(centralizer)
        return self._regular

    def _answers_from_points(self) -> bool:
        """Whether order and membership are read off the point tables:
        the group is regular and no chain exists yet.  The chain's degree
        bound applies here as well."""
        if self._chain is not None:
            return False
        if self.degree > DEFAULT_DEGREE_BOUND:
            raise BoundExceeded(
                f"degree {self.degree} exceeds bound {DEFAULT_DEGREE_BOUND}")
        return self.is_regular()

    def order(self) -> int:
        if self._answers_from_points():
            return self.degree
        if self._elements is not None:
            return len(self._elements)
        return self.chain().order()

    def contains(self, p: Perm) -> bool:
        if not self.generators:
            return p.degree == self.degree and p.is_identity()
        if self._answers_from_points():
            return p.degree == self.degree and all(
                p * c == c * p for c in self._centralizer)
        return self.chain().contains(p)

    __contains__ = contains

    def orbit(self, point: int) -> list[int]:
        """The orbit of point, breadth first from it."""
        return _orbit([g.images for g in self.generators], point)

    def orbits(self) -> list[list[int]]:
        """Orbit partition of {0..degree-1}, blocks sorted by least point."""
        return [sorted(block) for block in
                _orbits([g.images for g in self.generators], self.degree)]

    def is_transitive(self) -> bool:
        return len(self.orbit(0)) == self.degree

    def elements(self, bound: int = DEFAULT_ELEMENT_BOUND) -> tuple[Perm, ...]:
        """All elements, breadth first from the identity (deterministic order).

        The same pass records the right regular representation on indices
        into this tuple: ``_right[j][x]`` is the index of x * generators[j].
        A group of more than bound elements raises, listed already or not;
        when its order is known (listed, from a chain, or the degree of a
        regular group), it raises before listing anything.
        """
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

    def _known_order(self) -> int:
        """The order when it is known without new work, else 0."""
        if self._elements is not None:
            return len(self._elements)
        if self._chain is not None:
            return self._chain.order()
        return self.degree if self._regular else 0

    def _left_tables(self) -> list[list[int]]:
        """The left regular table of each generator g_j on the indices of
        ``elements()``: ``table[x]`` is the index of g_j * x.

        A regular group names x by the point 0 . x, and 0 . (g_j * x) is
        c_j[0 . x] for the centralizer element c_j that ``is_regular``
        grew with 0 . c_j = 0 . g_j.  Otherwise each table is the map that
        takes the identity to g_j and turns the right tables into
        themselves."""
        els, right = self._elements, self._right
        n = len(els)
        if not self.is_regular():
            return [_equivariant_map(right, 0, right, row[0], n)
                    for row in right]
        names = [p.images[0] for p in els]
        where = [0] * n
        for i, name in enumerate(names):
            where[name] = i
        return [[where[c.images[name]] for name in names]
                for c in self._centralizer]

    def _right_tables(self, perms: Sequence[Perm],
                      bound: int) -> list[list[int]]:
        """The right regular table of each given permutation, which is a
        generator or the identity, on the indices of ``elements(bound)``:
        ``table[x]`` is the index of x * p."""
        self.elements(bound)
        identity = list(range(len(self._elements)))
        return [identity if p.is_identity()
                else self._right[self.generators.index(p)] for p in perms]

    def is_trivial(self) -> bool:
        return not self.generators

    def __eq__(self, other: object) -> bool:
        """Equality as sets of permutations (mutual membership of generators)."""
        if not isinstance(other, PermGroup) or self.degree != other.degree:
            return NotImplemented
        return (all(g in other for g in self.generators)
                and all(g in self for g in other.generators))

    def __hash__(self) -> int:  # PermGroups are set-like; hash by frozen elements
        return hash((self.degree, frozenset(self.elements())))

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, ngens={len(self.generators)})"


def _block_index(blocks: Iterable[Iterable[int]], n: int) -> list[int]:
    """For each of the n points, the index of its block in a partition."""
    block_of = [0] * n
    for i, block in enumerate(blocks):
        for x in block:
            block_of[x] = i
    return block_of


def _numbered_orbit(start: Hashable, images: Callable[[Any], Iterable],
                    bound: float = inf, message: str = "",
                    ) -> tuple[list, list[list[int]]]:
    """The orbit of start, numbered breadth first in discovery order, and
    its Schreier tables (Holt, Handbook of CGT, 4.1): ``images(a)`` gives
    the images of object a under the generators in order, and
    ``tables[j][i]`` is the number of the j-th image of object i.  Raises
    ``BoundExceeded(message)`` before it numbers object ``bound``."""
    index = {start: 0}
    found = [start]
    tables: list[list[int]] = [[] for _ in images(start)]
    for a in found:  # grows while it is read: a breadth-first queue
        for b, row in zip(images(a), tables):
            k = index.setdefault(b, len(found))
            if k == len(found):
                if k >= bound:
                    raise BoundExceeded(message)
                found.append(b)
            row.append(k)
    return found, tables


def _orbit(tables: Sequence[Sequence[int]], start: int) -> list[int]:
    """The orbit of start under point tables (image lists), breadth first
    from it."""
    seen = {start}
    out = [start]
    for a in out:  # grows while it is read: a breadth-first queue
        for images in tables:
            b = images[a]
            if b not in seen:
                seen.add(b)
                out.append(b)
    return out


def _least_block(tables: Sequence[Sequence[int]], n: int,
                 a: int, b: int) -> list[int]:
    """The class of a, sorted, in the finest partition of {0..n-1} that
    joins a and b and that the point tables map onto itself: for a
    transitive group, the least block holding a and b.

    Atkinson's closure (Atkinson, Math. Comp. 29, 1975; Dixon and
    Mortimer, Permutation Groups, 1.5): classes start as points, and each
    pair of points joined, a and b first, joins the classes of its images
    under every table.  A join relabels the smaller class, so the class of
    a point is one lookup; at most n - 1 joins, O(n * tables) lookups."""
    if a == b:
        return [a]
    label = list(range(n))
    members: list[list[int]] = [[x] for x in range(n)]
    joined = [(a, b)]
    label[b] = a
    members[a].append(b)
    for x, y in joined:  # grows while it is read: a queue of joins
        for images in tables:
            p, q = images[x], images[y]
            u, v = label[p], label[q]
            if u != v:
                if len(members[u]) < len(members[v]):
                    u, v = v, u
                for z in members[v]:
                    label[z] = u
                members[u] += members[v]
                joined.append((p, q))
    return sorted(members[label[a]])


def _orbits(tables: Sequence[Sequence[int]], n: int) -> list[list[int]]:
    """The orbits of {0..n-1} under point tables, ordered by least point,
    each breadth first from its least point."""
    seen = [False] * n
    out = []
    for x in range(n):
        if not seen[x]:
            block = _orbit(tables, x)
            for y in block:
                seen[y] = True
            out.append(block)
    return out


def normal_closure(G: PermGroup, seed: Sequence[Perm],
                   bound: int = DEFAULT_ELEMENT_BOUND) -> PermGroup:
    """Smallest normal subgroup of G containing the seed elements.

    Repeatedly conjugates the closure's generators by the generators of G,
    adding any conjugate that fails membership, until stable.  One
    stabilizer chain is extended generator by generator; it is the chain
    the returned group would build from the same generators.
    """
    for s in seed:
        if s not in G:
            raise ValueError("seed element not in the ambient group")
    gens: list[Perm] = []
    chain = StabilizerChain(gens, G.degree)
    conjugators = [(g.inverse(), g) for g in G.generators]
    queue = deque(s for s in seed if not s.is_identity())
    while queue:
        s = queue.popleft()
        if chain.contains(s):
            continue
        gens.append(s)
        chain._add(s)
        if chain.order() > bound:
            raise BoundExceeded(f"normal closure exceeds element bound {bound}")
        queue.extend(g_inv * s * g for g_inv, g in conjugators)
    sub = PermGroup(G.degree, gens)
    sub._chain = chain
    return sub


def _equivariant_map(src: Sequence[Sequence[int]], start: int,
                     dst: Sequence[Sequence[int]], image_of_start: int,
                     n: int) -> list[int] | None:
    """The bijection f of {0..n-1} with f(start) = image_of_start and
    f(s[x]) = d[f(x)] for each pair of tables (s, d) of ``zip(src, dst)``,
    or None when there is none.

    Grown breadth first from start: when b is first reached as s[a], f(b)
    is d[f(a)]; each equation is checked once, as its edge is first
    crossed, and a conflict ends the search at once.  A map that reaches
    every point is unique; it must also be injective.
    """
    image = [-1] * n
    image[start] = image_of_start
    queue = [start]
    pairs = list(zip(src, dst))
    for a in queue:  # grows while it is read: a breadth-first queue
        ia = image[a]
        for s, d in pairs:
            b = s[a]
            if image[b] < 0:
                image[b] = d[ia]
                queue.append(b)
            elif image[b] != d[ia]:
                return None
    if len(queue) != n or len(set(image)) != n:
        return None
    return image


def _index_classes(G: PermGroup) -> list[list[int]]:
    """Conjugacy classes of a listed G as lists of indices into
    ``elements()``, each headed by its least index: the orbits of the
    conjugation tables, ``conj[j][x]`` the index of g_j^-1 * x * g_j, found
    from the right and left regular tables with no Perm product."""
    n = len(G._elements)
    conj = []
    for rrow, lrow in zip(G._right, G._left_tables()):
        table = [0] * n
        for x, y in enumerate(lrow):  # y = g_j * x: g_j^-1 * y * g_j = x * g_j
            table[y] = rrow[x]
        conj.append(table)
    return _orbits(conj, n)


def conjugacy_classes(G: PermGroup,
                      bound: int = DEFAULT_ELEMENT_BOUND) -> list[list[Perm]]:
    """Conjugacy classes of G as sorted element lists, by least representative."""
    els = G.elements(bound)
    classes = [sorted((els[i] for i in cls), key=lambda p: p.images)
               for cls in _index_classes(G)]
    classes.sort(key=lambda cls: cls[0].images)
    return classes


def _cycle_length_at_0(p: Perm) -> int:
    """The length of the cycle of p through point 0."""
    images = p.images
    length, x = 1, images[0]
    while x:
        length, x = length + 1, images[x]
    return length


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))


def _right_cosets(H: list, by_point: bool):
    """The map from the images of t to the names of the coset H t.  Named
    by point, those are t's images of the names in H; named by image
    tuple, they are t composed after each element of H."""
    if not by_point:
        after = [itemgetter(*h) for h in H]
        return lambda t: [h_then(t) for h_then in after]
    if len(H) > 1:
        return itemgetter(*H)
    return lambda t: (t[0],)  # H is trivial: the name of t alone


def _class_closure(els: Sequence[Perm], cls: list[int], names: list,
                   where, dead: set, by_point: bool) -> list | None:
    """The names of the subgroup generated by the class ``cls``, or None
    once it meets a name in ``dead``.

    Grown from the identity inside itself (Dimino's algorithm): a class
    element c becomes a generator only when the subgroup H so far lacks
    it, and <H, c> is then the union of the right cosets H t, whose
    representatives t = r * g are found breadth first over the
    representatives r and the generators g.
    """
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


def minimal_normal_subgroups(G: PermGroup,
                             bound: int = DEFAULT_ELEMENT_BOUND) -> list[PermGroup]:
    """All inclusion-minimal nontrivial normal subgroups of G.

    G is enumerated once and its classes found on the regular
    representation.  Every minimal normal subgroup N is the normal closure
    of any one of its nontrivial elements.  By Cauchy's theorem N holds an
    element x of prime order, and the class of x lies in N, so closing
    each conjugacy class of prime order and keeping the inclusion-minimal
    results is complete.  Classes are closed smallest first (ties in index
    order); the normal closure N_C of a class C is the subgroup it
    generates, grown inside itself.  A closure that meets a class D
    visited earlier is dropped at once: N_D lies in N_C, so N_C repeats a
    closure already kept or is not minimal.  Each minimal N is still
    found, by the first class visited inside it.  x^k for k prime to the
    order of x has the same closure, so the classes of the powers of a
    visited x are skipped and count as visited.

    Elements are named so that a product is one step: when the images of
    point 0 tell them apart (G is semiregular, say), by the image of 0,
    so that x * c is named c[x] and the order of x is the length of its
    cycle through 0; otherwise by their image tuples.  Results are sorted
    by order, then by element list, and each is generated by the
    conjugacy class of its least nontrivial element.
    """
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


def is_normal_in(H: PermGroup, G: PermGroup) -> bool:
    """Whether H is normalized by every generator of G."""
    for g in G.generators:
        gi = g.inverse()
        for h in H.generators:
            if not H.contains(gi * h * g):
                return False
    return True


@dataclass(frozen=True)
class LabeledGenerators:
    """A group carried by generators with pairwise-distinct labels."""

    labels: tuple[str, ...]
    generators: tuple[Perm, ...]

    def __post_init__(self):
        if len(self.labels) != len(self.generators):
            raise ValueError("labels and generators differ in length")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("labels must be pairwise distinct")
        degrees = {g.degree for g in self.generators}
        if len(degrees) > 1:
            raise ValueError("generators must share one degree")

    @property
    def degree(self) -> int:
        return self.generators[0].degree

    def generator(self, label: str) -> Perm:
        return self.generators[self.labels.index(label)]

    def as_dict(self) -> dict[str, Perm]:
        return dict(zip(self.labels, self.generators))

    def group(self) -> PermGroup:
        return PermGroup(self.degree, self.generators)


def congruent_labeled_groups(A: LabeledGenerators, B: LabeledGenerators,
                             bound: int = DEFAULT_ELEMENT_BOUND) -> bool:
    """Whether the label-respecting generator assignment extends to an
    isomorphism of the generated groups.

    With equal orders, that isomorphism is the bijection from A to B,
    identity to identity, that turns the right regular table of each
    generator of A into that of the same label in B.  Groups of more than
    bound + 1 elements raise ``BoundExceeded``.
    """
    if sorted(A.labels) != sorted(B.labels):
        raise ValueError("label multisets differ")
    group_a, group_b = A.group(), B.group()
    n = group_a.order()
    if n != group_b.order():
        return False
    src = group_a._right_tables(A.generators, bound + 1)
    dst = group_b._right_tables([B.generator(lbl) for lbl in A.labels],
                                bound + 1)
    return _equivariant_map(src, 0, dst, 0, n) is not None


# --- .grp file format -------------------------------------------------------
#
#   degree N
#   gen <label> <i0> <i1> ... <i(N-1)>
#
# 0-based image lists; "#" starts a comment line.

def parse_group_file(text: str) -> LabeledGenerators:
    degree = None
    labels: list[str] = []
    gens: list[Perm] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "degree":
            if degree is not None:
                raise ValueError(f"line {lineno}: duplicate degree line")
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: expected 'degree N'")
            try:
                degree = int(parts[1])
            except ValueError:
                degree = -1
            if degree < 0:
                raise ValueError(f"line {lineno}: degree {parts[1]!r} is "
                                 "not a non-negative integer")
        elif parts[0] == "gen":
            if degree is None:
                raise ValueError(f"line {lineno}: 'gen' before 'degree'")
            if len(parts) < 2:
                raise ValueError(f"line {lineno}: 'gen' without a label")
            if len(parts) != degree + 2:
                raise ValueError(
                    f"line {lineno}: expected {degree} images for generator")
            labels.append(parts[1])
            try:
                gens.append(Perm(int(x) for x in parts[2:]))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from exc
        else:
            raise ValueError(f"line {lineno}: unknown directive {parts[0]!r}")
    if degree is None or not gens:
        raise ValueError("group file needs a degree line and at least one gen")
    return LabeledGenerators(tuple(labels), tuple(gens))


def format_group_file(lg: LabeledGenerators) -> str:
    lines = [f"degree {lg.degree}"]
    for label, g in zip(lg.labels, lg.generators):
        lines.append("gen " + label + " " + " ".join(map(str, g.images)))
    return "\n".join(lines) + "\n"
