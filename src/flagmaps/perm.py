"""Permutation algebra on the points {0..n-1}.

Composition is left to right everywhere: ``x . (p * q) == (x . p) . q``.
Image tables are composed by ``_read`` (the inner loops of chains,
listings and closures call ``itemgetter`` directly), inverted by
``_inverse`` and renumbered by ``_relabel``; whether f[s[x]] == d[f[x]]
for all x (morphisms, automorphisms) is ``_intertwines``.
Groups are given by generating permutations; a group keeps their image
tuples once (``PermGroup.tables``), and its order once known.  A regular
group (Mon of a reflexible map, Aut of one) is recognised from its point
tables: its order is the degree and membership is commuting with the left
tables that generate its centralizer.  Other groups get orders and
membership from an incremental Schreier-Sims stabilizer chain on image
tuples, keeping each transversal element and its inverse, unless the order
is already known.  The centralizer of a transitive group comes from a scan
of the points from point 0 (``_centralizer_scan``), kept on the group, as
is its orbit partition once read: Aut of a map is the centralizer of its
Mon, and the Aut-orbits are Aut's partition.  Orbits whose objects are
numbered come from ``_numbered_orbit``, a bounded breadth-first walk that
records its Schreier tables.  Each reader of a group's elements lists them anew
(``Listing``), each named by the images of a base on whose orbit the group
acts regularly and faithfully, walked once (``_walk``): the points of a
regular group with no walk at all; for a transitive group with a
nontrivial centralizer, the least point of each orbit of the centralizer;
the point 0 for a group that knows its order and is semiregular on the
orbit of 0 (Aut of a map); the base of its stabilizer chain otherwise,
whose pointwise stabilizer is trivial.  Conjugacy classes, minimal normal
subgroups, the right regular tables and ``elements()`` read it, building
image tuples and left tables on demand along its breadth-first tree
(``_breadth_first_tree``, which also gives the block test of ``decomp``
its words, ``quotient`` its transversal of a morphism and
``mapcore.canonicalize`` its numbering), and the group keeps the count, as
its order, but not the listing.  The orbit of one point is read off that
same walk, orbit partitions (each point's orbit number and each orbit's
list) come from ``_orbit_partition``, and the least block holding two
points from ``_least_block``.  One routine grows the unique map that turns
one list of tables into another: it finds the centralizer of a regular
group (which also gives its left regular tables, ``_left_tables``) and
each element of the centralizer scan, and finds labeled congruence of
groups and the isomorphisms and automorphisms of maps.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from math import inf, isqrt, lcm
from operator import itemgetter
from typing import Any, Callable, Hashable, Iterable, Iterator, Sequence

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
        return _perm(_read(other.images, self.images))

    def inverse(self) -> "Perm":
        return _perm(_inverse(self.images))

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
        """Nontrivial cycles, each from its least point: the orbits of
        ``_orbit_partition``, listed breadth first, so along the cycle."""
        orbits = _orbit_partition((self.images,), len(self.images))[1]
        return [tuple(orbit) for orbit in orbits if len(orbit) > 1]

    def order(self) -> int:
        return lcm(*map(len, self.cycles()))

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


def _read(table: Sequence[int], keys: Sequence[int]) -> tuple[int, ...]:
    """table[k] for each k of keys, in one ``itemgetter`` call: the image
    tuple of keys * table when both are image tuples."""
    if len(keys) > 1:
        return itemgetter(*keys)(table)
    # itemgetter needs a key, and with one key returns a scalar
    return tuple(table[k] for k in keys)


def _intertwines(f: Sequence[int], s: Sequence[int], d: Sequence[int]) -> bool:
    """Whether f[s[x]] == d[f[x]] for every x: f carries the table s to d.
    With d equal to s, whether f commutes with s."""
    return _read(f, s) == _read(d, f)


def _inverse(images: Sequence[int]) -> tuple[int, ...]:
    """The image tuple of the inverse permutation."""
    out = [0] * len(images)
    for i, j in enumerate(images):
        out[j] = i
    return tuple(out)


def _relabel(tables: Sequence[Sequence[int]],
             order: Sequence[int]) -> list[list[int]]:
    """The tables with the point ``order[i]`` renamed i, for an order of
    every point: the image of i is the position of the image of order[i]."""
    position = _inverse(order)
    return [[position[row[c]] for c in order] for row in tables]


class _Level:
    """One level of a stabilizer chain: a base point, strong generators
    (each fixes the earlier base points), and the orbit of the base point
    under them with one transversal element and its inverse per orbit
    point, all as image tuples."""

    __slots__ = ("point", "gens", "gen_invs", "points", "u", "inv", "edge",
                 "done", "cursor")

    def __init__(self, point: int, identity: tuple[int, ...]):
        self.point = point
        self.gens: list[tuple[int, ...]] = []
        self.gen_invs: list[tuple[int, ...]] = []
        # orbit points in discovery order; u[pt] is the transversal element
        # with point . u == pt and inv[pt] its inverse; edge[pt] = (a, j)
        # when pt was first reached as a . g_j, so that u[pt] = u[a] * g_j
        self.points = [point]
        self.u = {point: identity}
        self.inv = {point: identity}
        self.edge: dict[int, tuple[int, int]] = {}
        # done[k]: the number of generators whose Schreier generators at
        # points[k] have been sifted; every point before cursor is done
        self.done = [0]
        self.cursor = 0

    def add_generator(self, s: tuple[int, ...],
                      s_inv: tuple[int, ...]) -> None:
        """Append a generator and grow the orbit breadth first: the points
        already known under s alone, the new points under every generator."""
        self.gens.append(s)
        self.gen_invs.append(s_inv)
        self.cursor = 0
        points, u, inv, edge = self.points, self.u, self.inv, self.edge
        old = len(points)
        step = [(len(self.gens) - 1, s, s_inv)]
        k = 0
        while k < len(points):
            if k == old:
                step = list(zip(range(len(self.gens)), self.gens,
                                self.gen_invs))
            a = points[k]
            for j, g, g_inv in step:
                b = g[a]
                if b not in inv:
                    # u_b = u_a * g, so u_b^-1 = g^-1 * u_a^-1
                    u[b] = itemgetter(*u[a])(g)
                    inv[b] = itemgetter(*g_inv)(inv[a])
                    edge[b] = (a, j)
                    points.append(b)
                    self.done.append(0)
            k += 1


class StabilizerChain:
    """Incremental deterministic Schreier-Sims chain for order/membership,
    on image tuples: no ``Perm`` is built.

    Level i carries the base point b_i, strong generators that fix
    b_0..b_{i-1}, and for each point pt in the orbit of b_i under them a
    transversal element u with b_i . u == pt and its inverse u^-1, so the
    chain holds 2 * sum(orbit size) * degree image entries.  Sifting
    multiplies by the stored inverses, one ``itemgetter`` call per level,
    and a residue is compared with one stored identity tuple.  Each
    Schreier generator u_a * s * u_{a.s}^-1 of level i is sifted once,
    from level i+1 on, except on a tree edge (a.s first reached as a . s,
    where it is the identity); a nontrivial residue that stops at level j
    becomes a strong generator of levels i+1..j, and work resumes at level
    j (Holt, Handbook of Computational Group Theory, SCHREIERSIMS).  A
    generator added from outside is sifted from level 0 the same way.  A
    level opens at the least point its first generator moves.
    """

    def __init__(self, gens: Sequence[Perm], degree: int):
        if degree > DEFAULT_DEGREE_BOUND:
            raise BoundExceeded(
                f"degree {degree} exceeds bound {DEFAULT_DEGREE_BOUND}")
        self.degree = degree
        self.identity = tuple(range(degree))
        self.levels: list[_Level] = []
        for g in gens:
            self._add(g.images)

    def _sift(self, p: tuple[int, ...],
              start: int = 0) -> tuple[tuple[int, ...], int]:
        """Reduce p by transversal elements from level ``start`` on; the
        residue is the identity iff p is a member.  Also returns the level
        where sifting stopped."""
        levels = self.levels
        for i in range(start, len(levels)):
            level = levels[i]
            x = p[level.point]
            if x != level.point:
                u_inv = level.inv.get(x)
                if u_inv is None:
                    return p, i
                p = itemgetter(*p)(u_inv)
        return p, len(levels)

    def _insert(self, h: tuple[int, ...], first: int, last: int) -> None:
        """Make h a strong generator of levels first..last, opening a new
        level at the least point h moves when last is past the end."""
        if last == len(self.levels):
            moved = next(k for k, v in enumerate(h) if k != v)
            self.levels.append(_Level(moved, self.identity))
        h_inv = _inverse(h)
        for level in self.levels[first:last + 1]:
            level.add_generator(h, h_inv)

    def _unsifted_residue(self, i: int) -> tuple[tuple[int, ...], int] | None:
        """Sift the Schreier generators of level i not yet sifted, through
        the levels below it, up to the first nontrivial residue."""
        level = self.levels[i]
        gens, points, done = level.gens, level.points, level.done
        u, inv, edge = level.u, level.inv, level.edge
        identity = self.identity
        for k in range(level.cursor, len(points)):
            level.cursor = k
            if done[k] == len(gens):
                continue
            a = points[k]
            then_u_a = itemgetter(*u[a])
            for j in range(done[k], len(gens)):
                done[k] = j + 1
                s = gens[j]
                b = s[a]
                if edge.get(b) == (a, j):
                    continue  # u_b = u_a * s: the Schreier generator is 1
                residue, stop = self._sift(
                    itemgetter(*then_u_a(s))(inv[b]), i + 1)
                if residue != identity:
                    return residue, stop
        level.cursor = len(points)
        return None

    def _add(self, g: tuple[int, ...]) -> None:
        """Extend the chain to the group generated by its group and g."""
        residue, i = self._sift(g)
        if residue == self.identity:
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
        residue, _ = self._sift(p.images)
        return residue == self.identity


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
        # the generators' image tuples, read by every walk of the group
        self.tables = tuple(g.images for g in self.generators)
        self._chain: StabilizerChain | None = None
        # the order once known: handed in by whoever built the group, the
        # degree of a regular group, a listing's count or a chain's order
        self._order: int | None = None
        # set by is_regular: None until tested; a regular group keeps the
        # tables of left multiplication by its generators, which generate
        # its centralizer in Sym(degree)
        self._regular: bool | None = None
        self._left: list[list[int]] | None = None
        # set by centralizer(): the centralizer of a transitive group, from
        # its scan of the points
        self._centralizer_group: PermGroup | None = None

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
        with every generator is grown breadth first from 0
        (``_left_tables``).  All of them exist exactly when G is
        regular: they then generate the centralizer C(G), which is
        transitive, and G = C(C(G)) (Dixon and Mortimer, Permutation
        Groups, 4.2).  The first conflict answers no.  O(degree * ngens^2)
        integer work with no Perm product, cached; a regular group keeps
        the maps as its left tables and the degree as its order.
        """
        if self._regular is None:
            left = _left_tables(self.tables, self.degree)
            self._regular = left is not None and (
                bool(self.tables) or self.degree == 1)
            if self._regular:
                self._left = left
                self._order = self.degree
        return self._regular

    def centralizer(self) -> "PermGroup":
        """The centralizer of a transitive G in Sym(degree), found once by
        ``_centralizer_scan`` and kept.  It is semiregular and knows its
        order.  Aut of a map is the centralizer of its Mon, so Mon owns Aut
        and Aut its orbits (``_partition``).  Raises ValueError when G is
        not transitive."""
        if self._centralizer_group is None:
            if not self.is_transitive():
                raise ValueError("the centralizer scan needs a transitive "
                                 "group")
            self._centralizer_group = _centralizer_scan(self.tables,
                                                        self.degree)
        return self._centralizer_group

    def order(self) -> int:
        """The order, kept once known: given by whoever built the group (as
        Aut's is), counted by a listing, else read off a chain that exists,
        else the degree of a regular group, else a new chain's.  Only a
        new chain checks the degree bound, so a group past it answers an
        order it knows or reads off its regularity."""
        if self._order is None:
            if self._chain is not None or not self.is_regular():
                self._order = self.chain().order()
        return self._order

    def contains(self, p: Perm) -> bool:
        """Membership: with no chain, a regular group's members are the
        permutations that commute with its left tables; else a chain's,
        which is built under the degree bound."""
        if not self.generators:
            return p.degree == self.degree and p.is_identity()
        if self._chain is None and self.is_regular():
            x = p.images
            return p.degree == self.degree and all(
                _intertwines(x, c, c) for c in self._left)
        return self.chain().contains(p)

    __contains__ = contains

    def orbit(self, point: int) -> list[int]:
        """The orbit of point, breadth first from it."""
        return _breadth_first_tree(self.tables, point, self.degree)[0]

    def orbits(self) -> list[list[int]]:
        """Orbit partition of {0..degree-1}, blocks sorted by least point."""
        return [sorted(block) for block in self._partition[1]]

    @cached_property
    def _partition(self) -> tuple[list[int], list[list[int]]]:
        """Each point's orbit number and the orbits, found once per group
        by ``_orbit_partition`` (for Aut: the Aut-orbits of the flags)."""
        return _orbit_partition(self.tables, self.degree)

    def is_transitive(self) -> bool:
        return len(self.orbit(0)) == self.degree

    def elements(self) -> tuple[Perm, ...]:
        """All elements, breadth first from the identity (deterministic order).

        They are read off a new listing (``_listed``), each built from its
        parent in the breadth-first tree by one composition, and the group
        keeps only their count: the caller owns the tuple.  A group of more
        than ``DEFAULT_ELEMENT_BOUND`` elements raises; when its order is
        known (listed before, from a chain, the degree of a regular group,
        or given by whoever built it) or read off the chain it is listed
        through, it raises before listing anything.
        """
        listing = self._listed()
        return tuple(map(_perm, map(listing.image_builder(),
                                    listing.breadth_first_order())))

    def _listed(self) -> Listing:
        """A new listing of the elements, named by the images of a base
        (``Listing``): for a regular group no walk at all, else the orbit
        of the base, walked once (``_walk``).  A transitive group
        with a nontrivial centralizer C takes the least point of each orbit
        of C for its base: every element commutes with C, so one that
        fixes the base fixes every point, and the group acts regularly and
        faithfully on the base's orbit.  A group that knows its order but
        has no chain (Aut, or a subgroup that the search returns) keeps the
        orbit of point 0 when it has as many names as the group has
        elements: the group is then semiregular on it.  Any other group
        takes the base of its stabilizer chain, with the point 0 added, so
        that a base of one point is 0; no element but the identity fixes
        it (Holt, Handbook of CGT, 4.4).  Once that base holds more than
        half the points it is every point, and the names are the image
        tuples.  The group keeps the count, as its order, and the chain
        it built, but no listing: a listing lives as long as its caller
        holds it.  ``DEFAULT_ELEMENT_BOUND`` is read at each call: a group
        of more elements raises before its walk names one too many, and
        before anything is walked when its order is known or read off the
        chain."""
        bound = DEFAULT_ELEMENT_BOUND
        message = f"group exceeds element bound {bound}"
        if self._order is None and self._chain is not None:
            self._order = self._chain.order()
        order = self._order or 0
        if order > bound:
            raise BoundExceeded(message)
        gens = self.tables
        if order in (0, self.degree) and self.is_regular():
            if self.degree > bound:
                raise BoundExceeded(message)
            listing = Listing(gens, range(self.degree), gens, self._left,
                              self.degree)
        elif ((not order or order > self.degree) and self.is_transitive()
              and self.centralizer().generators):
            base = tuple(o[0] for o in self.centralizer()._partition[1])
            listing = _walk(gens, base, self.degree, bound, message)
        else:
            listing = None
            if order and self._chain is None:
                listing = _walk(gens, (0,), self.degree, bound, message)
            if listing is None or listing.count != order:
                chain = self.chain()
                if chain.order() > bound:
                    raise BoundExceeded(message)
                base = sorted({0}.union(level.point for level in chain.levels))
                if 2 * len(base) > self.degree:
                    base = range(self.degree)
                listing = _walk(gens, tuple(base), self.degree, bound,
                                message)
        self._order = listing.count
        return listing

    def _right_tables(self, perms: Sequence[Perm]) -> list[list[int]]:
        """The right regular table of each given permutation, which is a
        generator or the identity, on the indices of ``elements()``:
        ``table[x]`` is the index of x * p.  No ``Perm`` is built."""
        listing = self._listed()
        right = listing.breadth_first_right()
        identity = list(range(listing.count))
        return [identity if p.is_identity()
                else right[self.generators.index(p)] for p in perms]

    def is_trivial(self) -> bool:
        return not self.generators

    def __eq__(self, other: object) -> bool:
        """Equality as sets of permutations (mutual membership of generators)."""
        if not isinstance(other, PermGroup) or self.degree != other.degree:
            return NotImplemented
        return (all(g in other for g in self.generators)
                and all(g in self for g in other.generators))

    def __hash__(self) -> int:
        """Equal groups have one degree and one order, so the hash reads
        those two and lists no element."""
        return hash((self.degree, self.order()))

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, ngens={len(self.generators)})"


class Listing:
    """The elements of a group, named by the images of a base.

    An element x is named b.x for a tuple of points b on whose orbit the
    group acts regularly and faithfully, so every element has one name and
    x * t is named b.x.t, one ``itemgetter`` call on the images of t.
    When b is the point 0 (a regular or a semiregular group) the names
    are points, else tuples of points.  Elements are indices, the identity
    0: ``names[i]`` is the name of element i and ``where[name]`` its
    index, ``right[j][i]`` is the index of element i * g_j and
    ``left[j][i]`` that of g_j * element i.  A regular group's indices
    are its points, its right tables are its point tables and its left
    tables the ones that ``is_regular`` grew and the group keeps (g_j * x
    is named c_j[0.x]).  Other listings number the names in the order
    that the walk of the base's orbit finds them, which is the
    breadth-first order of ``elements()``, and read their left tables off
    the breadth-first tree.  Image tuples are built only on demand
    (``image_builder``).
    """

    __slots__ = ("gens", "names", "right", "degree", "points", "_where",
                 "_left", "_tree")

    def __init__(self, gens: Sequence[tuple[int, ...]], names: Sequence,
                 right: Sequence[Sequence[int]],
                 left: Sequence[Sequence[int]] | None, degree: int):
        self.gens = gens
        self.names = names
        self.right = right
        self.degree = degree
        self.points = not isinstance(names[0], tuple)
        self._left = left
        self._where = names if isinstance(names, range) else None
        self._tree: tuple[list[int], list] | None = None

    @property
    def count(self) -> int:
        return len(self.names)

    @property
    def where(self) -> Any:
        if self._where is None:
            self._where = dict(zip(self.names, range(self.count)))
        return self._where

    @property
    def left(self) -> Sequence[Sequence[int]]:
        """The left tables, read off the breadth-first tree when not given:
        c = a * g_i there, so g_j * c is (g_j * a) * g_i, one lookup per
        element and generator with no check, since the group acts
        regularly on the names."""
        if self._left is None:
            order, parent = self.breadth_first()
            steps = [(c, parent[c][0], self.right[parent[c][1]])
                     for c in order[1:]]
            self._left = []
            for row in self.right:
                table = [0] * self.count
                table[0] = row[0]
                for c, a, then in steps:
                    table[c] = then[table[a]]
                self._left.append(table)
        return self._left

    def times(self, name: Hashable) -> Callable[[Sequence[int]], Any]:
        """The map from the images of t to the name of x * t, for the x
        named ``name``."""
        return itemgetter(name) if self.points else itemgetter(*name)

    def sort_key(self, images: Callable[[int], tuple[int, ...]],
                 ) -> Callable[[int], Any]:
        """A key on indices that sorts elements as their image tuples do:
        the name, when the base is a prefix 0, 1, ..., k-1 of the points,
        else the images."""
        base = self.names[0]
        if self.points or base == tuple(range(len(base))):
            return self.names.__getitem__
        return images

    def breadth_first(self) -> tuple[list[int], list]:
        """The breadth-first tree of the indices from the identity over the
        right tables (``_breadth_first_tree``), kept."""
        if self._tree is None:
            self._tree = _breadth_first_tree(self.right, 0, self.count)
        return self._tree

    def breadth_first_order(self) -> Sequence[int]:
        """The indices in the order of ``elements()``."""
        if isinstance(self.names, range):  # a regular group's points
            return self.breadth_first()[0]
        return range(self.count)  # numbered breadth first by the walk

    def image_builder(self) -> Callable[[int], tuple[int, ...]]:
        """The function from an index to the image tuple of its element.
        Each element asked for is built from its parent in the
        breadth-first tree by one composition, and kept for the function's
        later calls."""
        if self.names[0] == tuple(range(self.degree)):
            return self.names.__getitem__  # a base of every point
        _, parent = self.breadth_first()
        gens = self.gens
        built: list = [None] * self.count
        built[0] = tuple(range(self.degree))

        def images(i: int) -> tuple[int, ...]:
            path = []
            while built[i] is None:
                path.append(i)
                i = parent[i][0]
            result = built[i]
            for c in reversed(path):
                result = built[c] = itemgetter(*result)(gens[parent[c][1]])
            return result

        return images

    def breadth_first_right(self) -> Sequence[Sequence[int]]:
        """The right tables on the indices of ``elements()``."""
        order = self.breadth_first_order()
        if isinstance(order, range):
            return self.right
        return _relabel(self.right, order)


def _breadth_first_tree(tables: Sequence[Sequence[int]], root: int, n: int,
                        ) -> tuple[list[int], list]:
    """The orbit of root in {0..n-1} under the tables, breadth first from
    it, and ``parent[c] = (a, j)``: c was first found as a . g_j, the j-th
    table's image of a.  ``parent[root]`` is (root, -1), and the parent of
    a point outside the orbit is None."""
    parent: list = [None] * n
    parent[root] = (root, -1)
    order = [root]
    numbered = list(enumerate(tables))
    for a in order:  # grows while it is read: a breadth-first queue
        for j, images in numbered:
            c = images[a]
            if parent[c] is None:
                parent[c] = (a, j)
                order.append(c)
    return order, parent


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


def _walk(gens: Sequence[tuple[int, ...]], base: tuple[int, ...], degree: int,
          bound: float, message: str) -> Listing:
    """The orbit of the base b, walked once by ``_numbered_orbit`` within
    the element bound, as a listing: the names are points for a base of
    one point, else tuples of points.  It lists the group when the group
    acts regularly and faithfully on that orbit."""
    if len(base) == 1:
        names, right = _numbered_orbit(
            base[0], lambda a: [g[a] for g in gens], bound, message)
    else:
        names, right = _numbered_orbit(
            base, lambda a: map(itemgetter(*a), gens), bound, message)
    return Listing(gens, names, right, None, degree)


def _centralizer_scan(tables: Sequence[Sequence[int]], n: int) -> PermGroup:
    """The centralizer of the transitive group with these point tables,
    from a scan of the points.

    The centralizer is semiregular (Dixon and Mortimer, Permutation
    Groups, 4.2), so an element is fixed by the image d of point 0, and
    one exists exactly when the map that takes 0 to d and commutes with
    every table does (``_equivariant_map``).  Points already in the orbit
    of 0 under the elements found so far are skipped, so each element
    kept at least doubles that orbit and there are at most log2 |C|
    generators.  A target d that no element reaches rules out its whole
    orbit under them: if a(d) were reached by phi, a^-1 phi would reach d.
    So the points tried, and the generators found, are those of a scan of
    every point outside the orbit of 0.  The group is handed its order,
    the size of that orbit."""
    found: list[tuple[int, ...]] = []
    orbit = [0]
    skip = {0}
    for d in range(n):
        if d in skip:
            continue
        image = _equivariant_map(tables, 0, tables, d, n)
        if image is None:
            skip.update(_breadth_first_tree(found, d, n)[0])
        else:
            found.append(tuple(image))
            orbit = _breadth_first_tree(found, 0, n)[0]
            skip.update(orbit)
    centralizer = PermGroup(n, [_perm(c) for c in found])
    centralizer._order = len(orbit)
    return centralizer


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


def _orbit_partition(tables: Sequence[Sequence[int]], n: int,
                     ) -> tuple[list[int], list[list[int]]]:
    """The orbits of {0..n-1} under point tables, numbered by least point
    and each listed breadth first from it, with each point's orbit
    number, in one walk."""
    orbit_of = [-1] * n
    orbits: list[list[int]] = []
    for x in range(n):
        if orbit_of[x] < 0:
            i = len(orbits)
            orbit_of[x] = i
            orbit = [x]
            for a in orbit:  # grows while it is read: a breadth-first queue
                for images in tables:
                    b = images[a]
                    if orbit_of[b] < 0:
                        orbit_of[b] = i
                        orbit.append(b)
            orbits.append(orbit)
    return orbit_of, orbits


def normal_closure(G: PermGroup, seed: Sequence[Perm]) -> PermGroup:
    """Smallest normal subgroup of G containing the seed elements.

    Repeatedly conjugates the closure's generators by the generators of G,
    adding any conjugate that fails membership, until stable.  One
    stabilizer chain is extended generator by generator; it is the chain
    the returned group would build from the same generators.  A closure
    past ``DEFAULT_ELEMENT_BOUND`` elements raises ``BoundExceeded``.
    """
    bound = DEFAULT_ELEMENT_BOUND
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
        chain._add(s.images)
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
    every point is unique, and it must also be injective.  From the orbit
    of start under a group into points of the same group, such a map then
    exists exactly when the stabilizer of start fixes image_of_start.
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


def _left_tables(right: Sequence[Sequence[int]],
                 n: int) -> list[list[int]] | None:
    """For each table g_j, the map that takes 0 to g_j[0] and turns each
    table into itself, grown breadth first from 0: when the group acts
    regularly on the n points, left multiplication by g_j, and together
    the generators of the centralizer; else None, at the first failure."""
    left = []
    for row in right:
        table = _equivariant_map(right, 0, right, row[0], n)
        if table is None:
            return None
        left.append(table)
    return left


def _index_classes(listing: Listing,
                   ) -> tuple[list[int], list[list[int]]]:
    """Each listing index's conjugacy class, and the classes as lists of
    listing indices, each headed by its least index: the orbits of the
    conjugation tables, ``conj[j][x]`` the index of g_j^-1 * x * g_j,
    found from the right and left tables with no Perm product: the x with
    g_j * x = y has g_j^-1 * y * g_j = x * g_j."""
    conj = [_read(rrow, _inverse(lrow))
            for rrow, lrow in zip(listing.right, listing.left)]
    return _orbit_partition(conj, listing.count)


def conjugacy_classes(G: PermGroup) -> list[list[Perm]]:
    """Conjugacy classes of G as sorted element lists, by least
    representative.  Only the elements returned are built."""
    listing = G._listed()
    images = listing.image_builder()
    key = listing.sort_key(images)
    classes = [[_perm(images(i)) for i in sorted(cls, key=key)]
               for cls in _index_classes(listing)[1]]
    classes.sort(key=lambda cls: cls[0].images)
    return classes


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))


def _right_cosets(H: list, points: bool):
    """The map from the images of t to the names of the coset H t, which
    are t's images of the names in H: one lookup each for points, one
    ``itemgetter`` call each for tuples."""
    if not points:
        after = [itemgetter(*h) for h in H]
        return lambda t: [h_then(t) for h_then in after]
    if len(H) > 1:
        return itemgetter(*H)
    return lambda t: (t[0],)  # H is trivial: the name of t alone


def _class_closure(listing: Listing,
                   images: Callable[[int], tuple[int, ...]],
                   cls: list[int], dead: set) -> list | None:
    """The names of the subgroup generated by the class ``cls``, or None
    once it meets a name in ``dead``.

    Grown from the identity inside itself (Dimino's algorithm): a class
    element c becomes a generator only when the subgroup H so far lacks
    it, and <H, c> is then the union of the right cosets H t, whose
    representatives t = r * g are found breadth first over the
    representatives r and the generators g.  Image tuples are built for
    the generators and the representatives only.
    """
    names, times = listing.names, listing.times
    identity = names[0]
    found = [identity]
    inside = {identity}
    gens: list[tuple[int, ...]] = []
    for c in cls:
        if names[c] in inside:
            continue
        gens.append(images(c))
        coset_of = _right_cosets(found, listing.points)
        reps = [(identity, images(0))]
        for r, r_images in reps:  # grows while it is read: a queue
            times_r, then_r = times(r), itemgetter(*r_images)
            for g in gens:
                t = times_r(g)
                if t in inside:
                    continue
                t_images = then_r(g)
                coset = coset_of(t_images)
                if not dead.isdisjoint(coset):
                    return None
                inside.update(coset)
                found.extend(coset)
                reps.append((t, t_images))
    return found


def minimal_normal_subgroups(G: PermGroup) -> list[PermGroup]:
    """All inclusion-minimal nontrivial normal subgroups of G, sorted by
    order, then by element list: the whole stream of ``_minimal_normals``,
    which closes the prime-order conjugacy classes smallest first.  The
    stream yields a subgroup before the search ends once it is certain of
    its place: before a class of c elements is visited, a minimal normal
    subgroup not yet found holds an unvisited class of prime order, so at
    least c elements besides the identity, and every kept closure of at
    most c elements is settled.  A group of more than
    ``DEFAULT_ELEMENT_BOUND`` elements raises ``BoundExceeded``."""
    return list(_minimal_normals(G))


def _minimal_normals(G: PermGroup) -> Iterator[PermGroup]:
    """The minimal normal subgroups of G, in the order and with the
    generators of ``minimal_normal_subgroups``, each yielded as soon as
    its place is certain.

    G is listed (``PermGroup._listed``): its elements are named by
    the images of a base, points for a regular or semiregular G, and no
    image tuple is built but for the class representatives, the closure
    generators and coset representatives, and, when the names do not sort
    as the images do, the members of the subgroups kept.  The classes are
    found on the right and left tables.  Every minimal normal subgroup N
    is the normal closure of any one of its nontrivial elements.  By
    Cauchy's theorem N holds an element x of prime order, and the class of
    x lies in N, so closing each conjugacy class of prime order and
    keeping the inclusion-minimal results is complete.  Classes are closed
    smallest first (ties in index order); the normal closure N_C of a
    class C is the subgroup it generates, grown inside itself.  A closure
    that meets a class D visited earlier is dropped at once: N_D lies in
    N_C, so N_C repeats a closure already kept or is not minimal.  Each
    minimal N is still found, by the first class visited inside it.  The
    order of x is the length of the cycle of the base under x, whose names
    are those of x, x^2, ...; x^k for k prime to the order of x has the
    same closure, so the classes of the powers of a visited x are skipped
    and count as visited.

    Before a class of size c is visited, every minimal normal subgroup not
    yet found has at least c + 1 elements: its classes of prime order are
    all unvisited, so each has at least c elements, and it holds the
    identity besides.  A kept closure K of at most c elements is then
    settled: each minimal normal subgroup inside K is smaller than K, so it
    is already found, and K is minimal exactly when no kept closure lies
    inside it.  A minimal K comes before every subgroup not yet found,
    which is larger, so the settled ones are sorted and yielded at once;
    the bound only changes when c grows, and the rest are yielded after
    the last class.  Each is generated by the conjugacy class of its least
    nontrivial element, and its order is known without a stabilizer
    chain.  A group of more than ``DEFAULT_ELEMENT_BOUND`` elements raises
    ``BoundExceeded`` at the first read.
    """
    if G.is_trivial():
        return
    listing = G._listed()
    names, where, times = listing.names, listing.where, listing.times
    points = listing.points
    class_of, classes = _index_classes(listing)
    images = listing.image_builder()
    key = listing.sort_key(images)
    identity = names[0]
    dead: set = set()  # the names in the classes visited
    kept: list[frozenset[int]] = []  # every closure kept
    unsettled: list[frozenset[int]] = []  # the kept closures not yet yielded

    def settled(size: float) -> Iterator[PermGroup]:
        """The minimal ones of the unsettled closures of at most size
        elements, sorted, as subgroups; the others stay unsettled."""
        ready = [N for N in unsettled if len(N) <= size]
        unsettled[:] = [N for N in unsettled if len(N) > size]
        # only the identity, first in any sort, is shared: sort by the next
        keyed = []
        for N in ready:
            if not any(M < N for M in kept):
                least = min((i for i in N if i), key=key)
                keyed.append((len(N), key(least), least))
        keyed.sort(key=lambda entry: entry[:2])
        for order, _, least in keyed:
            N = PermGroup(G.degree, [
                _perm(images(i))
                for i in sorted(classes[class_of[least]], key=key)])
            N._order = order
            yield N

    size = 0  # the size of the classes visited last
    for cls in sorted(classes, key=len):  # stable: ties in index order
        if len(cls) > size:
            size = len(cls)
            yield from settled(size)
        if names[cls[0]] in dead:
            continue
        x = images(cls[0])
        powers = []  # the names of x, x^2, ..., x^(k-1), k the order of x
        power = names[cls[0]]
        while power != identity:
            powers.append(power)
            power = x[power] if points else times(power)(x)
        if not _is_prime(len(powers) + 1):
            continue
        found = _class_closure(listing, images, cls, dead)
        if found is not None:
            N = frozenset(map(where.__getitem__, found))
            kept.append(N)
            unsettled.append(N)
        for power in powers:
            if power not in dead:
                dead.update(names[i] for i in classes[class_of[where[power]]])
    yield from settled(inf)


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


def congruent_labeled_groups(A: LabeledGenerators,
                             B: LabeledGenerators) -> bool:
    """Whether the label-respecting generator assignment extends to an
    isomorphism of the generated groups.

    With equal orders, that isomorphism is the bijection from A to B,
    identity to identity, that turns the right regular table of each
    generator of A into that of the same label in B.  Groups of more than
    ``DEFAULT_ELEMENT_BOUND`` elements raise ``BoundExceeded``, as every
    listing does.
    """
    if sorted(A.labels) != sorted(B.labels):
        raise ValueError("label multisets differ")
    group_a, group_b = A.group(), B.group()
    n = group_a.order()
    if n != group_b.order():
        return False
    src = group_a._right_tables(A.generators)
    dst = group_b._right_tables([B.generator(lbl) for lbl in A.labels])
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
