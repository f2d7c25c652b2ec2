"""Elements of a permutation group named by the images of a base.

``PermGroup._listed`` makes a new ``Listing`` of a group for each reader in
``perm`` (``elements()``, ``_right_tables``, ``conjugacy_classes`` and
``minimal_normal_subgroups``), which works on it and drops it.  A regular
group's listing is its points.  A base known to name the elements, such
as one point of each orbit of a nontrivial centralizer of a transitive
group, is walked once (``walk``); any other base is grown one point at a
time, with a walk and a test at each step (``base_listing``).  The walks
and the map routine are ``perm``'s, looked up when called, since ``perm``
imports this module.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Hashable, Sequence

from . import perm


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
    are its points, its right tables are its generators and its left
    tables the centralizer generators that ``is_regular`` grew (g_j * x
    is named c_j[0.x]).  Other listings number the names in the order
    that the walk of the base's orbit finds them, which is the
    breadth-first order of ``elements()``, and read their left tables off
    the breadth-first tree unless the base's growth found them.  Image
    tuples are built only on demand (``image_builder``).
    """

    __slots__ = ("gens", "names", "right", "degree", "points", "_where",
                 "_left", "_tree")

    def __init__(self, gens: list[tuple[int, ...]], names: Sequence,
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
        """The indices breadth first from the identity over the right
        tables, and ``parent[c] = (a, j)``: c was first found as a * g_j."""
        if self._tree is None:
            parent: list = [None] * self.count
            parent[0] = (0, -1)
            order = [0]
            for a in order:  # grows while it is read: a breadth-first queue
                for j, row in enumerate(self.right):
                    c = row[a]
                    if parent[c] is None:
                        parent[c] = (a, j)
                        order.append(c)
            self._tree = order, parent
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
        position = [0] * self.count
        for i, c in enumerate(order):
            position[c] = i
        return [[position[row[c]] for c in order] for row in self.right]


def left_tables(right: Sequence[Sequence[int]],
                n: int) -> list[list[int]] | None:
    """For each table g_j, the map that takes 0 to g_j[0] and turns each
    table into itself, grown breadth first from 0: when the group acts
    regularly on the n points (or names), left multiplication by g_j, and
    together the generators of the centralizer; else None, at the first
    failure."""
    left = []
    for row in right:
        table = perm._equivariant_map(right, 0, right, row[0], n)
        if table is None:
            return None
        left.append(table)
    return left


def stabilizer_moves(listing: Listing) -> int:
    """A point that the stabilizer of the base moves, for a listing
    numbered by its walk whose stabilizer is not trivial: the least point
    moved by the first nontrivial Schreier generator u_a * g_j * u_c^-1
    with c = a * g_j, u_a the element of index a (Holt, Handbook of CGT,
    4.1).  The edges are crossed in the walk's order, so that each new
    index is a tree edge, u_c = u_a * g_j, and the elements are built only
    as far as the generator found."""
    built = [tuple(range(listing.degree))]
    for a, u_a in enumerate(built):  # grows while it is read
        then_a = itemgetter(*u_a)
        for g, row in zip(listing.gens, listing.right):
            c, product = row[a], then_a(g)
            if c == len(built):
                built.append(product)
            elif product != built[c]:
                return next(x for x, (y, z)
                            in enumerate(zip(product, built[c])) if y != z)
    raise AssertionError("the stabilizer of the base is trivial")


def walk(gens: list[tuple[int, ...]], base: tuple[int, ...], degree: int,
         bound: float, message: str) -> Listing:
    """The orbit of the base b, walked once by ``perm._numbered_orbit``
    within the element bound, as a listing: the names are points for a
    base of one point, else tuples of points.  It lists the group when
    the group acts regularly and faithfully on that orbit."""
    if len(base) == 1:
        names, right = perm._numbered_orbit(
            base[0], lambda a: [g[a] for g in gens], bound, message)
    else:
        names, right = perm._numbered_orbit(
            base, lambda a: map(itemgetter(*a), gens), bound, message)
    return Listing(gens, names, right, None, degree)


def base_listing(gens: list[tuple[int, ...]], degree: int, order: int,
                 bound: int, message: str) -> Listing:
    """The listing of a group that is not regular, of the given order, or
    0 when that is not known, on a base grown one point at a time: for an
    intransitive group (Aut of a map) or a transitive one whose
    centralizer is trivial (``PermGroup._listed``).

    The base b starts as the point 0 and grows until the group acts
    regularly and faithfully on the orbit of b (``walk``): until the
    stabilizer of b is trivial.  With the order known, that is when the
    orbit has as many names as the group has elements.  Otherwise the
    action is regular when ``left_tables`` finds the left tables.  Its
    kernel is then the stabilizer of b, a normal subgroup, so it is
    faithful when that fixes the least point y of each orbit of the group
    that b misses: when b.x -> y.x is a well-defined map
    (``perm._equivariant_map``).  The point added is the first y that
    fails, or, when the action is not regular, a point that the stabilizer
    of b moves (``stabilizer_moves``), so each new point shrinks the
    stabilizer.  A semiregular group (Aut of a map) is listed on the orbit
    of 0 with points for names.  Once b would hold half the points, it is
    every point, and the names are the image tuples.
    """
    orbit_of: list[int] | None = None
    base: tuple[int, ...] = (0,)
    while True:
        everything = 2 * len(base) > degree
        if everything:
            base = tuple(range(degree))
        listing = walk(gens, base, degree, bound, message)
        if everything or listing.count == order:
            return listing
        if not order:
            listing._left = left_tables(listing.right, listing.count)
        if listing._left is None:
            base += (stabilizer_moves(listing),)
            continue
        if orbit_of is None:
            orbit_of, orbits = perm._orbit_partition(gens, degree)
        met = {orbit_of[x] for x in base}
        unfixed = next((o[0] for k, o in enumerate(orbits)
                        if k not in met and perm._equivariant_map(
                            listing.right, 0, gens, o[0], listing.count,
                            injective=False) is None), None)
        if unfixed is None:
            return listing
        base += (unfixed,)
