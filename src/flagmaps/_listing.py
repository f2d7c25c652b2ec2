"""Elements of a permutation group named by the images of a base.

``PermGroup._listed`` makes a new ``Listing`` of a group for each reader in
``perm`` (``elements()``, ``_right_tables``, ``conjugacy_classes`` and
``minimal_normal_subgroups``), which works on it and drops it.  A regular
group's listing is its points; any other is the orbit of a base, walked
once by ``perm``.  The breadth-first tree that a listing reads its image
tuples and left tables off is ``_breadth_first_tree``, which the block
test of ``decomp`` also walks.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Hashable, Sequence


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
    the breadth-first tree.  Image tuples are built only on demand
    (``image_builder``).
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
        position = [0] * self.count
        for i, c in enumerate(order):
            position[c] = i
        return [[position[row[c]] for c in order] for row in self.right]


def _breadth_first_tree(tables: Sequence[Sequence[int]], root: int, n: int,
                        ) -> tuple[list[int], list]:
    """The orbit of root in {0..n-1} under the tables, breadth first from
    it, and ``parent[c] = (a, j)``: c was first found as a . g_j, the j-th
    table's image of a.  ``parent[root]`` is (root, -1), and the parent of
    a point outside the orbit is None."""
    parent: list = [None] * n
    parent[root] = (root, -1)
    order = [root]
    for a in order:  # grows while it is read: a breadth-first queue
        for j, images in enumerate(tables):
            c = images[a]
            if parent[c] is None:
                parent[c] = (a, j)
                order.append(c)
    return order, parent
