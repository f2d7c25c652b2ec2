"""The parallel product and the covers built from it.

The product of two rooted maps lives on the orbit of the paired roots
under the paired generator actions; it is the unique minimal common
cover.  The smallest reflexible cover of a map is the regular
representation of its monodromy group; the total parallel product of all
re-rootings is kept as an independent route to the same map.
"""

from __future__ import annotations

from dataclasses import dataclass

from .mapcore import (RootedMap, is_reflexible, isomorphism, reroot,
                      triality_class)
from .perm import DEFAULT_ELEMENT_BOUND, BoundExceeded, Perm
from .quotient import MapMorphism


class NotReflexible(ValueError):
    """The operation needs a reflexible input map."""


@dataclass(frozen=True)
class ProductWitness:
    """A parallel product with its coordinate projections and, for each
    product flag, the (left flag, right flag) pair it stands for."""

    product: RootedMap
    left_projection: MapMorphism
    right_projection: MapMorphism
    pair_labels: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if len(set(self.pair_labels)) != len(self.pair_labels):
            raise ValueError("pair labels must be injective")
        root_pair = self.pair_labels[self.product.root]
        if root_pair != (self.left_projection.target.root,
                         self.right_projection.target.root):
            raise ValueError("root must be labeled by the pair of roots")


def parallel_product(m: RootedMap, n: RootedMap) -> ProductWitness:
    """Breadth-first orbit of (root, root) under (T,T), (L,L), (R,R).

    Raises BoundExceeded as soon as the orbit passes DEFAULT_ELEMENT_BOUND
    flags, before any product map is built."""
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
    return ProductWitness(product, left, right, tuple(order))


def fold_parallel_product(maps: list[RootedMap]) -> RootedMap:
    """Left fold of the parallel product over a nonempty list of maps."""
    if not maps:
        raise ValueError("need at least one map")
    current = maps[0]
    for other in maps[1:]:
        current = parallel_product(current, other).product
    return current


def smallest_reflexible_cover(m: RootedMap,
                              bound: int = DEFAULT_ELEMENT_BOUND) -> RootedMap:
    """The regular representation of Mon(m) acting on itself, rooted at the
    identity; reflexible, and a cover of m."""
    tables = m.monodromy_group()._right_tables(m.generators(), bound)
    return RootedMap(*map(Perm, tables), root=0)


def total_parallel_product(m: RootedMap) -> RootedMap:
    """Parallel product of all n_flags re-rootings (ascending root flag).

    Cross-checked against the regular-representation cover, which it must
    equal up to rooted isomorphism.
    """
    result = fold_parallel_product([reroot(m, f) for f in range(m.n_flags)])
    cover = smallest_reflexible_cover(m)
    if isomorphism(result, cover, mode="generalized") is None:
        raise RuntimeError(
            "total parallel product differs from the regular-representation "
            "cover; this indicates a bug")
    return result


def totally_symmetric_cover(m: RootedMap) -> RootedMap:
    """Parallel product over the triality class of a reflexible map: the
    unique minimal self-dual self-Petrie reflexible cover."""
    if not is_reflexible(m):
        raise NotReflexible("totally symmetric cover needs a reflexible map")
    return fold_parallel_product(triality_class(m))
