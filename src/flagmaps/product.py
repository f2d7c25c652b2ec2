"""The parallel product and the covers built from it.

The product of two rooted maps lives on the orbit of the paired roots
under the paired generator actions, numbered by ``perm._numbered_orbit``;
it is the unique minimal common cover.  Its coordinate projections are
built, and checked, only when a caller reads them; ``fold_parallel_product``
and ``flagmaps product`` read only the product.  The decomposition search
builds no product: it proves its certificate by pairing the factors'
block systems (``decomp._verified_factor_pair``), and the product stays
the independent route the tests check that certificate against.  The
smallest reflexible cover of a map is the regular representation of its
monodromy group; the total parallel product of all re-rootings is kept as
an independent route to the same map.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .mapcore import (RootedMap, _tables, is_reflexible, isomorphism, reroot,
                      triality_class)
from . import perm
from .perm import Perm, _numbered_orbit
from .quotient import MapMorphism


class NotReflexible(ValueError):
    """The operation needs a reflexible input map."""


@dataclass(frozen=True)
class ProductWitness:
    """A parallel product of two maps and, for each product flag, the
    (left flag, right flag) pair it stands for.  The coordinate
    projections are built, and checked, when first read."""

    product: RootedMap
    left: RootedMap
    right: RootedMap
    pair_labels: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if len(set(self.pair_labels)) != len(self.pair_labels):
            raise ValueError("pair labels must be injective")
        root_pair = self.pair_labels[self.product.root]
        if root_pair != (self.left.root, self.right.root):
            raise ValueError("root must be labeled by the pair of roots")

    @cached_property
    def left_projection(self) -> MapMorphism:
        return MapMorphism(self.product, self.left,
                           tuple(x for x, _ in self.pair_labels))

    @cached_property
    def right_projection(self) -> MapMorphism:
        return MapMorphism(self.product, self.right,
                           tuple(y for _, y in self.pair_labels))


def parallel_product(m: RootedMap, n: RootedMap) -> ProductWitness:
    """Breadth-first orbit of (root, root) under (T,T), (L,L), (R,R).

    The walk's tables are the product's T, L and R.  Raises BoundExceeded
    as soon as the orbit passes ``perm.DEFAULT_ELEMENT_BOUND`` flags, read
    at each call, before any product map is built."""
    (mt, ml, mr), (nt, nl, nr) = _tables(m), _tables(n)

    def images(xy: tuple[int, int]) -> tuple[tuple[int, int], ...]:
        x, y = xy
        return (mt[x], nt[y]), (ml[x], nl[y]), (mr[x], nr[y])

    bound = perm.DEFAULT_ELEMENT_BOUND
    order, tables = _numbered_orbit((m.root, n.root), images, bound,
                                    f"parallel product exceeds {bound} flags")
    product = RootedMap(*map(Perm, tables), root=0)
    return ProductWitness(product, m, n, tuple(order))


def fold_parallel_product(maps: list[RootedMap]) -> RootedMap:
    """Left fold of the parallel product over a nonempty list of maps."""
    if not maps:
        raise ValueError("need at least one map")
    current = maps[0]
    for other in maps[1:]:
        current = parallel_product(current, other).product
    return current


def smallest_reflexible_cover(m: RootedMap) -> RootedMap:
    """The regular representation of Mon(m) acting on itself, rooted at the
    identity; reflexible, and a cover of m."""
    tables = m.monodromy_group()._right_tables(m.generators())
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
