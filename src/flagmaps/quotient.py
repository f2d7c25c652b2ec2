"""The three quotient constructions and map morphisms.

A morphism is stored as its flag surjection; the group epimorphism is
determined on generators and never materialized.  The K-quotient realizes
cosets of K concretely as a block system on the flags: the orbit of the
block root.K under the monodromy generators, walked and numbered by
``perm._numbered_orbit`` up to the number of cosets, so the monodromy
group itself is never enumerated; the walk's Schreier tables are the
quotient's T, L and R, and the projection reads each flag's block number
off the walked blocks.  The monodromy and automorphism quotients are
``_orbit_quotient``, which numbers the orbits of their group in one walk
(``perm._orbit_partition``) and induces the generators on them.  The K of
a morphism is recovered from a breadth-first transversal of permutations,
with no words.  Whether a flag map carries one map's T, L and R to
another's (a morphism, an automorphism) is ``perm._intertwines``.

The three public quotients return a checked morphism with the quotient
map.  The decomposition search, which needs only the maps and each flag's
block, builds each factor with ``_orbit_quotient`` and no morphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .mapcore import RootedMap, _rooted_map, _tables, isomorphism
from .perm import (BoundExceeded, Perm, PermGroup, _breadth_first_tree,
                   _intertwines, _numbered_orbit, _orbit_partition, _perm,
                   _read, is_normal_in)


class StabilizerNotContained(ValueError):
    """K does not contain the stabilizer of the root flag."""


class NotNormal(ValueError):
    """H is not a normal subgroup of the monodromy group."""


class NotAnAutomorphism(ValueError):
    """A generator of the given group does not commute with T, L, R."""


@dataclass(frozen=True)
class MapMorphism:
    """A covering projection source -> target as flag images: onto, root to
    root, and carrying T, L and R to the target's (``perm._intertwines``)."""

    source: RootedMap
    target: RootedMap
    flag_map: tuple[int, ...]

    def __post_init__(self):
        if len(self.flag_map) != self.source.n_flags:
            raise ValueError("flag_map length must equal source flag count")
        if set(self.flag_map) != set(range(self.target.n_flags)):
            raise ValueError("flag_map must be onto the target flags")
        if self.flag_map[self.source.root] != self.target.root:
            raise ValueError("morphism must send root to root")
        for s, d in zip(_tables(self.source), _tables(self.target)):
            if not _intertwines(self.flag_map, s, d):
                raise ValueError("flag_map does not respect the generators")

    def __call__(self, flag: int) -> int:
        return self.flag_map[flag]


def _orbit_quotient(m: RootedMap, tables: Sequence[Sequence[int]],
                    ) -> tuple[RootedMap, list[int]]:
    """The quotient map induced on the orbits of the flag permutations
    ``tables``, and each flag's orbit number.

    The orbits are found in one walk (``perm._orbit_partition``), numbered
    by least flag, and each acts through its least flag.  A partition is a
    block system exactly when every flag's block goes where its block's
    representative goes: ``perm._intertwines``, written out here to reuse
    the ``_read`` the induced table is read from, on decompose's hot path.
    The induced T, L and R of a block system of a checked map satisfy
    every axiom: each is an involution, as it sends the image of each block
    back to the block; (TL)^2 = 1 holds, as the induced action is a
    homomorphic image; the action stays transitive, and the root's block
    is in range.  So the quotient is built with no axiom checked again."""
    block_of, orbits = _orbit_partition(tables, m.n_flags)
    reps = [o[0] for o in orbits]
    induced = []
    for g in m.generators():
        moved = _read(block_of, g.images)
        images = _read(moved, reps)
        if moved != _read(images, block_of):
            raise ValueError("the orbits are not a block system")
        induced.append(_perm(images))
    return _rooted_map(*induced, block_of[m.root]), block_of


def k_quotient(m: RootedMap, K: PermGroup) -> tuple[RootedMap, MapMorphism]:
    """Quotient by a subgroup K with G_root <= K <= Mon(m).

    The quotient flags are the right cosets of K, realized as the block
    system generated by the K-orbit of the root, numbered in discovery
    order.  The walk's Schreier tables are the induced T, L and R, block 0
    holds the root, and the projection sends each flag to the number of
    the walked block that holds it.
    """
    mon = m.monodromy_group()
    if K.degree != m.n_flags:
        raise ValueError("K must act on the flags of m")
    for g in K.generators:
        if g not in mon:
            raise ValueError("K is not a subgroup of the monodromy group")
    # G_root <= K  iff  |K| / |root.K| == |Mon| / n_flags (orbit-stabilizer)
    root_orbit = K.orbit(m.root)
    if K.order() * m.n_flags != mon.order() * len(root_orbit):
        raise StabilizerNotContained(
            "K does not contain the stabilizer of the root flag")

    base = frozenset(root_orbit)
    gens = _tables(m)
    message = "K-orbit of the root does not generate a block system"
    # The images of base cover the flags (the action is transitive), so
    # they are pairwise disjoint exactly when at most n_flags / |base|
    # of them are found.
    try:
        blocks, tables = _numbered_orbit(
            base, lambda b: [frozenset(map(g.__getitem__, b)) for g in gens],
            m.n_flags // len(base), message)
    except BoundExceeded:
        raise StabilizerNotContained(message) from None
    quotient = _rooted_map(*(_perm(tuple(row)) for row in tables), 0)
    block_of = {x: i for i, block in enumerate(blocks) for x in block}
    flag_map = _read(block_of, range(m.n_flags))
    return quotient, MapMorphism(m, quotient, flag_map)


def monodromy_quotient(m: RootedMap, H: PermGroup) -> tuple[RootedMap, MapMorphism]:
    """Quotient whose flags are the orbits of a normal subgroup H of Mon(m).

    All automorphisms of m project along the returned morphism.
    """
    if H.degree != m.n_flags:
        raise ValueError("H must act on the flags of m")
    mon = m.monodromy_group()
    for g in H.generators:
        if g not in mon:
            raise NotNormal("H is not a subgroup of the monodromy group")
    if not is_normal_in(H, mon):
        raise NotNormal("H is not normal in the monodromy group")
    quotient, block_of = _orbit_quotient(m, H.tables)
    return quotient, MapMorphism(m, quotient, tuple(block_of))


def automorphism_quotient(m: RootedMap, A: PermGroup) -> tuple[RootedMap, MapMorphism]:
    """Quotient by the orbits of a subgroup of Aut(m) (orbits are blocks
    of imprimitivity for the monodromy action)."""
    if A.degree != m.n_flags:
        raise ValueError("A must act on the flags of m")
    if not all(_intertwines(a, g, g) for a in A.tables for g in _tables(m)):
        raise NotAnAutomorphism(
            "generator of A does not commute with the monodromy action")
    quotient, block_of = _orbit_quotient(m, A.tables)
    return quotient, MapMorphism(m, quotient, tuple(block_of))


def project_automorphism(proj: MapMorphism, a: Perm) -> Perm:
    """Push an automorphism of the source along a monodromy-quotient
    projection; the induced permutation of the target flags is again an
    automorphism.  Each target flag is read through one flag over it."""
    src, tgt = proj.source, proj.target
    if a.degree != src.n_flags:
        raise ValueError("automorphism degree mismatch")
    f = proj.flag_map
    over = dict(zip(f, range(src.n_flags)))  # a flag over each target flag
    images = _read(f, _read(a.images, _read(over, range(tgt.n_flags))))
    if not _intertwines(f, a.images, images):
        raise ValueError("automorphism does not project along this morphism")
    if not all(_intertwines(images, g, g) for g in _tables(tgt)):
        raise ValueError("projected permutation is not an automorphism")
    return Perm(images)


@dataclass(frozen=True)
class KQuotientCharacterization:
    """The subgroup K recovered from a morphism, the quotient by it, and a
    rooted isomorphism from that quotient onto the morphism's target."""

    K: PermGroup
    quotient: RootedMap
    projection: MapMorphism
    iso_to_target: tuple[int, ...]


def morphism_to_k_quotient(phi: MapMorphism) -> KQuotientCharacterization:
    """Recover K with target isomorphic to source/K.

    K is the preimage of the target root stabilizer, for the action of the
    source monodromy on the target flags.  A breadth-first transversal
    keeps, for each target flag z, a source monodromy element u[z] taking
    the target root to z: u[z] = u[y] * s when z = y . g is first reached
    in the target's breadth-first tree (``perm._breadth_first_tree``),
    where s and g are the same generator of source and target.  K is
    generated by the Schreier generators u[y] * s * u[y . g]^-1.
    """
    src, tgt = phi.source, phi.target
    pairs = list(zip(src.generators(), tgt.generators()))
    order, parent = _breadth_first_tree(_tables(tgt), tgt.root, tgt.n_flags)
    transversal = {tgt.root: Perm.identity(src.n_flags)}
    for z in order[1:]:
        y, j = parent[z]
        transversal[z] = transversal[y] * pairs[j][0]
    inverses = {z: u.inverse() for z, u in transversal.items()}

    # PermGroup drops the identity Schreier generators
    K = PermGroup(src.n_flags, [u * s * inverses[g.images[y]]
                                for y, u in transversal.items()
                                for s, g in pairs])
    quotient, projection = k_quotient(src, K)
    iso = isomorphism(quotient, tgt, mode="rooted")
    if iso is None:
        raise RuntimeError("quotient by the recovered K is not isomorphic "
                           "to the morphism target")
    return KQuotientCharacterization(K, quotient, projection, tuple(iso))
