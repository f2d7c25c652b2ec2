"""Decision procedures for parallel-product decomposability.

A map decomposes iff its monodromy group has two normal non-transitive
subgroups H1, H2 with trivial intersection whose products with the root
stabilizer meet only in the stabilizer.  The search runs over pairs of
minimal normal subgroups; this is complete, because any witnessing pair
can be shrunk to a minimal one (sub-subgroups stay non-transitive, the
stabilizer-product condition only tightens, and distinct minimal normal
subgroups intersect trivially).

When Mon is not regular, a block test runs first and can settle the
verdict without listing Mon.  The root orbits of two witnesses H1, H2 are
blocks of Mon.  They are proper, since H1 and H2 are not transitive, and
they hold more than the root, since a nontrivial normal subgroup of a
transitive group fixes no point.  They meet only in the root.  So a
decomposable map has two proper blocks at the root that meet only in the
root, and then so do the least blocks B_x and B_y holding the root and
some x in the first and some y in the second.  The test finds B_x for each
flag x, breadth first from the root (``perm._least_block``), and stops at
the first two proper ones that meet only in the root; the full search
then runs.  When there is no such pair (a primitive Mon has no proper
block at all), the map is indecomposable.  The test costs at most n - 1
closures of O(3n) lookups each on an n-flag map, and listing Mon costs at
least n^2, since |Mon| >= n.

A positive verdict is proved from the two witnesses' block systems, with
no product map built and no isomorphism searched for.  The factors are
the quotients by the witnesses' orbits, and the pairing map x ->
(block1(x), block2(x)) commutes with T, L and R and sends the root to the
pair of roots.  When the pairs are pairwise distinct it is an isomorphism
of the map onto the parallel product of its factors, and the certificate
is the map's breadth-first order from the root (``_verified_factor_pair``).

An edge-transitive map is decided from Aut alone
(``decomposability_edge_transitive``).  Edge-transitivity and type 1 are
both read off Aut's orbits and order, so no cell partition is built and
no type row is matched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .ettype import is_edge_transitive
from .mapcore import RootedMap, _tables, automorphism_group, is_reflexible
from .perm import (DEFAULT_ELEMENT_BOUND, BoundExceeded, PermGroup,
                   _least_block, _orbit, _orbit_partition,
                   minimal_normal_subgroups)
from .product import NotReflexible
from .quotient import _block_quotient


class NotEdgeTransitive(ValueError):
    """The operation needs an edge-transitive input map."""


class VerificationFailed(RuntimeError):
    """A certificate that must exist failed to verify (implementation bug)."""


@dataclass(frozen=True)
class DecompositionVerdict:
    """Outcome of a decomposability decision.

    ``decomposable`` is None for an unknown verdict, and ``reason`` then
    names the resource bound that was exceeded.  A verdict that the block
    test settled (module docstring) is False with ``BLOCK_TEST_REASON``;
    other verdicts have no reason.  When decomposable via the monodromy
    route, the witness subgroups, quotient factors and the verified rooted
    isomorphism (product of factors -> input) are present.
    """

    decomposable: bool | None
    witnesses: tuple[PermGroup, PermGroup] | None = None
    factors: tuple[RootedMap, RootedMap] | None = None
    certificate: tuple[int, ...] | None = None
    reason: str | None = None
    witness_group: str = field(default="monodromy")

    def to_json_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "decomposable": self.decomposable,
            "witness_orders": ([H.order() for H in self.witnesses]
                               if self.witnesses else None),
            "witness_group": self.witness_group,
            "certificate_checked": self.certificate is not None,
        }
        if self.reason:
            out["reason"] = self.reason
        return out


def _verified_factor_pair(m: RootedMap, H1: PermGroup, H2: PermGroup,
                          ) -> tuple[tuple[RootedMap, RootedMap], tuple[int, ...]]:
    """The quotients f1, f2 of m by the orbits of H1 and H2, and the
    verified rooted isomorphism from their parallel product onto m.  Each
    witness's orbits are found in one walk (``perm._orbit_partition``),
    numbered by least flag and each headed by it, so each factor is the
    ``monodromy_quotient``.

    The proof is the pairing map x -> (block1(x), block2(x)) into the
    flags of f1 x f2.  The block-system check of ``_block_quotient`` makes
    it commute with T, L and R, and it sends the root to (root1, root2),
    so its image is the product's flag set, the orbit of that pair.  When
    the pairs are pairwise distinct it is therefore an isomorphism of m
    onto f1 || f2, and it carries m's breadth-first order from the root
    onto the product's breadth-first numbering.  So the certificate, which
    sends product flag i to a flag of m, is m's breadth-first order from
    the root.  H1 and H2 are minimal normal subgroups of Mon(m) by
    construction, so their membership and normality are not checked
    again; the pairing check and the proper quotients prove the verdict.
    No product, morphism or projection is built."""
    (block_of_1, orbits_1), (block_of_2, orbits_2) = (
        _orbit_partition([g.images for g in H.generators], m.n_flags)
        for H in (H1, H2))
    f1 = _block_quotient(m, block_of_1, [o[0] for o in orbits_1])
    f2 = _block_quotient(m, block_of_2, [o[0] for o in orbits_2])
    if len(set(zip(block_of_1, block_of_2))) != m.n_flags:
        raise VerificationFailed(
            "the witness quotients' blocks do not separate the flags")
    if f1.n_flags >= m.n_flags or f2.n_flags >= m.n_flags:
        raise VerificationFailed("a factor fails to be a proper quotient")
    return (f1, f2), tuple(_orbit(_tables(m), m.root))


def decomposability_general(m: RootedMap,
                            bound: int = DEFAULT_ELEMENT_BOUND) -> DecompositionVerdict:
    """Search ordered pairs of distinct minimal normal subgroups of Mon(m)
    for a pair witnessing decomposability; certificates are always verified.

    For a normal H, S.H (S the root stabilizer) is the stabilizer of the
    block root.H, and by transitivity S.H1 & S.H2 == S exactly when the
    blocks root.H1 and root.H2 meet only in the root.  A Mon that is not
    regular first meets the block test (module docstring), which can
    settle the verdict without listing Mon.  The search runs on the map's
    one Mon, so its regularity, its chain or the count of its listing is
    left there for |Mon|.
    """
    mon = m.monodromy_group()
    if not mon.is_regular() and not _root_blocks_meet_only_in_root(m, mon):
        return DecompositionVerdict(decomposable=False, reason=BLOCK_TEST_REASON)
    return _minimal_normal_search(m, mon, bound)


BLOCK_TEST_REASON = "no two proper blocks of Mon at the root meet only in the root"


def _root_blocks_meet_only_in_root(m: RootedMap, mon: PermGroup) -> bool:
    """Whether two proper blocks of Mon(m) that hold the root meet only in
    the root.  For each flag x, breadth first from the root, B_x is the
    least block holding the root and x; the first pair of proper ones that
    meet only in the root answers yes."""
    tables = [g.images for g in mon.generators]
    n = m.n_flags
    blocks: list[set[int]] = []
    for x in _orbit(tables, m.root)[1:]:
        block = _least_block(tables, n, m.root, x)
        if len(block) == n:
            continue
        block_set = set(block)
        if any(len(block_set.intersection(other)) == 1 for other in blocks):
            return True
        blocks.append(block_set)
    return False


def _minimal_normal_search(m: RootedMap, mon: PermGroup,
                           bound: int) -> DecompositionVerdict:
    """The search over pairs of minimal normal subgroups of Mon(m)."""
    try:
        minimals = minimal_normal_subgroups(mon, bound)
    except BoundExceeded as exc:
        return DecompositionVerdict(decomposable=None, reason=str(exc))
    # H is transitive exactly when the root's orbit holds every flag
    blocks = []
    for H in minimals:
        block = _orbit([g.images for g in H.generators], m.root)
        blocks.append(None if len(block) == m.n_flags else frozenset(block))
    root_only = frozenset((m.root,))
    for i, block_i in enumerate(blocks):
        if block_i is None:
            continue
        for j, block_j in enumerate(blocks):
            if i == j or block_j is None or block_i & block_j != root_only:
                continue
            factors, cert = _verified_factor_pair(m, minimals[i], minimals[j])
            return DecompositionVerdict(
                decomposable=True,
                witnesses=(minimals[i], minimals[j]),
                factors=factors,
                certificate=cert,
            )
    return DecompositionVerdict(decomposable=False)


def decomposability_reflexible(m: RootedMap,
                               bound: int = DEFAULT_ELEMENT_BOUND) -> DecompositionVerdict:
    """For reflexible maps the stabilizer is trivial, so decomposability is
    exactly: Mon(m) has at least two nontrivial minimal normal subgroups.

    This is the general search on the regular Mon: a minimal normal H is
    transitive only when H = Mon, which is then the only one, and the root
    blocks of two distinct minimal normal subgroups meet only in the root,
    so the first pair is the witness."""
    if not is_reflexible(m):
        raise NotReflexible("map is not reflexible")
    return decomposability_general(m, bound)


def decomposability_edge_transitive(m: RootedMap,
                                    bound: int = DEFAULT_ELEMENT_BOUND) -> DecompositionVerdict:
    """Decide decomposability of an edge-transitive map from Aut(m) alone.

    The map decomposes iff Aut(m) has at least two minimal normal
    subgroups.  Factor maps are materialized only for type-1 (reflexible)
    inputs, where the reflexible route (``decomposability_general`` on the
    regular Mon) applies; otherwise the witness subgroups of Aut are
    returned as abstract factor data.

    Type 1 is read as |Aut| = |flags|, with no type row matched: the
    type-1 row holds tau, lambda and theta1, and an Aut-orbit holding
    x.T, x.L and x.R with x is a block of Mon closed under T, L and R, so
    it is every flag.  So no cell partition is built and ``classify_type``
    is not called, and an edge-transitive map matching no type row (ruled
    out by the fourteen-type theorem) raises only in ``classify_type``
    and so in ``cli.analyze_map``.
    """
    if not is_edge_transitive(m):
        raise NotEdgeTransitive("map is not edge-transitive")
    aut = automorphism_group(m)
    if aut.order() == m.n_flags:
        return decomposability_general(m, bound)
    try:
        minimals = minimal_normal_subgroups(aut, bound)
    except BoundExceeded as exc:
        return DecompositionVerdict(decomposable=None, reason=str(exc),
                                    witness_group="automorphism")
    if len(minimals) < 2:
        return DecompositionVerdict(decomposable=False,
                                    witness_group="automorphism")
    return DecompositionVerdict(
        decomposable=True, witnesses=(minimals[0], minimals[1]),
        witness_group="automorphism")


def decompose_with_certificate(m: RootedMap,
                               bound: int = DEFAULT_ELEMENT_BOUND,
                               ) -> tuple[RootedMap, RootedMap, tuple[int, ...]]:
    """The two factor maps and the verified certificate; raises when the
    input is not decomposable."""
    verdict = decomposability_general(m, bound)
    if verdict.decomposable is None:
        raise BoundExceeded(verdict.reason or "bound exceeded")
    if not verdict.decomposable:
        raise ValueError("map is not parallel-product decomposable")
    assert verdict.factors is not None and verdict.certificate is not None
    return verdict.factors[0], verdict.factors[1], verdict.certificate
