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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .ettype import classify_type
from .mapcore import RootedMap, automorphism_group, is_reflexible, isomorphism
from .perm import (DEFAULT_ELEMENT_BOUND, BoundExceeded, PermGroup,
                   _least_block, _orbit, minimal_normal_subgroups)
from .product import NotReflexible, parallel_product
from .quotient import _blocks_to_map


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
    """The quotients of m by the orbits of H1 and H2, and the verified
    rooted isomorphism from their product onto m.  H1 and H2 are minimal
    normal subgroups of Mon(m) by construction, so their membership and
    normality are not checked again; the certificate and the proper
    quotients prove the verdict."""
    f1, _ = _blocks_to_map(m, H1.orbits())
    f2, _ = _blocks_to_map(m, H2.orbits())
    cert = isomorphism(parallel_product(f1, f2).product, m, mode="rooted")
    if cert is None:
        raise VerificationFailed(
            "product of the witness quotients is not isomorphic to the input")
    if f1.n_flags >= m.n_flags or f2.n_flags >= m.n_flags:
        raise VerificationFailed("a factor fails to be a proper quotient")
    return (f1, f2), tuple(cert)


def decomposability_general(m: RootedMap,
                            bound: int = DEFAULT_ELEMENT_BOUND) -> DecompositionVerdict:
    """Search ordered pairs of distinct minimal normal subgroups of Mon(m)
    for a pair witnessing decomposability; certificates are always verified.

    For a normal H, S.H (S the root stabilizer) is the stabilizer of the
    block root.H, and by transitivity S.H1 & S.H2 == S exactly when the
    blocks root.H1 and root.H2 meet only in the root.  A Mon that is not
    regular first meets the block test (module docstring), which can
    settle the verdict without listing Mon.
    """
    return _decomposability_general(m, m.monodromy_group(), bound)


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


def _decomposability_general(m: RootedMap, mon: PermGroup,
                             bound: int) -> DecompositionVerdict:
    """decomposability_general on a given Mon(m).  It is kept apart so that
    analyze_map shares one Mon, and with it the regularity test, the chain
    or the element list, with |Mon| in its report.  Keeping Mon on the map
    instead would keep an element list alive as long as the map, which
    raised the peak RSS of the benchmark's analyze corpus by 18 % (README)."""
    if not mon.is_regular() and not _root_blocks_meet_only_in_root(m, mon):
        return DecompositionVerdict(decomposable=False, reason=BLOCK_TEST_REASON)
    return _minimal_normal_search(m, mon, bound)


def _minimal_normal_search(m: RootedMap, mon: PermGroup,
                           bound: int) -> DecompositionVerdict:
    """The search over pairs of minimal normal subgroups of Mon(m)."""
    try:
        minimals = minimal_normal_subgroups(mon, bound)
    except BoundExceeded as exc:
        return DecompositionVerdict(decomposable=None, reason=str(exc))
    blocks = [None if H.is_transitive() else frozenset(H.orbit(m.root))
              for H in minimals]
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
    """Decide decomposability of an edge-transitive map from Aut(m).

    The map decomposes iff Aut(m) has at least two minimal normal
    subgroups.  Factor maps are materialized only for type-1 (reflexible)
    inputs, where the reflexible route applies; otherwise the witness
    subgroups of Aut are returned as abstract factor data.
    """
    classified = classify_type(m)
    if classified is None:
        raise NotEdgeTransitive("map is not edge-transitive")
    if classified[0] == "1":
        return decomposability_reflexible(m, bound)
    aut = automorphism_group(m)
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
