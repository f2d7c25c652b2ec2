"""Decision procedures for parallel-product decomposability.

A map decomposes iff its monodromy group has two normal non-transitive
subgroups H1, H2 with trivial intersection whose products with the root
stabilizer meet only in the stabilizer.  The search runs over pairs of
minimal normal subgroups; this is complete, because any witnessing pair
can be shrunk to a minimal one (sub-subgroups stay non-transitive, the
stabilizer-product condition only tightens, and distinct minimal normal
subgroups intersect trivially).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .ettype import classify_type
from .mapcore import RootedMap, automorphism_group, is_reflexible, isomorphism
from .perm import (DEFAULT_ELEMENT_BOUND, BoundExceeded, PermGroup,
                   minimal_normal_subgroups)
from .product import NotReflexible, parallel_product
from .quotient import _blocks_to_map


class NotEdgeTransitive(ValueError):
    """The operation needs an edge-transitive input map."""


class VerificationFailed(RuntimeError):
    """A certificate that must exist failed to verify (implementation bug)."""


@dataclass(frozen=True)
class DecompositionVerdict:
    """Outcome of a decomposability decision.

    ``decomposable`` is None for an unknown verdict (a resource bound was
    exceeded; the bound is recorded in ``reason``).  When decomposable via
    the monodromy route, the witness subgroups, quotient factors and the
    verified rooted isomorphism (product of factors -> input) are present.
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
    blocks root.H1 and root.H2 meet only in the root.
    """
    return _decomposability_general(m, m.monodromy_group(), bound)


def _decomposability_general(m: RootedMap, mon: PermGroup,
                             bound: int) -> DecompositionVerdict:
    """decomposability_general on a given Mon(m).  It is kept apart so that
    analyze_map can read |Mon| from the element list the search builds.
    Keeping Mon on the map instead would keep that list alive as long as
    the map, which raised the peak RSS of the benchmark's analyze corpus
    by 18 % (README)."""
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
