"""Decision procedures for parallel-product decomposability.

The two routes answer two questions.  ``decomposability_general`` asks
whether a map is the parallel product of two of its monodromy quotients,
the quotients by normal subgroups of Mon; ``decomposability_edge_transitive``
asks whether an edge-transitive map is the parallel product of two of
its automorphism quotients, the quotients by normal subgroups of Aut.  A
map can be the second and not the first: 7 of the 40 type 2-5
constructions over V4, S3, D4 and D5 in the tests are, and on them the
Mon route's false agrees with the all-pairs oracle over normal subgroups
of Mon.

A map decomposes into two monodromy quotients iff its monodromy group
has two normal non-transitive subgroups H1, H2 with trivial intersection
whose products with the root stabilizer meet only in the stabilizer.
The search runs over pairs of minimal normal subgroups; this is
complete, because any witnessing pair can be shrunk to a minimal one
(sub-subgroups stay non-transitive, the stabilizer-product condition
only tightens, and distinct minimal normal subgroups intersect
trivially).  It reads the minimal normal subgroups as a sorted stream
(``perm._minimal_normals``) and stops at the first witness pair, so no
conjugacy class is closed after both witnesses are yielded.

When Mon is not regular, a block test runs first and can settle the
verdict without listing Mon.  It reads G = <Mon, Aut>: Aut centralizes
Mon, so the orbits of a normal subgroup N of Mon are permuted by Mon (N is
normal) and by Aut (it commutes with N), and they are a block system of G
(Dixon and Mortimer, Permutation Groups, 1.5 and 4.2).  The root orbits of
two witnesses H1, H2 are therefore blocks of G.  They are proper, since H1
and H2 are not transitive, and they hold more than the root, since a
nontrivial normal subgroup of a transitive group fixes no point.  They
meet only in the root.  So a decomposable map has two proper blocks of G
at the root that meet only in the root, and then so do the least blocks
B_x and B_y of G holding the root and some x in the first and some y in
the second.  The test finds B_x breadth first from the root
(``perm._least_block`` on the tables of Mon and Aut), and stops at the
first two proper ones that meet only in the root; the full search then
runs.  When there is no such pair (a primitive G has no proper block at
all), the map is indecomposable.  B_x is found once per orbit of a group
H of root fixers in G, not once per flag: for h fixing the root, B_x . h
is a block of B_x's system that holds the root, so B_{x.h} = B_x.  H is
generated by a * u^-1 for each generator a of Aut, where u in Mon takes
the root to root . a.  When Aut is trivial, H is too, and the test makes
one closure per flag.  It makes at most n - 1 closures of O(n) lookups per
table on an n-flag map, and listing Mon costs at least n^2, since
|Mon| >= n.

A positive verdict is proved from the two witnesses' block systems, with
no product map built and no isomorphism searched for.  The factors are
the quotients by the witnesses' orbits, and the pairing map x ->
(block1(x), block2(x)) commutes with T, L and R and sends the root to the
pair of roots.  When the pairs are pairwise distinct it is an isomorphism
of the map onto the parallel product of its factors, and the certificate
is the map's breadth-first order from the root (``_verified_factor_pair``).

An edge-transitive map is decided from Aut alone
(``decomposability_edge_transitive``): it decomposes exactly when Aut has
two minimal normal subgroups.  Edge-transitivity and type 1 are both read
off Aut's orbits and order, so no cell partition is built and no type row
is matched.  A type-1 map goes to the search on its regular Mon; on the
other types the same search and proof run on Aut (``_verified_factor_pair``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from .ettype import is_edge_transitive
from .mapcore import RootedMap, _tables, automorphism_group, is_reflexible
from .perm import (BoundExceeded, PermGroup, _breadth_first_tree,
                   _least_block, _minimal_normals, _orbit_partition)
from .product import NotReflexible
from .quotient import _orbit_quotient


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
    other verdicts have no reason.  ``witness_group`` names the group
    searched, Mon or Aut.  A positive verdict carries the two witness
    subgroups of that group, the quotient factors and the verified rooted
    isomorphism (product of factors -> input).
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
    verified rooted isomorphism from their parallel product onto m.  The
    witnesses are minimal normal subgroups of Mon(m), or of Aut(m), and
    each factor is ``quotient._orbit_quotient`` on a witness's generators.

    The proof is the pairing map x -> (block1(x), block2(x)) into the
    flags of f1 x f2.  The block-system check of ``_orbit_quotient`` makes
    it commute with T, L and R, and it sends the root to (root1, root2),
    so its image is the product's flag set, the orbit of that pair.  When
    the pairs are pairwise distinct it is therefore an isomorphism of m
    onto f1 || f2, and it carries m's breadth-first order from the root
    onto the product's breadth-first numbering.  So the certificate, which
    sends product flag i to a flag of m, is m's breadth-first order from
    the root.  The witnesses' membership and normality hold by
    construction and are not checked again; the pairing check and the
    proper quotients prove the verdict.  No product, morphism or
    projection is built.

    Aut centralizes the transitive Mon, so it is semiregular (Dixon and
    Mortimer, 4.2) and the orbits of its subgroups are blocks of Mon.  On
    types 2-5 Aut is not regular, so no minimal normal A is transitive and
    the search takes the first pair, A1 and A2.  They meet trivially, so
    x.a1 = x.a2 forces a1 = a2 = 1: the pairing check cannot fail for Aut
    witnesses, and stays so that both routes fail in one way."""
    (f1, block_of_1), (f2, block_of_2) = (
        _orbit_quotient(m, H.tables) for H in (H1, H2))
    if len(set(zip(block_of_1, block_of_2))) != m.n_flags:
        raise VerificationFailed(
            "the witness quotients' blocks do not separate the flags")
    if f1.n_flags >= m.n_flags or f2.n_flags >= m.n_flags:
        raise VerificationFailed("a factor fails to be a proper quotient")
    return (f1, f2), tuple(
        _breadth_first_tree(_tables(m), m.root, m.n_flags)[0])


def decomposability_general(m: RootedMap) -> DecompositionVerdict:
    """Search ordered pairs of distinct minimal normal subgroups of Mon(m)
    for a pair witnessing decomposability; certificates are always verified.

    This decides decomposition into two monodromy quotients: a map
    decomposes so iff Mon has two normal non-transitive subgroups with
    trivial intersection whose products with the root stabilizer meet only
    in the stabilizer.  Decomposition into two automorphism quotients is
    ``decomposability_edge_transitive``'s question, and an edge-transitive
    map can have that one and not this one.

    For a normal H, S.H (S the root stabilizer) is the stabilizer of the
    block root.H, and by transitivity S.H1 & S.H2 == S exactly when the
    blocks root.H1 and root.H2 meet only in the root.  A Mon that is not
    regular first meets the block test (module docstring), which reads
    Aut (found once per map) and can settle the verdict without listing
    Mon.  The search runs on the map's one Mon, so its regularity, its
    chain or the count of its listing is left there for |Mon|.  A Mon
    past the element bound (``perm``) gives the unknown verdict.
    """
    mon = m.monodromy_group()
    if not mon.is_regular() and not _root_blocks_meet_only_in_root(m, mon):
        return DecompositionVerdict(decomposable=False, reason=BLOCK_TEST_REASON)
    return _minimal_normal_search(m, mon, "monodromy")


BLOCK_TEST_REASON = ("no two proper blocks of <Mon, Aut> at the root meet "
                     "only in the root")


def _root_blocks_meet_only_in_root(m: RootedMap, mon: PermGroup) -> bool:
    """Whether two proper blocks of G = <Mon(m), Aut(m)> that hold the root
    meet only in the root.  For each flag x, breadth first from the root,
    B_x is the least block of G holding the root and x; the first pair of
    proper ones that meet only in the root answers yes.

    B_x is found once per orbit of the group H that ``_root_fixers``
    generates: for h fixing the root, B_x . h is a block of B_x's system
    holding the root, so B_{x.h} = B_x.  When Aut is trivial, so is H, and
    every flag gets its own closure."""
    n, root = m.n_flags, m.root
    mon_tables, aut_tables = mon.tables, automorphism_group(m).tables
    order, parent = _breadth_first_tree(mon_tables, root, n)
    orbit_of: Sequence[int] = range(n)  # each flag alone when Aut is trivial
    if aut_tables:
        fixers = _root_fixers(mon_tables, aut_tables, root, parent)
        orbit_of = _orbit_partition(fixers, n)[0]
    tables = mon_tables + aut_tables
    done: set[int] = set()  # the orbits closed so far
    blocks: list[set[int]] = []
    for x in order[1:]:
        if orbit_of[x] in done:
            continue
        done.add(orbit_of[x])
        block = _least_block(tables, n, root, x)
        if len(block) == n:
            continue
        block_set = set(block)
        if any(len(block_set.intersection(other)) == 1 for other in blocks):
            return True
        blocks.append(block_set)
    return False


def _root_fixers(mon_tables: Sequence[Sequence[int]],
                 aut_tables: Sequence[Sequence[int]], root: int,
                 parent: Sequence[tuple[int, int]]) -> list[list[int]]:
    """For each Aut table a, the table of h = a * u^-1, where u in Mon is
    the word of Mon's breadth-first tree (``parent``, from
    ``perm._breadth_first_tree``) from the root to root . a; so
    root . h = root.  Mon's generators are involutions, so u^-1 reads u's
    letters backwards, climbing the tree from root . a: the letter g_j
    that reached y from its parent takes y back to it.  Each letter
    rewrites all n entries of h, so H costs O(n * depth of root . a in the
    tree) per Aut generator."""
    fixers = []
    for a in aut_tables:
        h = list(a)
        y = a[root]
        while y != root:
            y, j = parent[y]
            back = mon_tables[j]
            h = [back[v] for v in h]
        fixers.append(h)
    return fixers


def _minimal_normal_search(m: RootedMap, group: PermGroup,
                           witness_group: str) -> DecompositionVerdict:
    """The search over pairs of minimal normal subgroups of ``group``,
    Mon(m) or Aut(m), named ``witness_group`` on every verdict.

    It reads the sorted stream of ``perm._minimal_normals`` only as far
    as ``_first_witness_pair`` needs.  The stream yields a subgroup as
    soon as none still to be found can sort before it: classes are closed
    smallest first, so before a class of c elements every minimal normal
    subgroup not yet found has at least c + 1, and a kept closure of at
    most c elements is settled.  So the pair is the full sorted list's,
    and no class is closed after both witnesses are yielded."""
    try:
        pair = _first_witness_pair(_minimal_normals(group), m.root, m.n_flags)
    except BoundExceeded as exc:
        return DecompositionVerdict(decomposable=None, reason=str(exc),
                                    witness_group=witness_group)
    if pair is None:
        return DecompositionVerdict(decomposable=False,
                                    witness_group=witness_group)
    factors, cert = _verified_factor_pair(m, *pair)
    return DecompositionVerdict(decomposable=True, witnesses=pair,
                                factors=factors, certificate=cert,
                                witness_group=witness_group)


def _first_witness_pair(minimals: Iterable[PermGroup], root: int, n: int,
                        ) -> tuple[PermGroup, PermGroup] | None:
    """The pair (H_i, H_j) of the sorted minimal normal subgroups of a
    transitive group on n points with the least i, then the least j != i,
    whose blocks at the root are proper and meet only in the root; None
    when there is no such pair.

    H is transitive exactly when the root's orbit holds every point, and
    one root orbit is walked per subgroup read.  The subgroups before the
    first proper one, H_f, are transitive, so every partner of H_f comes
    after it, and its first partner, found as the stream is read, ends
    the search with the answer of the full double loop.  When a regular
    Mon has two or more minimal normal subgroups, and on Aut of types
    2-5, none of them is transitive and two distinct ones meet
    trivially, so the pair is the first two.  Only when H_f has no
    partner is the stream read to its end and the full double loop
    run."""
    root_only = frozenset((root,))
    read: list[PermGroup] = []
    blocks: list[frozenset[int] | None] = []
    first = None  # the index of the first proper root block
    for H in minimals:
        block = _breadth_first_tree(H.tables, root, n)[0]
        read.append(H)
        blocks.append(None if len(block) == n else frozenset(block))
        if blocks[-1] is None:
            continue
        if first is None:
            first = len(read) - 1
        elif blocks[first] & blocks[-1] == root_only:
            return read[first], H
    for i, block_i in enumerate(blocks):
        if block_i is None:
            continue
        for j, block_j in enumerate(blocks):
            if (i != j and block_j is not None
                    and block_i & block_j == root_only):
                return read[i], read[j]
    return None


def decomposability_reflexible(m: RootedMap) -> DecompositionVerdict:
    """For reflexible maps the stabilizer is trivial, so decomposability is
    exactly: Mon(m) has at least two nontrivial minimal normal subgroups.

    This is the general search on the regular Mon: a minimal normal H is
    transitive only when H = Mon, which is then the only one, and the root
    blocks of two distinct minimal normal subgroups meet only in the root,
    so the first pair is the witness; past the element bound, unknown."""
    if not is_reflexible(m):
        raise NotReflexible("map is not reflexible")
    return decomposability_general(m)


def decomposability_edge_transitive(m: RootedMap) -> DecompositionVerdict:
    """Decide decomposability of an edge-transitive map from Aut(m) alone.

    This decides decomposition into two automorphism quotients, the
    quotients by normal subgroups of Aut (``decomposability_general``
    decides it into two monodromy quotients, and can say no where this
    says yes).  The map decomposes so iff Aut(m) has at least two minimal
    normal subgroups.  A type-1 map goes to ``decomposability_general``;
    on the other types the same search runs on Aut, and a positive verdict
    carries Aut witnesses, their orbit quotients and a verified certificate.
    Each factor is edge-transitive, but it can gain symmetry: a type-2 or
    type-3 map can have a type-1 factor.  Aut can be small where Mon is
    past the element bound: this route decides the parallel product of
    the type-5 maps from AGL(1, 5) and AGL(1, 7), |Aut| = 420, on which
    ``decomposability_general`` returns unknown.

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
        return decomposability_general(m)
    return _minimal_normal_search(m, aut, "automorphism")


def decompose_with_certificate(m: RootedMap,
                               ) -> tuple[RootedMap, RootedMap, tuple[int, ...]]:
    """The two factor maps and the verified certificate; raises when the
    input is not decomposable, ``BoundExceeded`` past the element bound."""
    verdict = decomposability_general(m)
    if verdict.decomposable is None:
        raise BoundExceeded(verdict.reason or "bound exceeded")
    if not verdict.decomposable:
        raise ValueError("map is not parallel-product decomposable")
    assert verdict.factors is not None and verdict.certificate is not None
    return verdict.factors[0], verdict.factors[1], verdict.certificate
