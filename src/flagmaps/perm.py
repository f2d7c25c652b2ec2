"""Permutation algebra on the points {0..n-1}.

Composition is left to right everywhere: ``x . (p * q) == (x . p) . q``.
Groups are given by generating permutations; orders and membership come
from a stabilizer chain with Schreier-vector transversals, element lists
from a bounded breadth-first closure.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Iterable, Sequence

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
        q = other.images
        p = Perm.__new__(Perm)
        p.images = tuple(q[i] for i in self.images)
        return p

    def inverse(self) -> "Perm":
        out = [0] * len(self.images)
        for i, j in enumerate(self.images):
            out[j] = i
        p = Perm.__new__(Perm)
        p.images = tuple(out)
        return p

    def __pow__(self, n: int) -> "Perm":
        if n < 0:
            return self.inverse() ** (-n)
        result = Perm.identity(len(self.images))
        square = self
        while n:
            if n & 1:
                result = result * square
            square = square * square
            n >>= 1
        return result

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def fixed_points(self) -> list[int]:
        return [i for i, j in enumerate(self.images) if i == j]

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its least point."""
        seen = [False] * len(self.images)
        out = []
        for i in range(len(self.images)):
            if seen[i] or self.images[i] == i:
                seen[i] = True
                continue
            cyc = [i]
            j = self.images[i]
            seen[i] = True
            while j != i:
                seen[j] = True
                cyc.append(j)
                j = self.images[j]
            out.append(tuple(cyc))
        return out

    def order(self) -> int:
        n = 1
        for cyc in self.cycles():
            n = lcm(n, len(cyc))
        return n

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


class StabilizerChain:
    """Deterministic Schreier-Sims stabilizer chain for order/membership.

    Level i carries the base point b_i and a Schreier tree for the orbit of
    b_i under the strong generators fixing b_0..b_{i-1}.  Transversal
    elements are rebuilt on demand from the tree pointers, so memory stays
    linear in the degree.
    """

    def __init__(self, gens: Sequence[Perm], degree: int,
                 degree_bound: int = DEFAULT_DEGREE_BOUND):
        if degree > degree_bound:
            raise BoundExceeded(f"degree {degree} exceeds bound {degree_bound}")
        self.degree = degree
        self.base: list[int] = []
        self.strong: list[Perm] = []
        # trees[i]: point -> (parent point, generator) with base[i] -> None
        self.trees: list[dict[int, tuple[int, Perm] | None]] = []
        for g in gens:
            self._add(g)

    def _level_gens(self, i: int) -> list[Perm]:
        prefix = self.base[:i]
        return [g for g in self.strong
                if all(g.images[b] == b for b in prefix)]

    def _rebuild(self, i: int) -> None:
        gens = self._level_gens(i)
        tree: dict[int, tuple[int, Perm] | None] = {self.base[i]: None}
        queue = [self.base[i]]
        while queue:
            a = queue.pop(0)
            for g in gens:
                b = g.images[a]
                if b not in tree:
                    tree[b] = (a, g)
                    queue.append(b)
        self.trees[i] = tree

    def _transversal(self, i: int, pt: int) -> Perm:
        """An element u with base[i] . u == pt."""
        path = []
        tree = self.trees[i]
        while pt != self.base[i]:
            parent, g = tree[pt]
            path.append(g)
            pt = parent
        u = Perm.identity(self.degree)
        for g in reversed(path):
            u = u * g
        return u

    def _sift(self, p: Perm) -> tuple[Perm, int]:
        """Reduce p by transversal elements; the residue is the identity iff
        p is a member.  Also returns the level where sifting stopped."""
        for i in range(len(self.base)):
            x = p.images[self.base[i]]
            if x == self.base[i]:
                continue
            if x not in self.trees[i]:
                return p, i
            p = p * self._transversal(i, x).inverse()
        return p, len(self.base)

    def _add(self, g: Perm) -> None:
        queue = [g]
        while queue:
            residue, i = self._sift(queue.pop())
            if residue.is_identity():
                continue
            if i == len(self.base):
                moved = min(k for k, v in enumerate(residue.images) if k != v)
                self.base.append(moved)
                self.trees.append({})
            self.strong.append(residue)
            for j in range(i + 1):
                self._rebuild(j)
            # re-close every level the new generator may have widened
            for j in range(i + 1):
                level_gens = self._level_gens(j)
                reps = {pt: self._transversal(j, pt) for pt in self.trees[j]}
                inverses = {pt: u.inverse() for pt, u in reps.items()}
                for pt, u in reps.items():
                    for h in level_gens:
                        schreier = u * h * inverses[h.images[pt]]
                        if not schreier.is_identity():
                            queue.append(schreier)

    def order(self) -> int:
        n = 1
        for tree in self.trees:
            n *= len(tree)
        return n

    def contains(self, p: Perm) -> bool:
        if p.degree != self.degree:
            return False
        residue, _ = self._sift(p)
        return residue.is_identity()


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
        self._chain: StabilizerChain | None = None
        self._elements: tuple[Perm, ...] | None = None

    @staticmethod
    def trivial(degree: int) -> "PermGroup":
        return PermGroup(degree, ())

    def chain(self, degree_bound: int = DEFAULT_DEGREE_BOUND) -> StabilizerChain:
        if self._chain is None:
            self._chain = StabilizerChain(self.generators, self.degree, degree_bound)
        return self._chain

    def order(self) -> int:
        return self.chain().order()

    def contains(self, p: Perm) -> bool:
        if not self.generators:
            return p.degree == self.degree and p.is_identity()
        return self.chain().contains(p)

    __contains__ = contains

    def orbit(self, point: int) -> list[int]:
        seen = {point}
        queue = [point]
        out = [point]
        while queue:
            a = queue.pop(0)
            for g in self.generators:
                b = g.images[a]
                if b not in seen:
                    seen.add(b)
                    out.append(b)
                    queue.append(b)
        return out

    def orbits(self) -> list[list[int]]:
        """Orbit partition of {0..degree-1}, blocks sorted by least point."""
        seen = [False] * self.degree
        out = []
        for i in range(self.degree):
            if seen[i]:
                continue
            block = self.orbit(i)
            for x in block:
                seen[x] = True
            out.append(sorted(block))
        return out

    def is_transitive(self) -> bool:
        return len(self.orbit(0)) == self.degree

    def elements(self, bound: int = DEFAULT_ELEMENT_BOUND) -> tuple[Perm, ...]:
        """All elements, breadth first from the identity (deterministic order)."""
        if self._elements is not None:
            return self._elements
        e = Perm.identity(self.degree)
        found = {e}
        order_out = [e]
        frontier = [e]
        while frontier:
            new = []
            for a in frontier:
                for g in self.generators:
                    c = a * g
                    if c not in found:
                        found.add(c)
                        order_out.append(c)
                        new.append(c)
                        if len(found) > bound:
                            raise BoundExceeded(
                                f"group exceeds element bound {bound}")
            frontier = new
        self._elements = tuple(order_out)
        return self._elements

    def is_trivial(self) -> bool:
        return not self.generators

    def __eq__(self, other: object) -> bool:
        """Equality as sets of permutations (mutual membership of generators)."""
        if not isinstance(other, PermGroup) or self.degree != other.degree:
            return NotImplemented
        return (all(g in other for g in self.generators)
                and all(g in self for g in other.generators))

    def __hash__(self) -> int:  # PermGroups are set-like; hash by frozen elements
        return hash((self.degree, frozenset(self.elements())))

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, ngens={len(self.generators)})"


def orbits_of(gens: Sequence[Perm], degree: int) -> list[list[int]]:
    """Orbit partition of {0..degree-1} under a list of permutations."""
    return PermGroup(degree, [g for g in gens if not g.is_identity()]).orbits()


def normal_closure(G: PermGroup, seed: Sequence[Perm],
                   bound: int = DEFAULT_ELEMENT_BOUND) -> PermGroup:
    """Smallest normal subgroup of G containing the seed elements.

    Repeatedly conjugates the closure's generators by the generators of G,
    adding any conjugate that fails membership, until stable.  One
    stabilizer chain is extended generator by generator; it is the chain
    the returned group would build from the same generators.
    """
    for s in seed:
        if s not in G:
            raise ValueError("seed element not in the ambient group")
    gens: list[Perm] = []
    chain = StabilizerChain(gens, G.degree)
    queue = [s for s in seed if not s.is_identity()]
    while queue:
        s = queue.pop(0)
        if chain.contains(s):
            continue
        gens.append(s)
        chain._add(s)
        if chain.order() > bound:
            raise BoundExceeded(f"normal closure exceeds element bound {bound}")
        for g in G.generators:
            queue.append(g.inverse() * s * g)
    sub = PermGroup(G.degree, gens)
    sub._chain = chain
    return sub


def conjugacy_classes(G: PermGroup,
                      bound: int = DEFAULT_ELEMENT_BOUND) -> list[list[Perm]]:
    """Conjugacy classes of G as sorted element lists, by least representative."""
    els = G.elements(bound)
    inv_gens = [g.inverse() for g in G.generators]
    seen: set[Perm] = set()
    classes = []
    for x in sorted(els, key=lambda p: p.images):
        if x in seen:
            continue
        cls = {x}
        queue = [x]
        while queue:
            y = queue.pop()
            for g, gi in zip(G.generators, inv_gens):
                z = gi * y * g
                if z not in cls:
                    cls.add(z)
                    queue.append(z)
        seen |= cls
        classes.append(sorted(cls, key=lambda p: p.images))
    return classes


def minimal_normal_subgroups(G: PermGroup,
                             bound: int = DEFAULT_ELEMENT_BOUND) -> list[PermGroup]:
    """All inclusion-minimal nontrivial normal subgroups of G.

    Every minimal normal subgroup is the normal closure of any one of its
    nontrivial elements, so closing one representative per nontrivial
    conjugacy class and keeping the inclusion-minimal results is complete.
    Results are sorted by order, then by element list, for determinism.
    """
    if G.is_trivial():
        return []
    closures: dict[frozenset[Perm], PermGroup] = {}
    for cls in conjugacy_classes(G, bound):
        rep = cls[0]
        if rep.is_identity():
            continue
        N = normal_closure(G, [rep], bound)
        closures.setdefault(frozenset(N.elements(bound)), N)
    keys = list(closures)
    minimal = [k for k in keys if not any(other < k for other in keys)]
    minimal.sort(key=lambda k: (len(k), sorted(p.images for p in k)))
    return [closures[k] for k in minimal]


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

    def evaluate(self, word: Iterable[str]) -> Perm:
        names = list(word)
        out = Perm.identity(self.degree)
        table = self.as_dict()
        for name in names:
            out = out * table[name]
        return out


def congruent_labeled_groups(A: LabeledGenerators, B: LabeledGenerators,
                             bound: int = DEFAULT_ELEMENT_BOUND) -> bool:
    """Whether the label-respecting generator assignment extends to an
    isomorphism of the generated groups.

    Walks the Cayley graph of A breadth first, carrying the would-be image
    in B, and fails on the first coincidence the images disagree on.  A
    conflict-free walk defines an epimorphism A -> B; it is an isomorphism
    exactly when the group orders match.
    """
    if sorted(A.labels) != sorted(B.labels):
        raise ValueError("label multisets differ")
    gens_a = [A.generator(lbl) for lbl in A.labels]
    gens_b = [B.generator(lbl) for lbl in A.labels]
    if A.group().order() != B.group().order():
        return False
    image = {Perm.identity(A.degree): Perm.identity(B.degree)}
    frontier = list(image)
    count = 0
    while frontier:
        new = []
        for a in frontier:
            b = image[a]
            for ga, gb in zip(gens_a, gens_b):
                a2 = a * ga
                b2 = b * gb
                prev = image.get(a2)
                if prev is None:
                    image[a2] = b2
                    new.append(a2)
                    count += 1
                    if count > bound:
                        raise BoundExceeded(
                            f"group exceeds element bound {bound}")
                elif prev != b2:
                    return False
        frontier = new
    return len(set(image.values())) == len(image)


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
            degree = int(parts[1])
        elif parts[0] == "gen":
            if degree is None:
                raise ValueError(f"line {lineno}: 'gen' before 'degree'")
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
