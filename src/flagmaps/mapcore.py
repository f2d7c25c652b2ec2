"""Rooted maps: flag sets acted on by the three involutions T, L, R.

A map is stored concretely: the flags are {0..n-1}, the generators are
permutations of the flags (so the monodromy action is faithful by
construction), and a root flag is distinguished.  T exchanges the two
sides of an edge end, L the two ends, R the two edge positions in a
vertex-face corner; edges are orbits of <T,L>, vertices of <T,R>, faces
of <L,R> and Petrie circuits of <TL,R>.

Words over t, l, r are ``fpres`` words, evaluated by ``fpres.evaluate_word``
on the generators labeled by GENERATOR_NAMES; ``act`` follows a string of
letters from one flag.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Literal

from .fpres import Word, parse_word, word_order
from .perm import (LabeledGenerators, Perm, PermGroup, _equivariant_map,
                   orbits_of)

GENERATOR_NAMES = ("t", "l", "r")
# The seven mandatory context words T, L, R, TL, RT, RL, TLR (see degen).
CONTEXT_WORDS: tuple[Word, ...] = tuple(map(parse_word, (
    "t", "l", "r", "t*l", "r*t", "r*l", "t*l*r")))


class MapFormatError(ValueError):
    """Malformed ".map" text (missing lines, non-bijective image lists...)."""


class MapInvariantError(ValueError):
    """Structurally well-formed data that violates a rooted-map axiom."""


@dataclass(frozen=True)
class RootedMap:
    """Flags {0..n-1} with involutions t, l, r and a root flag."""

    t: Perm
    l: Perm
    r: Perm
    root: int = 0

    def __post_init__(self):
        n = self.t.degree
        if self.l.degree != n or self.r.degree != n:
            raise MapInvariantError("generator degrees differ")
        for name, p in (("T", self.t), ("L", self.l), ("R", self.r)):
            if not (p * p).is_identity():
                raise MapInvariantError(f"{name} not an involution")
        if not (self.t * self.l * self.t * self.l).is_identity():
            raise MapInvariantError("(TL)^2 not the identity")
        if not (0 <= self.root < n):
            raise MapInvariantError("root flag out of range")
        if len(PermGroup(n, (self.t, self.l, self.r)).orbit(self.root)) != n:
            raise MapInvariantError("action not transitive")

    @property
    def n_flags(self) -> int:
        return self.t.degree

    def generators(self) -> tuple[Perm, Perm, Perm]:
        return (self.t, self.l, self.r)

    def generator(self, name: str) -> Perm:
        return {"t": self.t, "l": self.l, "r": self.r}[name.lower()]

    def act(self, flag: int, word: Iterable[str]) -> int:
        for ch in word:
            flag = self.generator(ch).images[flag]
        return flag

    def monodromy_group(self) -> PermGroup:
        return PermGroup(self.n_flags, self.generators())

    @cached_property
    def _automorphism_generators(self) -> tuple[Perm, ...]:
        """Generators of Aut, found once per map (see automorphism_group)."""
        auts: list[Perm] = []
        orbit = {self.root}
        for d in range(self.n_flags):
            if d in orbit:
                continue
            a = automorphism_to(self, d)
            if a is not None:
                auts.append(a)
                orbit = set(PermGroup(self.n_flags, auts).orbit(self.root))
        return tuple(auts)

    @cached_property
    def _context_orders(self) -> tuple[int, ...]:
        """Orders of the seven context words, found once per map (see
        degen.context_vector)."""
        lg = LabeledGenerators(GENERATOR_NAMES, self.generators())
        return tuple(word_order(lg, w) for w in CONTEXT_WORDS)

    @cached_property
    def _surface(self) -> SurfaceInfo:
        """Cells and surface, found once per map (see cells_and_surface)."""
        n = self.n_flags
        t, l, r = self.generators()
        as_tuples = lambda blocks: tuple(tuple(b) for b in blocks)
        cs = CellStructure(
            vertices=as_tuples(orbits_of((t, r), n)),
            edges=as_tuples(orbits_of((t, l), n)),
            faces=as_tuples(orbits_of((l, r), n)),
            petrie_circuits=as_tuples(orbits_of((t * l, r), n)),
        )
        chi = len(cs.vertices) - len(cs.edges) + len(cs.faces)
        degenerate = any(p.fixed_points() for p in (t, l, r, t * l))
        n_or = len(orbits_of((r * t, r * l), n))
        kind, genus = _surface_kind_and_genus(chi, n_or)
        return SurfaceInfo(
            cells=cs,
            orientability="boundary-degenerate" if degenerate else kind,
            euler_characteristic=chi,
            signed_genus=genus,
            orientation_orbits=n_or,
            genus_advisory=degenerate,
        )

    def __repr__(self) -> str:
        return f"RootedMap(n_flags={self.n_flags}, root={self.root})"


# --- .map file format ---------------------------------------------------

def _ints(parts: list[str], lineno: int) -> list[int]:
    try:
        return [int(x) for x in parts]
    except ValueError as exc:
        raise MapFormatError(f"line {lineno}: {exc}") from exc


def _single_value(parts: list[str], lineno: int) -> int:
    if len(parts) != 2:
        raise MapFormatError(f"line {lineno}: expected '{parts[0]} N'")
    return _ints(parts[1:], lineno)[0]


def load_map(text: str) -> RootedMap:
    """Parse ".map" text: "flags N", image lines for T, L, R, "root r"."""
    fields: dict[str, list[int]] = {}
    n = None
    root = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        key = parts[0]
        if key == "flags":
            if n is not None:
                raise MapFormatError(f"line {lineno}: duplicate flags line")
            n = _single_value(parts, lineno)
        elif key in ("T", "L", "R"):
            if key in fields:
                raise MapFormatError(f"line {lineno}: duplicate {key} line")
            if n is None:
                raise MapFormatError(f"line {lineno}: {key} before flags")
            if len(parts) != n + 1:
                raise MapFormatError(
                    f"line {lineno}: {key} needs exactly {n} images")
            fields[key] = _ints(parts[1:], lineno)
        elif key == "root":
            if root is not None:
                raise MapFormatError(f"line {lineno}: duplicate root line")
            root = _single_value(parts, lineno)
        else:
            raise MapFormatError(f"line {lineno}: unknown directive {key!r}")
    if n is None or root is None or set(fields) != {"T", "L", "R"}:
        raise MapFormatError("need flags, T, L, R and root lines")
    perms = {}
    for key in ("T", "L", "R"):
        try:
            perms[key] = Perm(fields[key])
        except ValueError as exc:
            raise MapFormatError(f"{key} images: {exc}") from exc
    return RootedMap(perms["T"], perms["L"], perms["R"], root)


def canonicalize(m: RootedMap) -> RootedMap:
    """Renumber flags by BFS from the root over T, L, R; root becomes 0."""
    order = m.monodromy_group().orbit(m.root)
    number = {x: i for i, x in enumerate(order)}
    relabeled = [Perm(number[g.images[x]] for x in order)
                 for g in m.generators()]
    return RootedMap(*relabeled, root=0)


def save_map(m: RootedMap) -> str:
    """Canonical text form (stable across runs for isomorphic inputs)."""
    c = canonicalize(m)
    lines = [
        f"flags {c.n_flags}",
        "T " + " ".join(map(str, c.t.images)),
        "L " + " ".join(map(str, c.l.images)),
        "R " + " ".join(map(str, c.r.images)),
        f"root {c.root}",
    ]
    return "\n".join(lines) + "\n"


# --- cells and surface invariants -----------------------------------------

@dataclass(frozen=True)
class CellStructure:
    """The four cell partitions of the flag set."""

    vertices: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, ...], ...]
    faces: tuple[tuple[int, ...], ...]
    petrie_circuits: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class SurfaceInfo:
    cells: CellStructure
    orientability: Literal["orientable", "non-orientable", "boundary-degenerate"]
    euler_characteristic: int
    signed_genus: int
    orientation_orbits: int
    genus_advisory: bool


def cells(m: RootedMap) -> CellStructure:
    return m._surface.cells


def _surface_kind_and_genus(chi: int, orientation_orbits: int) -> tuple[str, int]:
    """Orientability and signed genus from the Euler characteristic and the
    number of orbits of the orientation-preserving subgroup <RT, RL>."""
    if orientation_orbits == 2:
        return "orientable", (2 - chi) // 2
    return "non-orientable", -(2 - chi)


def cells_and_surface(m: RootedMap) -> SurfaceInfo:
    """Cell counts, Euler characteristic and the signed genus, found once
    per map and kept on it.

    The closed-surface reading needs T, L, R and TL fixed-point-free; when
    any has a fixed point the result is flagged boundary-degenerate and the
    genus numbers are advisory only.
    """
    return m._surface


# --- triality ---------------------------------------------------------------

def du(m: RootedMap) -> RootedMap:
    """Dual: exchange the roles of T and L."""
    return RootedMap(m.l, m.t, m.r, m.root)


def pe(m: RootedMap) -> RootedMap:
    """Petrie dual: replace L by LT (apply L, then T)."""
    return RootedMap(m.t, m.l * m.t, m.r, m.root)


def triality_composites(m: RootedMap) -> list[RootedMap]:
    """The six composites in the fixed order M, Du, Pe, PeDu, DuPe, DuPeDu."""
    return [m, du(m), pe(m), pe(du(m)), du(pe(m)), du(pe(du(m)))]


# --- isomorphism and automorphisms -----------------------------------------

def _tables(m: RootedMap) -> tuple[tuple[int, ...], ...]:
    """The image tables of T, L and R."""
    return (m.t.images, m.l.images, m.r.images)


def _generalized_isomorphism(m_tables: tuple[tuple[int, ...], ...],
                             m_root: int,
                             n_tables: tuple[tuple[int, ...], ...],
                             n_root: int, n_reflexible: bool) -> list[int] | None:
    """A flag bijection respecting the generator tables pairwise and taking
    m_root to any flag, the first found in flag order.  All re-rootings of
    a reflexible map are isomorphic, so when the target is reflexible one
    try decides."""
    size = len(m_tables[0])
    for d in ((n_root,) if n_reflexible else range(size)):
        image = _equivariant_map(m_tables, m_root, n_tables, d, size)
        if image is not None:
            return image
    return None


def isomorphism(m: RootedMap, n: RootedMap,
                mode: Literal["rooted", "generalized"] = "rooted") -> list[int] | None:
    """A flag bijection m -> n respecting T, L, R, or None.

    Rooted mode requires root -> root.  Generalized mode tries every flag
    of n as the image of m's root (with a shortcut when n is reflexible:
    all re-rootings of a reflexible map are isomorphic, so one try decides).
    """
    if m.n_flags != n.n_flags:
        return None
    if mode == "rooted":
        return _equivariant_map(_tables(m), m.root, _tables(n), n.root,
                                m.n_flags)
    return _generalized_isomorphism(_tables(m), m.root, _tables(n), n.root,
                                    is_reflexible(n))


def automorphism_to(m: RootedMap, d: int) -> Perm | None:
    """The unique automorphism taking the root to flag d, if consistent."""
    tables = _tables(m)
    image = _equivariant_map(tables, m.root, tables, d, m.n_flags)
    return Perm(image) if image is not None else None


def is_reflexible(m: RootedMap) -> bool:
    """Aut regular on flags: the root's Aut-orbit is every flag.  Aut is
    semiregular, so this reads the generators kept on m and builds no
    Mon."""
    return len(automorphism_group(m).orbit(m.root)) == m.n_flags


def automorphism_group(m: RootedMap) -> PermGroup:
    """Aut(m) as a permutation group on the flags (semiregular).

    An automorphism is fixed by the root's image, so flags already in the
    root's orbit under the automorphisms found so far are skipped.  Each
    kept generator at least doubles that orbit, so there are at most
    log2 |Aut| generators.  The generators are found once per map; each
    call returns a new group on them.
    """
    return PermGroup(m.n_flags, m._automorphism_generators)


# --- re-rooting -------------------------------------------------------------

# The facts kept on a map that do not depend on its root.
_ROOT_FREE_FACTS = ("_surface", "_automorphism_generators", "_context_orders")


def reroot(m: RootedMap, flag: int) -> RootedMap:
    """m rooted at flag, sharing the root-free facts m has already found:
    its surface, the generators of Aut and the context orders."""
    out = RootedMap(m.t, m.l, m.r, flag)
    out.__dict__.update((name, value) for name, value in vars(m).items()
                        if name in _ROOT_FREE_FACTS)
    return out


def simple_reroots(m: RootedMap) -> list[RootedMap]:
    """Re-rootings at root, root.T, root.L, root.TL, in that order."""
    x = m.root
    return [
        m,
        reroot(m, m.t.images[x]),
        reroot(m, m.l.images[x]),
        reroot(m, m.l.images[m.t.images[x]]),
    ]


# --- genus symbol -----------------------------------------------------------

@dataclass(frozen=True)
class GenusSymbol:
    """Signed genera across the triality class, with the coincidence pattern.

    genera[i] is the signed genus of the i-th composite (order M, Du, Pe,
    PeDu, DuPe, DuPeDu); iso_symbol[i] is the least 1-based index of a
    composite generalized-isomorphic to composite i; the hexagonal number
    counts the distinct entries.
    """

    genera: tuple[int, int, int, int, int, int]
    iso_symbol: tuple[int, int, int, int, int, int]
    hexagonal_number: int
    advisory: bool = field(default=False)

    def __post_init__(self):
        if self.hexagonal_number != len(set(self.iso_symbol)):
            raise ValueError("hexagonal number must count distinct entries")


# The six triality composites in the order M, Du, Pe, PeDu, DuPe, DuPeDu,
# each with generators (a, b, R): a and b are indices into (T, L, TL) and c
# is the third index.  Du swaps T and L and Pe replaces L by LT (= TL), so
# a composite's vertices <a,R>, faces <b,R> and Petrie circuits <c,R> are
# M's vertices <T,R>, faces <L,R> or Petrie circuits <TL,R>, and its edges
# <a,b> are M's edges <T,L>.  Its orientation subgroup <Ra,Rb> depends on
# c alone, so the six lie on three surfaces.
_TRIALITY_PAIRS = ((0, 1), (1, 0), (0, 2), (1, 2), (2, 0), (2, 1))


def _composite_invariants(m: RootedMap, surface: SurfaceInfo,
                          ) -> list[tuple[int, int, int, int, int]]:
    """(vertices, edges, faces, Petrie circuits, orientation orbits) of each
    triality composite, from ``surface = cells_and_surface(m)`` and the
    orientation orbits of the two other surfaces."""
    cs = surface.cells
    n = m.n_flags
    bases = (m.t, m.l, m.t * m.l)
    # the orbits of <x,R> for x = T, L, TL
    counts = (len(cs.vertices), len(cs.faces), len(cs.petrie_circuits))
    n_edges = len(cs.edges)
    turns = [m.r * x for x in bases]
    # orbits of <Ra,Rb> by the third index c; c = 2 is M's own surface
    surfaces = (len(orbits_of((turns[1], turns[2]), n)),
                len(orbits_of((turns[0], turns[2]), n)),
                surface.orientation_orbits)
    return [(counts[a], n_edges, counts[b], counts[3 - a - b],
             surfaces[3 - a - b]) for a, b in _TRIALITY_PAIRS]


def _iso_pattern(m: RootedMap, reflexible: bool,
                 invariants: list[tuple[int, ...]]) -> tuple[int, ...]:
    """iso_symbol of the genus symbol.  A flag bijection respecting the
    generators maps orbits to orbits, so composites with different
    invariants are not isomorphic and are not tested.  All six share Mon as
    a permutation group, so m's reflexibility decides for each of them."""
    bases = (m.t.images, m.l.images, (m.t * m.l).images)
    tables = [(bases[a], bases[b], m.r.images) for a, b in _TRIALITY_PAIRS]
    iso: list[int] = []
    for i, key in enumerate(invariants):
        first = i
        for j in range(i):
            # the least isomorphic composite is the first of its class
            if (iso[j] == j + 1 and invariants[j] == key
                    and _generalized_isomorphism(tables[j], m.root, tables[i],
                                                 m.root, reflexible)
                    is not None):
                first = j
                break
        iso.append(first + 1)
    return tuple(iso)


def genus_symbol(m: RootedMap) -> GenusSymbol:
    """Every composite has the generators T, L, R and TL up to order, so
    m's boundary degeneracy is theirs."""
    surface = cells_and_surface(m)
    invariants = _composite_invariants(m, surface)
    iso = _iso_pattern(m, is_reflexible(m), invariants)
    return GenusSymbol(
        genera=tuple(_surface_kind_and_genus(v - e + f, n_or)[1]
                     for v, e, f, _, n_or in invariants),
        iso_symbol=iso,
        hexagonal_number=len(set(iso)),
        advisory=surface.genus_advisory,
    )


def triality_class(m: RootedMap) -> list[RootedMap]:
    """Pairwise non-isomorphic members among the six composites: those
    that are the first of their class in the iso symbol."""
    iso = genus_symbol(m).iso_symbol
    return [c for i, c in enumerate(triality_composites(m)) if iso[i] == i + 1]


def regular_map_from_group(lg) -> RootedMap:
    """The reflexible map carried by a group labeled t, l, r: flags are the
    group elements in their regular action, rooted at the identity."""
    table = lg.as_dict()
    missing = [name for name in GENERATOR_NAMES if name not in table]
    if missing:
        raise ValueError(f"labels {missing} missing from group")
    return RootedMap(table["t"], table["l"], table["r"], root=0)
