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

A map keeps its Mon, and Aut is the centralizer of Mon
(``PermGroup.centralizer``): one scan of the flags from flag 0, kept on
Mon and shared by every re-rooting.  Reflexibility is Mon's regularity
(``is_reflexible``).  The context orders are read on the tables by
``context_cycle_orders``, from one flag per Aut-orbit, and the census
reads its enumerated groups with the same routine.

Maps built from group actions are built on sheeted flags (``_sheeted_map``):
a flag is an element e (a group element or a cycle position) and a sheet
s, and each of T, L and R is a row of moves, one per sheet.  The
edge-transitive constructions (``ettype``) and the degenerate and slightly
degenerate families (``degen``) read that one row format.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import lcm
from typing import Iterable, Iterator, Literal, Mapping, Sequence

from .fpres import Word, parse_word
from .perm import (LabeledGenerators, Perm, PermGroup, _breadth_first_tree,
                   _equivariant_map, _intertwines, _orbit_partition, _perm,
                   _relabel)

GENERATOR_NAMES = ("t", "l", "r")
# The seven mandatory context words T, L, R, TL, RT, RL, TLR (see degen).
CONTEXT_WORDS: tuple[Word, ...] = tuple(map(parse_word, (
    "t", "l", "r", "t*l", "r*t", "r*l", "t*l*r")))


def context_cycle_orders(lg: LabeledGenerators,
                         starts: Sequence[int] = (0,)) -> Iterator[int]:
    """The orders of the seven context words in a group labeled t, l, r,
    one word at a time, read on the image tables: each is the lcm of the
    lengths of the word's cycles through the ``starts``, so the starts
    must meet every cycle length.  A group that acts regularly needs the
    point 0 alone, since only the identity fixes a point; a map needs one
    flag per Aut-orbit (``RootedMap._context_orders``).  A start on a
    cycle already walked for the word is skipped.  A caller comparing the
    orders with expected ones can stop at the first that differs."""
    images = dict(zip(lg.labels, (g.images for g in lg.generators)))
    for word in CONTEXT_WORDS:
        letters = [images[name] for name, exp in word for _ in range(exp)]
        order = 1
        seen: set[int] = set()
        for start in starts:
            if start in seen:
                continue
            point, length = start, 0
            while True:
                for letter in letters:
                    point = letter[point]
                length += 1
                if point == start:
                    break
                seen.add(point)
            order = lcm(order, length)
        yield order


class MapFormatError(ValueError):
    """Malformed ".map" text (missing lines, non-bijective image lists...)."""


class MapInvariantError(ValueError):
    """Structurally well-formed data that violates a rooted-map axiom."""


@dataclass(frozen=True)
class RootedMap:
    """Flags {0..n-1} with involutions t, l, r and a root flag.  It keeps
    its root-free facts once found (``_ROOT_FREE_FACTS``); Mon keeps Aut."""

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
        # T and L are involutions, so (TL)^2 = 1 exactly when they commute
        if not _intertwines(self.t.images, self.l.images, self.l.images):
            raise MapInvariantError("(TL)^2 not the identity")
        if not (0 <= self.root < n):
            raise MapInvariantError("root flag out of range")
        if len(_breadth_first_tree(_tables(self), self.root, n)[0]) != n:
            raise MapInvariantError("action not transitive")

    @property
    def n_flags(self) -> int:
        return self.t.degree

    def generators(self) -> tuple[Perm, Perm, Perm]:
        return (self.t, self.l, self.r)

    def generator(self, name: str) -> Perm:
        return {"t": self.t, "l": self.l, "r": self.r}[name.lower()]

    def act(self, flag: int, word: Iterable[str]) -> int:
        tables = dict(zip(GENERATOR_NAMES, _tables(self)))
        for ch in word:
            flag = tables[ch.lower()][flag]
        return flag

    def monodromy_group(self) -> PermGroup:
        return self._monodromy_group

    @cached_property
    def _monodromy_group(self) -> PermGroup:
        """Mon, built once per map.  It keeps what its readers find out,
        its regularity, its centralizer (Aut), its order and any
        stabilizer chain, but no element listing (``PermGroup._listed``)."""
        return PermGroup(self.n_flags, self.generators())

    @cached_property
    def _context_orders(self) -> tuple[int, ...]:
        """Orders of the seven context words, found once per map (see
        degen.context_vector) by ``context_cycle_orders``.  Aut commutes
        with every word, so a word's cycles through the flags of one
        Aut-orbit have one length, and one flag per Aut-orbit meets every
        length."""
        lg = LabeledGenerators(GENERATOR_NAMES, self.generators())
        starts = [o[0] for o in automorphism_group(self)._partition[1]]
        return tuple(context_cycle_orders(lg, starts))

    @cached_property
    def _surface(self) -> SurfaceInfo:
        """Cells and surface, found once per map (see cells_and_surface)."""
        n = self.n_flags
        t, l, r = self.generators()
        tl = t * l
        orbits = lambda *gens: _orbit_partition([g.images for g in gens], n)[1]
        blocks = lambda *gens: tuple(tuple(sorted(b)) for b in orbits(*gens))
        cs = CellStructure(
            vertices=blocks(t, r),
            edges=blocks(t, l),
            faces=blocks(l, r),
            petrie_circuits=blocks(tl, r),
        )
        chi = len(cs.vertices) - len(cs.edges) + len(cs.faces)
        degenerate = any(p.fixed_points() for p in (t, l, r, tl))
        n_or = len(orbits(r * t, r * l))
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


def _rooted_map(t: Perm, l: Perm, r: Perm, root: int) -> RootedMap:
    """A RootedMap from generators and a root already known to satisfy its
    axioms: a derived map of a checked one (see reroot, du and pe, and the
    orbit quotients of ``quotient._orbit_quotient``)."""
    m = RootedMap.__new__(RootedMap)
    m.__dict__.update(t=t, l=l, r=r, root=root)
    return m


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
    """Renumber flags by BFS from the root over T, L, R; root becomes 0.
    Flag i is the i-th flag of ``perm._breadth_first_tree``'s order,
    renamed by ``perm._relabel``.  A relabeling keeps every axiom, so
    none is checked again."""
    tables = _tables(m)
    order, _ = _breadth_first_tree(tables, m.root, m.n_flags)
    return _rooted_map(*(_perm(tuple(images))
                         for images in _relabel(tables, order)), 0)


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
    """Dual: exchange the roles of T and L.  The generators are m's, so no
    axiom is checked again."""
    return _rooted_map(m.l, m.t, m.r, m.root)


def pe(m: RootedMap) -> RootedMap:
    """Petrie dual: replace L by LT (apply L, then T).  LT is an involution
    and T·LT·T·LT = 1 whenever (TL)^2 = 1, and <T, LT, R> = <T, L, R>, so
    no axiom is checked again."""
    return _rooted_map(m.t, m.l * m.t, m.r, m.root)


# The six triality composites, in the order used everywhere: a name and
# the composite's T and L as indices a and b into (T, L, TL).  The names
# spell chains of du (swap T and L) and pe (L becomes LT = TL), rightmost
# first: PeDu(m) = pe(du(m)).  The composite's TL is the third index,
# c = 3 - a - b.  Its vertices <a,R>, faces <b,R> and Petrie circuits
# <c,R> are M's vertices, faces or Petrie circuits, and its edges <a,b>
# are M's edges.  Its orientation subgroup <Ra,Rb> depends on c alone, so
# the six lie on three surfaces.
TRIALITY: tuple[tuple[str, int, int], ...] = (
    ("M", 0, 1), ("Du", 1, 0), ("Pe", 0, 2), ("PeDu", 1, 2), ("DuPe", 2, 0),
    ("DuPeDu", 2, 1))


def triality_composites(m: RootedMap) -> list[RootedMap]:
    """The six composites in TRIALITY order, m itself first.  Their
    generators are m's T, L, R and TL, so no axiom is checked again."""
    bases = (m.t, m.l, m.t * m.l)
    return [m] + [_rooted_map(bases[a], bases[b], m.r, m.root)
                  for _, a, b in TRIALITY[1:]]


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
    """Aut regular on flags, which holds exactly when Mon is regular: Aut
    is the centralizer of the transitive Mon, and the centralizer of a
    transitive group is regular exactly when the group is (Dixon and
    Mortimer, Permutation Groups, 4.2).  Asks the map's one Mon."""
    return m.monodromy_group().is_regular()


def automorphism_group(m: RootedMap) -> PermGroup:
    """Aut(m) as a permutation group on the flags (semiregular), found
    once per map and kept on Mon: its centralizer in Sym(flags),
    since an automorphism is a flag bijection that commutes with T, L
    and R.

    Mon's scan (``PermGroup.centralizer``) tries the automorphisms taking
    flag 0 to each flag outside the orbit of 0 under the ones found so
    far, and skips the orbit of each flag no automorphism reaches.  Each
    kept generator at least doubles that orbit, so there are at most
    log2 |Aut| generators.  The group knows its order and keeps the
    Aut-orbits (``PermGroup._partition``).
    """
    return m.monodromy_group().centralizer()


# --- re-rooting -------------------------------------------------------------

# The facts kept on a map that do not depend on its root; Aut and the
# Aut-orbits are kept on Mon.
_ROOT_FREE_FACTS = ("_surface", "_monodromy_group", "_context_orders")


def reroot(m: RootedMap, flag: int) -> RootedMap:
    """m rooted at flag, sharing the root-free facts m has already found:
    its surface, Mon (and with it Aut and the Aut-orbits) and the context
    orders.  Only the new root is checked: the generators are m's."""
    if not 0 <= flag < m.n_flags:
        raise MapInvariantError("root flag out of range")
    out = _rooted_map(m.t, m.l, m.r, flag)
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
    n_orbits = lambda a, b: len(_orbit_partition((a.images, b.images), n)[1])
    surfaces = (n_orbits(turns[1], turns[2]), n_orbits(turns[0], turns[2]),
                surface.orientation_orbits)
    return [(counts[a], n_edges, counts[b], counts[3 - a - b],
             surfaces[3 - a - b]) for _, a, b in TRIALITY]


def _iso_pattern(m: RootedMap, reflexible: bool,
                 invariants: list[tuple[int, ...]]) -> tuple[int, ...]:
    """iso_symbol of the genus symbol.  A flag bijection respecting the
    generators maps orbits to orbits, so composites with different
    invariants are not isomorphic and are not tested.  All six share Mon as
    a permutation group, so m's reflexibility decides for each of them."""
    bases = (m.t.images, m.l.images, (m.t * m.l).images)
    tables = [(bases[a], bases[b], m.r.images) for _, a, b in TRIALITY]
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


def _sheeted_map(tables: Mapping[str, Sequence[int]], size: int, sheets: int,
                 rows: Sequence[str]) -> RootedMap:
    """The map on the flags (e, s), e < size and s < sheets, numbered
    e * sheets + s and rooted at (0, 0).  T, L and R are three rows of
    moves, one move per sheet: at position s of a row, "name:s'" sends
    (e, s) to (tables[name][e], s'), and the name "" keeps e.  The axioms
    are checked (``RootedMap``), so a row that is not an involution
    raises ``MapInvariantError``."""
    generators = []
    for row in rows:
        images = [0] * (size * sheets)
        for s, move in enumerate(row.split()):
            name, _, target = move.partition(":")
            table, new = tables[name] if name else range(size), int(target)
            images[s::sheets] = [x * sheets + new for x in table]
        generators.append(Perm(images))
    return RootedMap(*generators)
