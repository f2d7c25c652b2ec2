"""Named automorphisms around the root edge, the 14 edge-transitive types,
map symbols, type behavior under duality, and the group-to-map construction.

A map contains the named automorphism for a word W when some automorphism
takes the root to root.W, that is when root.W lies in the root's
Aut-orbit: the flags are labeled by Aut-orbit once, and each word is read
on the T, L and R tables.  An edge-transitive map can be simply re-rooted
so that the set of named automorphisms it contains is exactly one of the
fourteen rows of the type table; that rooting is the canonical rooting.
"""

from __future__ import annotations

from dataclasses import dataclass

from .degen import classify_degeneracy
from .fpres import evaluate_word
from .mapcore import (GENERATOR_NAMES, TRIALITY, RootedMap, _sheeted_map,
                      _tables, automorphism_group, cells, simple_reroots)
from .perm import LabeledGenerators, _breadth_first_tree, _inverse

# Defining words over t, l, r for the thirteen named automorphisms.
NAMED_AUTOMORPHISM_WORDS: dict[str, str] = {
    "sigma_x1": "rt",
    "sigma_x2": "ltrl",
    "sigma_f1": "lr",
    "sigma_f2": "trtl",
    "gamma1": "ltr",
    "gamma2": "trl",
    "theta1": "r",
    "theta2": "lrl",
    "theta3": "trt",
    "theta4": "ltrtl",
    "tau": "t",
    "lambda": "l",
    "phi": "lt",
}

_THETAS = frozenset({"theta1", "theta2", "theta3", "theta4"})

# The fourteen edge-transitive types: label -> required named automorphisms.
TYPE_TABLE: dict[str, frozenset[str]] = {
    "1": frozenset(NAMED_AUTOMORPHISM_WORDS),
    "2": frozenset({"tau", "sigma_x1", "sigma_x2"}) | _THETAS,
    "2*": frozenset({"lambda", "sigma_f1", "sigma_f2"}) | _THETAS,
    "2P": frozenset({"phi", "gamma1", "gamma2"}) | _THETAS,
    "2ex": frozenset({"tau", "sigma_f1", "sigma_f2", "gamma1", "gamma2"}),
    "2*ex": frozenset({"lambda", "sigma_x1", "sigma_x2", "gamma1", "gamma2"}),
    "2Pex": frozenset({"phi", "sigma_x1", "sigma_x2", "sigma_f1", "sigma_f2"}),
    "3": _THETAS,
    "4": frozenset({"sigma_x1", "theta2", "theta4"}),
    "4*": frozenset({"sigma_f1", "theta3", "theta4"}),
    "4P": frozenset({"gamma1", "theta2", "theta3"}),
    "5": frozenset({"sigma_x1", "sigma_x2"}),
    "5*": frozenset({"sigma_f1", "sigma_f2"}),
    "5P": frozenset({"gamma1", "gamma2"}),
}

TYPE_LABELS = tuple(TYPE_TABLE)

# Divisibility side conditions on the map symbol, per type: field -> divisor
# that must divide every entry of the field.  (The three "ex" rows carry the
# evenness on the field their base family splits, matching the fractional
# exponents in the partial presentations.)
TYPE_SYMBOL_CONDITIONS: dict[str, dict[str, int]] = {
    "1": {},
    "2": {"b": 2, "c": 2},
    "2*": {"a": 2, "c": 2},
    "2P": {"a": 2, "b": 2},
    "2ex": {"a": 2},
    "2*ex": {"b": 2},
    "2Pex": {"c": 2},
    "3": {"a": 2, "b": 2, "c": 2},
    "4": {"a": 2, "b": 4, "c": 4},
    "4*": {"a": 4, "b": 2, "c": 4},
    "4P": {"a": 4, "b": 4, "c": 2},
    "5": {"b": 2, "c": 2},
    "5*": {"a": 2, "c": 2},
    "5P": {"a": 2, "b": 2},
}


class DegenerateSymbolAdvisory(ValueError):
    """Map symbols are certified for non-degenerate maps only."""


class SymbolConditionFailed(ValueError):
    """A map symbol breaks a divisibility side condition of its type (seen on
    boundary-degenerate maps, whose cell sizes are not the surface's)."""

    def __init__(self, type_label: str, condition: str, symbol: MapSymbol):
        super().__init__(f"type {type_label} side condition {condition} fails "
                         f"for symbol {symbol}")
        self.type_label = type_label
        self.condition = condition


class LabelMismatch(ValueError):
    """Input group labels do not match the type's generator set."""


class RelationViolation(ValueError):
    """An always-required relation of the type's presentation fails."""


def named_automorphisms_present(m: RootedMap) -> frozenset[str]:
    """Which of the thirteen named automorphisms m contains at its root.
    Some automorphism takes the root to root.W exactly when root.W lies in
    the root's Aut-orbit: each word is read on the T, L and R tables and
    compared by the flags' Aut-orbit labels, which Aut keeps
    (``PermGroup._partition``) on the Mon a map shares with its
    re-rootings."""
    orbit_of = automorphism_group(m)._partition[0]
    tables = dict(zip(GENERATOR_NAMES, _tables(m)))
    present = []
    for name, word in NAMED_AUTOMORPHISM_WORDS.items():
        x = m.root
        for letter in word:
            x = tables[letter][x]
        if orbit_of[x] == orbit_of[m.root]:
            present.append(name)
    return frozenset(present)


def is_edge_transitive(m: RootedMap) -> bool:
    """Whether Aut(m) is transitive on the edge set, read off Aut alone.
    Aut commutes with T and L, so the flags of one Aut-orbit of edges form
    one orbit of <Aut, T, L>, and the map is edge-transitive exactly when
    the root's orbit under that group is every flag.  No cell is built."""
    tables = (*automorphism_group(m).tables, m.t.images, m.l.images)
    return len(_breadth_first_tree(tables, m.root, m.n_flags)[0]) == m.n_flags


def _cell_sizes_by_orbit(m: RootedMap, blocks: tuple) -> list[int]:
    """The size of a cell in each Aut-orbit of the cells, which come by
    least flag as ``cells`` keeps them: the root's orbit first, the others
    by least flag.  Automorphisms take cells to cells of the same size, so
    two cells lie in one Aut-orbit exactly when some of their flags do,
    and the least Aut-orbit label among a cell's flags names its orbit."""
    orbit_of = automorphism_group(m)._partition[0]
    sizes: dict[int, int] = {}
    for cell in blocks:
        key = min(map(orbit_of.__getitem__, cell))
        sizes.setdefault(key, len(cell))
        if m.root in cell:
            first = key
    return [sizes.pop(first), *sizes.values()]


def classify_type(m: RootedMap) -> tuple[str, RootedMap] | None:
    """The edge-transitive type and a canonical rooting, or None when the
    map is not edge-transitive.

    The four simple re-rootings are tried in the order root, root.T,
    root.L, root.TL; the first whose named-automorphism set equals a type
    row wins.  Aut is the same group at every rooting, kept on the Mon
    that every re-rooting shares, so the flags are labeled by Aut-orbit
    once.  An edge-transitive map that matches no row, which the
    fourteen-type theorem rules out, raises RuntimeError; the
    decomposability route reads no row
    (``decomp.decomposability_edge_transitive``).
    """
    if not is_edge_transitive(m):
        return None
    for candidate in simple_reroots(m):
        present = named_automorphisms_present(candidate)
        for label, required in TYPE_TABLE.items():
            if present == required:
                return label, candidate
    raise RuntimeError(
        "edge-transitive map matches no type row at any simple re-rooting")


@dataclass(frozen=True)
class MapSymbol:
    """Vertex degrees, face sizes and Petrie lengths per automorphism orbit
    (one entry when the orbit is unique, two otherwise; the orbit of the
    root flag comes first)."""

    a: tuple[int, ...]
    b: tuple[int, ...]
    c: tuple[int, ...]

    def __str__(self) -> str:
        part = lambda xs: ", ".join(map(str, xs))
        return f"<{part(self.a)}; {part(self.b)}; {part(self.c)}>"


def map_symbol(m: RootedMap, type_label: str | None = None) -> MapSymbol:
    """The map symbol of an edge-transitive, non-degenerate map.

    Entries are cell sizes halved, per Aut-orbit of the vertices (<T,R>),
    faces (<L,R>) and Petrie circuits (<TL,R>), read off the cells the map
    keeps (``_cell_sizes_by_orbit``).  The divisibility
    side conditions of the detected type are checked; a failing one raises
    ``SymbolConditionFailed``.
    """
    if classify_degeneracy(m) == "degenerate":
        raise DegenerateSymbolAdvisory(
            "map symbol is certified for non-degenerate maps only")
    if type_label is None:
        classified = classify_type(m)
        if classified is None:
            raise ValueError("map is not edge-transitive")
        type_label, m = classified
    cs = cells(m)
    symbol = MapSymbol(*(tuple((size + 1) // 2
                               for size in _cell_sizes_by_orbit(m, b))
                         for b in (cs.vertices, cs.faces, cs.petrie_circuits)))
    for f in ("a", "b", "c"):
        if len(getattr(symbol, f)) > 2:
            raise RuntimeError(f"more than two automorphism orbits on {f!r}")
    for f, divisor in TYPE_SYMBOL_CONDITIONS[type_label].items():
        if any(entry % divisor for entry in getattr(symbol, f)):
            raise SymbolConditionFailed(type_label, f"{divisor}|{f}", symbol)
    return symbol


# --- type conversion under Du and Pe ----------------------------------------

# The suffixes of a family's labels ("4", "4*", "4P"; "2ex", "2*ex",
# "2Pex") name the generator, T, L or TL, that plays the part of T in the
# family's base row.
_SUFFIXES = ("", "*", "P")


def type_transforms(label: str) -> tuple[str, str]:
    """The types of the dual and the Petrie dual of a type-``label`` map
    (with the conventions 1 = 1* = 1^P and 3 = 3* = 3^P).  In the Du and
    Pe rows of ``mapcore.TRIALITY`` the generator the suffix names becomes
    the composite's T, L or TL by its place among the row's a, b and c."""
    if label not in TYPE_TABLE:
        raise ValueError(f"unknown type label {label!r}")
    ex = "ex" if label.endswith("ex") else ""
    base = _SUFFIXES.index(label[1:len(label) - len(ex)])
    rows = {name: (a, b, 3 - a - b) for name, a, b in TRIALITY}
    images = [label[0] + _SUFFIXES[rows[name].index(base)] + ex
              for name in ("Du", "Pe")]
    du_label, pe_label = (i if i in TYPE_TABLE else label for i in images)
    return du_label, pe_label


def partial_order(label: str, other: str) -> bool:
    """Whether label <= other under required-automorphism inclusion."""
    return TYPE_TABLE[label] <= TYPE_TABLE[other]


# --- construction of a T-admissible map from a group -------------------------

# The flags of the map of each constructible type: (group element, s) for
# s in one sheet, Z2 or Z2 x Z2 (the pair (j, k) as 2*j + k), and T, L and
# R as rows of moves on them (``mapcore._sheeted_map``) over the group's
# right tables, labeled by the type's generators, and their inverses,
# labeled "-label".
_CONSTRUCTIONS: dict[str, tuple[int, tuple[str, str, str]]] = {
    "1": (1, ("tau:0", "lambda:0", "theta1:0")),
    "2": (2, ("tau:0 tau:1", ":1 :0", "theta1:0 theta2:1")),
    "2ex": (2, ("tau:0 tau:1", ":1 :0", "-sigma_f1:1 sigma_f1:0")),
    "3": (4, (":2 :3 :0 :1", ":1 :0 :3 :2",
              "theta1:0 theta2:1 theta3:2 theta4:3")),
    "4": (4, (":2 :3 :0 :1", ":1 :0 :3 :2",
              "sigma_x1:2 theta2:1 -sigma_x1:0 theta4:3")),
    "5": (4, (":2 :3 :0 :1", ":1 :0 :3 :2",
              "sigma_x1:2 -sigma_x2:3 -sigma_x1:0 sigma_x2:1")),
}

# Generator labels per constructible type, in the order the T, L and R
# rows first name them, and the always-required (map-symbol independent)
# relations over those labels.
TYPE_GENERATORS: dict[str, tuple[str, ...]] = {
    label: tuple(dict.fromkeys(
        name for move in " ".join(rows).split()
        if (name := move.partition(":")[0].lstrip("-"))))
    for label, (_, rows) in _CONSTRUCTIONS.items()}

TYPE_REQUIRED_RELATIONS: dict[str, tuple[str, ...]] = {
    "1": ("tau^2", "lambda^2", "theta1^2", "(tau*lambda)^2"),
    "2": ("tau^2", "theta1^2", "theta2^2"),
    "2ex": ("tau^2",),
    "3": ("theta1^2", "theta2^2", "theta3^2", "theta4^2"),
    "4": ("theta2^2", "theta4^2"),
    "5": (),
}


@dataclass(frozen=True)
class AdmissibilityReport:
    """Post-hoc check of a constructed map against the requested type."""

    requested: str
    detected: str | None
    exact: bool
    present_at_construction: frozenset[str]
    extra_automorphisms: frozenset[str]


def construct_from_group(type_label: str, g: LabeledGenerators,
                         ) -> tuple[RootedMap, AdmissibilityReport]:
    """Build the unique T-admissible map from a group of type T.

    Flags are (group element, s) with s running over {1}, Z2 or Z2 x Z2
    depending on the type; flag numbering is element_index * |S| + offset,
    and T, L and R are the type's rows of ``_CONSTRUCTIONS``.
    The admissibility report classifies the result and flags any named
    automorphisms beyond the requested row.
    """
    if type_label not in TYPE_GENERATORS:
        raise ValueError(f"no construction for type {type_label!r}")
    expected = TYPE_GENERATORS[type_label]
    if set(g.labels) != set(expected):
        raise LabelMismatch(
            f"type {type_label} needs labels {sorted(expected)}, "
            f"got {sorted(g.labels)}")
    for relation in TYPE_REQUIRED_RELATIONS[type_label]:
        if not evaluate_word(g, relation).is_identity():
            raise RelationViolation(f"required relation {relation} fails")
    right = dict(zip(g.labels, g.group()._right_tables(g.generators)))
    right |= {f"-{label}": _inverse(table) for label, table in right.items()}
    sheets, rows = _CONSTRUCTIONS[type_label]
    # the identity is element 0, so the root (0, 0) is flag 0
    result = _sheeted_map(right, len(right[g.labels[0]]), sheets, rows)

    present = named_automorphisms_present(result)
    classified = classify_type(result)
    detected = classified[0] if classified is not None else None
    report = AdmissibilityReport(
        requested=type_label,
        detected=detected,
        exact=detected == type_label,
        present_at_construction=present,
        extra_automorphisms=present - TYPE_TABLE[type_label],
    )
    return result, report
