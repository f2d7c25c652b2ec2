"""Named automorphisms around the root edge, the 14 edge-transitive types,
map symbols, type behavior under duality, and the group-to-map construction.

A map contains the named automorphism for a word W when some automorphism
takes the root to root.W.  An edge-transitive map can be simply re-rooted
so that the set of named automorphisms it contains is exactly one of the
fourteen rows of the type table; that rooting is the canonical rooting.
"""

from __future__ import annotations

from dataclasses import dataclass

from .degen import classify_degeneracy
from .fpres import evaluate_word
from .mapcore import RootedMap, automorphism_group, cells, simple_reroots
from .perm import (DEFAULT_ELEMENT_BOUND, LabeledGenerators, Perm, PermGroup,
                   _block_index)

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
    the root's Aut-orbit."""
    orbit = set(automorphism_group(m).orbit(m.root))
    return frozenset(name for name, word in NAMED_AUTOMORPHISM_WORDS.items()
                     if m.act(m.root, word) in orbit)


def is_edge_transitive(m: RootedMap) -> bool:
    """Whether Aut(m) is transitive on the edge set."""
    edge_blocks = cells(m).edges
    if len(edge_blocks) == 1:
        return True
    edge_of = _block_index(edge_blocks, m.n_flags)
    orbit = _cell_orbit(automorphism_group(m), edge_blocks, edge_of,
                        edge_of[m.root])
    return len(orbit) == len(edge_blocks)


def _cell_orbit(aut: PermGroup, blocks, cell_of: list[int],
                start: int) -> set[int]:
    """The cells in the Aut-orbit of cell ``start``, grown breadth first
    through the first flag of each cell: automorphisms map cells to cells,
    so any one flag of a cell finds the images of the whole cell."""
    orbit = {start}
    queue = [blocks[start][0]]
    for x in queue:  # grows while it is read: a breadth-first queue
        for g in aut.generators:
            ci = cell_of[g.images[x]]
            if ci not in orbit:
                orbit.add(ci)
                queue.append(blocks[ci][0])
    return orbit


def classify_type(m: RootedMap) -> tuple[str, RootedMap] | None:
    """The edge-transitive type and a canonical rooting, or None when the
    map is not edge-transitive.

    The four simple re-rootings are tried in the order root, root.T,
    root.L, root.TL; the first whose named-automorphism set equals a type
    row wins.  Aut is the same group at every rooting, so it is found on m
    before re-rooting, and each re-rooting shares it.
    """
    if not is_edge_transitive(m):
        return None
    automorphism_group(m)
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


def _orbit_sizes_by_aut(m: RootedMap, blocks, aut: PermGroup) -> tuple[int, ...]:
    """Half-sizes of the cells, one entry per Aut-orbit of cells, the orbit
    of the root flag's cell first."""
    cell_of = _block_index(blocks, m.n_flags)
    seen_cells: set[int] = set()
    orbit_entries: list[int] = []
    ordering = [cell_of[m.root]] + [ci for ci in range(len(blocks))
                                    if ci != cell_of[m.root]]
    for start in ordering:
        if start in seen_cells:
            continue
        seen_cells |= _cell_orbit(aut, blocks, cell_of, start)
        orbit_entries.append((len(blocks[start]) + 1) // 2)
    return tuple(orbit_entries)


def map_symbol(m: RootedMap, type_label: str | None = None) -> MapSymbol:
    """The map symbol of an edge-transitive, non-degenerate map.

    Entries are cell sizes halved, per Aut-orbit.  The divisibility side
    conditions of the detected type are checked; a failing one raises
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
    aut = automorphism_group(m)
    symbol = MapSymbol(
        a=_orbit_sizes_by_aut(m, cs.vertices, aut),
        b=_orbit_sizes_by_aut(m, cs.faces, aut),
        c=_orbit_sizes_by_aut(m, cs.petrie_circuits, aut),
    )
    for f in ("a", "b", "c"):
        if len(getattr(symbol, f)) > 2:
            raise RuntimeError(f"more than two automorphism orbits on {f!r}")
    for f, divisor in TYPE_SYMBOL_CONDITIONS[type_label].items():
        if any(entry % divisor for entry in getattr(symbol, f)):
            raise SymbolConditionFailed(type_label, f"{divisor}|{f}", symbol)
    return symbol


# --- type conversion under Du and Pe ----------------------------------------

def _split_label(label: str) -> tuple[str, str]:
    """'4P' -> ('4', 'P'); '2*ex' -> ('2ex', '*'); '1' -> ('1', '')."""
    if label in ("1", "3"):
        return label, ""
    if label.endswith("ex"):
        core = label[:-2]
        family = core[0] + "ex"
        suffix = core[1:]
    else:
        family = label[0]
        suffix = label[1:]
    return family, suffix


def _join_label(family: str, suffix: str) -> str:
    if family in ("1", "3"):
        return family
    if family.endswith("ex"):
        return family[0] + suffix + "ex"
    return family + suffix


def type_transforms(label: str) -> tuple[str, str]:
    """The types of the dual and the Petrie dual of a type-``label`` map
    (with the conventions 1 = 1* = 1^P and 3 = 3* = 3^P)."""
    if label not in TYPE_TABLE:
        raise ValueError(f"unknown type label {label!r}")
    family, suffix = _split_label(label)
    du_suffix = {"": "*", "*": "", "P": "P"}[suffix]
    pe_suffix = {"": "", "*": "P", "P": "*"}[suffix]
    return _join_label(family, du_suffix), _join_label(family, pe_suffix)


def partial_order(label: str, other: str) -> bool:
    """Whether label <= other under required-automorphism inclusion."""
    return TYPE_TABLE[label] <= TYPE_TABLE[other]


# --- construction of a T-admissible map from a group -------------------------

# Generator labels per constructible type, and the always-required
# (map-symbol independent) relations over those labels.
TYPE_GENERATORS: dict[str, tuple[str, ...]] = {
    "1": ("tau", "lambda", "theta1"),
    "2": ("tau", "theta1", "theta2"),
    "2ex": ("tau", "sigma_f1"),
    "3": ("theta1", "theta2", "theta3", "theta4"),
    "4": ("sigma_x1", "theta2", "theta4"),
    "5": ("sigma_x1", "sigma_x2"),
}

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
                         bound: int = DEFAULT_ELEMENT_BOUND,
                         ) -> tuple[RootedMap, AdmissibilityReport]:
    """Build the unique T-admissible map from a group of type T.

    Flags are (group element, s) with s running over {1}, Z2 or Z2 x Z2
    depending on the type; flag numbering is element_index * |S| + offset.
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
    tables = dict(zip(g.labels, g.group()._right_tables(g.generators, bound)))

    def right(label: str, invert: bool = False) -> list[int]:
        table = tables[label]
        if not invert:
            return table
        inverse = [0] * len(table)
        for x, y in enumerate(table):
            inverse[y] = x
        return inverse

    order = len(tables[g.labels[0]])
    stay = range(order)  # the identity table

    if type_label == "1":
        s_size = 1
        t_move = [(right("tau"), 0)]
        l_move = [(right("lambda"), 0)]
        r_move = [(right("theta1"), 0)]
    elif type_label in ("2", "2ex"):
        s_size = 2
        t_move = [(right("tau"), 0), (right("tau"), 1)]
        l_move = [(stay, 1), (stay, 0)]
        if type_label == "2":
            r_move = [(right("theta1"), 0), (right("theta2"), 1)]
        else:
            r_move = [(right("sigma_f1", invert=True), 1), (right("sigma_f1"), 0)]
    else:
        s_size = 4  # offsets encode (j, k) as 2*j + k
        t_move = [(stay, 2), (stay, 3), (stay, 0), (stay, 1)]
        l_move = [(stay, 1), (stay, 0), (stay, 3), (stay, 2)]
        if type_label == "3":
            r_move = [(right("theta1"), 0), (right("theta2"), 1),
                      (right("theta3"), 2), (right("theta4"), 3)]
        elif type_label == "4":
            r_move = [(right("sigma_x1"), 2), (right("theta2"), 1),
                      (right("sigma_x1", invert=True), 0), (right("theta4"), 3)]
        else:  # type 5
            r_move = [(right("sigma_x1"), 2), (right("sigma_x2", invert=True), 3),
                      (right("sigma_x1", invert=True), 0), (right("sigma_x2"), 1)]

    n_flags = order * s_size

    def build(moves) -> Perm:
        images = [0] * n_flags
        for ei in range(order):
            for offset in range(s_size):
                table, new_offset = moves[offset]
                images[ei * s_size + offset] = table[ei] * s_size + new_offset
        return Perm(images)

    # the identity is element 0
    result = RootedMap(build(t_move), build(l_move), build(r_move), root=0)

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
