"""Context vectors, the degeneracy trichotomy, and the degenerate and
slightly-degenerate map families.

The seven mandatory context words are T, L, R, TL, RT, RL, TLR; their
orders classify a reflexible map as degenerate (some order 1),
slightly-degenerate (all >= 2 but one of the last three equals 2) or
non-degenerate.  The degenerate families DM1..DM12 and the families
eps_k (cycle in the sphere) and delta_k (cycle in the projective plane)
are built from the dihedral actions of their groups (``_dihedral_map``):
T, L and R are rows of moves on one or two sheets of a cycle of flags,
in the row format of the edge-transitive constructions
(``mapcore._sheeted_map``), and each map is checked against its
presentation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import lcm

from . import fpres
from .fpres import (EnumerationOverflow, Presentation, Word, format_word,
                    parse_word, word_power)
from .mapcore import (CONTEXT_WORDS, TRIALITY, RootedMap, _sheeted_map,
                      canonicalize, is_reflexible)


# FORCED_EQUALITIES[i] lists the pairs of context words (indices into
# CONTEXT_WORDS) whose orders agree in any group where word i is trivial.
# t, l, r are involutions, so each trivial word identifies two of them (or
# one with 1), and then each of the other six words equals another one, its
# inverse or a conjugate of it (marked ~ below).  For example T = 1 turns
# RT into R, TL into L and TLR into LR, the inverse of RL; RT = 1 sets
# r = t and turns RL into TL, TLR into a conjugate of L, and R into T.
FORCED_EQUALITIES: tuple[tuple[tuple[int, int], ...], ...] = (
    ((4, 2), (6, 5), (3, 1)),  # T = 1: RT = R, TLR ~ RL, TL = L
    ((5, 2), (3, 0), (6, 4)),  # L = 1: RL = R, TL = T, TLR ~ RT
    ((4, 0), (5, 1), (6, 3)),  # R = 1: RT = T, RL = L, TLR = TL
    ((0, 1), (5, 4), (6, 2)),  # TL = 1: T = L, RL = RT, TLR = R
    ((5, 3), (6, 1), (2, 0)),  # RT = 1: RL = TL, TLR ~ L, R = T
    ((4, 3), (6, 0), (2, 1)),  # RL = 1: RT ~ TL, TLR = T, R = L
    ((4, 1), (5, 0), (2, 3)),  # TLR = 1: RT = L, RL ~ T, R ~ TL
)


# T, L and TL are the context words at positions 0, 1 and 3, and RT, RL
# and TLR, whose orders are those of R times T, L and TL, at 4, 5 and 6.
# A composite whose T and L are the a-th and b-th of (T, L, TL) has the
# third, c = 3 - a - b, as its TL (see mapcore.TRIALITY): its vector
# reads each triple at a, b and c, and R's order at 2.
_BASES, _TURNS = (0, 1, 3), (4, 5, 6)


def triality_images(orders) -> dict[str, tuple[int, ...]]:
    """The context vectors of the six composites of ``mapcore.TRIALITY``,
    by name and in its order, read off one map's vector: the same group,
    generated by the composite's triple."""
    m = tuple(orders)
    return {name: tuple(m[i] for i in (
        _BASES[a], _BASES[b], 2, _BASES[3 - a - b],
        _TURNS[a], _TURNS[b], _TURNS[3 - a - b]))
        for name, a, b in TRIALITY}


def broken_forcing(orders) -> tuple[int, int, int] | None:
    """The first (i, a, b) with word i of order 1 but words a and b of
    different orders, or None.  In no group do the seven context words
    have orders that break a row, so such a candidate vector is
    insufficient whatever group it presents."""
    for i, pairs in enumerate(FORCED_EQUALITIES):
        if orders[i] == 1:
            for a, b in pairs:
                if orders[a] != orders[b]:
                    return i, a, b
    return None


@dataclass(frozen=True)
class ContextVector:
    """Orders (e1..e7) of T, L, R, TL, RT, RL, TLR in the monodromy group."""

    orders: tuple[int, int, int, int, int, int, int]

    def __post_init__(self):
        if len(self.orders) != 7 or any(e < 1 for e in self.orders):
            raise ValueError("need seven positive orders")
        if max(self.orders[:4]) > 2:
            raise ValueError("orders of T, L, R, TL are at most 2")
        broken = broken_forcing(self.orders)
        if broken is not None:
            i, a, b = map(format_word, map(CONTEXT_WORDS.__getitem__, broken))
            raise ValueError(
                f"{i} trivial forces {a} and {b} to share an order")

    def __iter__(self):
        return iter(self.orders)

    def __getitem__(self, i: int) -> int:
        return self.orders[i]

    def __str__(self) -> str:
        return "(" + ",".join(map(str, self.orders)) + ")"


def context_vector(m: RootedMap) -> ContextVector:
    """The orders are found once per map object and kept on it."""
    return ContextVector(m._context_orders)


def classify_degeneracy(m: RootedMap) -> str:
    """One of "degenerate", "slightly-degenerate", "non-degenerate"."""
    return classify_vector(context_vector(m))


def classify_vector(v: ContextVector) -> str:
    if min(v.orders) == 1:
        return "degenerate"
    if min(v.orders[4:]) == 2:
        return "slightly-degenerate"
    return "non-degenerate"


def lcm_vector_predict(v: ContextVector, w: ContextVector) -> ContextVector:
    """Componentwise lcm: the context vector of a parallel product of two
    reflexible maps represented in a common sufficient context."""
    return ContextVector(tuple(lcm(a, b) for a, b in zip(v, w)))


# Powers of the context words, reused across vector presentations: the
# census asks for each (word, exponent) pair many times.  The key is an
# index into CONTEXT_WORDS, never a caller's word, and the number of
# entries is bounded.
@lru_cache(maxsize=128, typed=True)
def _context_power(index: int, exp: int) -> Word:
    return word_power(CONTEXT_WORDS[index], exp)


def vector_presentation(orders) -> Presentation:
    """The presentation <t,l,r | W1^e1 = ... = W7^e7 = 1> for a vector."""
    relators = tuple(_context_power(index, e) for index, e
                     in zip(range(len(CONTEXT_WORDS)), orders))
    return Presentation(("t", "l", "r"), relators)


# Degenerate families: context vectors and group orders.  Families 6, 7, 8
# take a parameter k (orders 2k); the rest are parameterless.
DM_FIXED: dict[int, tuple[int, ...]] = {
    1: (1, 1, 1, 1, 1, 1, 1),
    2: (1, 1, 2, 1, 2, 2, 2),
    3: (2, 1, 1, 2, 2, 1, 2),
    4: (1, 2, 1, 2, 1, 2, 2),
    5: (2, 2, 1, 1, 2, 2, 1),
    9: (2, 2, 1, 2, 2, 2, 2),
    10: (2, 2, 2, 2, 1, 2, 2),
    11: (2, 2, 2, 2, 2, 1, 2),
    12: (2, 2, 2, 2, 2, 2, 1),
}

DM_PARAMETRIC = {6, 7, 8}


def dm_vector(index: int, k: int | None = None) -> ContextVector:
    if index in DM_FIXED:
        if k is not None:
            raise ValueError(f"DM{index} takes no parameter")
        return ContextVector(DM_FIXED[index])
    if index in DM_PARAMETRIC:
        if k is None or k < 1:
            raise ValueError(f"DM{index} needs a parameter k >= 1")
        if index == 6:
            return ContextVector((2, 1, 2, 2, k, 2, k))
        if index == 7:
            return ContextVector((1, 2, 2, 2, 2, k, k))
        return ContextVector((2, 2, 2, 1, k, k, 2))
    raise ValueError(f"no degenerate family DM{index}")


def dm_group_order(index: int, k: int | None = None) -> int:
    dm_vector(index, k)  # the same arguments, rejected alike
    if index == 1:
        return 1
    if index in (2, 3, 4, 5):
        return 2
    if index in DM_PARAMETRIC:
        return 2 * k
    return 4


# Each family's group is dihedral, or C2 x dihedral, and acts regularly on
# its flags (c, s): `sheets` copies (s = 0 or 1) of a cycle of `period`
# flags (c mod period).  T, L and R are rows of moves of (c, s)
# (``mapcore._sheeted_map``) over three tables of the cycle: a
# (2i <-> 2i+1), b (2i-1 <-> 2i, mod period) and h (the half turn
# c + period/2).  At each sheet a move keeps c or applies a table, and
# stays on the sheet or goes to the other.
_ACTIONS = {
    "DM1": (1, 1, (":0", ":0", ":0")),
    "DM2": (2, 1, (":0", ":0", "a:0")),
    "DM3": (2, 1, ("a:0", ":0", ":0")),
    "DM4": (2, 1, (":0", "a:0", ":0")),
    "DM5": (2, 1, ("a:0", "a:0", ":0")),
    "DM6": (2, 1, ("a:0", ":0", "b:0")),
    "DM7": (2, 1, (":0", "a:0", "b:0")),
    "DM8": (2, 1, ("a:0", "a:0", "b:0")),
    "DM9": (2, 2, ("a:0 a:1", ":1 :0", ":0 :1")),
    "DM10": (2, 2, ("a:0 a:1", ":1 :0", "a:0 a:1")),
    "DM11": (2, 2, ("a:0 a:1", ":1 :0", ":1 :0")),
    "DM12": (2, 2, ("a:0 a:1", ":1 :0", "a:1 a:0")),
    "epsilon": (2, 2, (":1 :0", "a:0 a:1", "b:0 b:1")),
    "delta": (4, 1, ("h:0", "a:0", "b:0")),
}


def _dihedral_map(family: str, k: int | None, presentation: Presentation,
                  order: int) -> RootedMap:
    """The map of a family's dihedral action (``_ACTIONS``), relabeled
    breadth first from its root (``mapcore.canonicalize``) and checked
    against the classification in O(flags), not trusted: it has the
    family's ``order`` of flags, its Mon is regular, and every relator of
    its ``presentation`` fixes the root.  In a regular group only the
    identity fixes a point, so the group satisfies the relators; it has
    the presented group's order, so it is that group.  More than
    ``fpres.DEFAULT_MAX_COSETS`` flags, the bound coset enumeration of
    the family had, is refused before any table is built."""
    name = family if k is None else f"{family}_{k}"
    bound = fpres.DEFAULT_MAX_COSETS
    if order > bound:
        raise EnumerationOverflow(
            f"{name} has {order:,} flags, past the flag bound {bound:,}")
    period, sheets, rows = _ACTIONS[family]
    period *= 1 if k is None else k
    if period * sheets != order:
        raise RuntimeError(
            f"{name} action has {period * sheets} flags, expected {order}")
    cycle = range(period)
    tables = {"a": [c ^ 1 for c in cycle],
              "b": [(c + 1 if c % 2 else c - 1) % period for c in cycle],
              "h": [(c + period // 2) % period for c in cycle]}
    m = canonicalize(_sheeted_map(tables, period, sheets, rows))
    if not is_reflexible(m):
        raise RuntimeError(f"{name} action is not regular")
    for word in presentation.relators:
        if m.act(0, "".join(letter * abs(exp) for letter, exp in word)) != 0:
            raise RuntimeError(
                f"{name} action breaks the relator {format_word(word)}")
    return m


def build_degenerate(index: int, k: int | None = None) -> RootedMap:
    """The reflexible map of the row DM<index> (parameter k for 6, 7, 8)."""
    presentation = vector_presentation(dm_vector(index, k))
    return _dihedral_map(f"DM{index}", k, presentation,
                         dm_group_order(index, k))


_BASE_RELATOR_TEXTS = ("t^2", "l^2", "r^2", "(t*l)^2", "(r*t)^2")


def slightly_degenerate_presentation(family: str, k: int) -> Presentation:
    if family not in ("epsilon", "delta"):
        raise ValueError("family must be 'epsilon' or 'delta'")
    if k < 2:
        raise ValueError("k must be at least 2 (k = 1 falls in the DM table)")
    relators = [parse_word(w) for w in _BASE_RELATOR_TEXTS]
    lr = parse_word("l*r")
    tlr = parse_word("t*l*r")
    t = parse_word("t")
    if family == "epsilon":
        if k % 2 == 0:
            extra = [word_power(lr, k), word_power(tlr, k)]
        else:
            extra = [word_power(lr, k), word_power(tlr, 2 * k)]
    else:
        if k % 2 == 0:
            extra = [t + word_power(lr, k), t + word_power(tlr, k)]
        else:
            extra = [word_power(lr, 2 * k), word_power(tlr, k)]
    return Presentation(("t", "l", "r"), tuple(relators + extra))


def build_slightly_degenerate(family: str, k: int) -> RootedMap:
    """eps_k (k-cycle in the sphere) or delta_k (k-cycle in the projective
    plane, embedded as a non-contractible curve); 4k flags.  eps_k's
    action has two sheets of 2k flags that T swaps, delta_k's one cycle
    of 4k flags that T turns half-way."""
    return _dihedral_map(family, k,
                         slightly_degenerate_presentation(family, k), 4 * k)
