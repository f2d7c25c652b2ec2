"""Finitely presented groups and a bounded Todd-Coxeter coset enumerator.

Presentations are read from a small text grammar ("gens ..." / "rel ..."
lines).  Enumeration over the trivial subgroup yields the regular
permutation representation with generators labeled as declared, which is
how monodromy groups are realized from relation data.

A word is a tuple of (generator name, nonzero exponent) pairs, read from
text by ``parse_word``.  ``evaluate_word`` (and ``word_order`` on top of
it) is the one place a word becomes a ``Perm``, as for the relations of
edge-transitive types and command-line words.  Readers of a word's action
on points walk its letters on the tables: ``todd_coxeter`` the relators,
``mapcore.context_cycle_orders`` the context words, ``degen`` relators
and ``ettype.named_automorphisms_present`` the named words.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import is_not, itemgetter, length_hint

from .perm import LabeledGenerators, Perm

DEFAULT_MAX_COSETS = 100_000
# Largest max_cosets accepted: the table grows linearly with it, and on
# Python 3.11 a million cosets of a free group on two generators peak at
# about 130 MB.
MAX_COSETS = 1_000_000
# Longest word, counted in generator symbols, that is ever expanded into a
# list: syllable lists in the parser, symbol lists for coset enumeration.
MAX_WORD_LENGTH = 100_000
# Deepest parenthesis nesting the word parser follows.
MAX_NESTING_DEPTH = 200

# A word is a tuple of (generator name, nonzero exponent) pairs.
Word = tuple[tuple[str, int], ...]


class PresentationError(ValueError):
    """Syntax or declaration error in presentation text."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        loc = ""
        if line is not None:
            loc = f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(message + loc)
        self.line = line
        self.column = column


class EnumerationOverflow(RuntimeError):
    """Live cosets exceeded the configured maximum (group infinite or
    large), or a word to expand is longer than MAX_WORD_LENGTH symbols."""


def _normalize(pairs: list[tuple[str, int]]) -> Word:
    out: list[tuple[str, int]] = []
    for name, exp in pairs:
        if exp == 0:
            continue
        if out and out[-1][0] == name:
            merged = out[-1][1] + exp
            out.pop()
            if merged:
                out.append((name, merged))
        else:
            out.append((name, exp))
    return tuple(out)


def word_inverse(word: Word) -> Word:
    return _normalize([(name, -exp) for name, exp in reversed(word)])


def word_length(word: Word) -> int:
    """The number of generator symbols in the expanded word."""
    return sum(map(abs, map(itemgetter(1), word)))


def word_power(word: Word, exp: int) -> Word:
    if exp < 0:
        return word_power(word_inverse(word), -exp)
    if len(word) == 1:
        (name, base), = word
        return _normalize([(name, base * exp)])
    if word_length(word) * exp > MAX_WORD_LENGTH:
        raise EnumerationOverflow(
            f"power of a word longer than {MAX_WORD_LENGTH} symbols")
    return _normalize(list(word) * exp)


@dataclass(frozen=True)
class Presentation:
    """Generator names plus relator words."""

    generators: tuple[str, ...]
    relators: tuple[Word, ...]

    def __post_init__(self):
        declared = set(self.generators)
        if len(declared) != len(self.generators):
            raise PresentationError("duplicate generator name")
        for word in self.relators:
            for name, exp in word:
                if name not in declared:
                    raise PresentationError(f"undeclared generator {name!r}")
                if exp == 0:
                    raise PresentationError("zero exponent in relator")


_NAME_RE = re.compile(r"[a-z][a-z0-9_]*")
_INT_RE = re.compile(r"-?\d+")


class _WordParser:
    """Recursive-descent parser for: word ::= term ("*" term)*;
    term ::= name | "(" word ")" | term "^" int."""

    def __init__(self, text: str, line: int, pos: int = 0):
        self.text = text
        self.pos = pos
        self.line = line
        self.depth = 0

    def error(self, message: str) -> PresentationError:
        return PresentationError(message, self.line, self.pos + 1)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse_word(self) -> list[tuple[str, int]]:
        pairs = self.parse_term()
        while self.peek() == "*":
            self.pos += 1
            pairs += self.parse_term()
        return pairs

    def parse_term(self) -> list[tuple[str, int]]:
        ch = self.peek()
        if ch == "(":
            self.depth += 1
            if self.depth > MAX_NESTING_DEPTH:
                raise self.error(
                    f"parentheses nested deeper than {MAX_NESTING_DEPTH}")
            self.pos += 1
            inner = self.parse_word()
            if self.peek() != ")":
                raise self.error("expected ')'")
            self.pos += 1
            self.depth -= 1
            pairs = inner
        else:
            m = _NAME_RE.match(self.text, self.pos)
            if not m:
                raise self.error("expected generator name or '('")
            self.pos = m.end()
            pairs = [(m.group(), 1)]
        while self.peek() == "^":
            self.pos += 1
            self.skip_ws()
            m = _INT_RE.match(self.text, self.pos)
            if not m:
                raise self.error("expected integer exponent")
            self.pos = m.end()
            try:
                exp = int(m.group())
            except ValueError:  # more digits than int() accepts
                raise self.error("exponent too large") from None
            if exp == 0:
                raise self.error("zero exponent")
            pairs = list(word_power(_normalize(pairs), exp))
        return pairs

    def parse(self) -> Word:
        """The rest of the text as one word, normalized."""
        pairs = self.parse_word()
        self.skip_ws()
        if self.pos < len(self.text):
            raise self.error(f"trailing input {self.text[self.pos:]!r}")
        return _normalize(pairs)


def parse_word(text: str) -> Word:
    return _WordParser(text, 1).parse()


def parse_presentation(text: str) -> Presentation:
    """Parse ".pres" text: line ::= "gens" name+ | "rel" word | comment, the
    directive being its first word; error columns count from its start."""
    gens: list[str] = []
    relators: list[Word] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        words = line.split()
        if not words:
            continue
        directive, *names = words
        if directive == "gens":
            if not names:
                raise PresentationError("empty gens line", lineno)
            for name in names:
                if not _NAME_RE.fullmatch(name):
                    raise PresentationError(f"bad generator name {name!r}", lineno)
            gens.extend(names)
        elif directive == "rel":
            start = line.index(directive) + len(directive)
            relators.append(_WordParser(line, lineno, start).parse())
        else:
            raise PresentationError(f"unknown directive {directive!r}", lineno)
    return Presentation(tuple(gens), tuple(relators))


def format_word(word: Word) -> str:
    if not word:
        return "()^1"  # unreachable for normalized nonempty relators
    return "*".join(name if exp == 1 else f"{name}^{exp}" for name, exp in word)


def format_presentation(p: Presentation) -> str:
    lines = ["gens " + " ".join(p.generators)]
    # an empty relator constrains nothing, and has no text
    lines += ["rel " + format_word(w) for w in p.relators if w]
    return "\n".join(lines) + "\n"


def _flatten(symbols: dict[str, int], word: Word) -> list[int]:
    """Flatten a word to symbol indices: 2*g for generator g, 2*g+1 for its
    inverse, where ``symbols`` maps each generator name to 2*g."""
    if word_length(word) > MAX_WORD_LENGTH:
        raise EnumerationOverflow(
            f"relator longer than {MAX_WORD_LENGTH} symbols")
    out: list[int] = []
    for name, exp in word:
        if exp == 1:
            out.append(symbols[name])
        elif exp > 0:
            out += [symbols[name]] * exp
        else:
            out += [symbols[name] + 1] * -exp
    return out


def _rep(parent: list[int], a: int) -> int:
    """The root of coset a, compressing the path to it."""
    r = parent[a]
    if r == a:
        return a
    while parent[r] != r:
        r = parent[r]
    while parent[a] != r:
        parent[a], a = r, parent[a]
    return r


def _coincidence(parent: list[int], columns: list[tuple[list[int], list[int]]],
                 a: int, b: int) -> int:
    """Identify cosets a and b and every coincidence that follows; returns
    the number of cosets killed.

    ``columns`` pairs each distinct column with its inverse's.  The queue
    is processed last in, first out, each dead coset's row in symbol order,
    and the larger root of each pair is the one that dies.
    """
    a, b = _rep(parent, a), _rep(parent, b)
    if a == b:
        return 0
    if a > b:
        a, b = b, a
    parent[b] = a
    queue = [b]
    killed = 0
    while queue:
        e = queue.pop()
        killed += 1
        # the root of e; only a merge that kills it changes it below
        e1 = parent[e]
        if parent[e1] != e1:
            e1 = _rep(parent, e)
        for col, inv in columns:
            f = col[e]
            if f < 0:
                continue
            inv[f] = -1
            f1 = parent[f]
            if parent[f1] != f1:
                f1 = _rep(parent, f)
            u = col[e1]
            if u >= 0:
                x = f1
                y = parent[u]
                if parent[y] != y:
                    y = _rep(parent, u)
            else:
                v = inv[f1]
                if v < 0:
                    col[e1] = f1
                    inv[f1] = e1
                    continue
                x = e1
                y = parent[v]
                if parent[y] != y:
                    y = _rep(parent, v)
            if x != y:
                if x > y:
                    x, y = y, x
                parent[y] = x
                queue.append(y)
                if y == e1:
                    e1 = x
    return killed


def todd_coxeter(p: Presentation,
                 max_cosets: int = DEFAULT_MAX_COSETS) -> tuple[LabeledGenerators, int]:
    """Enumerate the cosets of the trivial subgroup.

    HLT strategy: relator tables are filled by scanning every relator at
    every live coset, with a union-find coincidence queue; after scanning,
    any undefined entries of the row are defined so the table completes.
    Returns the regular permutation representation (generators labeled as
    in the presentation) and the group order.

    A generator is an involution when some relator flattens to exactly
    x x, with x the generator or its inverse (a*a^-1 does not count).  An
    involution has one column, its own inverse: its inverse letters read
    that column, its x x relators are not scanned, and the row fill and
    coincidences visit it once.  Every other generator has a column for
    itself and one for its inverse.

    The order of definitions, scans and coincidences is part of the
    contract, not only the result: ``EnumerationOverflow`` is raised when a
    definition would take the live cosets past ``max_cosets`` (or the
    allocated ones past 4 * max_cosets + 512), and HLT can pass that bound
    on a finite group whose order is far below it.  Which census candidates
    overflow, and so the census's ``manifest.json``, depends on these exact
    steps; another strategy (Felsch, lookahead) or another column rule
    would change it.
    """
    if not 1 <= max_cosets <= MAX_COSETS:
        raise ValueError(f"max_cosets must be from 1 to {MAX_COSETS:,}")
    ngens = len(p.generators)
    if ngens == 0:
        raise PresentationError("presentation declares no generators")
    nsym = 2 * ngens
    symbols = {name: 2 * g for g, name in enumerate(p.generators)}
    relators = [_flatten(symbols, w) for w in p.relators if w]
    # the involutions, whose x x relators are not scanned
    involutions = {w[0] >> 1 for w in relators if len(w) == 2 and w[0] == w[1]}
    relators = [w for w in relators if len(w) != 2 or w[0] != w[1]]
    # The coset table is stored by columns: cols[x][a] is the image of coset
    # a under symbol x, or -1.  Symbol x pairs with its inverse x ^ 1; an
    # involution's two symbols share one column, its own inverse.  A coset
    # is live exactly when it is its own root in ``parent``.
    # Columns grow by doubling up to the hard allocation cap, which keeps the
    # table bounded even before coincidences.
    alloc_cap = 4 * max_cosets + 512
    size = min(32, alloc_cap)
    cols = [[-1] * size for _ in range(nsym)]
    for g in involutions:
        cols[2 * g + 1] = cols[2 * g]
    parent = list(range(size))
    inverses = [cols[x ^ 1] for x in range(nsym)]
    # one (column, inverse column) pair per distinct column, in symbol order
    columns = [(cols[x], inverses[x]) for x in range(nsym)
               if not (x & 1 and x >> 1 in involutions)]
    # each relator as the columns its letters read forward and backward,
    # and whether no letter of it stands next to its inverse (an involution
    # letter next to itself included)
    scans = []
    for w in relators:
        fwd = list(map(cols.__getitem__, w))
        bwd = list(map(inverses.__getitem__, w))
        scans.append((fwd, bwd, len(w) - 1, all(map(is_not, fwd[1:], bwd))))
    top = 1  # cosets allocated
    dead = 0

    def make_room(new: int, dead: int) -> int:
        """Check the bounds for defining coset ``new``, growing the columns
        if needed; returns the first coset number to check again.  Only
        coincidences raise the bound on ``new`` (through ``dead``), so a
        room computed before some of them stays safe, merely early."""
        nonlocal size
        if new - dead >= max_cosets or new >= alloc_cap:
            raise EnumerationOverflow(
                f"live cosets exceed max_cosets={max_cosets}")
        if new == size:
            extra = min(size, alloc_cap - size)
            for col, _ in columns:
                col += [-1] * extra
            parent.extend(range(size, size + extra))
            size += extra
        return min(max_cosets + dead, alloc_cap, size)

    room = min(max_cosets, size)
    alpha = 0
    while alpha < top:
        if parent[alpha] != alpha:
            alpha += 1
            continue
        for fwd, bwd, last, plain in scans:
            # scan the relator at alpha from the front ...
            f = alpha
            letters = iter(fwd)
            for col in letters:
                nxt = col[f]
                if nxt < 0:
                    break
                f = nxt
            else:
                if f != alpha:
                    dead += _coincidence(parent, columns, f, alpha)
                    if parent[alpha] != alpha:
                        break
                continue
            # ... then from the back, defining cosets until the gap closes;
            # i is the letter that stopped the scan, found from those left
            i = last - length_hint(letters)
            b = alpha
            j = last
            while True:
                while j >= i:
                    nxt = bwd[j][b]
                    if nxt < 0:
                        break
                    b = nxt
                    j -= 1
                if j <= i:
                    if j == i:
                        fwd[i][f] = b
                        bwd[i][b] = f
                        break
                    dead += _coincidence(parent, columns, f, b)
                    break
                if plain and (f != b or fwd[i] is not bwd[j]):
                    # A new coset's row holds only the entry back to the
                    # coset before it, so the forward re-read below fails
                    # unless letter i is the inverse of letter i - 1.  The
                    # backward one fails unless the first definition wrote
                    # its entry: b = f and letter i is the inverse of letter
                    # j.  Neither can happen here, so the steps below come
                    # to defining cosets for letters i..j-1 and deducing
                    # letter j; take them in one loop.
                    while i < j:
                        if top >= room:
                            room = make_room(top, dead)
                        fwd[i][f] = top
                        bwd[i][top] = f
                        f = top
                        top += 1
                        i += 1
                    fwd[j][f] = b
                    bwd[j][b] = f
                    break
                if top >= room:
                    room = make_room(top, dead)
                fwd[i][f] = top
                bwd[i][top] = f
                f = top
                top += 1
                i += 1
                while i <= j:
                    nxt = fwd[i][f]
                    if nxt < 0:
                        break
                    f = nxt
                    i += 1
                if i > j:
                    if f != b:
                        dead += _coincidence(parent, columns, f, b)
                    break
            if parent[alpha] != alpha:
                break
        else:
            # definitions never merge, so alpha stays live through its row
            for col, inv in columns:
                if col[alpha] < 0:
                    if top >= room:
                        room = make_room(top, dead)
                    col[alpha] = top
                    inv[top] = alpha
                    top += 1
        alpha += 1

    live = [a for a in range(top) if parent[a] == a]
    index = {a: i for i, a in enumerate(live)}
    perms = tuple(
        Perm([index[c if parent[c] == c else _rep(parent, c)]
              for c in map(col.__getitem__, live)])
        for col in cols[::2])
    lg = LabeledGenerators(p.generators, perms)
    return lg, len(live)


def word_order(lg: LabeledGenerators, word: Word | str) -> int:
    """Exact multiplicative order of a word evaluated in the group."""
    return evaluate_word(lg, word).order()


def evaluate_word(lg: LabeledGenerators, word: Word | str) -> Perm:
    """Evaluate a word (left to right) in the labeled generators; text is
    parsed first."""
    if isinstance(word, str):
        word = parse_word(word)
    table = lg.as_dict()
    out = None
    for name, exp in word:
        if name not in table:
            raise ValueError(f"undeclared label {name!r}")
        g = table[name] if exp == 1 else table[name] ** exp
        out = g if out is None else out * g
    return Perm.identity(lg.degree) if out is None else out
