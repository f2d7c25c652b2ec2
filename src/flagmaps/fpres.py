"""Finitely presented groups and a bounded Todd-Coxeter coset enumerator.

Presentations are read from a small text grammar ("gens ..." / "rel ..."
lines).  Enumeration over the trivial subgroup yields the regular
permutation representation with generators labeled as declared, which is
how monodromy groups are realized from relation data.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .perm import LabeledGenerators, Perm

DEFAULT_MAX_COSETS = 100_000
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
    """Live cosets exceeded the configured maximum (group infinite or large)."""


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
    return sum(abs(exp) for _, exp in word)


def word_power(word: Word, exp: int) -> Word:
    if exp < 0:
        return word_power(word_inverse(word), -exp)
    if len(word) == 1:
        (name, base), = word
        return _normalize([(name, base * exp)])
    if word_length(word) * exp > MAX_WORD_LENGTH:
        raise PresentationError(
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

    def __init__(self, text: str, line: int):
        self.text = text
        self.pos = 0
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

    def expect_end(self) -> None:
        self.skip_ws()
        if self.pos < len(self.text):
            raise self.error(f"trailing input {self.text[self.pos:]!r}")


def parse_word(text: str, line: int = 1) -> Word:
    parser = _WordParser(text, line)
    pairs = parser.parse_word()
    parser.expect_end()
    return _normalize(pairs)


def parse_presentation(text: str) -> Presentation:
    """Parse ".pres" text: line ::= "gens" name+ | "rel" word | comment."""
    gens: list[str] = []
    relators: list[Word] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("gens"):
            names = line[4:].split()
            if not names:
                raise PresentationError("empty gens line", lineno)
            for name in names:
                if not _NAME_RE.fullmatch(name):
                    raise PresentationError(f"bad generator name {name!r}", lineno)
            gens.extend(names)
        elif line.startswith("rel"):
            relators.append(parse_word(line[3:], lineno))
        else:
            raise PresentationError(f"unknown directive {line.split()[0]!r}", lineno)
    declared = set(gens)
    for word in relators:
        for name, _ in word:
            if name not in declared:
                raise PresentationError(f"undeclared generator {name!r}")
    return Presentation(tuple(gens), tuple(relators))


def format_word(word: Word) -> str:
    if not word:
        return "()^1"  # unreachable for normalized nonempty relators
    return "*".join(name if exp == 1 else f"{name}^{exp}" for name, exp in word)


def format_presentation(p: Presentation) -> str:
    lines = ["gens " + " ".join(p.generators)]
    lines += ["rel " + format_word(w) for w in p.relators]
    return "\n".join(lines) + "\n"


def _flatten(p: Presentation, word: Word) -> list[int]:
    """Flatten a word to symbol indices: 2*g for generator g, 2*g+1 for its
    inverse."""
    if word_length(word) > MAX_WORD_LENGTH:
        raise EnumerationOverflow(
            f"relator longer than {MAX_WORD_LENGTH} symbols")
    index = {name: i for i, name in enumerate(p.generators)}
    out: list[int] = []
    for name, exp in word:
        sym = 2 * index[name] + (1 if exp < 0 else 0)
        out.extend([sym] * abs(exp))
    return out


def todd_coxeter(p: Presentation,
                 max_cosets: int = DEFAULT_MAX_COSETS) -> tuple[LabeledGenerators, int]:
    """Enumerate the cosets of the trivial subgroup.

    HLT strategy: relator tables are filled by scanning every relator at
    every live coset, with a union-find coincidence queue; after scanning,
    any undefined entries of the row are defined so the table completes.
    Returns the regular permutation representation (generators labeled as
    in the presentation) and the group order.
    """
    if max_cosets < 1:
        raise ValueError("max_cosets must be at least 1")
    ngens = len(p.generators)
    if ngens == 0:
        raise PresentationError("presentation declares no generators")
    nsym = 2 * ngens
    relators = [_flatten(p, w) for w in p.relators if w]
    # involution-style inverse bookkeeping is uniform: symbol s pairs with s^1
    table: list[list[int]] = [[-1] * nsym]
    parent = [0]
    dead = 0
    # hard allocation cap keeps the table bounded even before coincidences
    alloc_cap = 4 * max_cosets + 512

    def rep(a: int) -> int:
        r = a
        while parent[r] != r:
            r = parent[r]
        while parent[a] != r:
            parent[a], a = r, parent[a]
        return r

    def merge(a: int, b: int, queue: list[int]) -> None:
        a, b = rep(a), rep(b)
        if a != b:
            if a > b:
                a, b = b, a
            parent[b] = a
            queue.append(b)

    def coincidence(a: int, b: int) -> None:
        nonlocal dead
        queue: list[int] = []
        merge(a, b, queue)
        while queue:
            e = queue.pop()
            dead += 1
            row = table[e]
            for x in range(nsym):
                f = row[x]
                if f == -1:
                    continue
                table[f][x ^ 1] = -1
                e1, f1 = rep(e), rep(f)
                u = table[e1][x]
                if u != -1:
                    merge(f1, rep(u), queue)
                else:
                    v = table[f1][x ^ 1]
                    if v != -1:
                        merge(e1, rep(v), queue)
                    else:
                        table[e1][x] = f1
                        table[f1][x ^ 1] = e1

    def define(a: int, x: int) -> int:
        b = len(table)
        if b - dead >= max_cosets or b >= alloc_cap:
            raise EnumerationOverflow(
                f"live cosets exceed max_cosets={max_cosets}")
        table.append([-1] * nsym)
        parent.append(b)
        table[a][x] = b
        table[b][x ^ 1] = a
        return b

    def scan_and_fill(a: int, w: list[int]) -> None:
        f = b = a
        i, j = 0, len(w) - 1
        while True:
            while i <= j:
                nxt = table[f][w[i]]
                if nxt == -1:
                    break
                f = nxt
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i:
                nxt = table[b][w[j] ^ 1]
                if nxt == -1:
                    break
                b = nxt
                j -= 1
            if j < i:
                coincidence(f, b)
                return
            if j == i:
                table[f][w[i]] = b
                table[b][w[i] ^ 1] = f
                return
            f = define(f, w[i])
            i += 1

    alpha = 0
    while alpha < len(table):
        if rep(alpha) != alpha:
            alpha += 1
            continue
        for w in relators:
            scan_and_fill(alpha, w)
            if rep(alpha) != alpha:
                break
        else:
            for x in range(nsym):
                if rep(alpha) != alpha:
                    break
                if table[alpha][x] == -1:
                    define(alpha, x)
        alpha += 1

    live = [a for a in range(len(table)) if rep(a) == a]
    index = {a: i for i, a in enumerate(live)}
    perms = tuple(
        Perm(index[rep(table[a][2 * g])] for a in live) for g in range(ngens))
    lg = LabeledGenerators(p.generators, perms)
    return lg, len(live)


def word_order(lg: LabeledGenerators, word: Word | str) -> int:
    """Exact multiplicative order of a word evaluated in the group."""
    return evaluate_word(lg, word).order()


def evaluate_word(lg: LabeledGenerators, word: Word | str) -> Perm:
    """Evaluate a word (left to right) in the labeled generators."""
    if isinstance(word, str):
        word = parse_word(word)
    out = Perm.identity(lg.degree)
    table = lg.as_dict()
    for name, exp in word:
        if name not in table:
            raise ValueError(f"undeclared label {name!r}")
        g = table[name]
        out = out * (g if exp == 1 else g ** exp)
    return out
