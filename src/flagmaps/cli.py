"""Command-line surface: analysis reports, map transformations, and the
small-scale reflexible census.

Exit codes: 0 success, 1 invalid input, 2 resource bound exceeded,
3 decomposability verdict unknown.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from dataclasses import dataclass, replace
from operator import mod, ne
from pathlib import Path
from typing import Any, Iterator, Sequence

from . import degen, ettype
from .decomp import (NotEdgeTransitive, decomposability_edge_transitive,
                     decomposability_general)
from .degen import (ContextVector, broken_forcing, context_vector,
                    triality_images, vector_presentation)
from .fpres import (DEFAULT_MAX_COSETS, MAX_COSETS, EnumerationOverflow,
                    PresentationError, evaluate_word, parse_presentation,
                    todd_coxeter)
from .mapcore import (GENERATOR_NAMES, MapFormatError, MapInvariantError,
                      RootedMap, automorphism_group, cells_and_surface,
                      context_cycle_orders, du, genus_symbol, is_reflexible,
                      load_map, pe, regular_map_from_group, save_map,
                      triality_composites)
from .perm import (BoundExceeded, LabeledGenerators, PermGroup,
                   format_group_file, normal_closure, parse_group_file)
from .product import (NotReflexible, parallel_product,
                      smallest_reflexible_cover, totally_symmetric_cover)
from .quotient import (StabilizerNotContained, k_quotient, monodromy_quotient)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_BOUND = 2
EXIT_UNKNOWN = 3

DEFAULT_CENSUS_MAX_ORDER = 96
DEFAULT_CENSUS_CONTEXT_BOUND = 12
# The census enumerates each candidate within 8 * max_group_order + 256
# cosets, which must stay within the enumeration's own limit.
MAX_CENSUS_ORDER = (MAX_COSETS - 256) // 8
# The census tries 12 * context_bound**3 candidate vectors.  At the
# ceiling, 165,888 of them, the census at order 96 took 3.3 s on a 2-core
# Xeon with Python 3.11 (0.36 s at the default 12).
MAX_CENSUS_CONTEXT_BOUND = 24


@dataclass(frozen=True)
class AnalysisReport:
    """Aggregate facts about one rooted map."""

    n_flags: int
    n_edges: int
    monodromy_order: int
    automorphism_order: int
    reflexible: bool
    degeneracy: str
    context_vector: tuple[int, ...]
    orientability: str
    euler_characteristic: int
    signed_genus: int
    genus_symbol: tuple[int, ...]
    isomorphism_symbol: tuple[int, ...]
    hexagonal_number: int
    edge_transitive_type: str | None
    map_symbol: str | None
    decomposability: dict[str, Any]

    def to_json_dict(self) -> dict[str, Any]:
        out = dict(self.__dict__)
        out["context_vector"] = list(self.context_vector)
        out["genus_symbol"] = list(self.genus_symbol)
        out["isomorphism_symbol"] = list(self.isomorphism_symbol)
        return out

    def lines(self) -> list[str]:
        sym = self.map_symbol or "-"
        ettype_text = self.edge_transitive_type or "-"
        verdict = self.decomposability["decomposable"]
        return [
            f"flags                {self.n_flags}",
            f"edges                {self.n_edges}",
            f"|Mon|                {self.monodromy_order}",
            f"|Aut|                {self.automorphism_order}",
            f"reflexible           {self.reflexible}",
            f"degeneracy           {self.degeneracy}",
            f"context vector       {ContextVector(self.context_vector)}",
            f"orientability        {self.orientability}",
            f"euler characteristic {self.euler_characteristic}",
            f"signed genus         {self.signed_genus}",
            f"genus symbol         {list(self.genus_symbol)}",
            f"isomorphism symbol   {list(self.isomorphism_symbol)}",
            f"hexagonal number     {self.hexagonal_number}",
            f"edge-transitive type {ettype_text}",
            f"map symbol           {sym}",
            f"decomposable         {verdict}",
        ]


def analyze_map(m: RootedMap) -> AnalysisReport:
    """Every fact of the report, each computed once: the surface, Mon,
    Aut and the context vector are kept on m and shared with its
    re-rootings, and Mon serves the decomposability search, its own order
    and the reflexibility test.  Reflexibility is read two independent
    ways, which must agree: Mon's regularity (``is_reflexible``, and |Mon|
    = flags) and |Aut| = flags, with Aut from its own flag scan."""
    surface = cells_and_surface(m)
    vec = context_vector(m)
    gsym = genus_symbol(m)
    classified = ettype.classify_type(m)
    degeneracy = degen.classify_vector(vec)
    symbol = None
    if classified is not None and degeneracy != "degenerate":
        label, rooted = classified
        try:
            symbol = str(ettype.map_symbol(rooted, label))
        except ettype.SymbolConditionFailed:
            pass  # boundary-degenerate cells can miss the type's condition
    verdict = decomposability_general(m)
    report = AnalysisReport(
        n_flags=m.n_flags,
        n_edges=len(surface.cells.edges),
        monodromy_order=m.monodromy_group().order(),
        automorphism_order=automorphism_group(m).order(),
        reflexible=is_reflexible(m),
        degeneracy=degeneracy,
        context_vector=vec.orders,
        orientability=surface.orientability,
        euler_characteristic=surface.euler_characteristic,
        signed_genus=surface.signed_genus,
        genus_symbol=gsym.genera,
        isomorphism_symbol=gsym.iso_symbol,
        hexagonal_number=gsym.hexagonal_number,
        edge_transitive_type=classified[0] if classified else None,
        map_symbol=symbol,
        decomposability=verdict.to_json_dict(),
    )
    n = report.n_flags
    if not (report.reflexible == (report.automorphism_order == n)
            == (report.monodromy_order == n)):
        raise RuntimeError("inconsistent reflexibility in report")
    return report


# --- reflexible census --------------------------------------------------

@dataclass(frozen=True)
class CensusEntry:
    vector: tuple[int, ...]
    group_order: int
    map: RootedMap
    report: AnalysisReport
    # the canonical ``save_map`` text: the census's dedupe key and the
    # entry's ``.map`` file
    text: str


# Why a candidate vector was kept or dropped.  The census tests a vector
# first against the forced equalities (a break counts as
# insufficient_context) and then against the groups it found too large (a
# certificate counts as order_too_large), takes the outcome of an earlier
# candidate presenting the same group under triality, or else enumerates
# it, and tests the outcomes in this order.
CENSUS_OUTCOMES = ("overflow", "order_too_large", "insufficient_context",
                   "duplicate", "kept")


@dataclass(frozen=True)
class TooLargeCertificate:
    """Why ``vector`` counts as order_too_large unenumerated: the group of
    the earlier candidate ``enumerated``, of order ``enumerated_order``
    above the bound, has the context word orders ``image_orders`` under
    the triality composite ``image``, and each divides its entry of
    ``vector``.  So that group is a quotient of the one ``vector``
    presents, and re-running ``todd_coxeter`` on ``enumerated`` checks
    the certificate."""

    vector: tuple[int, ...]
    enumerated: tuple[int, ...]
    enumerated_order: int
    image: str
    image_orders: tuple[int, ...]


@dataclass(frozen=True)
class TrialityTransfer:
    """Why ``vector`` was settled unenumerated: it is the context vector
    ``enumerated`` reads under the triality composite ``image``, so it
    presents the same group as the earlier candidate ``enumerated``, whose
    enumeration fit the order bound.  ``vector`` then has that candidate's
    outcome, insufficient_context or the map ``image`` of its map;
    re-running ``todd_coxeter`` on either vector checks it."""

    vector: tuple[int, ...]
    enumerated: tuple[int, ...]
    image: str


@dataclass(frozen=True)
class CensusResult:
    max_group_order: int
    context_bound: int
    max_cosets: int
    entries: tuple[CensusEntry, ...]
    skipped: tuple[tuple[int, ...], ...]
    # candidate count per CENSUS_OUTCOMES key; the counts sum to the
    # number of candidate vectors
    outcome_counts: dict[str, int]
    # one per candidate counted order_too_large without enumeration
    certified: tuple[TooLargeCertificate, ...]
    # one per candidate settled by an earlier enumeration under triality
    transferred: tuple[TrialityTransfer, ...]

    def manifest(self) -> dict[str, Any]:
        """The manifest's keys and values.  The three record lists are
        iterators over the result, so that ``write_census`` writes them one
        record at a time; a record's fields are read in place (``vars``),
        with no copy."""
        return {
            "max_group_order": self.max_group_order,
            "context_bound": self.context_bound,
            "max_cosets_per_candidate": self.max_cosets,
            "entries": len(self.entries),
            "outcome_counts": dict(self.outcome_counts),
            "skipped_candidates": map(list, self.skipped),
            "too_large_certificates": map(vars, self.certified),
            "triality_transfers": map(vars, self.transferred),
            "note": ("candidate vectors whose enumeration overflowed were "
                     "skipped; a candidate in too_large_certificates is "
                     "order_too_large because the group enumerated for an "
                     "earlier candidate, generated by a triality image of "
                     "its triple, has word orders dividing the vector and "
                     "more elements than max_group_order; maps needing "
                     "contexts beyond the seven mandatory words are not "
                     "captured at these bounds"),
        }


def candidate_vectors(context_bound: int):
    """All candidate context vectors, in lexicographic order."""
    orders = range(1, context_bound + 1)
    for vec in itertools.product((1, 2), (1, 2), (1, 2), (1, 2),
                                 orders, orders, orders):
        if vec[3] == 2 or vec[0] == vec[1]:  # TL = 1 forces T = L
            yield vec


def census_reflexible(max_group_order: int = DEFAULT_CENSUS_MAX_ORDER,
                      context_bound: int = DEFAULT_CENSUS_CONTEXT_BOUND,
                      analyze: bool = True) -> CensusResult:
    """Enumerate reflexible maps with a sufficient seven-word context and
    group order within the bound.

    A candidate vector that breaks a row of ``degen.FORCED_EQUALITIES``
    (word i of order 1 while two words it makes equal, up to inversion and
    conjugation, have different orders) counts as insufficient_context
    without enumeration: no group has such word orders.  This precedes
    the overflow and order tests, so at a small ``max_group_order`` some
    candidates that enumeration would find too large count as
    insufficient instead (at (8, 6) twelve of them: 2,510 insufficient,
    where enumerating every candidate gives 2,498).  At the defaults no
    ruled-out candidate overflows or is too large.

    A candidate is then order_too_large without enumeration when a group
    enumerated earlier and found larger than ``max_group_order`` certifies
    it: that group's seven word orders, for its own triple or one of the
    five triality images of it (``degen.triality_images``), divide the
    vector entry by entry.  That group then satisfies every relator of the
    candidate's presentation, so it is a quotient of the candidate's
    group, which is infinite or at least as large; enumeration would have
    overflowed or found it too large, and it is never kept.  The
    certificates are kept in the result (``certified``).  At the defaults
    318 candidates are certified (276 of which would overflow).

    A candidate is also settled without enumeration when it is a triality
    image of an earlier candidate whose group fit the order bound: the
    composite's triple presents the same group, so the vector is
    insufficient exactly when the earlier one was, and otherwise its map
    is the composite of the earlier map (``mapcore.triality_composites``),
    which is kept.  Each such candidate gets a ``TrialityTransfer``
    (``transferred``).  At the defaults 414 candidates are settled this
    way, three of which would overflow, and 644 of the 20,736 candidates
    are enumerated.

    Every other candidate is coset-enumerated; it is kept when the
    enumeration fits the order bound, the actual word orders reproduce
    the vector (sufficiency, read off the cycles through coset 0 by
    ``context_cycle_orders`` up to the first that differs).
    Overflowing candidates are recorded, keeping the census's
    incompleteness auditable, and every candidate's outcome is counted.

    No two entries are the same map, so ``duplicate`` counts none: a kept
    map's context vector is its candidate's, and the candidates differ.

    Raises ValueError when ``max_group_order`` is not from 1 to
    ``MAX_CENSUS_ORDER`` or ``context_bound`` is not from 1 to
    ``MAX_CENSUS_CONTEXT_BOUND``.
    """
    if not 1 <= max_group_order <= MAX_CENSUS_ORDER:
        raise ValueError(
            f"max_group_order must be from 1 to {MAX_CENSUS_ORDER:,}, not "
            f"{max_group_order}: each candidate is enumerated within "
            f"8 * max_group_order + 256 cosets, and max_cosets is at most "
            f"{MAX_COSETS:,}")
    if context_bound < 1:
        raise ValueError(f"context_bound must be at least 1, not "
                         f"{context_bound}")
    if context_bound > MAX_CENSUS_CONTEXT_BOUND:
        raise ValueError(
            f"context_bound must be at most {MAX_CENSUS_CONTEXT_BOUND}, not "
            f"{context_bound}: the census tries 12 * context_bound**3 "
            f"candidate vectors")
    max_cosets = 8 * max_group_order + 256
    entries = []
    skipped = []
    counts = dict.fromkeys(CENSUS_OUTCOMES, 0)
    # for each group found too large, its word orders under each triality
    # composite, keyed by the order of RT and then by the orders, with the
    # first candidate that presented such a group, its order and the
    # composite
    too_large: dict[int, dict[tuple[int, ...],
                              tuple[tuple[int, ...], int, str]]] = {}
    certified = []
    # for each later triality image of a candidate whose group fit the
    # bound: that candidate, the composite's index and name in
    # mapcore.TRIALITY order, and the candidate's map, None when insufficient
    answered: dict[tuple[int, ...],
                   tuple[tuple[int, ...], int, str, RootedMap | None]] = {}
    transferred = []
    for vec in candidate_vectors(context_bound):
        if broken_forcing(vec) is not None:
            counts["insufficient_context"] += 1
            continue
        certificate = next(
            (TooLargeCertificate(vec, *source, orders)
             for rt, known in too_large.items() if vec[4] % rt == 0
             for orders, source in known.items()
             if not any(map(mod, vec, orders))), None)
        if certificate is not None:
            certified.append(certificate)
            counts["order_too_large"] += 1
            continue
        known = answered.pop(vec, None)
        if known is not None:
            source, index, name, m = known
            transferred.append(TrialityTransfer(vec, source, name))
            if m is None:
                counts["insufficient_context"] += 1
                continue
            m = triality_composites(m)[index]
        else:
            try:
                lg, order = todd_coxeter(vector_presentation(vec),
                                         max_cosets=max_cosets)
            except EnumerationOverflow:
                skipped.append(vec)
                counts["overflow"] += 1
                continue
            if order > max_group_order:
                counts["order_too_large"] += 1
                images = triality_images(tuple(context_cycle_orders(lg)))
                for name, orders in images.items():
                    too_large.setdefault(orders[4], {}).setdefault(
                        orders, (vec, order, name))
                continue
            sufficient = not any(map(ne, context_cycle_orders(lg), vec))
            m = regular_map_from_group(lg) if sufficient else None
            for index, (name, image) in enumerate(
                    triality_images(vec).items()):
                if image > vec:
                    answered.setdefault(image, (vec, index, name, m))
            if m is None:
                counts["insufficient_context"] += 1
                continue
        counts["kept"] += 1
        report = analyze_map(m) if analyze else None
        entries.append(CensusEntry(vec, m.n_flags, m, report, save_map(m)))
    return CensusResult(max_group_order, context_bound, max_cosets,
                        tuple(entries), tuple(skipped), counts,
                        tuple(certified), tuple(transferred))


def write_census(result: CensusResult, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = []
    for i, entry in enumerate(result.entries):
        stem = f"refl_{i:03d}_" + "_".join(map(str, entry.vector))
        (out_dir / f"{stem}.map").write_text(entry.text)
        record = {
            "file": f"{stem}.map",
            "vector": list(entry.vector),
            "group_order": entry.group_order,
        }
        if entry.report is not None:
            record["report"] = entry.report.to_json_dict()
        summary.append(record)
    # both streamed: json.dumps would hold each whole text at once
    with (out_dir / "census.json").open("w") as out:
        json.dump(summary, out, indent=2)
        out.write("\n")
    with (out_dir / "manifest.json").open("w") as out:
        _dump_by_lines(result.manifest(), out)


def _dump_by_lines(payload: dict[str, Any], out) -> None:
    """Write a JSON object with one key on each line, and an iterator value
    as a list with one item on each line."""
    out.write("{")
    sep = "\n"
    for key, value in payload.items():
        out.write(f"{sep}  {json.dumps(key)}: ")
        sep = ",\n"
        if isinstance(value, Iterator):
            item_sep = "[\n"
            for item in value:
                out.write(f"{item_sep}    {json.dumps(item)}")
                item_sep = ",\n"
            out.write("[]" if item_sep == "[\n" else "\n  ]")
        else:
            out.write(json.dumps(value))
    out.write("\n}\n")


# --- command implementations ----------------------------------------------

def _read_map(path: str) -> RootedMap:
    return load_map(Path(path).read_text())


def _write_map(m: RootedMap, path: str) -> None:
    Path(path).write_text(save_map(m))


def _words_to_perms(m: RootedMap, words: str):
    """The permutations of comma-separated letter strings over t, l, r."""
    lg = LabeledGenerators(GENERATOR_NAMES, m.generators())
    out = []
    for chunk in words.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if any(ch not in "tlr" for ch in chunk):
            raise ValueError(f"subgroup words use letters t, l, r only: {chunk!r}")
        out.append(evaluate_word(lg, tuple((ch, 1) for ch in chunk)))
    return out


def cmd_analyze(args) -> int:
    report = analyze_map(_read_map(args.map))
    if args.json:
        print(json.dumps(report.to_json_dict(), indent=2))
    else:
        print("\n".join(report.lines()))
    return EXIT_OK


def cmd_duality(args, operation) -> int:
    m = _read_map(args.map)
    _write_map(operation(m), args.output)
    return EXIT_OK


def cmd_product(args) -> int:
    m = _read_map(args.left)
    n = _read_map(args.right)
    _write_map(parallel_product(m, n).product, args.output)
    return EXIT_OK


def cmd_quotient(args) -> int:
    m = _read_map(args.map)
    mon = m.monodromy_group()
    seed = _words_to_perms(m, args.normal_closure)
    H = normal_closure(mon, seed)
    result, _ = monodromy_quotient(m, H)
    _write_map(result, args.output)
    return EXIT_OK


def cmd_kquotient(args) -> int:
    m = _read_map(args.map)
    K = PermGroup(m.n_flags, _words_to_perms(m, args.subgroup_words))
    result, _ = k_quotient(m, K)
    _write_map(result, args.output)
    return EXIT_OK


def cmd_decompose(args) -> int:
    """Decide on Mon.  When that is unknown and the map is
    edge-transitive, the Aut route runs too, and a positive verdict from
    it is printed: its checked pairing certificate proves the map the
    parallel product of its two proper quotients.  Any other Aut outcome
    keeps the unknown verdict, with the outcome added to its reason."""
    m = _read_map(args.map)
    verdict = decomposability_general(m)
    if verdict.decomposable is None and ettype.is_edge_transitive(m):
        on_aut = decomposability_edge_transitive(m)
        if on_aut.decomposable:
            verdict = on_aut
        else:
            outcome = (f"unknown ({on_aut.reason})"
                       if on_aut.decomposable is None
                       else "no two minimal normal subgroups of Aut, "
                       "with no certificate")
            verdict = replace(verdict, reason=f"{verdict.reason}; "
                              f"automorphism route: {outcome}")
    payload = verdict.to_json_dict()
    if verdict.decomposable and args.emit_factors:
        out = Path(args.emit_factors)
        out.mkdir(parents=True, exist_ok=True)
        files = []
        for i, factor in enumerate(verdict.factors, start=1):
            path = out / f"factor{i}.map"
            path.write_text(save_map(factor))
            files.append(str(path))
        payload["factor_files"] = files
    print(json.dumps(payload, indent=2))
    if verdict.decomposable is None:
        return EXIT_UNKNOWN
    return EXIT_OK


def cmd_cover(args) -> int:
    m = _read_map(args.map)
    if args.totally_symmetric:
        result = totally_symmetric_cover(m)
    else:
        result = smallest_reflexible_cover(m)
    _write_map(result, args.output)
    return EXIT_OK


def cmd_build(args) -> int:
    preset = args.preset.lower()
    index = preset[2:]
    if preset[:2] == "dm" and index.isascii() and index.isdecimal():
        m = degen.build_degenerate(int(index), args.k)
    elif preset in ("epsilon", "delta"):
        if args.k is None:
            raise ValueError(f"{preset} needs --k")
        m = degen.build_slightly_degenerate(preset, args.k)
    else:
        raise ValueError(f"unknown preset {args.preset!r} "
                         "(dm1..dm12, epsilon, delta)")
    _write_map(m, args.output)
    return EXIT_OK


def cmd_construct(args) -> int:
    lg = parse_group_file(Path(args.group).read_text())
    result, report = ettype.construct_from_group(args.type, lg)
    _write_map(result, args.output)
    payload = {
        "requested_type": report.requested,
        "detected_type": report.detected,
        "exact": report.exact,
        "extra_automorphisms": sorted(report.extra_automorphisms),
    }
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def cmd_todd_coxeter(args) -> int:
    presentation = parse_presentation(Path(args.presentation).read_text())
    lg, order = todd_coxeter(presentation, max_cosets=args.max_cosets)
    if args.out_group:
        Path(args.out_group).write_text(format_group_file(lg))
    if args.json:
        print(json.dumps({"order": order, "generators": list(lg.labels)}))
    else:
        print(f"order {order}")
    return EXIT_OK


def cmd_enum_reflexible(args) -> int:
    result = census_reflexible(args.max_order, args.context_bound)
    write_census(result, Path(args.out))
    print(f"{len(result.entries)} maps written to {args.out} "
          f"({len(result.skipped)} candidates skipped, "
          f"{len(result.certified)} certified too large, "
          f"{len(result.transferred)} settled by triality)")
    # skipped candidates are logged in the manifest; signal the resource
    # bound through the exit code so coverage gaps are not silent
    return EXIT_BOUND if result.skipped else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flagmaps",
        description="Rooted combinatorial maps: analysis, quotients, "
                    "parallel products, and decomposability.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="report the invariants of a map")
    p.add_argument("map")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_analyze)

    for name, op in (("du", du), ("pe", pe)):
        p = sub.add_parser(name, help=f"write the {name} dual")
        p.add_argument("map")
        p.add_argument("-o", "--output", required=True)
        p.set_defaults(func=lambda a, op=op: cmd_duality(a, op))

    p = sub.add_parser("product", help="parallel product of two maps")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("quotient", help="monodromy quotient by a normal closure")
    p.add_argument("map")
    p.add_argument("--normal-closure", required=True,
                   metavar="WORDS", help="comma-separated words over t,l,r")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("kquotient", help="quotient by the subgroup the words generate")
    p.add_argument("map")
    p.add_argument("--subgroup-words", required=True, metavar="WORDS",
                   help="comma-separated words over t,l,r")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_kquotient)

    p = sub.add_parser("decompose", help="parallel-product decomposability verdict")
    p.add_argument("map")
    p.add_argument("--emit-factors", metavar="DIR")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("cover", help="reflexible or totally symmetric cover")
    p.add_argument("map")
    p.add_argument("--totally-symmetric", action="store_true")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser("build", help="build a preset map (dm1..dm12, epsilon, delta)")
    p.add_argument("preset")
    p.add_argument("--k", type=int)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("construct", help="build a map from a group of a given type")
    p.add_argument("--type", required=True,
                   choices=sorted(ettype.TYPE_GENERATORS))
    p.add_argument("--group", required=True, help=".grp file")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("todd-coxeter", help="enumerate a presentation")
    p.add_argument("presentation", help=".pres file")
    p.add_argument("--max-cosets", type=int, default=DEFAULT_MAX_COSETS)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out-group", metavar="GRP")
    p.set_defaults(func=cmd_todd_coxeter)

    p = sub.add_parser("enum-reflexible", help="run the reflexible census")
    p.add_argument("--max-order", type=int, default=DEFAULT_CENSUS_MAX_ORDER)
    p.add_argument("--context-bound", type=int,
                   default=DEFAULT_CENSUS_CONTEXT_BOUND)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_enum_reflexible)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MapFormatError, MapInvariantError, PresentationError,
            StabilizerNotContained, NotReflexible, NotEdgeTransitive,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (BoundExceeded, EnumerationOverflow) as exc:
        print(f"resource bound exceeded: {exc}", file=sys.stderr)
        return EXIT_BOUND


if __name__ == "__main__":
    sys.exit(main())
