"""Command-line surface: analysis reports, map transformations, and the
small-scale reflexible census.

Exit codes: 0 success, 1 invalid input, 2 resource bound exceeded,
3 decomposability verdict unknown.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

from . import degen, ettype
from .decomp import (NotEdgeTransitive, _decomposability_general,
                     decomposability_general)
from .degen import (ContextVector, broken_forcing, context_vector,
                    vector_presentation)
from .fpres import (EnumerationOverflow, PresentationError, evaluate_word,
                    parse_presentation, todd_coxeter)
from .mapcore import (CONTEXT_WORDS, GENERATOR_NAMES, MapFormatError,
                      MapInvariantError, RootedMap, automorphism_group,
                      cells_and_surface, du, genus_symbol, is_reflexible,
                      load_map, pe, regular_map_from_group, save_map)
from .perm import (DEFAULT_ELEMENT_BOUND, BoundExceeded, LabeledGenerators,
                   PermGroup, format_group_file, normal_closure,
                   parse_group_file)
from .product import (NotReflexible, parallel_product,
                      smallest_reflexible_cover, totally_symmetric_cover)
from .quotient import (StabilizerNotContained, k_quotient, monodromy_quotient)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_BOUND = 2
EXIT_UNKNOWN = 3

DEFAULT_CENSUS_MAX_ORDER = 96
DEFAULT_CENSUS_CONTEXT_BOUND = 12


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
    """Every fact of the report, each computed once: the surface, the Aut
    generators and the context vector are kept on m and shared with its
    re-rootings, and the one Mon built here serves the decomposability
    search and its own order.  Reflexibility is read three independent
    ways, which must agree: the root's Aut-orbit, |Aut| and |Mon|."""
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
    mon = m.monodromy_group()
    verdict = _decomposability_general(m, mon, DEFAULT_ELEMENT_BOUND)
    report = AnalysisReport(
        n_flags=m.n_flags,
        n_edges=len(surface.cells.edges),
        monodromy_order=mon.order(),
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
# insufficient_context), then enumerates it and tests the outcomes in this
# order.
CENSUS_OUTCOMES = ("overflow", "order_too_large", "insufficient_context",
                   "duplicate", "kept")


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

    def manifest(self) -> dict[str, Any]:
        return {
            "max_group_order": self.max_group_order,
            "context_bound": self.context_bound,
            "max_cosets_per_candidate": self.max_cosets,
            "entries": len(self.entries),
            "outcome_counts": dict(self.outcome_counts),
            "skipped_candidates": [list(v) for v in self.skipped],
            "note": ("candidate vectors whose enumeration overflowed were "
                     "skipped; maps needing contexts beyond the seven "
                     "mandatory words are not captured at these bounds"),
        }


def candidate_vectors(context_bound: int):
    """All candidate context vectors, in lexicographic order."""
    for e1 in (1, 2):
        for e2 in (1, 2):
            for e3 in (1, 2):
                for e4 in (1, 2):
                    if e4 == 1 and e1 != e2:
                        continue
                    for e5 in range(1, context_bound + 1):
                        for e6 in range(1, context_bound + 1):
                            for e7 in range(1, context_bound + 1):
                                yield (e1, e2, e3, e4, e5, e6, e7)


def _has_context_orders(lg, vec) -> bool:
    """Whether the seven context words have the orders ``vec`` in ``lg``.

    ``lg`` must act regularly, as a coset enumeration over the trivial
    subgroup does: then a word's order is the length of its cycle through
    point 0, followed here pass by pass up to the expected order.  Stops
    at the first word whose order differs.
    """
    images = dict(zip(lg.labels, (g.images for g in lg.generators)))
    for word, e in zip(CONTEXT_WORDS, vec):
        letters = [images[name] for name, exp in word for _ in range(exp)]
        point = 0
        for passes in range(1, e + 1):
            for letter in letters:
                point = letter[point]
            if point == 0:
                break
        if point != 0 or passes != e:
            return False
    return True


def census_reflexible(max_group_order: int = DEFAULT_CENSUS_MAX_ORDER,
                      context_bound: int = DEFAULT_CENSUS_CONTEXT_BOUND,
                      max_cosets: int | None = None,
                      analyze: bool = True) -> CensusResult:
    """Enumerate reflexible maps with a sufficient seven-word context and
    group order within the bound.

    A candidate vector that breaks a row of ``degen.FORCED_EQUALITIES``
    (word i of order 1 while two words it makes equal, up to inversion and
    conjugation, have different orders) counts as insufficient_context
    without enumeration: no group has such word orders.  This precedes
    the overflow and order tests, so at a small ``max_group_order`` some
    candidates that enumeration would find too large count as
    insufficient instead (at (8, 6): 43 too large and 2,510 insufficient,
    where enumerating everything gives 55 and 2,498).  At the defaults no
    ruled-out candidate overflows or is too large, and 1,376 of the
    20,736 candidates are enumerated.

    Every other candidate is coset-enumerated; it is kept when the
    enumeration fits the order bound, the actual word orders reproduce
    the vector (sufficiency) and no earlier entry is the same map.
    Overflowing candidates are recorded, keeping the census's
    incompleteness auditable, and every candidate's outcome is counted.

    Duplicates are found by canonical form: the enumerated groups act
    regularly, so two of them are congruent as groups labeled t, l, r
    exactly when their regular maps are rooted-isomorphic, that is when
    their breadth-first canonical texts (``save_map``) are equal.
    """
    if max_cosets is None:
        max_cosets = 8 * max_group_order + 256
    entries = []
    skipped = []
    seen_keys: set[str] = set()
    counts = dict.fromkeys(CENSUS_OUTCOMES, 0)
    for vec in candidate_vectors(context_bound):
        if broken_forcing(vec) is not None:
            counts["insufficient_context"] += 1
            continue
        try:
            lg, order = todd_coxeter(vector_presentation(vec),
                                     max_cosets=max_cosets)
        except EnumerationOverflow:
            skipped.append(vec)
            counts["overflow"] += 1
            continue
        if order > max_group_order:
            counts["order_too_large"] += 1
            continue
        if not _has_context_orders(lg, vec):
            counts["insufficient_context"] += 1
            continue
        m = regular_map_from_group(lg)
        key = save_map(m)
        if key in seen_keys:
            counts["duplicate"] += 1
            continue
        seen_keys.add(key)
        counts["kept"] += 1
        report = analyze_map(m) if analyze else None
        entries.append(CensusEntry(vec, order, m, report, key))
    return CensusResult(max_group_order, context_bound, max_cosets,
                        tuple(entries), tuple(skipped), counts)


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
    (out_dir / "census.json").write_text(json.dumps(summary, indent=2) + "\n")
    (out_dir / "manifest.json").write_text(
        json.dumps(result.manifest(), indent=2) + "\n")


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
    m = _read_map(args.map)
    verdict = decomposability_general(m)
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
    if preset.startswith("dm"):
        index = int(preset[2:])
        k = args.k
        m = (degen.build_degenerate(index, k) if index in degen.DM_PARAMETRIC
             else degen.build_degenerate(index))
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
          f"({len(result.skipped)} candidates skipped)")
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
    group = p.add_mutually_exclusive_group()
    group.add_argument("--reflexible", action="store_true", default=True)
    group.add_argument("--totally-symmetric", action="store_true")
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
    p.add_argument("--max-cosets", type=int, default=100_000)
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
            ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (BoundExceeded, EnumerationOverflow) as exc:
        print(f"resource bound exceeded: {exc}", file=sys.stderr)
        return EXIT_BOUND


if __name__ == "__main__":
    sys.exit(main())
