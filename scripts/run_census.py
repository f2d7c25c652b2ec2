#!/usr/bin/env python3
"""Run the reflexible census and summarize what it finds.

Usage: python scripts/run_census.py [MAX_ORDER] [CONTEXT_BOUND] [OUT_DIR]

Enumerates all candidate seven-word context vectors within the bounds,
keeps those that present a group of admissible order whose word orders
reproduce the vector, and tabulates degeneracy classes, hexagonal numbers
and decomposability over the results.
"""

import sys
from collections import Counter
from pathlib import Path

from flagmaps import census_reflexible
from flagmaps.cli import write_census


USAGE = ("usage: python scripts/run_census.py "
         "[MAX_ORDER] [CONTEXT_BOUND] [OUT_DIR]")


def main() -> int:
    args = sys.argv[1:]
    if len(args) > 3 or not all(a.isdecimal() for a in args[:2]):
        print(USAGE, file=sys.stderr)
        return 2
    max_order = int(args[0]) if args else 96
    context_bound = int(args[1]) if len(args) > 1 else 12
    result = census_reflexible(max_order, context_bound)

    by_class = Counter()
    hexagonal = Counter()
    indecomposable = []
    for entry in result.entries:
        report = entry.report
        by_class[report.degeneracy] += 1
        hexagonal[report.hexagonal_number] += 1
        if report.decomposability["decomposable"] is False:
            indecomposable.append(entry)

    print(f"bounds: |Mon| <= {max_order}, context words <= {context_bound}")
    print(f"kept {len(result.entries)} maps, "
          f"skipped {len(result.skipped)} overflowing candidates, "
          f"certified {len(result.certified)} too large unenumerated, "
          f"settled {len(result.transferred)} by triality")
    print("outcome counts: " + ", ".join(
        f"{outcome} {count}" for outcome, count in result.outcome_counts.items()))
    print("\ndegeneracy classes:")
    for name, count in sorted(by_class.items()):
        print(f"  {name:20s} {count}")
    print("\nhexagonal numbers:")
    for value, count in sorted(hexagonal.items()):
        print(f"  {value}: {count}")
    print(f"\nparallel-product indecomposable: {len(indecomposable)}")
    for entry in indecomposable:
        report = entry.report
        print(f"  vector {entry.vector}  |Mon| {entry.group_order:3d}  "
              f"{report.degeneracy:20s} genus symbol {list(report.genus_symbol)}")

    if len(args) > 2:
        out = Path(args[2])
        write_census(result, out)
        print(f"\nwrote maps and reports to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
