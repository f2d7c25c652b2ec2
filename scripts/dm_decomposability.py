#!/usr/bin/env python3
"""Scan the parameterized degenerate families for decomposability.

Usage: python scripts/dm_decomposability.py [MAX_K]

For each k, DM6(k) (and its duals DM7, DM8) should decompose exactly when
k = 2 or k is not a prime power; the witnesses are the minimal normal
subgroups of the dihedral monodromy group, one per prime divisor of k.
Each certificate is checked by an independent route: the parallel product
of the two factors is built and its rooted isomorphism onto DM6(k) must
equal the certificate.  A wrong verdict or certificate is a MISMATCH, and
the exit code is then 1.
"""

import sys

from flagmaps import (build_degenerate, decomposability_reflexible,
                      isomorphism, minimal_normal_subgroups, parallel_product)


def is_prime_power(k: int) -> bool:
    if k < 2:
        return False
    p = next(p for p in range(2, k + 1) if k % p == 0)
    while k % p == 0:
        k //= p
    return k == 1


USAGE = "usage: python scripts/dm_decomposability.py [MAX_K]"


def main() -> int:
    args = sys.argv[1:]
    if len(args) > 1 or not all(a.isdecimal() for a in args):
        print(USAGE, file=sys.stderr)
        return 2
    max_k = int(args[0]) if args else 40
    mismatches = 0
    print(" k  |Mon|  minimal normals  decomposable  factors")
    for k in range(2, max_k + 1):
        m = build_degenerate(6, k)
        minimals = minimal_normal_subgroups(m.monodromy_group())
        verdict = decomposability_reflexible(m)
        expected = (k == 2) or not is_prime_power(k)
        consistent = verdict.decomposable == expected
        factors = ""
        if verdict.factors:
            factors = " x ".join(f"{f.n_flags}-flag" for f in verdict.factors)
            iso = isomorphism(parallel_product(*verdict.factors).product, m,
                              mode="rooted")
            if iso is None or tuple(iso) != verdict.certificate:
                consistent = False
                factors += " (certificate disagrees with the product)"
        flag = "" if consistent else "  <-- MISMATCH"
        print(f"{k:3d}  {2 * k:4d}  {len(minimals):15d}  "
              f"{str(verdict.decomposable):12s}  {factors}{flag}")
        mismatches += not consistent
    print("\nall consistent with the prime-power criterion"
          if not mismatches else f"\n{mismatches} MISMATCHES")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
