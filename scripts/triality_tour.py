#!/usr/bin/env python3
"""Genus symbols across the triality classes of a few landmark maps, and
the self-dual self-Petrie covers that sit above them."""

from flagmaps import (build_slightly_degenerate, genus_symbol, du, pe,
                      isomorphism, todd_coxeter, regular_map_from_group,
                      totally_symmetric_cover)
from flagmaps.degen import vector_presentation


def map_from_vector(vec):
    lg, _ = todd_coxeter(vector_presentation(vec))
    return regular_map_from_group(lg)


SHOWCASE = [
    ("tetrahedron", map_from_vector((2, 2, 2, 2, 3, 3, 4))),
    ("K4,4 on the torus", map_from_vector((2, 2, 2, 2, 4, 4, 4))),
    ("4-cycle in the sphere", build_slightly_degenerate("epsilon", 4)),
    ("4-cycle in the projective plane", build_slightly_degenerate("delta", 4)),
]


def main() -> None:
    for name, m in SHOWCASE:
        sym = genus_symbol(m)
        print(f"{name}: {m.n_flags} flags")
        print(f"  genus symbol     {list(sym.genera)}")
        print(f"  iso symbol       {list(sym.iso_symbol)}")
        print(f"  hexagonal number {sym.hexagonal_number}")
        cover = totally_symmetric_cover(m)
        self_dual = isomorphism(du(cover), cover, mode="generalized") is not None
        self_petrie = isomorphism(pe(cover), cover, mode="generalized") is not None
        print(f"  totally symmetric cover: {cover.n_flags} flags "
              f"(self-dual={self_dual}, self-Petrie={self_petrie})\n")


if __name__ == "__main__":
    main()
