"""Rooted combinatorial maps as flag sets under three involutions, with
quotients, parallel products, triality, degeneracy classification,
edge-transitive types, and parallel-product decomposability."""

from .perm import (BoundExceeded, LabeledGenerators, Perm, PermGroup,
                   congruent_labeled_groups, minimal_normal_subgroups,
                   normal_closure)
from .fpres import (EnumerationOverflow, Presentation, parse_presentation,
                    todd_coxeter, word_order)
from .mapcore import (CellStructure, GenusSymbol, RootedMap, automorphism_group,
                      automorphism_to, canonicalize, cells, cells_and_surface,
                      du, genus_symbol, is_reflexible, isomorphism, load_map,
                      pe, regular_map_from_group, reroot, save_map,
                      simple_reroots, triality_class)
from .quotient import (MapMorphism, automorphism_quotient, k_quotient,
                       monodromy_quotient, morphism_to_k_quotient,
                       project_automorphism)
from .product import (ProductWitness, parallel_product,
                      smallest_reflexible_cover, total_parallel_product,
                      totally_symmetric_cover)
from .decomp import (DecompositionVerdict, decomposability_edge_transitive,
                     decomposability_general, decomposability_reflexible,
                     decompose_with_certificate)
from .degen import (ContextVector, build_degenerate, build_slightly_degenerate,
                    classify_degeneracy, context_vector, lcm_vector_predict)
from .ettype import (MapSymbol, classify_type, construct_from_group,
                     is_edge_transitive, map_symbol,
                     named_automorphisms_present, partial_order,
                     type_transforms)

# cli is imported when first read: ``python -m flagmaps.cli`` imports it once
_CLI_NAMES = ("cli", "AnalysisReport", "analyze_map", "census_reflexible")
__all__ = [name for name in dir() if not name.startswith("_")] + [*_CLI_NAMES]
__version__ = "0.1.0"


def __getattr__(name: str):
    from importlib import import_module
    if name not in _CLI_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    cli = import_module(".cli", __name__)
    return cli if name == "cli" else getattr(cli, name)
