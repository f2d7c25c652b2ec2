"""The element bound is one module constant, ``perm.DEFAULT_ELEMENT_BOUND``,
read by ``perm`` when a listing or a closure runs and by
``product.parallel_product`` when it walks: lowering it reaches every entry
point, and no public function takes a bound of its own.  The flag bound of
a preset, ``fpres.DEFAULT_MAX_COSETS``, is read when the preset is built."""

import inspect
from pathlib import Path

import pytest

import flagmaps
from flagmaps import (BoundExceeded, LabeledGenerators, build_degenerate,
                      build_slightly_degenerate, congruent_labeled_groups,
                      construct_from_group, decomp, decompose_with_certificate,
                      decomposability_edge_transitive,
                      decomposability_general, ettype, fpres,
                      minimal_normal_subgroups, normal_closure,
                      parallel_product, perm, product,
                      smallest_reflexible_cover)
from flagmaps.fpres import EnumerationOverflow, parse_word
from flagmaps.perm import conjugacy_classes

from .test_perm import dihedral

LOWERED = 20


def epsilon_map():
    """The epsilon map of k = 10: its Mon is regular, of order 40."""
    return build_slightly_degenerate("epsilon", 10)


def type5_over_d15():
    """D15, of order 30, labeled for the type-5 construction."""
    return LabeledGenerators(ettype.TYPE_GENERATORS["5"],
                             dihedral(15).generators)


RAISING = {
    "elements": lambda: epsilon_map().monodromy_group().elements(),
    "conjugacy_classes": lambda: conjugacy_classes(
        epsilon_map().monodromy_group()),
    "minimal_normal_subgroups": lambda: minimal_normal_subgroups(
        epsilon_map().monodromy_group()),
    "normal_closure": lambda: normal_closure(
        epsilon_map().monodromy_group(), epsilon_map().generators()),
    "congruent_labeled_groups": lambda: congruent_labeled_groups(
        *[LabeledGenerators(("t", "l", "r"), epsilon_map().generators())] * 2),
    "construct_from_group": lambda: construct_from_group(
        "5", type5_over_d15()),
    "smallest_reflexible_cover": lambda: smallest_reflexible_cover(
        epsilon_map()),
    "decompose_with_certificate": lambda: decompose_with_certificate(
        epsilon_map()),
    # DM6(10) || DM7(10) has 200 flags
    "parallel_product": lambda: parallel_product(build_degenerate(6, 10),
                                                 build_degenerate(7, 10)),
}
# each raises "... element bound {bound}" but the product, which counts flags
MESSAGES = {"parallel_product": "parallel product exceeds {bound} flags$"}

UNKNOWN = {
    "decomposability_general": decomposability_general,
    "decomposability_edge_transitive": decomposability_edge_transitive,
}


@pytest.mark.parametrize("name", [*RAISING, *UNKNOWN])
def test_lowering_the_one_bound_reaches_every_entry_point(name, monkeypatch):
    # each call answers at the default bound; every group here has more
    # than LOWERED elements
    if name in RAISING:
        RAISING[name]()
    else:
        assert UNKNOWN[name](epsilon_map()).decomposable is not None
    monkeypatch.setattr(perm, "DEFAULT_ELEMENT_BOUND", LOWERED)
    if name in RAISING:
        message = MESSAGES.get(name, " element bound {bound}$")
        with pytest.raises(BoundExceeded, match=message.format(bound=LOWERED)):
            RAISING[name]()
        return
    verdict = UNKNOWN[name](epsilon_map())
    assert verdict.decomposable is None
    assert verdict.reason == f"group exceeds element bound {LOWERED}"


@pytest.mark.parametrize("build", [
    lambda: epsilon_map(), lambda: build_degenerate(6, 20)],
    ids=["epsilon_10", "DM6_20"])
def test_lowering_the_coset_bound_reaches_the_presets(build, monkeypatch):
    # both presets have 40 flags
    assert build().n_flags == 40
    monkeypatch.setattr(fpres, "DEFAULT_MAX_COSETS", 10)
    with pytest.raises(EnumerationOverflow,
                       match="has 40 flags, past the flag bound 10$"):
        build()


def public_callables():
    """(where, callable) for every callable of ``flagmaps.__all__``, and for
    every public function and method that ``perm``, ``decomp``, ``ettype``
    and ``product`` define, with the private ones that used to take a
    bound."""
    found = [(name, getattr(flagmaps, name)) for name in flagmaps.__all__]
    for module in (perm, decomp, ettype, product):
        for name, obj in vars(module).items():
            if not name.startswith("_") and getattr(
                    obj, "__module__", None) == module.__name__:
                found.append((f"{module.__name__}.{name}", obj))
    found = [(where, obj) for where, obj in found if callable(obj)]
    for where, cls in list(found):
        if inspect.isclass(cls):
            found += [(f"{where}.{name}", method)
                      for name, method in vars(cls).items()
                      if not name.startswith("_") and callable(method)]
    found += [("PermGroup._listed", perm.PermGroup._listed),
              ("PermGroup._right_tables", perm.PermGroup._right_tables),
              ("perm._minimal_normals", perm._minimal_normals),
              ("decomp._minimal_normal_search", decomp._minimal_normal_search)]
    return found


def parameters(obj):
    try:
        return inspect.signature(obj).parameters
    except (TypeError, ValueError):  # a builtin without a signature
        return {}


def test_no_function_takes_a_bound():
    taking = [where for where, obj in public_callables()
              if "bound" in parameters(obj)]
    assert taking == []
    assert list(parameters(parse_word)) == ["text"]


def test_only_perm_and_product_read_the_element_bound():
    src = Path(flagmaps.__file__).resolve().parent
    readers = sorted(path.name for path in src.glob("*.py")
                     if "DEFAULT_ELEMENT_BOUND" in path.read_text())
    assert readers == ["perm.py", "product.py"]
