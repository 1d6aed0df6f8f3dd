"""Every module's ``__all__`` names objects that exist, so a star import
of any layer succeeds and no public name is left dangling."""

import importlib
import pkgutil

import pytest

import obkit

MODULES = sorted(m.name for m in pkgutil.iter_modules(obkit.__path__))
LAYERS = ("restricted_json", "scenario", "words", "groups", "intlinalg", "groupring",
          "gmodules", "wh1", "chi", "obstruction", "cli")


def test_every_layer_declares_its_public_names():
    assert set(LAYERS) <= set(MODULES)
    for layer in LAYERS:
        names = importlib.import_module(f"obkit.{layer}").__all__
        assert names and len(set(names)) == len(names), layer


@pytest.mark.parametrize("name", MODULES)
def test_public_names_resolve(name):
    module = importlib.import_module(f"obkit.{name}")
    public = getattr(module, "__all__", ())
    assert [p for p in public if not hasattr(module, p)] == []
    namespace = {}
    exec(f"from obkit.{name} import *", namespace)
    assert set(public) <= set(namespace)


# The public surface, layer by layer, in declaration order: a change to
# any layer's __all__ shows up as a diff of this table.
PUBLIC_NAMES = {
    "restricted_json": ["Node", "JsonError", "parse_json", "decode_json"],
    "scenario": ["Diagnostic", "ScenarioError", "Scenario", "parse_scenario", "load_scenario"],
    "words": ["WordError", "parse_word", "parse_wh", "parse_generator_sequence"],
    "groups": ["FactorSpec", "GroupSpec", "GroupElement", "multiply", "inverse",
               "conjugacy_canonical", "conjugacy_canonical_with_conjugator", "are_conjugate",
               "enumerate_elements", "element_sort_key"],
    "intlinalg": ["IntMatrix", "smith_normal_form", "solve", "QuotientPresentation"],
    "groupring": ["RingMatrix", "ElementaryGen", "DiagonalGen", "InvertiblePair",
                  "build_invertible"],
    "gmodules": ["GModule", "ModuleMap"],
    "wh1": ["WhElement", "induced_map", "detect_nontrivial", "WhOracle",
            "oracle_wh_presentation", "wh_equal"],
    "chi": ["FiniteQuotient", "Cocycle", "verify_cocycle", "chi_eval", "retraction_kills_chi"],
    "obstruction": ["LensClass", "make_lens", "involution", "stable_obstruction",
                    "clam_double", "stable_sum", "retraction_invariant"],
    "cli": ["Report", "run_command", "main"],
}


def test_public_names_match_the_snapshot():
    assert sorted(PUBLIC_NAMES) == sorted(LAYERS)
    for layer, names in PUBLIC_NAMES.items():
        assert list(importlib.import_module(f"obkit.{layer}").__all__) == names, layer
