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
