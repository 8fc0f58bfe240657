"""The public surface: every name a module lists in __all__ exists.

A name deleted from a module but left in its __all__ (or in a package
re-export) breaks `from ... import *`; these tests find it at once.
"""

import importlib

import pytest

MODULES = (
    "deltalin",
    "deltalin.ring",
    "deltalin.matrix",
    "deltalin.equations",
    "deltalin.galois",
    "deltalin.io",
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert module.__all__, name
    assert len(set(module.__all__)) == len(module.__all__), name
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == [], name


@pytest.mark.parametrize("name", MODULES)
def test_star_import(name):
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(importlib.import_module(name).__all__) <= set(namespace)
