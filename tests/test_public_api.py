"""The public API is stated once: each module's __all__ lists the public
names that module defines, and ncspan re-exports exactly their union.

A name listed in two modules, or re-exported by a module that imports it
from another, or bound in ncspan to another object than its home module's,
fails here.
"""

import importlib
import types

import pytest

import ncspan

MODULES = ("linalg", "linearize", "poly", "span", "text")


def _lists():
    return {module: importlib.import_module(f"ncspan.{module}").__all__ for module in MODULES}


def test_module_lists_join_into_package_all():
    lists = _lists()
    joined = [name for names in lists.values() for name in names]
    assert len(joined) == len(set(joined)), "a name is listed by two modules, or twice by one"
    assert sorted(joined) == sorted(ncspan.__all__)


@pytest.mark.parametrize("module", MODULES)
def test_each_name_is_its_home_modules_object(module):
    home = importlib.import_module(f"ncspan.{module}")
    for name in home.__all__:
        obj = getattr(home, name)
        assert getattr(ncspan, name) is obj, name
        # Word, a type alias, names no module of its own; every other
        # name is a class or function defined where it is listed.
        if not isinstance(obj, types.GenericAlias):
            assert obj.__module__ == home.__name__, name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from ncspan import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(ncspan.__all__)
