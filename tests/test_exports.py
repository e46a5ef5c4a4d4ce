"""Public names: every name a module exports resolves and is listed once."""

import importlib
import pkgutil

import pytest

import almostdom

MODULES = ["almostdom"] + [
    f"almostdom.{info.name}" for info in pkgutil.iter_modules(almostdom.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_once(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), "a name is listed twice"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []


def test_package_lists_every_library_name_once():
    # the command line is its own entry point, not part of the package's names
    library = [importlib.import_module(name) for name in MODULES[1:] if name != "almostdom.cli"]
    listed = ["errors"] + [attr for module in library for attr in getattr(module, "__all__", [])]
    assert almostdom.__all__ == listed
    assert len(set(listed)) == len(listed)
