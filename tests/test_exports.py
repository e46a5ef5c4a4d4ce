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
