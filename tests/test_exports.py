"""Every name that sector_radius or one of its modules lists in ``__all__`` is an attribute of it.

A stale entry left behind by a deletion would break ``from ... import *``
and nothing else, so it is checked here.
"""

import importlib
import pkgutil

import pytest

import sector_radius

MODULES = ["sector_radius"] + [f"sector_radius.{info.name}" for info in pkgutil.iter_modules(sector_radius.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [entry for entry in exported if not hasattr(module, entry)] == []
    assert len(set(exported)) == len(exported)


def test_the_modules_with_exports_are_found():
    # pkgutil sees every module, so a moved package cannot leave the check empty.
    found = {name for name in MODULES if hasattr(importlib.import_module(name), "__all__")}
    assert {"sector_radius", "sector_radius.generator", "sector_radius.radius", "sector_radius.harness"} <= found
