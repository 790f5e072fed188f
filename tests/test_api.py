"""The public API: every exported name exists."""

import importlib

import pytest

import avgcase


@pytest.mark.parametrize("name", [*avgcase._SUBMODULES, "cli"])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"avgcase.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), f"avgcase.{name}.__all__ repeats a name"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"avgcase.{name}.__all__ names what it does not define: {missing}"


def test_package_exports_resolve():
    assert all(hasattr(avgcase, n) for n in avgcase.__all__)
