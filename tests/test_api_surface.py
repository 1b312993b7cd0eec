"""Tests for the public API surface: __all__ must be real and importable."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.concurrency",
    "repro.context",
    "repro.db",
    "repro.dsl",
    "repro.eval",
    "repro.faults",
    "repro.hierarchy",
    "repro.io",
    "repro.obs",
    "repro.preferences",
    "repro.query",
    "repro.resilience",
    "repro.resolution",
    "repro.service",
    "repro.sharding",
    "repro.storage",
    "repro.tree",
    "repro.workloads",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_names_resolve(package):
    module = importlib.import_module(package)
    assert hasattr(module, "__all__"), f"{package} has no __all__"
    for name in module.__all__:
        assert hasattr(module, name), f"{package}.{name} is in __all__ but missing"


@pytest.mark.parametrize("package", PACKAGES)
def test_all_is_sorted_and_unique(package):
    module = importlib.import_module(package)
    names = list(module.__all__)
    assert len(set(names)) == len(names), f"duplicates in {package}.__all__"


def test_version_is_exposed():
    import repro

    assert isinstance(repro.__version__, str)
    assert repro.__version__.count(".") == 2


def test_every_public_symbol_has_a_docstring():
    import repro

    undocumented = [
        name
        for name in repro.__all__
        if not isinstance(getattr(repro, name), str)
        and not getattr(repro, name).__doc__
    ]
    assert undocumented == []


def test_exception_hierarchy_rooted_at_repro_error():
    from repro import exceptions

    for name in exceptions.__all__:
        cls = getattr(exceptions, name)
        assert issubclass(cls, exceptions.ReproError)
