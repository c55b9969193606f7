"""The package's lazy exports: `signedgraph.X` is always the binding of X in
the submodule that defines it, and submodules load by name."""

import sys
import types

import pytest

import signedgraph

MODULES = ("core", "balance", "minors", "frame", "matrices", "orientation",
           "coloring", "linegraph", "angle", "polynomial", "oracles", "cli")


def test_every_export_is_its_submodule_binding():
    for name in signedgraph.__all__:
        obj = getattr(signedgraph, name)
        assert obj is getattr(sys.modules[obj.__module__], name), name
        assert obj.__module__.rpartition(".")[0] == "signedgraph", name


def test_from_import_and_version():
    from signedgraph import SgError, balance_partition, spectrum

    assert SgError is signedgraph.core.SgError
    assert balance_partition is signedgraph.balance.balance_partition
    assert spectrum is signedgraph.matrices.spectrum
    assert signedgraph.__version__ == "0.1.0"


def test_export_follows_a_rebinding_in_its_submodule(monkeypatch):
    original = signedgraph.balance_partition
    sentinel = object()
    monkeypatch.setattr(signedgraph.balance, "balance_partition", sentinel)
    assert signedgraph.balance_partition is sentinel
    monkeypatch.undo()
    assert signedgraph.balance_partition is original
    assert "balance_partition" not in vars(signedgraph)


def test_submodules_by_name():
    for name in MODULES:
        mod = getattr(signedgraph, name)
        assert isinstance(mod, types.ModuleType), name
        assert mod.__name__ == f"signedgraph.{name}"


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        signedgraph.no_such_name
    with pytest.raises(ImportError):
        from signedgraph import no_such_name  # noqa: F401


def test_dir_lists_every_export_and_submodule():
    listed = set(dir(signedgraph))
    assert set(signedgraph.__all__) <= listed
    assert set(MODULES) <= listed
    assert "__version__" in listed
