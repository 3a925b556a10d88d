"""The package's public names, each loaded from its module on first access."""

import importlib

import pytest

import kpvcr


def test_every_name_is_its_defining_modules_object():
    for name in kpvcr.__all__:
        home = importlib.import_module(f"kpvcr.{kpvcr._HOME[name]}")
        obj = getattr(kpvcr, name)
        assert obj is getattr(home, name), name
        # the table names the defining module, not one that re-exports
        assert getattr(obj, "__module__", home.__name__) == home.__name__, name


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from kpvcr import *", namespace)
    assert set(kpvcr.__all__) <= namespace.keys()


def test_dir_lists_every_name():
    assert set(kpvcr.__all__) <= set(dir(kpvcr))
    assert "__version__" in dir(kpvcr)


def test_unknown_name_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        kpvcr.no_such_name
    with pytest.raises(ImportError):
        exec("from kpvcr import no_such_name", {})


def test_submodules_import_by_name():
    namespace: dict = {}
    exec("from kpvcr import oracle, planner", namespace)
    assert namespace["oracle"] is importlib.import_module("kpvcr.oracle")
    assert namespace["planner"].validate_sequence is kpvcr.validate_sequence
    # `kpvcr.rigidity` after a bare `import kpvcr` loads the module too
    assert kpvcr.__getattr__("rigidity") is importlib.import_module("kpvcr.rigidity")
