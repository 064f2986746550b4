"""The public names stay importable and the torus constructors keep their calls."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import symwave
from symwave.capacity import TorusSpec
from symwave.waveforms import CircleManifold, TorusManifold

MODULES = sorted(m.name for m in pkgutil.iter_modules(symwave.__path__, "symwave."))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def test_package_exports_resolve():
    tree = ast.parse(inspect.getsource(symwave))
    imported = [(node.module, alias.name) for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert len(imported) > 50
    for module, name in imported:
        source = importlib.import_module(f"symwave.{module}")
        assert getattr(symwave, name) is getattr(source, name)


def test_torus_constructors():
    assert CircleManifold(1.5).radius == 1.5
    assert CircleManifold(radius=2).radius == 2.0
    spec = TorusSpec((1.0, 2.0), 1)
    assert (spec.radii, spec.flat_dims, spec.n) == ((1.0, 2.0), 1, 3)
    man = TorusManifold((1.0, 2.0), flat_dims=2)
    assert (man.radii, man.flat_dims, man.n) == ((1.0, 2.0), 2, 4)
