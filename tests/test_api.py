"""The exported names of the package and its modules all resolve."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import symjacobi

MODULES = [symjacobi] + [
    importlib.import_module(f"symjacobi.{info.name}")
    for info in pkgutil.iter_modules(symjacobi.__path__)
]


@pytest.mark.parametrize(
    "module", [m for m in MODULES if hasattr(m, "__all__")], ids=lambda m: m.__name__
)
def test_every_exported_name_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_normalization_is_exported():
    assert symjacobi.norm_constant_table is symjacobi.core.norm_constant_table
    assert "norm_constant_table" in symjacobi.core.__all__


def loaded_by_import(module):
    # a fresh interpreter, so no earlier test has imported the module
    src = os.path.dirname(os.path.dirname(symjacobi.__file__))
    code = f"import sys, symjacobi; print({module!r} in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip() == "True"


@pytest.mark.parametrize("module", ["scipy.special", "scipy.linalg", "scipy.integrate"])
def test_import_leaves_scipy_unloaded(module):
    # scipy.special took 0.3 s of a 0.55 s import for its log-gamma alone;
    # only the rule builder needs scipy.linalg and only the slow
    # time-quadrature route scipy.integrate, and each imports it itself
    assert not loaded_by_import(module)
