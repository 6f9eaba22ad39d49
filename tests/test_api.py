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


def test_import_leaves_scipy_integrate_unloaded():
    # only the slow time-quadrature route needs it, and it imports it itself
    assert not loaded_by_import("scipy.integrate")


def test_import_leaves_scipy_linalg_unloaded():
    # only the rule builder needs it, and it imports it itself; loading it
    # on import adds about 0.1 s to every start
    assert not loaded_by_import("scipy.linalg")
