"""The exported names of the package and its modules all resolve, and the
modules keep the structure the design relies on."""

import ast
import importlib
import math
import os
import pkgutil
import re
import subprocess
import sys

import numpy as np
import pytest

import symjacobi
from symjacobi.basis import HalfLineExpansion, SymmExpansion
from symjacobi.core import JacobiParams
from symjacobi.errors import UnsupportedParametersError

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


def loaded_after(module, statement="import symjacobi"):
    # a fresh interpreter, so no earlier test has imported the module
    src = os.path.dirname(os.path.dirname(symjacobi.__file__))
    code = f"import sys; {statement}; print({module!r} in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout.split()[-1] == "True"


@pytest.mark.parametrize("module", ["scipy.special", "scipy.linalg", "scipy.integrate"])
def test_import_leaves_scipy_unloaded(module):
    # scipy.special took 0.3 s of a 0.55 s import for its log-gamma alone;
    # only the rule builder needs scipy.linalg, and imports it itself, and
    # no module needs scipy.integrate
    assert not loaded_after(module)


def test_the_square_function_suite_leaves_scipy_integrate_unloaded(tmp_path):
    # its time-quadrature cross-check once loaded it, at 0.25 s or more
    run = (
        "from symjacobi.cli import main; "
        f"assert main(['squarefn', '--trunc', '16', '--out', {str(tmp_path)!r}]) == 0"
    )
    assert not loaded_after("scipy.integrate", run)


def parsed(module):
    with open(module.__file__, encoding="utf-8") as fh:
        return ast.parse(fh.read())


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_no_module_imports_scipy_integrate(module):
    imported = set()
    for node in ast.walk(parsed(module)):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(f"{node.module}.{alias.name}" for alias in node.names)
    assert [name for name in imported if f"{name}.".startswith("scipy.integrate.")] == []


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_no_import_goes_unused(module):
    # the project configures no linter, so this stands in for an unused-import
    # rule; a name the module exports, or a dunder such as __version__, is used
    tree = parsed(module)
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = imported - used - set(getattr(module, "__all__", ()))
    assert sorted(name for name in unused if not name.startswith("__")) == []


@pytest.mark.parametrize("module", ["squarefn", "norms"])
def test_the_fold_stays_inside_basis(module):
    tree = parsed(importlib.import_module(f"symjacobi.{module}"))
    from_basis = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "basis"
        for alias in node.names
    }
    assert from_basis & {"_fold", "_fold_nodes", "_mirror_split"} == set()


@pytest.mark.parametrize(
    "module", [m for m in MODULES if m.__name__ != "symjacobi.core"], ids=lambda m: m.__name__
)
def test_the_table_stores_stay_inside_core(module):
    # core alone ties a grid's tables to its node array; a module that read
    # or filled the registry could keep tables past their grid
    names = set()
    for node in ast.walk(parsed(module)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    assert "_GRID_FACTS" not in names


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_a_multiplier_keeps_a_half_line_expansion_and_its_parity(parity):
    h = HalfLineExpansion(JacobiParams(0.3, 0.7), np.arange(1.0, 6.0), parity)
    out = symjacobi.poisson_semigroup(h, 0.5)
    assert type(out) is HalfLineExpansion and out.parity == parity
    expected = h.coeffs * np.exp(-0.5 * np.sqrt(h.eigenvalues()))
    np.testing.assert_array_equal(out.coeffs, expected)


def test_a_multiplier_that_is_not_finite_is_named():
    e = SymmExpansion(JacobiParams(0.3, 0.7), np.ones(5))
    with pytest.raises(
        UnsupportedParametersError, match=re.escape("multiplier 'exp(i inf eigenvalue)'")
    ):
        symjacobi.schrodinger_propagator(e, math.inf)
