"""Symmetrized eigenbasis on (-pi, pi).

Even basis slots hold the half-line eigenfunctions extended evenly, odd slots
hold sign(theta) times the parameter-shifted ones, both scaled by 1/sqrt(2).
This module does the parity bookkeeping: reflection, even/odd splitting,
analysis and synthesis, and the round trip between symmetric-interval
expansions and pairs of half-line expansions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    GridFunction,
    JacobiParams,
    QuadratureGrid,
    eigenfunction_table,
    eigenvalue,
    gauss_jacobi_rule,
)
from .errors import ConfigError, DomainError, GridError

__all__ = [
    "HalfLineExpansion",
    "SymmExpansion",
    "eigen_index",
    "eval_symm_eigenfunction",
    "symm_eigenfunction_table",
    "symm_eigenvalues",
    "reflect",
    "reflect_coeffs",
    "split_even_odd",
    "analyze",
    "synthesize",
    "eval_symm_expansion",
    "eval_halfline_expansion",
    "to_halfline",
    "recombine",
]

SQRT2 = math.sqrt(2.0)


def eigen_index(n: int) -> int:
    """Map a symmetrized basis index to its eigenvalue index floor((n+1)/2)."""
    if n < 0:
        raise DomainError(f"basis index must be nonnegative, got {n}")
    return (n + 1) // 2


def symm_eigenvalues(n_coeffs: int, params: JacobiParams) -> np.ndarray:
    """Eigenvalues attached to symmetrized indices 0..n_coeffs-1."""
    return np.array([eigenvalue(eigen_index(n), params) for n in range(n_coeffs)])


def eval_symm_eigenfunction(n: int, params: JacobiParams, theta):
    """Value of the n-th symmetrized basis function at theta.

    Even n: the (n/2)-th half-line eigenfunction over sqrt(2), an even
    function. Odd n: sign(theta) times the ((n-1)/2)-th eigenfunction of the
    shifted pair over sqrt(2), an odd function vanishing at 0.
    """
    if n < 0:
        raise DomainError(f"basis index must be nonnegative, got {n}")
    scalar = np.isscalar(theta)
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    if n % 2 == 0:
        vals = eigenfunction_table(n // 2, params, th)[n // 2] / SQRT2
    else:
        base = eigenfunction_table((n - 1) // 2, params.shift(1), th)[(n - 1) // 2]
        vals = np.sign(th) * base / SQRT2
    return float(vals[0]) if scalar else vals


def symm_eigenfunction_table(n_coeffs: int, params: JacobiParams, theta) -> np.ndarray:
    """Rows n = 0..n_coeffs-1 of symmetrized basis values at theta."""
    th = np.asarray(theta, dtype=float)
    out = np.empty((n_coeffs, th.shape[0]))
    n_even = (n_coeffs + 1) // 2
    n_odd = n_coeffs // 2
    if n_even:
        out[0::2] = eigenfunction_table(n_even - 1, params, th) / SQRT2
    if n_odd:
        odd_rows = eigenfunction_table(n_odd - 1, params.shift(1), th) / SQRT2
        out[1::2] = np.sign(th)[None, :] * odd_rows
    return out


@dataclass(frozen=True)
class HalfLineExpansion:
    """Finite expansion against the half-line eigenfunctions of params.

    parity records how the function extends to the symmetric interval: a
    plain even extension, or sign(theta) times the half-line values.
    """

    params: JacobiParams
    coeffs: np.ndarray
    parity: str

    def __post_init__(self) -> None:
        coeffs = np.atleast_1d(np.asarray(self.coeffs))
        object.__setattr__(self, "coeffs", coeffs)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise DomainError("coefficients must form a nonempty 1-d array")
        if self.parity not in ("even", "odd"):
            raise DomainError(f"parity must be 'even' or 'odd', got {self.parity!r}")

    def __len__(self) -> int:
        return self.coeffs.size

    def eigenvalues(self) -> np.ndarray:
        a = self.params.eigen_shift
        return (np.arange(self.coeffs.size) + a) ** 2

    def coeff_norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))


@dataclass(frozen=True)
class SymmExpansion:
    """Finite expansion against the symmetrized basis of params."""

    params: JacobiParams
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        coeffs = np.atleast_1d(np.asarray(self.coeffs))
        object.__setattr__(self, "coeffs", coeffs)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise DomainError("coefficients must form a nonempty 1-d array")

    def __len__(self) -> int:
        return self.coeffs.size

    def eigenvalues(self) -> np.ndarray:
        a = self.params.eigen_shift
        idx = (np.arange(self.coeffs.size) + 1) // 2
        return (idx + a) ** 2

    def coeff_norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))


def _require_symmetric(grid: QuadratureGrid) -> None:
    nodes = grid.nodes
    if grid.interval != "symmetric" or np.any(nodes != -nodes[::-1]):
        raise GridError("operation requires a mirror-symmetric grid")


def reflect(f: GridFunction) -> GridFunction:
    """Reflection theta -> -theta as an exact node permutation."""
    _require_symmetric(f.grid)
    return GridFunction(f.grid, f.values[::-1].copy())


def reflect_coeffs(e: SymmExpansion) -> SymmExpansion:
    """Reflection in coefficient space: odd-index entries change sign."""
    out = e.coeffs.copy()
    out[1::2] = -out[1::2]
    return SymmExpansion(e.params, out)


def _positive_half(grid: QuadratureGrid) -> QuadratureGrid:
    if grid.half is not None:
        return grid.half
    k = grid.nodes.size // 2
    return QuadratureGrid(grid.nodes[k:], grid.weights[k:], "halfline")


def split_even_odd(f: GridFunction) -> tuple[GridFunction, GridFunction]:
    """Even and odd parts restricted to the positive nodes.

    Reconstruction f(t) = even(|t|) + sign(t) odd(|t|) holds exactly on the
    grid.
    """
    _require_symmetric(f.grid)
    half = _positive_half(f.grid)
    k = f.grid.nodes.size // 2
    pos = f.values[k:]
    neg = f.values[::-1][k:]
    return (
        GridFunction(half, (pos + neg) / 2),
        GridFunction(half, (pos - neg) / 2),
    )


def _coeff_counts(n_coeffs: int) -> tuple[int, int]:
    # number of even-index and odd-index slots among 0..n_coeffs-1
    return (n_coeffs + 1) // 2, n_coeffs // 2


def min_quadrature_order(n_coeffs: int) -> int:
    """Smallest half-line rule size for which analyze is exact at this length."""
    return n_coeffs // 2 + 1


def analyze(f, params: JacobiParams, n_coeffs: int, n_quad: int | None = None) -> SymmExpansion:
    """Coefficients of f against the first n_coeffs symmetrized basis functions.

    f is either a GridFunction on a symmetric grid (its own half-line rule is
    used) or a callable on (-pi, pi) (matching-parameter rules are built, one
    per parity). Exact to roundoff when f lies in the span of the requested
    basis functions and the quadrature order suffices.
    """
    if n_coeffs < 1:
        raise ConfigError(f"coefficient count must be positive, got {n_coeffs}")
    n_even, n_odd = _coeff_counts(n_coeffs)
    needed = min_quadrature_order(n_coeffs)

    if isinstance(f, GridFunction):
        _require_symmetric(f.grid)
        half = _positive_half(f.grid)
        if len(half) < needed:
            raise ConfigError(
                f"grid holds {len(half)} positive nodes, need at least {needed} "
                f"for {n_coeffs} coefficients"
            )
        f_even, f_odd = split_even_odd(f)
        even_rule = odd_rule = half
        even_vals, odd_vals = f_even.values, f_odd.values
    elif callable(f):
        if n_quad is None:
            n_quad = n_coeffs + 8
        if n_quad < needed:
            raise ConfigError(
                f"quadrature order {n_quad} too small, need at least {needed} "
                f"for {n_coeffs} coefficients"
            )
        even_rule = gauss_jacobi_rule(n_quad, params)
        odd_rule = gauss_jacobi_rule(n_quad, params.shift(1))
        ev_pos = np.asarray(f(even_rule.nodes))
        ev_neg = np.asarray(f(-even_rule.nodes))
        od_pos = np.asarray(f(odd_rule.nodes))
        od_neg = np.asarray(f(-odd_rule.nodes))
        even_vals = (ev_pos + ev_neg) / 2
        odd_vals = (od_pos - od_neg) / 2
    else:
        raise ConfigError("analyze expects a GridFunction or a callable")

    is_complex = np.iscomplexobj(even_vals) or np.iscomplexobj(odd_vals)
    out = np.zeros(n_coeffs, dtype=complex if is_complex else float)
    if n_even:
        table = eigenfunction_table(n_even - 1, params, even_rule.nodes)
        out[0::2] = SQRT2 * (table * even_rule.weights) @ even_vals
    if n_odd:
        table = eigenfunction_table(n_odd - 1, params.shift(1), odd_rule.nodes)
        out[1::2] = SQRT2 * (table * odd_rule.weights) @ odd_vals
    return SymmExpansion(params, out)


def eval_symm_expansion(e: SymmExpansion, theta) -> np.ndarray:
    """Pointwise sum of the expansion at the given angles.

    Sums the even and odd half-line parts over their cached half-line
    tables; no symmetrized table is assembled.
    """
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    even, odd = to_halfline(e)
    vals = even.coeffs @ eigenfunction_table(len(even) - 1, even.params, th)
    if len(e) > 1:
        odd_vals = odd.coeffs @ eigenfunction_table(len(odd) - 1, odd.params, th)
        vals = vals + np.sign(th) * odd_vals
    return vals


def synthesize(e: SymmExpansion, grid: QuadratureGrid) -> GridFunction:
    """Expansion sampled on a grid."""
    return GridFunction(grid, eval_symm_expansion(e, grid.nodes))


def eval_halfline_expansion(h: HalfLineExpansion, theta) -> np.ndarray:
    """Pointwise sum respecting the parity tag on the symmetric interval."""
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    table = eigenfunction_table(len(h) - 1, h.params, th)
    vals = h.coeffs @ table
    if h.parity == "odd":
        vals = np.sign(th) * vals
    return vals


def to_halfline(e: SymmExpansion) -> tuple[HalfLineExpansion, HalfLineExpansion]:
    """Split into half-line expansions whose values match the parts on (0, pi).

    The even output is against the same parameters, the odd output against
    the unit-shifted pair; both absorb the 1/sqrt(2) from the basis
    definition so that synthesis needs no extra factor.
    """
    n_even, n_odd = _coeff_counts(len(e))
    even_coeffs = e.coeffs[0::2] / SQRT2
    odd_coeffs = e.coeffs[1::2] / SQRT2 if n_odd else np.zeros(1, dtype=e.coeffs.dtype)
    return (
        HalfLineExpansion(e.params, even_coeffs, "even"),
        HalfLineExpansion(e.params.shift(1), odd_coeffs, "odd"),
    )


def _params_close(a: JacobiParams, b: JacobiParams) -> bool:
    return abs(a.alpha - b.alpha) < 1e-12 and abs(a.beta - b.beta) < 1e-12


def recombine(even_part: HalfLineExpansion, odd_part: HalfLineExpansion) -> SymmExpansion:
    """Inverse of to_halfline for a parity-tagged pair.

    Requires an (even, odd) pair whose parameters differ by a unit shift;
    the result is a symmetrized expansion over the even part's parameters.
    """
    if even_part.parity != "even" or odd_part.parity != "odd":
        raise DomainError(
            f"recombination needs parity tags (even, odd), got "
            f"({even_part.parity}, {odd_part.parity})"
        )
    if not _params_close(odd_part.params, even_part.params.shift(1)):
        raise DomainError(
            "recombination needs the odd parameters to be the unit shift of the even ones"
        )
    n_even = len(even_part)
    n_odd = len(odd_part)
    dtype = np.promote_types(even_part.coeffs.dtype, odd_part.coeffs.dtype)
    out = np.zeros(max(2 * n_even - 1, 2 * n_odd), dtype=dtype)
    out[0 : 2 * n_even : 2] = SQRT2 * even_part.coeffs
    out[1 : 2 * n_odd + 1 : 2] = SQRT2 * odd_part.coeffs
    return SymmExpansion(even_part.params, out)
