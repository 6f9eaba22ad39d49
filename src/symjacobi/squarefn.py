"""Fractional square functions built on the Poisson-type flows.

The pointwise value is a weighted time integral of a k-th time derivative
of the flow. For band-limited inputs that integral collapses to a finite
quadratic form whose kernel has a closed gamma-function expression; a slow
numerical time integration is kept alongside as an independent route.
"""

import dataclasses
import math

import numpy as np
from scipy.special import gammaln

from .basis import (
    HalfLineExpansion,
    SymmExpansion,
    _fold,
    _fold_nodes,
    _reflection_signs,
    symm_eigenfunction_table,
)
from .core import eigenfunction_table
from .errors import ConfigError, DomainError

_VARIANTS = ("plain", "modified", "halfline")


@dataclasses.dataclass(frozen=True)
class SquareFunctionSpec:
    """Smoothness index, derivative order, and flow flavor.

    gamma must lie strictly between 0 and the integer order k. plain and
    halfline use the spectral square root as decay rate, modified shifts
    every rate up by one so the bottom of the spectrum never degenerates.
    """

    gamma: float
    k: int
    variant: str = "plain"

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ConfigError(f"unknown square function variant {self.variant!r}")
        if not isinstance(self.k, (int, np.integer)) or self.k < 1:
            raise DomainError(f"derivative order must be a positive integer, got {self.k!r}")
        if not 0.0 < self.gamma < self.k:
            raise DomainError(
                f"need 0 < gamma < k, got gamma={self.gamma} with k={self.k}"
            )

    @property
    def tail_power(self) -> float:
        return 2.0 * (self.k - self.gamma)


def _flow_rates(eigenvalues: np.ndarray, modified: bool) -> np.ndarray:
    rates = np.sqrt(eigenvalues)
    return rates + 1.0 if modified else rates


def _kernel(rates: np.ndarray, spec: SquareFunctionSpec) -> np.ndarray:
    # closed form of int_0^inf t^(2(k-gamma)-1) exp(-(r_n+r_m) t) dt times
    # the derivative symbols, assembled in log space
    p = spec.tail_power
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = (
            gammaln(p)
            + spec.k * (np.log(rates)[:, None] + np.log(rates)[None, :])
            - p * np.log(rates[:, None] + rates[None, :])
        )
        kern = np.exp(logs)
    dead = rates == 0.0
    if dead.any():
        kern[dead, :] = 0.0
        kern[:, dead] = 0.0
    return kern


def _mode_table(e, spec: SquareFunctionSpec, theta: np.ndarray):
    if spec.variant == "halfline":
        if not isinstance(e, HalfLineExpansion):
            raise ConfigError("halfline variant expects a half-line expansion")
        table = _fold(theta, None, {e.parity: eigenfunction_table(len(e) - 1, e.params, theta)})
        rates = _flow_rates(e.eigenvalues(), False)
    else:
        if not isinstance(e, SymmExpansion):
            raise ConfigError(f"{spec.variant} variant expects a symmetrized expansion")
        table = symm_eigenfunction_table(len(e), e.params, theta)
        rates = _flow_rates(e.eigenvalues(), spec.variant == "modified")
    return table, rates


def square_function(e, spec: SquareFunctionSpec, theta) -> np.ndarray:
    """Pointwise square function values at the given angles.

    A block gives one row of values per member. The mode table and the
    kernel are built once and shared by every row; the rows are contracted
    one at a time, so no (members, modes, angles) array is ever formed. On
    a mirrored angle set the table covers the positive half only; the
    negative half contracts each row against the reflected table (rows of
    odd modes negated), reversed.
    """
    _, k, nodes = _fold_nodes(theta)
    table, rates = _mode_table(e, spec, nodes)
    tables = [table] if k is None else [table, _reflection_signs(e)[:, None] * table]
    kern = _kernel(rates, spec)
    rows = np.atleast_2d(e.coeffs)
    vals = np.empty((len(tables), rows.shape[0], nodes.size))
    for i, c in enumerate(rows):
        weights = np.outer(c, np.conj(c)) * kern
        for t, out in zip(tables, vals[:, i]):
            out[:] = np.real(np.einsum("ni,ni->i", t, weights @ t))
    vals = np.sqrt(np.clip(vals, 0.0, None))
    vals = vals[0] if k is None else np.concatenate([vals[1][:, ::-1], vals[0]], axis=1)
    return vals if e.coeffs.ndim == 2 else vals[0]


def square_function_by_time_quadrature(
    e,
    spec: SquareFunctionSpec,
    theta,
    log_lower: float = -30.0,
    log_upper: float = 10.0,
) -> np.ndarray:
    """Slow route: numerical time integration after t = exp(u) substitution.

    Kept deliberately independent of the kernel closed form so the two can
    cross-check each other.
    """
    # scipy.integrate is imported here, not at module level: it is the
    # slowest part of importing the package and only this route needs it
    from scipy.integrate import quad

    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    table, rates = _mode_table(e, spec, theta)
    amplitudes = e.coeffs * (-rates) ** spec.k
    p = spec.tail_power
    out = np.empty(theta.size)
    for i in range(theta.size):
        column = amplitudes * table[:, i]

        def integrand(u):
            t = math.exp(u)
            s = np.dot(column, np.exp(-t * rates))
            return math.exp(p * u) * abs(s) ** 2

        val, _ = quad(integrand, log_lower, log_upper, limit=400)
        out[i] = math.sqrt(val)
    return out


def eigenmode_constant(spec: SquareFunctionSpec, eigenvalue: float) -> float:
    """Factor multiplying |basis value| when the input is a single mode."""
    rate = math.sqrt(eigenvalue)
    if spec.variant == "modified":
        rate += 1.0
    if rate == 0.0:
        return 0.0
    p = spec.tail_power
    return rate**spec.k * math.exp(0.5 * gammaln(p)) / (2.0 * rate) ** (p / 2.0)


def l2_equivalence_constant(gamma: float, k: int) -> float:
    """Exact ratio of the square function L2 norm to the smoothness norm."""
    return 2.0 ** (gamma - k) * math.exp(0.5 * gammaln(2.0 * (k - gamma)))
