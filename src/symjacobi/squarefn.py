"""Fractional square functions built on the Poisson-type flows.

The pointwise value is a weighted time integral of a k-th time derivative
of the flow. For band-limited inputs that integral collapses to a finite
quadratic form whose kernel has a closed gamma-function expression; it is
evaluated as a sum of squares over a low-rank factor of that kernel. A
numerical time integration is kept alongside as an independent route.
"""

import dataclasses
import functools
import math

import numpy as np

from .basis import (
    HalfLineExpansion,
    SymmExpansion,
    _evaluator,
    _halfline_parts,
    eval_halfline_expansion,
    symm_eigenfunction_table,
)
from .core import GAUSS_LEGENDRE_32
from .errors import ConfigError, DomainError

_VARIANTS = ("plain", "modified")


@dataclasses.dataclass(frozen=True)
class SquareFunctionSpec:
    """Smoothness index, derivative order, and flow flavor.

    gamma must lie strictly between 0 and the integer order k. plain uses
    the spectral square root as decay rate, modified shifts every rate up
    by one so the bottom of the spectrum never degenerates. Either flow
    acts on a symmetrized or a half-line expansion; the input's kind picks
    the form.
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
            math.lgamma(p)
            + spec.k * (np.log(rates)[:, None] + np.log(rates)[None, :])
            - p * np.log(rates[:, None] + rates[None, :])
        )
        kern = np.exp(logs)
    dead = rates == 0.0
    if dead.any():
        kern[dead, :] = 0.0
        kern[:, dead] = 0.0
    return kern


def _rates(e, spec: SquareFunctionSpec) -> np.ndarray:
    # flow rates of e's modes
    if not isinstance(e, (SymmExpansion, HalfLineExpansion)):
        raise ConfigError("square function input must be a symmetrized or half-line expansion")
    return _flow_rates(e.eigenvalues(), spec.variant == "modified")


def _mode_table(e, spec: SquareFunctionSpec, theta: np.ndarray):
    """e's basis functions at theta, one per row, and their flow rates; a
    half-line expansion's rows synthesize an identity block, which is exact."""
    rates = _rates(e, spec)
    if isinstance(e, HalfLineExpansion):
        table = eval_halfline_expansion(dataclasses.replace(e, coeffs=np.eye(len(e))), theta)
    else:
        table = symm_eigenfunction_table(len(e), e.params, theta)
    return table, rates


# Pivots of the unit-diagonal kernel C below this end the factorisation.
_PIVOT_FLOOR = 1e-17


@functools.lru_cache(maxsize=32)
def _kernel_factor(rates: bytes, spec: SquareFunctionSpec) -> np.ndarray:
    """L with kernel ~ L L^T for the flow rates held in the bytes rates.

    Over the live rates the kernel is D C D, with
    D_n = sqrt(Gamma(p) / 2^p) r_n^gamma its diagonal's square root and
    C_nm = (2 sqrt(r_n r_m) / (r_n + r_m))^p of unit diagonal. C is
    positive semidefinite and Cauchy-like, so it has low numerical rank
    (Beckermann & Townsend, SIAM Review 61(2), 2019). A pivoted Cholesky
    factorisation of C (Harbrecht, Peters & Schneider, Appl. Numer. Math.
    62, 2012) stops once every pivot left is at most _PIVOT_FLOOR, so each
    mode's own entry is kept to that share whatever its rate. It runs in
    long double on the columns it pivots on, which are formed directly:
    where rates lie close, C is near a matrix of ones, and the digits that
    tell its columns apart are the ones a double factor loses (where long
    double is double, only double's digits are kept). L is D times that
    factor, rounded once to double.

    Dead modes get zero rows, and a kernel that is all zero a factor with
    no columns. The result is shared by every call with equal arguments
    (32 entries hold the 27 factors of a `verif all` pass), so it is
    read-only.
    """
    rates = np.frombuffer(rates)
    live = np.flatnonzero(rates)
    r = rates[live].astype(np.longdouble)
    root = np.sqrt(r)
    p = spec.tail_power
    pivots = np.ones(live.size, dtype=np.longdouble)
    # row j holds column j of the factor, so only rank rows are written
    columns = np.zeros((live.size, live.size), dtype=np.longdouble)
    rank = 0
    while rank < live.size:
        i = int(np.argmax(pivots))
        if pivots[i] <= _PIVOT_FLOOR:
            break
        column = (2.0 * root * root[i] / (r + r[i])) ** p - columns[:rank, i] @ columns[:rank]
        column /= np.sqrt(pivots[i])
        columns[rank] = column
        pivots -= column**2
        pivots[i] = 0.0
        rank += 1
    scale = np.exp(0.5 * (math.lgamma(p) - p * math.log(2.0))) * r**spec.gamma
    out = np.zeros((rates.size, rank))
    out[live] = scale[:, None] * columns[:rank].T
    out.flags.writeable = False
    return out


# Most output values of one product in square_function: members go through
# in chunks of about this size. A 50 x 65 block on 544 angles then allocates
# at most 1.1 MB of transient arrays (tracemalloc), against 9.0 MB in one
# piece.
_CHUNK_ELEMENTS = 2**14


def square_function(e, spec: SquareFunctionSpec, theta) -> np.ndarray:
    """Pointwise square function values at the given angles.

    A block gives one row of values per member. The quadratic form is
    evaluated as a sum of squares over a cached low-rank factor L of its
    kernel, S(theta)^2 = sum_j |u_j(theta)|^2 with
    u_j = sum_n c_n L_nj phi_n. Each u_j is an expansion of e's kind, with
    coefficients c * L[:, j]; the J of them per member are evaluated as
    one block, through the same half-line products and fold as
    eval_symm_expansion, the real and imaginary parts of complex
    coefficients as rows of their own. The half-line tables are fetched
    once per call, and members go through in chunks, so the transient
    stays small however large the block.
    """
    factor = _kernel_factor(_rates(e, spec).tobytes(), spec)
    coeffs = np.atleast_2d(e.coeffs)
    members, rank = coeffs.shape[0], factor.shape[1]
    out = np.zeros((members, np.size(theta)))
    if rank == 0:
        # every mode is dead, so S is 0
        return out if e.coeffs.ndim == 2 else out[0]
    evaluate, n_nodes = _evaluator(_halfline_parts(e), theta)
    split = np.iscomplexobj(coeffs)
    n_rows = rank * (2 if split else 1)
    step = max(1, _CHUNK_ELEMENTS // max(1, n_rows * n_nodes))
    for start in range(0, members, step):
        rows = coeffs[start : start + step, None, :] * factor.T
        if split:
            rows = np.concatenate([rows.real, rows.imag], axis=1)
        m = rows.shape[0]
        block = dataclasses.replace(e, coeffs=rows.reshape(m * n_rows, -1))
        u = evaluate(_halfline_parts(block)).reshape(m, n_rows, -1)
        out[start : start + step] = np.sqrt(np.einsum("mji,mji->mi", u, u))
    return out if e.coeffs.ndim == 2 else out[0]


def _log_time_rule(p: float, rates: np.ndarray):
    """Nodes u = ln t and weights of the time route's composite rule.

    u runs from min(-30, ln(1e-13 p) / p) to max(10, ln(20 / r_min)), r_min
    the slowest live flow rate: the tail left below is at most
    1e-13 sup |s|^2, and s has decayed by e^-20 above; (-30, 10) unless p or
    r_min is small. Each panel carries the 32-point Gauss-Legendre rule.
    Panels have unit width from the top down to -30. Below -30, t < 1e-13,
    so s(e^u) is constant to about 1e-11 and the integrand is e^(p u) times
    a constant; there the panel widths double, down to the bottom.
    """
    live = rates[rates > 0.0]
    lower = min(-30.0, math.log(1e-13 * p) / p)
    upper = max(10.0, math.log(20.0 / live.min())) if live.size else 10.0
    # below -30 the edges are -29 - 2^j: -30, -31, -33, -37, ...
    doublings = math.ceil(math.log2(-29.0 - lower))
    edges = np.concatenate(
        [
            np.arange(upper, -30.0, -1.0),
            np.maximum(-29.0 - 2.0 ** np.arange(doublings + 1), lower),
        ]
    )
    mid = 0.5 * (edges[:-1] + edges[1:])
    rad = 0.5 * (edges[:-1] - edges[1:])
    x, w = GAUSS_LEGENDRE_32
    return (mid[:, None] + rad[:, None] * x).ravel(), (rad[:, None] * w).ravel()


def square_function_by_time_quadrature(e, spec: SquareFunctionSpec, theta) -> np.ndarray:
    """Numerical time integration after the t = exp(u) substitution.

    The integrand exp(p u) |s(e^u)|^2, p = 2(k - gamma), is integrated over
    u by the composite rule of _log_time_rule, at every angle in one
    product; a block gives one row of values per member. Kept deliberately
    independent of the kernel closed form so the two can cross-check each
    other.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    table, rates = _mode_table(e, spec, theta)
    u, w = _log_time_rule(spec.tail_power, rates)
    amplitudes = e.coeffs * (-rates) ** spec.k
    s = np.exp(-np.outer(np.exp(u), rates)) @ (amplitudes[..., None] * table)
    return np.sqrt((w * np.exp(spec.tail_power * u)) @ np.abs(s) ** 2)


def eigenmode_constant(spec: SquareFunctionSpec, eigenvalue: float) -> float:
    """Factor multiplying |basis value| when the input is a single mode."""
    rate = float(_flow_rates(np.float64(eigenvalue), spec.variant == "modified"))
    if rate == 0.0:
        return 0.0
    p = spec.tail_power
    return rate**spec.k * math.exp(0.5 * math.lgamma(p)) / (2.0 * rate) ** (p / 2.0)


def l2_equivalence_constant(gamma: float, k: int) -> float:
    """Exact ratio of the square function L2 norm to the smoothness norm."""
    return 2.0 ** (gamma - k) * math.exp(0.5 * math.lgamma(2.0 * (k - gamma)))
