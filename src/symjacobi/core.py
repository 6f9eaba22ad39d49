"""Half-line eigenbasis primitives.

Everything here lives on the interval (0, pi): Jacobi polynomials evaluated at
cos(theta), the square-root trigonometric weight, L2-normalized eigenfunctions,
their eigenvalues, and Gauss-Jacobi quadrature rules expressed directly in the
angle variable.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import gammaln

from .errors import DomainError, GridError, SingularPointError

__all__ = [
    "JacobiParams",
    "QuadratureGrid",
    "GridFunction",
    "eigenvalue",
    "eval_jacobi_poly",
    "jacobi_poly_table",
    "trig_weight",
    "norm_constant",
    "eval_eigenfunction",
    "eigenfunction_table",
    "gauss_jacobi_rule",
    "symmetric_rule",
]


@dataclass(frozen=True)
class JacobiParams:
    """Type parameter pair (alpha, beta), each strictly greater than -1."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not (self.alpha > -1.0 and self.beta > -1.0):
            raise DomainError(
                f"type parameters must each exceed -1, got ({self.alpha}, {self.beta})"
            )

    @property
    def eigen_shift(self) -> float:
        """Offset A with lambda_n = (n + A)^2."""
        return 0.5 * (self.alpha + self.beta + 1.0)

    @property
    def p_upper(self) -> float:
        """Upper endpoint of the admissible Lebesgue exponent range."""
        if self.alpha >= -0.5 and self.beta >= -0.5:
            return math.inf
        return -1.0 / min(self.alpha + 0.5, self.beta + 0.5)

    @property
    def p_lower(self) -> float:
        """Lower endpoint, the conjugate exponent of p_upper."""
        pu = self.p_upper
        if math.isinf(pu):
            return 1.0
        return pu / (pu - 1.0)

    def admissible_range(self) -> tuple[float, float]:
        return (self.p_lower, self.p_upper)

    def contains_p(self, p: float) -> bool:
        """Strict membership of p in the open admissible range."""
        return self.p_lower < p < self.p_upper

    def shift(self, k: int) -> "JacobiParams":
        """Both parameters moved up by the integer k."""
        return JacobiParams(self.alpha + k, self.beta + k)

    def label(self) -> str:
        return f"alpha={self.alpha:g},beta={self.beta:g}"


def eigenvalue(n: int, params: JacobiParams) -> float:
    """n-th eigenvalue (n + A)^2 of the half-line operator."""
    if n < 0:
        raise DomainError(f"eigenvalue index must be nonnegative, got {n}")
    return (n + params.eigen_shift) ** 2


def _recurrence_step(n: int, alpha: float, beta: float) -> tuple[float, float, float, float]:
    # coefficients for P_{n+1} in terms of P_n, P_{n-1} (n >= 1)
    s = alpha + beta
    c1 = 2.0 * (n + 1) * (n + s + 1) * (2 * n + s)
    c2 = (2 * n + s + 1) * (alpha * alpha - beta * beta)
    c3 = (2 * n + s) * (2 * n + s + 1) * (2 * n + s + 2)
    c4 = 2.0 * (n + alpha) * (n + beta) * (2 * n + s + 2)
    return c1, c2, c3, c4


def jacobi_poly_table(n_top: int, params: JacobiParams, x: np.ndarray) -> np.ndarray:
    """Values P_n(x) for n = 0..n_top, by the three-term recurrence.

    Returns an array of shape (n_top + 1, len(x)).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(np.abs(x) > 1.0):
        raise DomainError("polynomial argument must lie in [-1, 1]")
    a, b = params.alpha, params.beta
    out = np.empty((n_top + 1, x.shape[0]))
    out[0] = 1.0
    if n_top >= 1:
        out[1] = 0.5 * (a - b) + 0.5 * (a + b + 2.0) * x
    for n in range(1, n_top):
        c1, c2, c3, c4 = _recurrence_step(n, a, b)
        out[n + 1] = ((c2 + c3 * x) * out[n] - c4 * out[n - 1]) / c1
    return out


def eval_jacobi_poly(n: int, params: JacobiParams, x: float | np.ndarray):
    """Jacobi polynomial P_n at x (scalar or array), |x| <= 1."""
    if n < 0:
        raise DomainError(f"polynomial degree must be nonnegative, got {n}")
    scalar = np.isscalar(x)
    vals = jacobi_poly_table(n, params, np.atleast_1d(x))[n]
    return float(vals[0]) if scalar else vals


def trig_weight(params: JacobiParams, theta: float | np.ndarray):
    """Square-root trigonometric weight |sin(t/2)|^(a+1/2) cos(t/2)^(b+1/2).

    Defined for |theta| < pi. At theta = 0 the value is the limit, which only
    exists for alpha >= -1/2.
    """
    scalar = np.isscalar(theta)
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    if np.any(np.abs(th) >= np.pi):
        raise DomainError("weight is only defined for |theta| < pi")
    if params.alpha < -0.5 and np.any(th == 0.0):
        raise SingularPointError(
            f"weight is singular at theta=0 for alpha={params.alpha} < -1/2"
        )
    half = 0.5 * np.abs(th)
    vals = np.abs(np.sin(half)) ** (params.alpha + 0.5) * np.cos(half) ** (params.beta + 0.5)
    return float(vals[0]) if scalar else vals


def _ln_weight_norm_sq(n: int, params: JacobiParams) -> float:
    # log of the squared L2 weight norm of P_n over [-1, 1]
    a, b = params.alpha, params.beta
    ln2 = math.log(2.0)
    if n == 0:
        return (a + b + 1) * ln2 + gammaln(a + 1) + gammaln(b + 1) - gammaln(a + b + 2)
    return (
        (a + b + 1) * ln2
        + gammaln(n + a + 1)
        + gammaln(n + b + 1)
        - math.log(2 * n + a + b + 1)
        - gammaln(n + a + b + 1)
        - gammaln(n + 1)
    )


def norm_constant(n: int, params: JacobiParams) -> float:
    """Positive constant making the n-th eigenfunction unit-norm on (0, pi).

    Computed through log-gamma so large degrees stay finite.
    """
    if n < 0:
        raise DomainError(f"index must be nonnegative, got {n}")
    a, b = params.alpha, params.beta
    return math.exp(0.5 * (a + b + 1) * math.log(2.0) - 0.5 * _ln_weight_norm_sq(n, params))


def norm_constant_table(n_top: int, params: JacobiParams) -> np.ndarray:
    """norm_constant for n = 0..n_top as one vectorized computation."""
    a, b = params.alpha, params.beta
    n = np.arange(n_top + 1)
    ln2 = math.log(2.0)
    ln_h = (
        (a + b + 1) * ln2
        + gammaln(n + a + 1)
        + gammaln(n + b + 1)
        - np.log(2 * n + a + b + 1, where=(n > 0), out=np.zeros_like(n, dtype=float))
        - gammaln(np.where(n > 0, n + a + b + 1, 1.0))
        - gammaln(n + 1)
    )
    if n_top >= 0:
        ln_h[0] = (a + b + 1) * ln2 + gammaln(a + 1) + gammaln(b + 1) - gammaln(a + b + 2)
    return np.exp(0.5 * (a + b + 1) * ln2 - 0.5 * ln_h)


def eval_eigenfunction(n: int, params: JacobiParams, theta: float | np.ndarray):
    """Normalized eigenfunction on (0, pi), evaluated through |theta|.

    Evaluating through the absolute value makes the function exactly even
    under reflection, bit for bit.
    """
    scalar = np.isscalar(theta)
    th = np.abs(np.atleast_1d(np.asarray(theta, dtype=float)))
    w = trig_weight(params, th)
    p = jacobi_poly_table(n, params, np.cos(th))[n]
    vals = norm_constant(n, params) * w * p
    return float(vals[0]) if scalar else vals


# Byte budget of the table cache. 2 MiB serves 99 % of the table requests of
# `verif all --trunc 128`; a larger budget adds few hits there but raises
# peak memory.
_TABLE_CACHE_BYTES = 2 * 1024 * 1024


class _TableCache:
    """Least-recently-used tables under a total byte budget, safe across threads.

    A table counts its array bytes plus the node bytes in its key. A table
    larger than the whole budget is never kept.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self.nbytes = 0
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key):
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            return entry[0]

    def put(self, key, table: np.ndarray) -> np.ndarray:
        """Keep table under key and return the kept table.

        If another thread stored the key first, its table is returned, so
        every caller of one key shares one array.
        """
        size = table.nbytes + len(key[-1])
        if size > self.budget:
            return table
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                return entry[0]
            self._entries[key] = (table, size)
            self.nbytes += size
            while self.nbytes > self.budget:
                _, (_, dropped) = self._entries.popitem(last=False)
                self.nbytes -= dropped
        return table

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.nbytes = 0


_TABLE_CACHE = _TableCache(_TABLE_CACHE_BYTES)


def eigenfunction_table(n_top: int, params: JacobiParams, theta: np.ndarray) -> np.ndarray:
    """Rows n = 0..n_top of eigenfunction values at the given angles.

    The result is read-only and may be shared with other callers: equal
    arguments return one cached array while it stays in the cache.
    """
    th = np.abs(np.asarray(theta, dtype=float))
    # exact bytes, so -0.0 and 0.0 parameters or nearby nodes never share a table
    pair = np.array([params.alpha, params.beta], dtype=float).tobytes()
    key = (n_top, pair, th.shape, th.tobytes())
    table = _TABLE_CACHE.get(key)
    if table is not None:
        return table
    w = trig_weight(params, th)
    polys = jacobi_poly_table(n_top, params, np.cos(th))
    consts = norm_constant_table(n_top, params)
    table = consts[:, None] * w[None, :] * polys
    table.flags.writeable = False
    return _TABLE_CACHE.put(key, table)


@dataclass(frozen=True)
class QuadratureGrid:
    """Nodes and positive weights for quadrature in the angle variable.

    interval is "halfline" for grids inside (0, pi) and "symmetric" for
    mirrored grids inside (-pi, pi) that never contain 0. For symmetric grids
    the generating half-line grid is kept in half.
    """

    nodes: np.ndarray
    weights: np.ndarray
    interval: str
    half: "QuadratureGrid | None" = field(default=None, compare=False)

    def __post_init__(self) -> None:
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if self.interval not in ("halfline", "symmetric"):
            raise GridError(f"unknown interval tag {self.interval!r}")
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise GridError("nodes and weights must be 1-d arrays of equal length")
        if np.any(np.diff(nodes) <= 0):
            raise GridError("nodes must be strictly increasing")
        if np.any(weights <= 0):
            raise GridError("weights must be positive")
        lo = 0.0 if self.interval == "halfline" else -np.pi
        if nodes.size and (nodes[0] <= lo or nodes[-1] >= np.pi):
            raise GridError("nodes must lie strictly inside the open interval")
        if self.interval == "symmetric" and np.any(nodes == 0.0):
            raise GridError("symmetric grids must not contain 0")

    def __len__(self) -> int:
        return self.nodes.size

    def integrate(self, values: np.ndarray):
        """Weighted sum approximating the integral of sampled values."""
        return np.sum(self.weights * values)


@dataclass(frozen=True)
class GridFunction:
    """Values sampled on a quadrature grid."""

    grid: QuadratureGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values)
        object.__setattr__(self, "values", values)
        if values.shape != self.grid.nodes.shape:
            raise GridError("values must match the grid node count")


def _jacobi_recurrence_coeffs(n: int, alpha: float, beta: float):
    # monic recurrence coefficients for the weight (1-x)^alpha (1+x)^beta
    k = np.arange(n)
    s = alpha + beta
    a_diag = np.empty(n)
    a_diag[0] = (beta - alpha) / (s + 2.0)
    if n > 1:
        kk = k[1:]
        a_diag[1:] = (beta * beta - alpha * alpha) / ((2 * kk + s) * (2 * kk + s + 2))
    b_off = np.empty(max(n - 1, 0))
    if n > 1:
        b_off[0] = 4.0 * (alpha + 1) * (beta + 1) / ((s + 2) ** 2 * (s + 3))
    if n > 2:
        kk = k[2:]
        b_off[1:] = (
            4.0 * kk * (kk + alpha) * (kk + beta) * (kk + s)
            / ((2 * kk + s) ** 2 * (2 * kk + s + 1) * (2 * kk + s - 1))
        )
    return a_diag, b_off


def gauss_jacobi_rule(n_nodes: int, params: JacobiParams) -> QuadratureGrid:
    """Gauss-Jacobi rule of the given size, mapped to the angle variable.

    Built by the symmetric-tridiagonal eigenvalue method from the recurrence
    coefficients of the weight (1-x)^alpha (1+x)^beta. The returned weights
    integrate trig_weight(params, t)^2 times any polynomial in cos(t) of
    degree at most 2*n_nodes - 1 exactly over (0, pi).
    """
    if n_nodes < 1:
        raise GridError(f"rule size must be positive, got {n_nodes}")
    a, b = params.alpha, params.beta
    diag, off = _jacobi_recurrence_coeffs(n_nodes, a, b)
    if n_nodes == 1:
        x = np.array([diag[0]])
        first_comp_sq = np.array([1.0])
    else:
        evals, evecs = eigh_tridiagonal(diag, np.sqrt(off))
        x = evals
        first_comp_sq = evecs[0, :] ** 2
    mu0 = math.exp((a + b + 1) * math.log(2.0) + gammaln(a + 1) + gammaln(b + 1) - gammaln(a + b + 2))
    v = mu0 * first_comp_sq
    # ascending theta corresponds to descending x
    order = np.argsort(-x)
    x = np.clip(x[order], -1.0, 1.0)
    v = v[order]
    theta = np.arccos(x)
    w = v * (1.0 - x) ** (-(a + 0.5)) * (1.0 + x) ** (-(b + 0.5))
    return QuadratureGrid(nodes=theta, weights=w, interval="halfline")


def symmetric_rule(n_nodes_half: int, params: JacobiParams) -> QuadratureGrid:
    """Mirror of the half-line rule across 0, weights kept on each side.

    An even integrand then picks up twice its half-line integral, which is
    the correct full-interval value under the plain angle measure. Gauss
    nodes are interior so 0 never appears.
    """
    half = gauss_jacobi_rule(n_nodes_half, params)
    nodes = np.concatenate([-half.nodes[::-1], half.nodes])
    weights = np.concatenate([half.weights[::-1], half.weights])
    return QuadratureGrid(nodes=nodes, weights=weights, interval="symmetric", half=half)
