"""Half-line eigenbasis primitives.

Everything here lives on the interval (0, pi): Jacobi polynomials evaluated at
cos(theta), the square-root trigonometric weight, L2-normalized eigenfunctions,
their eigenvalues, and Gauss-Jacobi quadrature rules expressed directly in the
angle variable.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln, roots_jacobi

from .errors import DomainError, GridError, SingularPointError

__all__ = [
    "JacobiParams",
    "QuadratureGrid",
    "GridFunction",
    "eigenvalue",
    "jacobi_poly_table",
    "trig_weight",
    "norm_constant_table",
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


def _recurrence_coeffs(n_top: int, alpha: float, beta: float):
    # (n, c1, c2, c3, c4) giving P_{n+1} from P_n, P_{n-1} for n = 1..n_top-1;
    # each product is taken in the same order as for one scalar n, so the
    # coefficients are bit-identical to scalar ones
    n = np.arange(1, n_top)
    s = alpha + beta
    c1 = 2.0 * (n + 1) * (n + s + 1) * (2 * n + s)
    c2 = (2 * n + s + 1) * (alpha * alpha - beta * beta)
    c3 = (2 * n + s) * (2 * n + s + 1) * (2 * n + s + 2)
    c4 = 2.0 * (n + alpha) * (n + beta) * (2 * n + s + 2)
    return zip(n.tolist(), c1.tolist(), c2.tolist(), c3.tolist(), c4.tolist())


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
    # P_{n+1} = ((c2 + c3 x) P_n - c4 P_{n-1}) / c1, one operation at a time
    # into preallocated rows: the rule builds a table with as many rows as
    # nodes, and temporaries cost a fifth of that time
    tmp = np.empty_like(x)
    for n, c1, c2, c3, c4 in _recurrence_coeffs(n_top, a, b):
        np.multiply(c3, x, out=tmp)
        tmp += c2
        tmp *= out[n]
        nxt = out[n + 1]
        np.multiply(c4, out[n - 1], out=nxt)
        np.subtract(tmp, nxt, out=nxt)
        nxt /= c1
    return out


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


def norm_constant_table(n_top: int, params: JacobiParams) -> np.ndarray:
    """Positive constants making eigenfunctions n = 0..n_top unit-norm on (0, pi).

    Computed through log-gamma so large degrees stay finite.
    """
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
    # at n = 0 the log and gamma terms above reduce to -gammaln(a + b + 2),
    # which stays finite when a + b + 1 <= 0
    if n_top >= 0:
        ln_h[0] = (a + b + 1) * ln2 + gammaln(a + 1) + gammaln(b + 1) - gammaln(a + b + 2)
    return np.exp(0.5 * (a + b + 1) * ln2 - 0.5 * ln_h)


# Byte budget of the table cache. Every suite treats an ensemble as one
# coefficient block and a run shares one grid per pair, so `verif all
# --trunc 128` makes 612 table requests for 130 distinct tables and builds
# 168 of them (444 hits, 73 %). The basis module evaluates a mirrored grid
# on its positive half only, which is also the key its half-line rule uses,
# so each entry takes half the bytes. The hits are tables that several norms or
# suites share on one grid; without them a pass of that run takes about
# 0.65 s instead of 0.42 s on a 2-core machine. A larger budget saves little
# and raises peak memory.
_TABLE_CACHE_BYTES = 2 * 1024 * 1024


class _TableCache:
    """Least-recently-used tables under a total byte budget.

    A table counts its array bytes plus the node bytes in its key. A table
    larger than the whole budget is never kept. There is no lock: every
    caller in this package runs on the calling thread.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self.nbytes = 0
        self._entries: OrderedDict = OrderedDict()

    def get(self, key):
        entry = self._entries.get(key)
        if entry is None:
            return None
        self._entries.move_to_end(key)
        return entry[0]

    def put(self, key, table: np.ndarray) -> None:
        size = table.nbytes + len(key[-1])
        if size > self.budget:
            return
        self._entries[key] = (table, size)
        self.nbytes += size
        while self.nbytes > self.budget:
            _, (_, dropped) = self._entries.popitem(last=False)
            self.nbytes -= dropped

    def clear(self) -> None:
        self._entries.clear()
        self.nbytes = 0


_TABLE_CACHE = _TableCache(_TABLE_CACHE_BYTES)


def eigenfunction_table(n_top: int, params: JacobiParams, theta: np.ndarray) -> np.ndarray:
    """Rows n = 0..n_top of eigenfunction values at the angles |theta|.

    The rows depend on |theta| only, so -theta gives the same table. The
    result is read-only, and equal arguments share one cached array while it
    stays in the cache.
    """
    th = np.abs(np.atleast_1d(np.asarray(theta, dtype=float)))
    # exact bytes, so -0.0 and 0.0 parameters or nearby nodes never share a table
    pair = np.array([params.alpha, params.beta], dtype=float).tobytes()
    key = (n_top, pair, th.shape, th.tobytes())
    table = _TABLE_CACHE.get(key)
    if table is None:
        table = _eigenfunction_rows(n_top, params, th)
        table.flags.writeable = False
        _TABLE_CACHE.put(key, table)
    return table


def _eigenfunction_rows(n_top: int, params: JacobiParams, th: np.ndarray) -> np.ndarray:
    # uncached build of the rows n = 0..n_top at the angles th
    w = trig_weight(params, th)
    polys = jacobi_poly_table(n_top, params, np.cos(th))
    consts = norm_constant_table(n_top, params)
    return consts[:, None] * w[None, :] * polys


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
        # negated comparisons, so a NaN node or weight fails them too
        if not np.all(np.diff(nodes) > 0):
            raise GridError("nodes must be strictly increasing")
        if not np.all(weights > 0):
            raise GridError("weights must be positive")
        lo = 0.0 if self.interval == "halfline" else -np.pi
        if nodes.size and not (nodes[0] > lo and nodes[-1] < np.pi):
            raise GridError("nodes must lie strictly inside the open interval")
        if self.interval == "symmetric" and np.any(nodes == 0.0):
            raise GridError("symmetric grids must not contain 0")

    def __len__(self) -> int:
        return self.nodes.size

    def integrate(self, values: np.ndarray):
        """Weighted sum along the node axis approximating the integral of
        sampled values; a block of rows gives one integral per row."""
        return np.sum(self.weights * values, axis=-1)


@dataclass(frozen=True)
class GridFunction:
    """Values sampled on a quadrature grid: one row of node values, or a
    block of rows with a leading member axis."""

    grid: QuadratureGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values)
        object.__setattr__(self, "values", values)
        if values.ndim not in (1, 2) or values.shape[-1:] != self.grid.nodes.shape:
            raise GridError("values must match the grid node count")


def gauss_jacobi_rule(n_nodes: int, params: JacobiParams) -> QuadratureGrid:
    """Gauss-Jacobi rule of the given size, mapped to the angle variable.

    The nodes are scipy's Gauss-Jacobi roots. Each weight is the inverse
    Christoffel function 1 / sum_{n < n_nodes} phi_n(t)^2 of the half-line
    eigenfunctions themselves, so the rule shares their normalization. The
    weights integrate trig_weight(params, t)^2 times any polynomial in cos(t)
    of degree at most 2*n_nodes - 1 exactly over (0, pi).
    """
    if n_nodes < 1:
        raise GridError(f"rule size must be positive, got {n_nodes}")
    # near alpha or beta = -1 scipy warns and gives NaN or +-1 roots
    with np.errstate(divide="ignore", invalid="ignore"):
        x, _ = roots_jacobi(n_nodes, params.alpha, params.beta)
    try:
        if not np.all(np.abs(x) < 1.0):  # negated, so a NaN root fails it too
            raise GridError("a root is not finite or lies outside (-1, 1)")
        # ascending theta corresponds to descending x; these N x N rows bypass
        # the table cache, where they would evict the tables callers reuse
        theta = np.arccos(x[::-1])
        rows = _eigenfunction_rows(n_nodes - 1, params, theta)
        weights = 1.0 / np.sum(rows**2, axis=0)
        return QuadratureGrid(nodes=theta, weights=weights, interval="halfline")
    except GridError as exc:
        raise GridError(
            f"no Gauss-Jacobi rule of size {n_nodes} for alpha={params.alpha}, "
            f"beta={params.beta}: {exc}"
        ) from exc


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
