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
from scipy.special import gammaln

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
    """Type parameter pair (alpha, beta), each finite and greater than -1."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not (-1.0 < self.alpha < math.inf and -1.0 < self.beta < math.inf):
            raise DomainError(
                f"type parameters must each be finite and exceed -1, got ({self.alpha}, {self.beta})"
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
    # c1, c2, c3, c4 giving P_{n+1} = ((c2 + c3 x) P_n - c4 P_{n-1}) / c1 for
    # n = 1..n_top-1; each product is taken in the same order as for one
    # scalar n, so the coefficients are bit-identical to scalar ones
    n = np.arange(1, n_top)
    s = alpha + beta
    c1 = 2.0 * (n + 1) * (n + s + 1) * (2 * n + s)
    c2 = (2 * n + s + 1) * (alpha * alpha - beta * beta)
    c3 = (2 * n + s) * (2 * n + s + 1) * (2 * n + s + 2)
    c4 = 2.0 * (n + alpha) * (n + beta) * (2 * n + s + 2)
    return c1, c2, c3, c4


# Rows per block of a recurrence sweep. The factors that do not depend on
# the previous rows are formed a block at a time, which saves a third of
# the array operations per row, and the rule's weight sweep holds one block
# of rows instead of the N x N table of all rows at all nodes.
_ROW_BLOCK = 64


def _jacobi_rows(ring: np.ndarray, n_top: int, params: JacobiParams, x: np.ndarray):
    """Write P_n(x), n = 0..n_top, by the three-term recurrence into ring.

    Row n goes to ring[n % len(ring)], so a ring of at least three rows keeps
    the two rows the next one needs. Yields (n0, rows), rows holding P_n0 on,
    each time the ring fills and once at the end; the caller reads rows
    before resuming.
    """
    a, b = params.alpha, params.beta
    size = len(ring)
    ring[0] = 1.0
    if n_top >= 1:
        ring[1 % size] = 0.5 * (a - b) + 0.5 * (a + b + 2.0) * x
    c1, c2, c3, c4 = _recurrence_coeffs(n_top, a, b)
    # P_{n+1} = ((c2 + c3 x) P_n - c4 P_{n-1}) / c1, one operation at a time
    # into preallocated rows; c2 + c3 x is formed for a block of rows at
    # once, with the same roundings as one row at a time
    linear = np.empty((min(_ROW_BLOCK, c1.size), x.size))
    prev, cur = ring[0], ring[1 % size]
    for lo in range(0, c1.size, _ROW_BLOCK):
        hi = min(lo + _ROW_BLOCK, c1.size)
        block = linear[: hi - lo]
        np.multiply(c3[lo:hi, None], x, out=block)
        block += c2[lo:hi, None]
        rows = zip(range(lo + 1, hi + 1), block, c1[lo:hi].tolist(), c4[lo:hi].tolist())
        for n, row, d1, d4 in rows:
            row *= cur
            j = (n + 1) % size
            nxt = ring[j]
            np.multiply(d4, prev, out=nxt)
            np.subtract(row, nxt, out=nxt)
            nxt /= d1
            prev, cur = cur, nxt
            if j == size - 1:
                yield n + 2 - size, ring
    last = n_top % size
    if n_top < 2 or last != size - 1:  # rows the loop has not yielded
        yield n_top - last, ring[: last + 1]


def jacobi_poly_table(n_top: int, params: JacobiParams, x: np.ndarray) -> np.ndarray:
    """Values P_n(x) for n = 0..n_top, by the three-term recurrence.

    Returns an array of shape (n_top + 1, len(x)).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(np.abs(x) > 1.0):
        raise DomainError("polynomial argument must lie in [-1, 1]")
    out = np.empty((n_top + 1, x.shape[0]))
    for _ in _jacobi_rows(out, n_top, params, x):
        pass
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


# Largest Newton step, relative to the distance of the node from 0 or pi,
# after which the rule takes its nodes as converged. The step converges
# cubically, leaving about a quarter of the cube of the relative step as
# error: up to 2.5e-13 here. Eigenvalues x within a few ulps of +-1 (alpha
# or beta within about 1e-6 of -1 at several hundred nodes) start further
# off and take a second step; a rule whose second step is still larger
# raises.
_NEWTON_LIMIT = 1e-4


def gauss_jacobi_rule(n_nodes: int, params: JacobiParams) -> QuadratureGrid:
    """Gauss-Jacobi rule of the given size, mapped to the angle variable.

    The nodes start as theta_i = arccos(x_i) of the eigenvalues x_i of the
    symmetric Jacobi matrix (LAPACK dsterf) and take one Newton step in
    theta, on a recurrence in 2 sin^2(theta/2) below pi/2 and in
    2 cos^2(theta/2) above it, so nodes near 0 and pi keep their relative
    accuracy. A rule whose step is too large to have converged takes a
    second one, and raises GridError if that is still too large. Each
    weight is the inverse Christoffel function 1 / sum_{n < n_nodes}
    phi_n(t)^2 of the half-line eigenfunctions at the polished node, summed
    over blocks of rows of the same recurrence the tables use, so the rule
    shares their normalization. The weights integrate trig_weight(params,
    t)^2 times any polynomial in cos(t) of degree at most 2*n_nodes - 1
    exactly over (0, pi).
    """
    if n_nodes < 1:
        raise GridError(f"rule size must be positive, got {n_nodes}")
    try:
        theta = np.arccos(_jacobi_eigenvalues(n_nodes, params))
        for _ in range(2):
            start, theta = theta, _newton_step(n_nodes, params, theta)
            if np.all(np.abs(theta - start) <= _NEWTON_LIMIT * np.minimum(start, np.pi - start)):
                break
        else:  # also when a step is NaN
            raise GridError("a node moved too far in two Newton steps to have converged")
        weights = _christoffel_weights(params, theta)
        return QuadratureGrid(nodes=theta, weights=weights, interval="halfline")
    except GridError as exc:
        raise GridError(
            f"no Gauss-Jacobi rule of size {n_nodes} for alpha={params.alpha}, "
            f"beta={params.beta}: {exc}"
        ) from exc


def _jacobi_eigenvalues(n: int, params: JacobiParams) -> np.ndarray:
    # zeros of P_n in descending order, as eigenvalues of the Jacobi matrix
    # of the orthonormal polynomials; scipy.linalg loads here, not on import
    from scipy.linalg.lapack import dsterf

    a, b = params.alpha, params.beta
    s = a + b
    k = np.arange(1, n)
    diag = np.empty(n)
    # an infinite or huge pair overflows here; the root check below refuses it
    with np.errstate(over="ignore", invalid="ignore"):
        diag[0] = (b - a) / (s + 2.0)
        diag[1:] = (b * b - a * a) / ((2 * k + s) * (2 * k + s + 2))
        # at k = 1 the factors k + s and 2k + s - 1 cancel, also when both are 0
        num = 4.0 * k * (k + a) * (k + b) * np.where(k > 1, k + s, 1.0)
        den = (2 * k + s) ** 2 * (2 * k + s + 1) * np.where(k > 1, 2 * k + s - 1, 1.0)
        off = np.sqrt(num / den)
    x = dsterf(diag, off)[0][::-1] if n > 1 else diag
    if not np.all(np.abs(x) < 1.0):  # negated, so a NaN root fails it too
        raise GridError("a root is not finite or lies outside (-1, 1)")
    return x


def _newton_step(n: int, params: JacobiParams, theta: np.ndarray) -> np.ndarray:
    # One Newton step in t on phi_n(t) = trig_weight(t) P_n(cos t), which has
    # the zeros of P_n. Its equation -phi'' + V phi = lambda phi has no phi'
    # term, so phi'' = 0 at a zero and the step converges cubically. P_n'
    # comes from P_n and P_{n-1} by
    #   (2n+s) sin^2(t) P_n'(x) = n ((a-b) - (2n+s) x) P_n + 2 (n+a)(n+b) P_{n-1}.
    # P_k is carried as R_k = P_k(x) / P_k(1) in u = 1 - x = 2 sin^2(t/2) for
    # t < pi/2, and as P_k^(b,a)(-x) / P_k^(b,a)(1) in v = 1 + x = 2 cos^2(t/2)
    # otherwise, together with D_k = R_k - R_{k-1}:
    #   D_{k+1} = B_k D_k - C_k w R_k,  R_{k+1} = R_k + D_{k+1},  w = u or v.
    # Near an endpoint R_k is close to 1 and D_k of order w, so rounding
    # scales with D_k instead of R_k. The three-term recurrence in u rounds
    # in proportion to R_k, an error that grows like n^2 eps there when a is
    # near -1: 2.5e-12 in the first node at (a, b) = (-0.999999, 0), n = 144.
    a, b = params.alpha, params.beta
    s = a + b
    # side 0 for nodes below pi/2, where R_k runs in u with the pair (a, b);
    # side 1 above, in v with the pair (b, a)
    side = (theta >= 0.5 * np.pi).astype(np.intp)
    sin2 = np.sin(0.5 * theta) ** 2
    cos2 = np.cos(0.5 * theta) ** 2
    w = 2.0 * np.where(side, cos2, sin2)
    d = -(s + 2.0) / (2.0 * (np.array([a, b])[side] + 1.0)) * w  # D_1 = R_1 - 1
    r = 1.0 + d
    # B_k and C_k of each side, k = 1..n-1, from the three-term coefficients
    # and the endpoint values P_k(1) = binom(k + near, k)
    k = np.arange(1, n)[:, None]
    near, far = np.array([[a, b]]), np.array([[b, a]])
    top = (k + s + 1) * (k + near + 1)
    coef_b = k * (k + far) * (2 * k + s + 2) / (top * (2 * k + s))
    coef_c = (2 * k + s + 1) * (2 * k + s + 2) / (2 * top)
    rows_b = np.empty((min(_ROW_BLOCK, n - 1), theta.size))
    rows_cw = np.empty_like(rows_b)
    tmp = np.empty_like(w)
    for lo in range(0, n - 1, _ROW_BLOCK):
        hi = min(lo + _ROW_BLOCK, n - 1)
        np.take(coef_b[lo:hi], side, axis=1, out=rows_b[: hi - lo])
        np.take(coef_c[lo:hi], side, axis=1, out=rows_cw[: hi - lo])
        rows_cw[: hi - lo] *= w
        for row_b, row_cw in zip(rows_b[: hi - lo], rows_cw[: hi - lo]):
            np.multiply(row_cw, r, out=tmp)
            d *= row_b
            d -= tmp
            r += d
    # P_{n-1} / P_n = (n / (n+a)) R_{n-1} / R_n on side 0; on side 1
    # P_k = (-1)^k P_k^(b,a)(-x) gives -(n / (n+b)) times the ratio there
    q = (r - d) * np.array([2.0 * n * (n + b), -2.0 * n * (n + a)])[side]
    # n ((a-b) - (2n+s) x) minus (2n+s) sin(t) trig_weight'(t) / trig_weight(t)
    lin = n * (a - b) - (2 * n + s) * ((n + a + 0.5) * cos2 - (n + b + 0.5) * sin2)
    return theta + (2 * n + s) * np.sin(theta) * r / (lin * r + q)


def _christoffel_weights(params: JacobiParams, theta: np.ndarray) -> np.ndarray:
    # 1 / sum_n phi_n(theta)^2 over n < len(theta), from the rows the tables
    # use, one block of squared rows and one matrix-vector product at a time
    n = theta.size
    consts = norm_constant_table(n - 1, params) ** 2
    ring = np.empty((min(_ROW_BLOCK, n), n))
    squares = np.empty_like(ring)
    total = np.zeros(n)
    for start, rows in _jacobi_rows(ring, n - 1, params, np.cos(theta)):
        sq = np.square(rows, out=squares[: len(rows)])
        total += consts[start : start + len(rows)] @ sq
    return 1.0 / (trig_weight(params, theta) ** 2 * total)


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
