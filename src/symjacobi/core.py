"""Half-line eigenbasis primitives.

Everything here lives on the interval (0, pi): Jacobi polynomials evaluated at
cos(theta), the square-root trigonometric weight, L2-normalized eigenfunctions,
their eigenvalues, and Gauss-Jacobi quadrature rules expressed directly in the
angle variable.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass

import numpy as np

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
    "GAUSS_LEGENDRE_32",
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
    def zero_bottom(self) -> bool:
        """Whether the bottom eigenvalue is 0, that is alpha + beta = -1."""
        return self.eigen_shift == 0.0

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
        """Both parameters moved up by the integer k; a repeat returns the
        same instance, from a bounded cache."""
        return _shifted(self, k)

    def label(self) -> str:
        """The pair as case names write it, such as (0.3,0.7)."""
        return f"({self.alpha:g},{self.beta:g})"

    @functools.cached_property
    def key(self) -> bytes:
        """Exact bytes of (alpha, beta): -0.0 and 0.0 never share a table,
        grid or memo. Formed once per instance."""
        return np.array([self.alpha, self.beta], dtype=float).tobytes()


def _memo_by_pair(maxsize: int):
    """Bounded memo of fn(params, *args); an array it returns is read-only.

    Pairs are told apart by their exact bytes and the types of alpha and
    beta, not by dataclass equality, under which (-0.0, 0) equals (0.0, 0)
    and 1 equals 1.0.
    """

    def decorate(fn):
        @functools.lru_cache(maxsize=maxsize, typed=True)
        def cached(alpha, beta, key, *args):
            out = fn(JacobiParams(alpha, beta), *args)
            if isinstance(out, np.ndarray):
                out.flags.writeable = False
            return out

        @functools.wraps(fn)
        def memo(params: JacobiParams, *args):
            return cached(params.alpha, params.beta, params.key, *args)

        memo.cache_info, memo.cache_clear = cached.cache_info, cached.cache_clear
        return memo

    return decorate


@_memo_by_pair(maxsize=64)
def _shifted(params: JacobiParams, k: int) -> JacobiParams:
    return JacobiParams(params.alpha + k, params.beta + k)


def eigenvalue(n: int, params: JacobiParams) -> float:
    """n-th eigenvalue (n + A)^2 of the half-line operator."""
    if n < 0:
        raise DomainError(f"eigenvalue index must be nonnegative, got {n}")
    return (n + params.eigen_shift) ** 2


def jacobi_poly_table(n_top: int, params: JacobiParams, x: np.ndarray) -> np.ndarray:
    """Values P_n(x) for n = 0..n_top, by the three-term recurrence.

    Returns an array of shape (n_top + 1, len(x)).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(np.abs(x) > 1.0):
        raise DomainError("polynomial argument must lie in [-1, 1]")
    a, b = params.alpha, params.beta
    s = a + b
    out = np.empty((n_top + 1, x.shape[0]))
    out[0] = 1.0
    if n_top >= 1:
        out[1] = 0.5 * (a - b) + 0.5 * (a + b + 2.0) * x
    for n in range(1, n_top):
        c1 = 2.0 * (n + 1) * (n + s + 1) * (2 * n + s)
        c2 = (2 * n + s + 1) * (a * a - b * b)
        c3 = (2 * n + s) * (2 * n + s + 1) * (2 * n + s + 2)
        c4 = 2.0 * (n + a) * (n + b) * (2 * n + s + 2)
        out[n + 1] = ((c3 * x + c2) * out[n] - c4 * out[n - 1]) / c1
    return out


def _check_angles(params: JacobiParams, th: np.ndarray) -> None:
    if np.any(np.abs(th) >= np.pi):
        raise DomainError("weight is only defined for |theta| < pi")
    if params.alpha < -0.5 and np.any(th == 0.0):
        raise SingularPointError(f"weight is singular at theta=0 for alpha={params.alpha} < -1/2")


def trig_weight(params: JacobiParams, theta: float | np.ndarray):
    """Square-root trigonometric weight |sin(t/2)|^(a+1/2) cos(t/2)^(b+1/2).

    Defined for |theta| < pi. At theta = 0 the value is the limit, which only
    exists for alpha >= -1/2.
    """
    scalar = np.isscalar(theta)
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    _check_angles(params, th)
    vals = _trig_power(params.alpha, params.beta, th)
    return float(vals[0]) if scalar else vals


def _trig_power(a: float, b: float, th: np.ndarray) -> np.ndarray:
    # any exponents; the sine of |t|/2 < pi/2 is nonnegative, so needs no abs
    half = 0.5 * np.abs(th)
    return np.sin(half) ** (a + 0.5) * np.cos(half) ** (b + 0.5)


def norm_constant_table(n_top: int, params: JacobiParams) -> np.ndarray:
    """Positive constants making eigenfunctions n = 0..n_top unit-norm on (0, pi).

    Computed in logarithms so large degrees stay finite.
    """
    a, b = params.alpha, params.beta
    n = np.arange(1, n_top + 1)
    # h_n / h_{n-1} for the squared norms h_n of trig_weight * P_n on (0, pi),
    # h_0 = B(a + 1, b + 1); at n = 1 the factors n + a + b and 2n + a + b - 1
    # cancel, also when both are 0
    step = (n + a) * (n + b) * np.where(n > 1, 2 * n + a + b - 1, 1.0)
    step /= n * np.where(n > 1, n + a + b, 1.0) * (2 * n + a + b + 1)
    ln_h = _log_beta(a + 1.0, b + 1.0) + np.cumsum(np.log(np.concatenate([[1.0], step])))
    return np.exp(-0.5 * ln_h[: n_top + 1])


# Bernoulli terms B_2k / (2k (2k - 1)) of Stirling's series for ln Gamma;
# from x = 10 on, the first term left out is below 2e-18
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156, -3617 / 122400)


def _log_beta(p: float, q: float) -> float:
    # ln B(p, q) by Stirling's formula, whose large terms cancel in closed
    # form: lgamma(p) + lgamma(q) - lgamma(p + q) loses 1e-10 at p = 1e5
    def tail(x):  # ln Gamma(x) - (x - 1/2) ln x + x - ln(2 pi) / 2
        if x < 10.0:
            return math.lgamma(x) - (x - 0.5) * math.log(x) + x - 0.5 * math.log(2 * math.pi)
        return sum(c * x ** -(2 * k + 1) for k, c in enumerate(_STIRLING))

    s = p + q
    lo, hi = sorted((p, q))
    return (
        0.5 * math.log(2 * math.pi / s) + (lo - 0.5) * math.log(lo / s)
        + (hi - 0.5) * math.log1p(-lo / s) + tail(p) + tail(q) - tail(s)
    )


# The angle facts of each live grid's own node arrays, `grid.nodes` and
# `grid.half.nodes`, keyed by the array's id. A grid holds its facts and the
# facts hold the node array, so an entry leaves as soon as the last grid on
# that array is dropped, and an id is never reused while its entry lives.
_GRID_FACTS: "weakref.WeakValueDictionary[int, _Angles]" = weakref.WeakValueDictionary()

# Largest table a store keeps; a larger one is returned and not kept. It is
# the smallest power-of-two MiB above a half table of a degree-512 analysis,
# 257 rows on 1,040 nodes (2,138,240 bytes), so a held grid builds each of
# those once; a degree-1024 table on 2,064 nodes (8.5 MB) is not kept.
_TABLE_CAP_BYTES = 4 * 1024 * 1024


def _mirror_split(theta: np.ndarray) -> int | None:
    """k when the second half of theta mirrors the first exactly, else None.

    Mirrored means theta[k:] > 0 and -theta[:k][::-1] == theta[k:] bitwise,
    with k = theta.size / 2. A 0 node, a NaN, an odd count or a node one ulp
    off its mirror image all give None.
    """
    if theta.size % 2:
        return None
    k = theta.size // 2
    pos = theta[k:]
    if np.all(pos > 0) and np.array_equal(-theta[:k][::-1], pos):
        return k
    return None


class _Nodes:
    """Read-only absolute angles and the exact bytes that key their tables;
    the bytes object caches its hash, so a repeat lookup does not rehash."""

    __slots__ = ("angles", "key")

    def __init__(self, angles: np.ndarray) -> None:
        angles.flags.writeable = False
        self.angles, self.key = angles, angles.tobytes()


class _Angles:
    """What an angle array's tables and fold need, derived once from it.

    theta is the array and tables the store its tables are kept in, keyed
    by (pair bytes, angle shape, angle bytes). split is the mirror split,
    or None; sign the signs of the angles when there is no split, for the
    unfolded path; whole the absolute values of all angles, and folded
    those a parity part is evaluated on: the positive half of a mirrored
    set, else whole.
    """

    __slots__ = ("theta", "tables", "size", "split", "sign", "whole", "folded", "__weakref__")

    def __init__(self, theta: np.ndarray, tables: dict) -> None:
        self.theta, self.tables, self.size = theta, tables, theta.size
        self.split = _mirror_split(theta)
        self.sign = None
        if self.split is None:
            self.sign = np.sign(theta)
            self.sign.flags.writeable = False
        self.whole = _Nodes(np.abs(theta))
        self.folded = self.whole if self.split is None else _Nodes(np.abs(theta[self.split :]))


def _angle_facts(theta) -> _Angles:
    """The facts of theta: its grid's when theta is a live grid's own node
    array, else derived for this call, with a store dropped on return.

    Any other array, a view, slice or copy of a grid's nodes too, gets
    facts derived afresh; the tables built on them are bitwise those a
    grid keeps.
    """
    facts = _GRID_FACTS.get(id(theta))
    if facts is None:
        facts = _Angles(np.atleast_1d(np.asarray(theta, dtype=float)), {})
    return facts


def _stored_table(n_top: int, params: JacobiParams, tables: dict, nodes: _Nodes) -> np.ndarray:
    """Rows n = 0..n_top at the angles of nodes, from tables or built into it."""
    # exact bytes, so nearby nodes never share a table
    key = (params.key, nodes.angles.shape, nodes.key)
    table = tables.get(key)
    if table is None or table.shape[0] <= n_top:
        table = _eigenfunction_rows(n_top, params, nodes.angles, table)
        table.flags.writeable = False
        if table.nbytes <= _TABLE_CAP_BYTES:
            tables[key] = table
    return table if table.shape[0] == n_top + 1 else table[: n_top + 1]


def eigenfunction_table(n_top: int, params: JacobiParams, theta: np.ndarray) -> np.ndarray:
    """Rows n = 0..n_top of eigenfunction values at the angles |theta|.

    The rows come from the orthonormal recurrence in theta that also gives
    the rule weights, so they stay normalized at large alpha and beta. They
    depend on |theta| only, so -theta gives the same table. The result is
    read-only. On a live grid's own node array, `grid.nodes` or
    `grid.half.nodes`, the grid keeps the deepest table built for a pair
    and angle set for as long as it lives: a request at its depth gets
    that array, a shallower one a view of its leading rows, and a deeper
    one is continued from its stored rows and replaces it. A table over
    4 MiB is returned and not kept, and so is every table on other angles,
    a slice or copy of a grid's nodes among them. Rows 0..n of any depth
    are bitwise the rows of a depth-n build.
    """
    facts = _angle_facts(theta)
    return _stored_table(n_top, params, facts.tables, facts.whole)


# Rows per block of a recurrence sweep. The factors that do not depend on
# the previous rows are formed a block at a time, which leaves three array
# operations per row; the rule reduces its rows a block at a time too.
_ROW_BLOCK = 64


def _eigenfunction_rows(
    n_top: int, params: JacobiParams, th: np.ndarray, head: np.ndarray | None = None
) -> np.ndarray:
    """Uncached rows phi_n(th), n = 0..n_top, in one table: from row 0, or
    continued from head, the leading rows of such a table on th."""
    th, cut, order = _below_first(th)
    rows = np.empty((n_top + 1, th.size))
    start = 0
    if head is not None:
        start = head.shape[0]
        rows[:start] = head if order is None else head[:, order]
    _sweep_rows(n_top, params, th, cut, rows, start=start)
    return _unpermute(rows, order)


def _sweep_rows(
    n_top: int,
    params: JacobiParams,
    th: np.ndarray,
    cut: int,
    rows: np.ndarray,
    reduce=None,
    start: int = 0,
) -> None:
    """Rows phi_n(th), n = start..n_top, at angles th whose first cut lie
    below pi/2, written into rows.

    The recurrence s_{n+1} phi_{n+1} = (x - a_n) phi_n - s_n phi_{n-1} of the
    orthonormal polynomials runs on the entries of `_jacobi_matrix` from
    phi_0 = trig_weight / sqrt(B(a + 1, b + 1)), formed in logarithms, or
    from rows start - 2 and start - 1 when start > 0; each row is bitwise
    the same either way. Without reduce, rows is the whole table, holding
    rows 0..start-1 already. With reduce, start is 0 and rows is a window
    of _ROW_BLOCK + 1 rows: for lo = 0, 64, ..., reduce gets rows lo to
    min(lo + 64, n_top), the block from lo and the first row of the next,
    and that row is then carried to the window's top.
    """
    _check_angles(params, th)
    a, b = params.alpha, params.beta
    _, off, ends = _jacobi_matrix(n_top + 1, params)
    half = 0.5 * th
    if start == 0:
        log_w = (b + 0.5) * np.log(np.cos(half)) - 0.5 * _log_beta(a + 1.0, b + 1.0)
        if a != -0.5:  # else sin^0 = 1, also in the limit at th = 0
            with np.errstate(divide="ignore"):  # log 0 at th = 0 gives phi_0 = 0
                log_w += (a + 0.5) * np.log(np.sin(half))
        rows[0] = np.exp(log_w)
        start = 1
    prev = rows[start - 2] if start > 1 else np.zeros(th.size)
    cur = rows[start - 1]
    # x - a_n is ends[n, 0] - 2 sin^2(th/2) below pi/2 and ends[n, 1] +
    # 2 cos^2(th/2) from pi/2 on, so rows next to 0 and pi keep their digits
    shift = np.concatenate([-2.0 * np.sin(half[:cut]) ** 2, 2.0 * np.cos(half[cut:]) ** 2])
    ratio = np.concatenate([[0.0], off[:-1] / off[1:]])  # s_n / s_{n+1}
    tmp, carry = np.empty(th.size), np.empty(th.size)
    top = 0  # the row held in rows[0]
    for lo in range(start - 1, n_top, _ROW_BLOCK):
        hi = min(lo + _ROW_BLOCK, n_top)
        # the factors of rows lo + 1..hi are formed in those rows
        block = rows[lo + 1 - top : hi + 1 - top]
        _spread(ends[lo:hi], cut, block)
        block += shift
        block /= off[lo:hi, None]
        for nxt, r in zip(block, ratio[lo:hi].tolist()):
            nxt *= cur
            np.multiply(r, prev, out=tmp)
            nxt -= tmp
            prev, cur = cur, nxt
        if reduce is not None:
            reduce(rows[: hi - lo + 1])
            rows[0] = cur
            carry[:] = prev  # its row in the window is refilled next
            prev, cur, top = carry, rows[0], hi
    if reduce is not None and n_top % _ROW_BLOCK == 0:
        reduce(rows[:1])  # the last block is the one row carried


def _below_first(th: np.ndarray):
    """th with its angles below pi/2 ahead of the rest, their count, and the
    permutation that put them there: None when th already runs that way,
    as every sorted angle set does. A NaN counts as below."""
    above = th >= 0.5 * np.pi
    cut = th.size - int(np.count_nonzero(above))
    if not above[:cut].any():
        return th, cut, None
    order = np.argsort(above, kind="stable")
    return th[order], cut, order


def _spread(pair: np.ndarray, cut: int, out: np.ndarray) -> None:
    # column 0 of the rows of pair over the first cut angles, column 1 over
    # the rest: two broadcast writes where a gather by side would cost 2 ns
    # per cell
    out[:, :cut] = pair[:, :1]
    out[:, cut:] = pair[:, 1:]


def _unpermute(values: np.ndarray, order) -> np.ndarray:
    # values along the last axis put back where _below_first took them from
    if order is None:
        return values
    out = np.empty_like(values)
    out[..., order] = values
    return out


def _read_only(a) -> np.ndarray:
    # a as a read-only float array, copied when it is writable
    a = np.asarray(a, dtype=float)
    if a.flags.writeable:
        a = a.copy()
        a.flags.writeable = False
    return a


@dataclass(frozen=True)
class QuadratureGrid:
    """Nodes and positive weights for quadrature in the angle variable.

    The nodes increase strictly inside (-pi, pi) and are never 0. They
    decide the layout, read as interval: "symmetric" when a node is
    negative, else "halfline". A layout passed as a third argument must
    agree with them. The nodes and weights are read-only: a writable input
    is copied, so the caller's array stays as it was, and a read-only one,
    such as a rule's, is taken as it is. A grid derives the facts of its
    nodes once (mirror split, signs, absolute values and table keys) and
    keeps the eigenfunction tables built on `grid.nodes` and
    `grid.half.nodes` for as long as it lives; grids on one node array
    share them.
    """

    nodes: np.ndarray
    weights: np.ndarray
    interval: str | None = None

    def __post_init__(self) -> None:
        nodes, weights = _read_only(self.nodes), _read_only(self.weights)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise GridError("nodes and weights must be 1-d arrays of equal length")
        # negated comparisons, so a NaN node or weight fails them too
        if not np.all(np.diff(nodes) > 0):
            raise GridError("nodes must be strictly increasing")
        if not np.all((weights > 0) & (weights < np.inf)):
            raise GridError("weights must be positive and finite")
        if nodes.size and not (nodes[0] > -np.pi and nodes[-1] < np.pi) or np.any(nodes == 0.0):
            raise GridError("nodes must lie inside (-pi, pi) and must not contain 0")
        layout = "symmetric" if nodes.size and nodes[0] < 0.0 else "halfline"
        if self.interval not in (None, layout):
            raise GridError(f"the nodes make a {layout} grid, not {self.interval!r}")
        object.__setattr__(self, "interval", layout)
        facts = _GRID_FACTS.get(id(nodes))
        if facts is None:
            facts = _GRID_FACTS[id(nodes)] = _Angles(nodes, {})
        object.__setattr__(self, "_facts", facts)

    def __len__(self) -> int:
        return self.nodes.size

    @functools.cached_property
    def half(self) -> "QuadratureGrid | None":
        """A symmetric grid's positive nodes and weights, as views, on the
        half line; None on a half-line grid. On a mirrored grid it is the
        generating half-line rule, and it shares the grid's tables."""
        if self.interval == "halfline":
            return None
        k = int(np.searchsorted(self.nodes, 0.0))
        half = QuadratureGrid(self.nodes[k:], self.weights[k:])
        half._facts.tables = self._facts.tables
        return half

    def integrate(self, values: np.ndarray):
        """Weighted sum along the node axis approximating the integral of
        sampled values; a block of rows gives one integral per row."""
        return np.add.reduce(self.weights * values, axis=-1)


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


# Nodes and weights of the 32-point Gauss-Legendre rule on (-1, 1), read-only:
# the one fixed-order rule of the composite integrals in norms and squarefn.
GAUSS_LEGENDRE_32 = np.polynomial.legendre.leggauss(32)
for _part in GAUSS_LEGENDRE_32:
    _part.flags.writeable = False
del _part


# A Newton step on phi_n leaves an error of about omega^2 |step|^3 / 3 at a
# node where the eigenfunction equation -phi'' + V phi = lambda phi has the
# local frequency omega^2 = lambda - V, at most (n + A)^2 + 1 / (4 sin^2 t).
# A node is converged once that bound is within _NEWTON_TOL of its distance
# from 0 or pi, and a rule with a node not converged after _NEWTON_STEPS
# steps moves on to the next start.
_NEWTON_TOL = 2.0**-53
_NEWTON_STEPS = 6

# The asymptotic start serves rules of at least 8 nodes with alpha and beta
# at most 60; at alpha >= 1e3 it never converges.
_ASYMPTOTIC_MIN_NODES = 8
_ASYMPTOTIC_MAX_PARAM = 60.0


def gauss_jacobi_rule(n_nodes: int, params: JacobiParams) -> QuadratureGrid:
    """Gauss-Jacobi rule of the given size, mapped to the angle variable.

    Each start is tried in turn until one gives a certified rule:
    closed-form asymptotics (Hale & Townsend, SIAM J. Sci. Comput. 35(2),
    2013) for 8 nodes or more with alpha, beta at most 60, then the
    eigenvalues of the Jacobi matrix (LAPACK `dsterf`, scipy.linalg loaded
    then). Newton steps in theta polish each node until the step's cubic
    convergence bounds its error by 2^-53 of its distance from 0 or pi.
    Each weight is 1 / sum_{n < n_nodes} phi_n(t)^2 over the rows of
    `eigenfunction_table`'s recurrence, summed a block of rows at a time
    without forming the table, and by Sturm's theorem the column of the
    k-th node (ascending theta) must change sign exactly k times. GridError
    names the rule, the pair and the last start's reason, or a weight that
    is not finite. The nodes and weights are read-only. The rule integrates
    trig_weight(params, t)^2 times any polynomial in cos(t) of degree at
    most 2*n_nodes - 1 exactly over (0, pi).
    """
    if n_nodes < 1:
        raise GridError(f"rule size must be positive, got {n_nodes}")
    try:
        for start in (_asymptotic_start, _eigenvalue_start):
            try:
                theta = start(n_nodes, params)
                if theta is None:
                    continue
                theta = _polish(n_nodes, params, theta)
                weights, changes = _weights_and_sign_changes(n_nodes, params, theta)
                wrong = np.flatnonzero(changes != np.arange(n_nodes))
                if not wrong.size:
                    break
                k = wrong[0]
                raise GridError(
                    f"the sign count of the weight table does not certify node {k}: "
                    f"its column changes sign {changes[k]} times, not {k}"
                )
            except GridError as exc:
                reason = exc
        else:
            raise reason
        theta.flags.writeable = weights.flags.writeable = False
        return QuadratureGrid(theta, weights)
    except GridError as exc:
        raise GridError(
            f"no Gauss-Jacobi rule of size {n_nodes} for alpha={params.alpha}, "
            f"beta={params.beta}: {exc}"
        ) from exc


def _weights_and_sign_changes(n: int, params: JacobiParams, theta: np.ndarray):
    # weights 1 / sum_k phi_k^2 at theta, and the sign changes down each
    # column of rows 0..n-1, both reduced a block of rows at a time as the
    # sweep fills its window, so no n x n table is formed; a zero cell
    # between two rows of opposite sign counts once whatever its sign bit
    theta, cut, order = _below_first(theta)
    total = np.zeros(n)
    changes = np.zeros(n, dtype=np.intp)
    window = np.empty((min(_ROW_BLOCK + 1, n), n))
    signs = np.empty(window.shape, dtype=bool)

    def reduce(rows):
        # the square of the row after the block goes into the next call's sum
        nonlocal total, changes
        block = rows[:_ROW_BLOCK]
        total += np.einsum("ij,ij->j", block, block)
        m = rows.shape[0]
        np.signbit(rows, out=signs[:m])
        # a block spans at most 64 row pairs, so its counts fit a uint8
        changes += np.add.reduce(signs[1:m] != signs[: m - 1], axis=0, dtype=np.uint8)

    _sweep_rows(n - 1, params, theta, cut, window, reduce)
    with np.errstate(divide="ignore"):  # inf where every row underflows
        return _unpermute(1.0 / total, order), _unpermute(changes, order)


def _polish(n: int, params: JacobiParams, theta: np.ndarray) -> np.ndarray:
    """theta, in place, after Newton steps on each node until its error
    bound passes; GridError when a step overflows or a node has not passed
    after 6 steps. A node that leaves (0, pi) never passes."""
    top = (n + params.eigen_shift) ** 2
    todo = np.arange(n)
    for _ in range(_NEWTON_STEPS):
        start = theta[todo]
        # the step's R_k, D_k recurrence overflows at large alpha or beta
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            step = _newton_step(n, params, start)
            err = (top + 0.25 / np.sin(step) ** 2) * np.abs(step - start) ** 3 / 3.0
            done = err <= _NEWTON_TOL * np.minimum(step, np.pi - step)
        if not np.all(np.isfinite(step)):
            raise GridError("the Newton step overflowed: a node is not finite")
        theta[todo] = step
        todo = todo[~done]
        if not todo.size:
            return theta
    raise GridError(f"node {todo[0]} has not converged in {_NEWTON_STEPS} Newton steps")


def _eigenvalue_start(n: int, params: JacobiParams) -> np.ndarray:
    # the zeros of P_n as eigenvalues of the Jacobi matrix; scipy.linalg
    # loads here, not on import
    from scipy.linalg.lapack import dsterf

    diag, off, _ = _jacobi_matrix(n, params)
    x = dsterf(diag, off)[0][::-1] if n > 1 else diag
    if not np.all(np.abs(x) < 1.0):  # negated, so a NaN root fails it too
        raise GridError("a root is not finite or lies outside (-1, 1)")
    return np.arccos(x)


def _asymptotic_start(n: int, params: JacobiParams) -> np.ndarray | None:
    # Gatteschi-Pittaluga's formula at every node, replaced next to each end
    # by Gatteschi's as far as the two agree best: the interior formula is
    # off by tenths of a spacing within about alpha / 4 + 2 nodes of the end,
    # while the error of the boundary formula grows with the distance; None
    # out of the start's range
    a, b = params.alpha, params.beta
    if n < _ASYMPTOTIC_MIN_NODES or max(a, b) > _ASYMPTOTIC_MAX_PARAM:
        return None
    c = 2 * n + a + b + 1
    ang = (2 * np.arange(1, n + 1) + a - 0.5) * np.pi / c
    half = np.tan(0.5 * ang)
    theta = ang + ((0.25 - a * a) / half - (0.25 - b * b) * half) / c**2
    m = n // 2
    low = _boundary_nodes(n, a, b, m)
    k = int(np.argmin(np.abs(low - theta[:m])))
    theta[: k + 1] = low[: k + 1]
    high = np.pi - _boundary_nodes(n, b, a, m)
    k = int(np.argmin(np.abs(high - theta[: -m - 1 : -1])))
    theta[n - 1 - k :] = high[k::-1]
    return theta


def _boundary_nodes(n: int, a: float, b: float, m: int) -> np.ndarray:
    # Gatteschi's formula for the m nodes next to 0, from the zeros of J_a;
    # its error is O(j^5 / n^7)
    j = _bessel_zeros(a, m)
    rho = n + 0.5 * (a + b + 1.0)
    nu = math.sqrt(rho * rho + (1.0 - a * a - 3.0 * b * b) / 12.0)
    corr = (4.0 - a * a - 15.0 * b * b) / (720.0 * nu**4) * (0.5 * j * j + a * a - 1.0)
    return j / nu * (1.0 - corr)


# The first zeros of the Airy function Ai, for Olver's expansion of the
# Bessel zeros; later ones come from their own asymptotic series
_AIRY_ZEROS = np.array([
    -2.338107410459767, -4.087949444130971, -5.520559828095551,
    -6.786708090071759, -7.944133587120853, -9.022650853340980,
])


def _bessel_zeros(nu: float, m: int) -> np.ndarray:
    """The first m positive zeros of J_nu, nu > -1, from closed forms of
    fixed cost in nu.

    From nu = 2.5 on, Olver's uniform expansion (DLMF 10.21.43) to its
    first correction, within 1e-5 of a spacing; below, McMahon's expansion
    for large zeros (DLMF 10.21.19). For nu < 5 the first two zeros are
    then refined by Newton on the power series of J_nu: the first tends to
    0 as nu tends to -1, where McMahon's expansion fails.
    """
    k = np.arange(1, m + 1)
    if nu >= 2.5:
        t = 3.0 * np.pi / 8.0 * (4 * k - 1)  # DLMF 9.9.6 and 9.9.18
        airy = -(t ** (2.0 / 3.0)) * (
            1 + 5 / 48 * t**-2 - 5 / 36 * t**-4 + 77125 / 82944 * t**-6
            - 108056875 / 6967296 * t**-8
        )
        airy[: _AIRY_ZEROS.size] = _AIRY_ZEROS[:m]
        zeta = nu ** (-2.0 / 3.0) * airy
        # z > 1 solves sqrt(z^2 - 1) - arccos(1 / z) = 2/3 (-zeta)^(3/2); the
        # left side is convex and increasing, and z = rhs + pi/2 lies right
        # of the root, so Newton descends to it
        rhs = 2.0 / 3.0 * (-zeta) ** 1.5
        z = rhs + 0.5 * np.pi
        for _ in range(6):
            s = np.sqrt(z * z - 1.0)
            z -= (s - np.arccos(1.0 / z) - rhs) * z / s
        s = np.sqrt(z * z - 1.0)
        b0 = -5.0 / (48.0 * zeta**2) + (5.0 / (24.0 * s**3) + 1.0 / (8.0 * s)) / np.sqrt(-zeta)
        j = nu * z + z * np.sqrt(zeta / (1.0 - z * z)) * b0 / nu
    else:
        mu = 4.0 * nu * nu
        e = 8.0 * (k + 0.5 * nu - 0.25) * np.pi
        j = (
            e / 8 - (mu - 1) / e - 4 * (mu - 1) * (7 * mu - 31) / (3 * e**3)
            - 32 * (mu - 1) * (83 * mu**2 - 982 * mu + 3779) / (15 * e**5)
            - 64 * (mu - 1) * (6949 * mu**3 - 153855 * mu**2 + 1585743 * mu - 6277237)
            / (105 * e**7)
        )
        # the first zero from 2 sqrt((nu + 1)(1 + (nu + 1) / 2)), its form
        # as nu tends to -1; Newton below refines it
        eps = nu + 1.0
        j[0] = 2.0 * math.sqrt(eps * (1.0 + eps / 2.0) / (1.0 + eps / 25.0))
    if nu < 5.0:
        # Newton in y = x^2 / 4 on sum_i (-y)^i / (i! (nu + 1)_i), which is
        # J_nu(x) Gamma(nu + 1) (x / 2)^-nu; 40 terms reach 1e-38 at these y
        y = 0.25 * j[:2] ** 2
        i = np.arange(1, 41)[:, None]
        den = -i * (nu + i)
        for _ in range(6):
            terms = np.cumprod(y / den, axis=0)
            y = y - (1.0 + terms.sum(axis=0)) * y / (i * terms).sum(axis=0)
        j[:2] = 2.0 * np.sqrt(y)
    return j


# The Jacobi-matrix entries of the pairs asked for last, most recent last:
# read-only, built for a power-of-two size and replaced by a larger one when
# a deeper request comes
_JACOBI_PAIRS = 32
_JACOBI_ENTRIES: dict[tuple, tuple] = {}


def _jacobi_matrix(n: int, params: JacobiParams):
    """Jacobi matrix of the orthonormal polynomials p_0..p_{n-1}: diagonal
    a_k, off-diagonal s_k (k >= 1) and rows ends[k] = (1 - a_k, -1 - a_k),
    as read-only slices of the pair's cached entries. Each entry depends
    on k alone, so a slice is bitwise a direct build of size n."""
    # the types too, as in _memo_by_pair: 1 and 1.0 never share an entry
    key = (type(params.alpha), type(params.beta), params.key)
    entry = _JACOBI_ENTRIES.pop(key, None)
    if entry is None or entry[0].size < n:
        entry = _jacobi_entries(1 << (int(n) - 1).bit_length(), params)
        for part in entry:
            part.flags.writeable = False
    _JACOBI_ENTRIES[key] = entry
    if len(_JACOBI_ENTRIES) > _JACOBI_PAIRS:
        del _JACOBI_ENTRIES[next(iter(_JACOBI_ENTRIES))]
    diag, off, ends = entry
    return diag[:n], off[: n - 1], ends[:n]


def _jacobi_entries(n: int, params: JacobiParams):
    # _jacobi_matrix's entries for size n, uncached; the ends are each one
    # quotient, since near -1 or at large alpha or beta one is small
    a, b = params.alpha, params.beta
    s = a + b
    k = np.arange(1, n)
    diag, ends = np.empty(n), np.empty((n, 2))
    near = np.array([a + 1.0, -(b + 1.0)])
    # a huge pair overflows here; the root check of the rule refuses it
    with np.errstate(over="ignore", invalid="ignore"):
        diag[:1] = (b - a) / (s + 2.0)
        ends[:1] = 2.0 * near / (s + 2.0)
        den = (2 * k + s) * (2 * k + s + 2)
        diag[1:] = (b * b - a * a) / den
        ends[1:] = (np.outer(4.0 * k * (k + s + 1), [1.0, -1.0]) + 2.0 * s * near) / den[:, None]
        # at k = 1 the factors k + s and 2k + s - 1 cancel, also when both are 0
        num = 4.0 * k * (k + a) * (k + b) * np.where(k > 1, k + s, 1.0)
        den = (2 * k + s) ** 2 * (2 * k + s + 1) * np.where(k > 1, 2 * k + s - 1, 1.0)
        off = np.sqrt(num / den)
    return diag, off, ends


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
    theta, cut, order = _below_first(theta)
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
        _spread(coef_b[lo:hi], cut, rows_b[: hi - lo])
        _spread(coef_c[lo:hi], cut, rows_cw[: hi - lo])
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
    return _unpermute(theta + (2 * n + s) * np.sin(theta) * r / (lin * r + q), order)


def symmetric_rule(n_nodes_half: int, params: JacobiParams) -> QuadratureGrid:
    """Mirror of the half-line rule across 0, weights kept on each side.

    An even integrand then picks up twice its half-line integral, which is
    the correct full-interval value under the plain angle measure. Gauss
    nodes are interior so 0 never appears. The nodes and weights are
    read-only, as are the views of their positive half in `grid.half`.
    """
    rule = gauss_jacobi_rule(n_nodes_half, params)
    nodes = np.concatenate([-rule.nodes[::-1], rule.nodes])
    weights = np.concatenate([rule.weights[::-1], rule.weights])
    nodes.flags.writeable = weights.flags.writeable = False
    return QuadratureGrid(nodes, weights)
