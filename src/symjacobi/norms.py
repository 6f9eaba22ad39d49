"""Norms, admissibility predicates, ensembles, and divergence detectors."""

import dataclasses
import math

import numpy as np

from .basis import SymmExpansion, _eval_parts, symm_eigenvalues, synthesize, to_halfline
from .core import GAUSS_LEGENDRE_32, GridFunction, JacobiParams, QuadratureGrid, _memo_by_pair
from .errors import (
    AdmissibilityError,
    DomainError,
    EnsembleError,
    GridError,
)
from .operators import spectral_base, var_index_derivative


def lp_norm(f: GridFunction, p: float):
    """Quadrature value of the p-norm; p = inf takes the node maximum.

    One row of values gives a float, a block one norm per row.
    """
    if p < 1:
        raise DomainError(f"p must be at least 1, got {p}")
    # a fresh array, so raised and weighted in place: the one temporary
    mags = np.abs(f.values, dtype=float)
    if math.isinf(p):
        norms = np.max(mags, axis=-1, initial=0.0)
    else:
        mags **= p
        mags *= f.grid.weights
        norms = np.add.reduce(mags, axis=-1) ** (1.0 / p)
    return float(norms) if norms.ndim == 0 else norms


def _require_admissible(params: JacobiParams, p: float, error: type[Exception]) -> None:
    # the one refusal of an inadmissible p; each caller names its error type
    if not params.contains_p(p):
        lo, hi = params.admissible_range()
        raise error(
            f"p={p} lies outside the open admissible interval ({lo:.6g}, {hi:.6g}) "
            f"for alpha={params.alpha}, beta={params.beta}"
        )


def potential_norm(e: SymmExpansion, p: float, s: float, grid: QuadratureGrid):
    """Norm of the exact coefficient-space preimage under the smoothing flow.

    Band-limited input makes the preimage exact, so no integral operator is
    ever inverted. When the bottom eigenvalue is zero the shifted flow
    (identity plus generator) replaces the plain one. The rates come from
    a bounded cache.
    """
    if s <= 0:
        raise DomainError(f"smoothness must be positive, got {s}")
    _require_admissible(e.params, p, AdmissibilityError)
    sharpened = SymmExpansion(e.params, e.coeffs * _potential_rates(e.params, len(e), s))
    return lp_norm(synthesize(sharpened, grid), p)


@_memo_by_pair(maxsize=64)
def _potential_rates(params: JacobiParams, n_coeffs: int, s: float) -> np.ndarray:
    # spectral_base(lambda)^(s/2) at the symmetrized slots
    return spectral_base(params, symm_eigenvalues(n_coeffs, params)) ** (s / 2.0)


def sobolev_norm(e: SymmExpansion, p: float, m: int, grid: QuadratureGrid):
    """Sum over orders 0..m of the p-norms of the variable-index derivatives.

    The expansion is split into its half-line parts once, and each part is
    lowered k times for order k, as symm_higher_derivative does.
    """
    return sum(_sobolev_terms(e, p, m, grid))


def _sobolev_terms(e: SymmExpansion, p: float, m: int, grid: QuadratureGrid) -> list:
    # the p-norms of orders 0..m that sobolev_norm sums in order, so a sum
    # of the first k + 1 is bitwise the order-k norm
    if m < 1:
        raise DomainError(f"order must be a positive integer, got {m}")
    _require_admissible(e.params, p, AdmissibilityError)
    parts = to_halfline(e)
    terms = []
    for k in range(m + 1):
        values = _eval_parts([var_index_derivative(h, k) for h in parts], grid.nodes)
        terms.append(lp_norm(GridFunction(grid, values), p))
    return terms


@dataclasses.dataclass(frozen=True)
class AdmissibilityRecord:
    """Structured verdicts for the exponent conditions at one parameter pair."""

    params: JacobiParams
    p: float
    q: float | None
    sigma: float | None
    s: float | None
    p_range: tuple[float, float]
    p_admissible: bool
    smoothing_lp_lq: bool | None
    smoothing_lp_linf: bool | None
    embedding: bool | None
    continuity: bool | None


def admissibility(
    params: JacobiParams,
    p: float,
    q: float | None = None,
    sigma: float | None = None,
    s: float | None = None,
) -> AdmissibilityRecord:
    """Exact-arithmetic decisions for the exponent inequalities."""
    both_above = params.alpha >= -0.5 and params.beta >= -0.5

    smoothing_lp_lq = None
    smoothing_lp_linf = None
    if sigma is not None:
        smoothing_lp_linf = both_above and 1.0 / p < 2.0 * sigma
        if q is not None:
            if math.isinf(q):
                smoothing_lp_lq = smoothing_lp_linf
            else:
                smoothing_lp_lq = 1.0 / q >= 1.0 / p - 2.0 * sigma

    embedding = None
    continuity = None
    if s is not None:
        continuity = both_above and s > 1.0 / p
        if q is not None:
            inv_q = 0.0 if math.isinf(q) else 1.0 / q
            embedding = inv_q >= 1.0 / p - s

    return AdmissibilityRecord(
        params=params,
        p=p,
        q=q,
        sigma=sigma,
        s=s,
        p_range=params.admissible_range(),
        p_admissible=params.contains_p(p),
        smoothing_lp_lq=smoothing_lp_lq,
        smoothing_lp_linf=smoothing_lp_linf,
        embedding=embedding,
        continuity=continuity,
    )


@dataclasses.dataclass(frozen=True)
class TimeGrid:
    """Uniform quadrature in the time variable."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.shape != weights.shape or nodes.ndim != 1:
            raise GridError("time nodes and weights must be matching 1-d arrays")


def uniform_time_grid(n: int) -> TimeGrid:
    """Midpoint rule with n nodes over one period (0, 2 pi)."""
    if n < 1:
        raise GridError(f"need at least one time node, got {n}")
    step = 2.0 * math.pi / n
    nodes = (np.arange(n) + 0.5) * step
    return TimeGrid(nodes, np.full(n, step))


def mixed_norm(
    values: np.ndarray,
    theta_grid: QuadratureGrid,
    time_grid: TimeGrid,
    p: float,
    q: float,
) -> float:
    """Inner q-norm in time per angle node, then outer p-norm in angle."""
    if p < 1 or q < 1:
        raise DomainError(f"exponents must be at least 1, got p={p}, q={q}")
    values = np.asarray(values)
    if values.shape != (theta_grid.nodes.size, time_grid.nodes.size):
        raise GridError("values must be shaped (angle nodes, time nodes)")
    mags = np.abs(values)
    if math.isinf(q):
        inner = np.max(mags, axis=1)
    else:
        inner = (mags**q @ time_grid.weights) ** (1.0 / q)
    return lp_norm(GridFunction(theta_grid, inner), p)


@dataclasses.dataclass(frozen=True)
class RatioStats:
    """Summary of norm_a / norm_b over an ensemble.

    ratios holds the per-member ratios in ensemble order, without the
    members whose two norms both vanish.
    """

    minimum: float
    maximum: float
    mean: float
    count: int
    min_index: int
    max_index: int
    ratios: tuple

    @property
    def window(self) -> float:
        return self.maximum / self.minimum


def equivalence_ratio(norms_a, norms_b) -> RatioStats:
    """Ratio statistics of norms_a / norms_b, two arrays of per-member norms."""
    a = np.asarray(norms_a, dtype=float)
    b = np.asarray(norms_b, dtype=float)
    indices = np.flatnonzero((a != 0.0) | (b != 0.0))
    if not indices.size:
        raise EnsembleError("ensemble is degenerate: every member has zero norm")
    a, b = a[indices], b[indices]
    with np.errstate(divide="ignore"):
        ratios = np.where(b > 0.0, a / b, math.inf)
    lo = int(np.argmin(ratios))
    hi = int(np.argmax(ratios))
    return RatioStats(
        minimum=float(ratios[lo]),
        maximum=float(ratios[hi]),
        mean=float(np.mean(ratios)),
        count=len(ratios),
        min_index=int(indices[lo]),
        max_index=int(indices[hi]),
        ratios=tuple(ratios.tolist()),
    )


def random_band_limited(
    params: JacobiParams,
    degree: int,
    count: int,
    seed: int,
    decay: float = 1.0,
) -> SymmExpansion:
    """Seeded block of count members with polynomially decaying envelopes.

    Row i draws from a generator keyed by (seed, i), so the draw at a lower
    degree is exactly the leading columns of the draw at a higher one.
    """
    if degree < 0 or count < 1:
        raise EnsembleError(f"need degree >= 0 and count >= 1, got {degree}, {count}")
    envelope = (1.0 + np.arange(degree + 1)) ** -decay
    rows = [np.random.default_rng([seed, i]).uniform(-1.0, 1.0, degree + 1) for i in range(count)]
    return SymmExpansion(params, np.stack(rows) * envelope)


def truncated_lp_powers(f, p: float, eps0: float, levels: int = 5) -> np.ndarray:
    """Integrals of |f|^p over (eps, pi - 1/4) at dyadic cutoffs.

    Refinement is one-sided: the cutoff near 0 halves at each level while the
    far endpoint stays fixed. Each level reuses the previous one and only adds
    the newly uncovered strip, so the sequence is nondecreasing by
    construction. Panels grow geometrically away from the cutoff, which keeps
    a fixed-order rule (32-point Gauss-Legendre) accurate against power-type
    blowup.
    """
    if eps0 <= 0 or levels < 1:
        raise DomainError(f"need eps0 > 0 and levels >= 1, got {eps0}, {levels}")
    upper = math.pi - 0.25
    if eps0 >= upper:
        raise DomainError(f"first cutoff {eps0} must sit below {upper}")
    gl_x, gl_w = GAUSS_LEGENDRE_32

    def panel(a, b):
        mid, rad = 0.5 * (a + b), 0.5 * (b - a)
        t = mid + rad * gl_x
        return rad * np.dot(gl_w, np.abs(f(t)) ** p)

    # base level: geometric panels from eps0 to the fixed far end
    total = 0.0
    a = eps0
    while a < upper:
        b = min(2.0 * a, upper)
        total += panel(a, b)
        a = b
    out = [total]
    for j in range(1, levels):
        eps = eps0 * 2.0**-j
        out.append(out[-1] + panel(eps, 2.0 * eps))
    return np.asarray(out)


def flag_divergent_by_growth(values) -> bool:
    """Growth-factor detector: three successive refinement ratios >= 1.5.

    This is the right test for power-type blowup, where truncated integrals
    grow geometrically. It provably cannot fire on logarithmic divergence,
    whose refinement ratios tend to 1; see flag_divergent_by_exponent.
    """
    values = np.asarray(values, dtype=float)
    if values.size < 4:
        raise DomainError("need at least four refinement levels")
    ratios = values[1:] / values[:-1]
    hits = ratios >= 1.5
    return bool(np.any(hits[:-2] & hits[1:-1] & hits[2:]))


@dataclasses.dataclass(frozen=True)
class DivergenceVerdict:
    divergent: bool
    mean_exponent: float
    exponents: tuple


def flag_divergent_by_exponent(values) -> DivergenceVerdict:
    """Exponent detector: estimates the local blowup rate from increments.

    For integrands behaving like theta^-r near the cutoff, successive
    increments satisfy delta_{j+1}/delta_j -> 2^(r-1), so
    1 + log2 of that ratio recovers r. Divergence means r >= 1; a mean rate
    of 0.95 or more counts, just under 1, so the borderline logarithmic case
    is caught while convergent rates like 0.5 stay well clear.
    """
    values = np.asarray(values, dtype=float)
    if values.size < 4:
        raise DomainError("need at least four refinement levels")
    diffs = np.diff(values)
    if np.any(diffs <= 0):
        return DivergenceVerdict(False, -math.inf, ())
    exponents = 1.0 + np.log2(diffs[1:] / diffs[:-1])
    mean = float(np.mean(exponents))
    return DivergenceVerdict(mean >= 0.95, mean, tuple(float(x) for x in exponents))
