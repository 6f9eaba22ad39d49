"""Norms, admissibility predicates, ensembles, and divergence detectors."""

import dataclasses
import math

import numpy as np

from .basis import SymmExpansion, _eval_parts, eval_symm_expansion, synthesize
from .core import GridFunction, JacobiParams, QuadratureGrid
from .errors import (
    AdmissibilityError,
    DomainError,
    EnsembleError,
    GridError,
)
from .operators import (
    FD_MARGIN,
    apply_dunkl_fd,
    dunkl_derivative,
    spectral_base,
    symm_higher_derivative,
)


def lp_norm(f: GridFunction, p: float):
    """Quadrature value of the p-norm; p = inf takes the node maximum.

    One row of values gives a float, a block one norm per row.
    """
    if p < 1:
        raise DomainError(f"p must be at least 1, got {p}")
    mags = np.abs(f.values)
    if math.isinf(p):
        norms = np.max(mags, axis=-1, initial=0.0)
    else:
        norms = f.grid.integrate(mags**p) ** (1.0 / p)
    return float(norms) if norms.ndim == 0 else norms


def _require_admissible(params: JacobiParams, p: float) -> None:
    if not params.contains_p(p):
        lo, hi = params.admissible_range()
        raise AdmissibilityError(
            f"p={p} lies outside the admissible open range ({lo}, {hi}) "
            f"for alpha={params.alpha}, beta={params.beta}"
        )


def potential_norm(e: SymmExpansion, p: float, s: float, grid: QuadratureGrid):
    """Norm of the exact coefficient-space preimage under the smoothing flow.

    Band-limited input makes the preimage exact, so no integral operator is
    ever inverted. When the bottom eigenvalue is zero the shifted flow
    (identity plus generator) replaces the plain one.
    """
    if s <= 0:
        raise DomainError(f"smoothness must be positive, got {s}")
    _require_admissible(e.params, p)
    rates = spectral_base(e.params, e.eigenvalues()) ** (s / 2.0)
    sharpened = SymmExpansion(e.params, e.coeffs * rates)
    return lp_norm(synthesize(sharpened, grid), p)


def sobolev_norm(e: SymmExpansion, p: float, m: int, grid: QuadratureGrid):
    """Sum over orders 0..m of the p-norms of the variable-index derivatives."""
    if m < 1:
        raise DomainError(f"order must be a positive integer, got {m}")
    _require_admissible(e.params, p)
    total = 0.0
    for k in range(m + 1):
        values = _eval_parts(symm_higher_derivative(e, k), grid.nodes)
        total += lp_norm(GridFunction(grid, values), p)
    return total


def _fd_node_margin(grid: QuadratureGrid) -> float:
    return float(np.min(np.minimum(np.abs(grid.nodes), math.pi - np.abs(grid.nodes))))


def alt_sobolev_norms(
    e: SymmExpansion, p: float, m: int, grid: QuadratureGrid
) -> tuple[float, float]:
    """The two alternative Sobolev norms: fixed-index and variable-index.

    The fixed-index version iterates the coefficient-space reflection
    derivative, which keeps every order band-limited. The variable-index
    version shifts the parameters up at each step; from the second order on,
    that composition leaves the band-limited span, so the outer layers are
    applied pointwise by finite differences on the synthesized function.
    """
    if m < 1:
        raise DomainError(f"order must be a positive integer, got {m}")
    _require_admissible(e.params, p)

    fixed_total = 0.0
    current = e
    for k in range(m + 1):
        if k > 0:
            current = dunkl_derivative(current)
        fixed_total += lp_norm(synthesize(current, grid), p)

    if m >= 2 and _fd_node_margin(grid) <= FD_MARGIN:
        raise GridError(
            "variable-index orders beyond 1 are evaluated by finite "
            f"differences and need every node farther than {FD_MARGIN:.4g} "
            "from 0 and the endpoints"
        )

    variable_total = lp_norm(synthesize(e, grid), p)
    first = dunkl_derivative(e)
    for k in range(1, m + 1):
        if k == 1:
            values = eval_symm_expansion(first, grid.nodes)
        else:
            evaluator = (lambda exp: (lambda t: eval_symm_expansion(exp, t)))(first)
            for j in range(1, k):
                evaluator = (
                    lambda f, pr: (lambda t: apply_dunkl_fd(pr, f, t))
                )(evaluator, e.params.shift(j))
            values = evaluator(grid.nodes)
        variable_total += lp_norm(GridFunction(grid, values), p)
    return fixed_total, variable_total


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


def uniform_time_grid(n: int, span: float = 2.0 * math.pi) -> TimeGrid:
    if n < 1:
        raise GridError(f"need at least one time node, got {n}")
    step = span / n
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


def truncated_lp_powers(
    f,
    p: float,
    eps0: float,
    levels: int = 5,
    upper_margin: float = 0.25,
    panel_order: int = 32,
) -> np.ndarray:
    """Integrals of |f|^p over (eps, pi - upper_margin) at dyadic cutoffs.

    Refinement is one-sided: the cutoff near 0 halves at each level while the
    far endpoint stays fixed. Each level reuses the previous one and only adds
    the newly uncovered strip, so the sequence is nondecreasing by
    construction. Panels grow geometrically away from the cutoff, which keeps
    a fixed-order rule accurate against power-type blowup.
    """
    if eps0 <= 0 or levels < 1:
        raise DomainError(f"need eps0 > 0 and levels >= 1, got {eps0}, {levels}")
    upper = math.pi - upper_margin
    if eps0 >= upper:
        raise DomainError(f"first cutoff {eps0} must sit below {upper}")
    gl_x, gl_w = np.polynomial.legendre.leggauss(panel_order)

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


def flag_divergent_by_growth(values, factor: float = 1.5) -> bool:
    """Growth-factor detector: three successive refinement ratios >= factor.

    This is the right test for power-type blowup, where truncated integrals
    grow geometrically. It provably cannot fire on logarithmic divergence,
    whose refinement ratios tend to 1; see flag_divergent_by_exponent.
    """
    values = np.asarray(values, dtype=float)
    if values.size < 4:
        raise DomainError("need at least four refinement levels")
    ratios = values[1:] / values[:-1]
    hits = ratios >= factor
    return bool(np.any(hits[:-2] & hits[1:-1] & hits[2:]))


@dataclasses.dataclass(frozen=True)
class DivergenceVerdict:
    divergent: bool
    mean_exponent: float
    exponents: tuple


def flag_divergent_by_exponent(values, threshold: float = 0.95) -> DivergenceVerdict:
    """Exponent detector: estimates the local blowup rate from increments.

    For integrands behaving like theta^-r near the cutoff, successive
    increments satisfy delta_{j+1}/delta_j -> 2^(r-1), so
    1 + log2 of that ratio recovers r. Divergence means r >= 1; the threshold
    sits just under 1 so the borderline logarithmic case is caught while
    convergent rates like 0.5 stay well clear.
    """
    values = np.asarray(values, dtype=float)
    if values.size < 4:
        raise DomainError("need at least four refinement levels")
    diffs = np.diff(values)
    if np.any(diffs <= 0):
        return DivergenceVerdict(False, -math.inf, ())
    exponents = 1.0 + np.log2(diffs[1:] / diffs[:-1])
    mean = float(np.mean(exponents))
    return DivergenceVerdict(mean >= threshold, mean, tuple(float(x) for x in exponents))
