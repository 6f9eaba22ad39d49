"""Spectral multipliers and derivative-type operators on coefficient vectors.

Every operator here is exact on band-limited expansions: potentials and
semigroups multiply coefficients by a symbol of the eigenvalue, the ladder
and Dunkl-type derivatives move coefficients between neighboring indices
with closed-form constants. Finite-difference helpers at the bottom provide
the independent pointwise route used to validate the spectral one.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .basis import HalfLineExpansion, SymmExpansion, to_halfline
from .core import JacobiParams, _memo_by_pair
from .errors import DomainError, UnsupportedParametersError

__all__ = [
    "ladder_constants",
    "spectral_base",
    "spectral_potential",
    "riesz_potential",
    "bessel_potential",
    "modified_riesz_potential",
    "poisson_semigroup",
    "poisson_time_derivative",
    "schrodinger_propagator",
    "ladder_up",
    "dunkl_derivative",
    "var_index_derivative",
    "symm_higher_derivative",
    "riesz_transform",
    "riesz_transform_shifted",
    "FD_STEP",
    "FD_MARGIN",
    "fd_derivative",
    "apply_ladder_down_fd",
    "apply_ladder_up_fd",
    "apply_dunkl_fd",
]


def _multiply(e, symbol, description: str):
    # coefficients times symbol at each eigenvalue; kind and parity are kept
    if not isinstance(e, (SymmExpansion, HalfLineExpansion)):
        raise DomainError("multipliers act on symmetrized or half-line expansions")
    # a value that is not finite is reported below, so numpy need not warn
    with np.errstate(all="ignore"):
        table = np.asarray(symbol(np.asarray(e.eigenvalues(), dtype=float)))
    if not np.all(np.isfinite(table)):
        raise UnsupportedParametersError(
            f"multiplier {description!r} is not finite on the given spectrum"
        )
    return replace(e, coeffs=e.coeffs * table)


def _require_positive(value: float, name: str) -> None:
    if not value > 0:
        raise DomainError(f"{name} must be positive, got {value}")


def spectral_base(params: JacobiParams, eigenvalues: np.ndarray) -> np.ndarray:
    """Base of the smoothing powers: 1 + eigenvalue when the bottom
    eigenvalue is 0, the eigenvalue itself otherwise.

    Negative powers of the plain operator blow up at a zero eigenvalue, so
    that case takes the shifted operator throughout.
    """
    return 1.0 + eigenvalues if params.zero_bottom else eigenvalues


def spectral_potential(e: SymmExpansion, sigma: float) -> SymmExpansion:
    """Power -sigma of spectral_base: the plain potential, or the shifted
    one when the bottom eigenvalue is 0; defined for every pair."""
    _require_positive(sigma, "sigma")
    return _multiply(
        e, lambda lam: spectral_base(e.params, lam) ** (-sigma), f"spectral_base^(-{sigma:g})"
    )


def riesz_potential(e: SymmExpansion, sigma: float) -> SymmExpansion:
    """Negative power of the operator; rejects a zero bottom eigenvalue."""
    if e.params.zero_bottom:
        raise UnsupportedParametersError(
            "negative powers are undefined when the bottom eigenvalue is 0 "
            f"(alpha + beta = -1 at {e.params.label()}); use the shifted form"
        )
    return spectral_potential(e, sigma)


def bessel_potential(e: SymmExpansion, sigma: float) -> SymmExpansion:
    """Negative power of (1 + operator); defined for every parameter pair."""
    _require_positive(sigma, "sigma")
    return _multiply(e, lambda lam: (1.0 + lam) ** (-sigma), f"(1+eigenvalue)^(-{sigma:g})")


def modified_riesz_potential(e: SymmExpansion, s: float) -> SymmExpansion:
    """Negative power of (1 + sqrt(operator)); defined for every pair."""
    _require_positive(s, "s")
    return _multiply(
        e, lambda lam: (1.0 + np.sqrt(lam)) ** (-s), f"(1+sqrt(eigenvalue))^(-{s:g})"
    )


def poisson_semigroup(e: SymmExpansion, t: float) -> SymmExpansion:
    """Subordinated heat flow exp(-t sqrt(operator))."""
    if t < 0:
        raise DomainError(f"time must be nonnegative, got {t}")
    return _multiply(e, lambda lam: np.exp(-t * np.sqrt(lam)), f"exp(-{t:g} sqrt(eigenvalue))")


def poisson_time_derivative(e: SymmExpansion, t: float, k: int) -> SymmExpansion:
    """k-th time derivative of the flow, each order contributing -sqrt(eigenvalue)."""
    if k < 0:
        raise DomainError(f"derivative order must be nonnegative, got {k}")
    if k == 0:
        return poisson_semigroup(e, t)
    _require_positive(t, "time")
    return _multiply(
        e,
        lambda lam: (-np.sqrt(lam)) ** k * np.exp(-t * np.sqrt(lam)),
        f"(-sqrt(eigenvalue))^{k} exp(-{t:g} sqrt(eigenvalue))",
    )


def schrodinger_propagator(e: SymmExpansion, t: float) -> SymmExpansion:
    """Unitary propagator exp(i t operator); coefficients become complex."""
    return _multiply(e, lambda lam: np.exp(1j * t * lam), f"exp(i {t:g} eigenvalue)")


def ladder_constants(params: JacobiParams, count: int) -> np.ndarray:
    """Constants sqrt(n (n + alpha + beta + 1)), n < count: the lowering operator
    var_index_derivative(h, 1) takes index n to n - 1 times minus entry n."""
    n = np.arange(count, dtype=float)
    s = params.alpha + params.beta + 1.0
    return np.sqrt(n * (n + s))


def ladder_up(h: HalfLineExpansion) -> HalfLineExpansion:
    """Adjoint-type raising operator: index n feeds index n+1 of the unshifted pair.

    The constants are those of the target parameter pair, which must itself
    be valid (alpha, beta > 0 on the input side). Parity flips.
    """
    target = h.params.shift(-1)
    d = ladder_constants(target, len(h) + 1)
    out = np.zeros(h.coeffs.shape[:-1] + (len(h) + 1,), dtype=h.coeffs.dtype)
    out[..., 1:] = -d[1:] * h.coeffs
    parity = "odd" if h.parity == "even" else "even"
    return HalfLineExpansion(target, out, parity)


def dunkl_derivative(e: SymmExpansion) -> SymmExpansion:
    """First-order derivative of Dunkl type in coefficient space.

    Even-slot coefficients move down one index, odd-slot coefficients move up
    one, with ladder constants; the result stays in the same symmetrized
    basis, parities exchanged slotwise.
    """
    b = e.coeffs
    n_in = len(e)
    out_len = n_in + 1 if n_in % 2 == 0 else n_in
    out = np.zeros(b.shape[:-1] + (out_len,), dtype=b.dtype)
    d = ladder_constants(e.params, n_in // 2 + 2)
    even_idx = np.arange(2, n_in, 2)
    if even_idx.size:
        out[..., even_idx - 1] = -d[even_idx // 2] * b[..., even_idx]
    odd_idx = np.arange(1, n_in, 2)
    if odd_idx.size:
        out[..., odd_idx + 1] = d[(odd_idx - 1) // 2 + 1] * b[..., odd_idx]
    return SymmExpansion(e.params, out)


def var_index_derivative(h: HalfLineExpansion, k: int) -> HalfLineExpansion:
    """k-fold lowering with the parameter pair advancing at every step.

    Coefficient a_n lands on index n-k carrying (-1)^k times the product of
    the step constants; indices below k are annihilated. Parity flips k
    times. k = 0 is the identity. The signed products come from a bounded
    cache.
    """
    if k < 0:
        raise DomainError(f"derivative order must be nonnegative, got {k}")
    if k == 0:
        return h
    n_in = len(h)
    out_len = max(n_in - k, 1)
    out = np.zeros(h.coeffs.shape[:-1] + (out_len,), dtype=h.coeffs.dtype)
    if n_in > k:
        out[...] = _lowering_factors(h.params, k, n_in) * h.coeffs[..., k:]
    parity = h.parity if k % 2 == 0 else ("odd" if h.parity == "even" else "even")
    return HalfLineExpansion(h.params.shift(k), out, parity)


@_memo_by_pair(maxsize=64)
def _lowering_factors(params: JacobiParams, k: int, n_in: int) -> np.ndarray:
    # (-1)^k times the product of the k step constants of indices k..n_in-1
    n = np.arange(k, n_in, dtype=float)
    s = params.alpha + params.beta + 1.0
    factor = np.ones(n.size)
    for j in range(k):
        m = n - j
        factor *= np.sqrt(m * (m + s + 2 * j))
    return (-1.0) ** k * factor


def symm_higher_derivative(
    e: SymmExpansion, k: int, twisted: bool = False
) -> tuple[HalfLineExpansion, HalfLineExpansion]:
    """Order-k derivative acting through the parity split.

    The even part is lowered k times starting from the base pair, the odd
    part k times starting from the shifted pair. For odd k the outputs'
    extension parities are swapped relative to their origins; the twisted
    variant multiplies by sign(theta)^k, swapping them back so the pair
    recombines into a symmetrized expansion over the k-shifted parameters.
    """
    ev, od = to_halfline(e)
    dev = var_index_derivative(ev, k)
    dod = var_index_derivative(od, k)
    if twisted and k % 2 == 1:
        dev = replace(dev, parity="even")
        dod = replace(dod, parity="odd")
    return dev, dod


def _require_order(k: int) -> None:
    if k < 1:
        raise DomainError(f"transform order must be at least 1, got {k}")


def riesz_transform(e: SymmExpansion, k: int) -> SymmExpansion:
    """k-th power of the Dunkl derivative against spectral_potential(e, k / 2).

    When the bottom eigenvalue is 0 the potential silently takes the shifted
    form, mirroring the case split of the underlying operator family.
    """
    _require_order(k)
    out = spectral_potential(e, k / 2)
    for _ in range(k):
        out = dunkl_derivative(out)
    return out


def riesz_transform_shifted(
    e: SymmExpansion, k: int
) -> tuple[HalfLineExpansion, HalfLineExpansion]:
    """Variable-index derivative of order k against spectral_potential(e, k / 2)."""
    _require_order(k)
    return symm_higher_derivative(spectral_potential(e, k / 2), k)


# --- finite-difference validation path ---

FD_STEP = 1e-4 * math.pi
FD_MARGIN = 10 * FD_STEP


def _fd_step(params: JacobiParams) -> float:
    # The log-derivative of a pair's rows grows like alpha + beta, and the
    # stencil's error like the fourth power of the step times it; so the
    # step shrinks in proportion once alpha + beta + 1 exceeds 100. FD_STEP
    # itself leaves ladder-vs-fd at 8.1e-4 at (1e4, 0) and 135 at (1e5, 0).
    return FD_STEP / max(1.0, (params.alpha + params.beta + 1.0) / 100.0)


def _check_margin(theta: np.ndarray) -> None:
    dist = np.minimum(np.abs(theta), math.pi - np.abs(theta))
    if np.any(dist <= FD_MARGIN):
        raise DomainError(
            f"finite differences need distance > {FD_MARGIN:.3e} from 0 and the endpoints"
        )


def fd_derivative(f, theta) -> np.ndarray:
    """First derivative by the central 5-point stencil, away from singular
    points. f is called once, on the four offset angle sets and theta
    stacked along the last axis, so it must act elementwise along its last
    axis."""
    return _stencil(f, np.atleast_1d(np.asarray(theta, dtype=float)), FD_STEP)[0]


def _stencil(f, th: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """The 5-point stencil of f at th with step h, and f(th).

    f is called once, on th + 2h, th + h, th - h, th - 2h and th stacked
    along the last axis, and its result is split along that axis; so f must
    act elementwise along its last axis, and each part is then bitwise the
    value of a call on its own angles.
    """
    _check_margin(th)
    stacked = np.concatenate([th + 2 * h, th + h, th - h, th - 2 * h, th], axis=-1)
    far_up, up, down, far_down, centre = np.split(np.asarray(f(stacked)), 5, axis=-1)
    return (-far_up + 8 * up - 8 * down + far_down) / (12 * h), centre


def _coefficient_terms(params: JacobiParams, theta: np.ndarray) -> np.ndarray:
    half = theta / 2
    return (
        -(2 * params.alpha + 1) / 4 / np.tan(half)
        + (2 * params.beta + 1) / 4 * np.tan(half)
    )


def apply_ladder_down_fd(params: JacobiParams, f, theta) -> np.ndarray:
    """Pointwise first-order lowering operator of the given pair: f' plus
    cotangent/tangent terms. The stencil step is FD_STEP, shrunk in
    proportion to alpha + beta + 1 above 100. f is called once, as in
    fd_derivative, and must act elementwise along its last axis."""
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    derivative, values = _stencil(f, th, _fd_step(params))
    return derivative + _coefficient_terms(params, th) * values


def apply_ladder_up_fd(params: JacobiParams, f, theta) -> np.ndarray:
    """Pointwise raising operator: the lowering expression minus twice f',
    at the lowering operator's step."""
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    derivative, values = _stencil(f, th, _fd_step(params))
    return -derivative + _coefficient_terms(params, th) * values


def apply_dunkl_fd(params: JacobiParams, f, theta) -> np.ndarray:
    """Pointwise Dunkl-type derivative: lowering on the even part, minus
    raising on the odd part."""
    th = np.atleast_1d(np.asarray(theta, dtype=float))

    def f_even(t):
        return (np.asarray(f(t)) + np.asarray(f(-t))) / 2

    def f_odd(t):
        return (np.asarray(f(t)) - np.asarray(f(-t))) / 2

    return apply_ladder_down_fd(params, f_even, th) - apply_ladder_up_fd(params, f_odd, th)
