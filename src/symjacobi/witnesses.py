"""Closed-form witness functions for the negative results.

These are the non-band-limited functions whose derivative norms blow up near
the origin. Exponents may leave the admissible parameter region on purpose,
so everything here works with raw trigonometric powers instead of validated
parameter pairs. Each closed-form derivative below is derived by hand from
the first-order operator expressions and is gated by finite-difference
checks in the test suite before any experiment relies on it.
"""

from __future__ import annotations

import numpy as np

from .core import JacobiParams, _trig_power, norm_constant_table

__all__ = [
    "trig_power",
    "decay_witness",
    "decay_witness_first_derivative",
    "growth_witness",
    "growth_witness_coefficient",
    "growth_witness_double_derivative",
    "cross_parameter_derivative",
]


def trig_power(a: float, b: float, theta) -> np.ndarray:
    """|sin(t/2)|^(a+1/2) * cos(t/2)^(b+1/2) with unvalidated exponents."""
    return _trig_power(a, b, np.atleast_1d(np.asarray(theta, dtype=float)))


def decay_witness(params: JacobiParams):
    """Odd witness sign(t) * trig_power(-a-1, -b-1, t).

    Its raising derivative vanishes identically, while its first-order
    variable-index derivative grows like t^(-a-3/2) near 0.
    """
    a, b = params.alpha, params.beta

    def f(theta):
        th = np.atleast_1d(np.asarray(theta, dtype=float))
        return np.sign(th) * trig_power(-a - 1, -b - 1, th)

    return f


def decay_witness_first_derivative(params: JacobiParams):
    """Closed form of the first variable-index derivative of decay_witness,
    restricted to (0, pi).

    Lowering the shifted pair applied to the power gives
    [-(a+1) cot(t/2) + (b+1) tan(t/2)] * trig_power(-a-1, -b-1, t).
    """
    a, b = params.alpha, params.beta

    def g(theta):
        th = np.atleast_1d(np.asarray(theta, dtype=float))
        half = th / 2
        bracket = -(a + 1) / np.tan(half) + (b + 1) * np.tan(half)
        return bracket * trig_power(-a - 1, -b - 1, th)

    return g


def growth_witness(params: JacobiParams):
    """Odd witness sign(t) * trig_power(a+1, b+1, t).

    This one IS band-limited: it is the first odd basis function up to a
    constant, so its variable-index derivatives of order 1 and 2 vanish in
    exact coefficient arithmetic. Its mixed fixed-index second derivative
    does not, and diverges near 0 like t^(a-1/2).
    """
    a, b = params.alpha, params.beta

    def f(theta):
        th = np.atleast_1d(np.asarray(theta, dtype=float))
        return np.sign(th) * trig_power(a + 1, b + 1, th)

    return f


def growth_witness_coefficient(params: JacobiParams) -> float:
    """Coefficient of the witness on the first odd basis slot."""
    return float(np.sqrt(2.0) / norm_constant_table(0, params.shift(1))[0])


def growth_witness_double_derivative(params: JacobiParams):
    """Closed form, on (0, pi), of lowering-after-raising applied to the
    witness's restriction.

    The product rule collapses to the weight times the derivative of the
    bracket: trig_power(a+1, b+1, t) * [(a+1) csc^2(t/2) + (b+1) sec^2(t/2)] / 2.
    The fixed-index second derivative of the full witness is minus this on
    (0, pi).
    """
    a, b = params.alpha, params.beta

    def g(theta):
        th = np.atleast_1d(np.asarray(theta, dtype=float))
        half = th / 2
        bracket = (a + 1) / np.sin(half) ** 2 + (b + 1) / np.cos(half) ** 2
        return trig_power(a + 1, b + 1, th) * bracket / 2

    return g


def cross_parameter_derivative(own: JacobiParams, other: JacobiParams):
    """Closed form of the other pair's lowering operator applied to the even
    weight of the own pair, on (0, pi).

    The own weight is annihilated by its own lowering operator; under the
    other pair's operator the mismatch leaves
    trig_power(a, b, t) * [(a-g)/2 cot(t/2) + (d-b)/2 tan(t/2)]
    with (a, b) the own exponents and (g, d) the other pair's. Near 0 this
    behaves like t^(a-1/2), divergent in p-th power mean when the own alpha
    sits low enough.
    """
    a, b = own.alpha, own.beta
    g_, d_ = other.alpha, other.beta

    def g(theta):
        th = np.atleast_1d(np.asarray(theta, dtype=float))
        half = th / 2
        bracket = (a - g_) / 2 / np.tan(half) + (d_ - b) / 2 * np.tan(half)
        return trig_power(a, b, th) * bracket

    return g
