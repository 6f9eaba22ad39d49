"""Square functions against gamma-integral oracles and exact identities."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammaln

from symjacobi.basis import (
    HalfLineExpansion,
    SymmExpansion,
    analyze,
    reflect_coeffs,
    symm_eigenfunction_table,
    symm_eigenvalues,
    synthesize,
    to_halfline,
)
from symjacobi.core import JacobiParams, _mirror_split, eigenfunction_table, symmetric_rule
from symjacobi.errors import ConfigError, DomainError
from symjacobi.norms import random_band_limited
from symjacobi.squarefn import (
    SquareFunctionSpec,
    _kernel,
    _kernel_factor,
    _log_time_rule,
    _mode_table,
    _rates,
    eigenmode_constant,
    l2_equivalence_constant,
    square_function,
    square_function_by_time_quadrature,
)
from symjacobi.suites import SuiteConfig, run_suite

PAIRS = [
    JacobiParams(-0.5, -0.5),
    JacobiParams(0.0, 0.0),
    JacobiParams(0.3, 0.7),
    JacobiParams(1.0, 2.0),
    JacobiParams(-0.7, 0.4),
    JacobiParams(2.5, 1.5),
]

GENERIC = JacobiParams(0.3, 0.7)


def unit(params, n, length):
    coeffs = np.zeros(length)
    coeffs[n] = 1.0
    return SymmExpansion(params, coeffs)


def random_expansion(params, length, seed, complex_valued=False):
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-1, 1, length)
    if complex_valued:
        coeffs = coeffs + 1j * rng.uniform(-1, 1, length)
    return SymmExpansion(params, coeffs)


class TestSpecValidation:
    def test_rejects_bad_indices(self):
        with pytest.raises(DomainError):
            SquareFunctionSpec(0.0, 1)
        with pytest.raises(DomainError):
            SquareFunctionSpec(1.0, 1)
        with pytest.raises(DomainError):
            SquareFunctionSpec(2.5, 2)
        with pytest.raises(DomainError):
            SquareFunctionSpec(0.5, 0)
        with pytest.raises(DomainError):
            SquareFunctionSpec(0.5, 1.0)

    def test_rejects_unknown_variant(self):
        # the input's kind picks the half-line form, so it is no variant
        for variant in ("fancy", "halfline"):
            with pytest.raises(ConfigError):
                SquareFunctionSpec(0.5, 1, variant)

    def test_accepts_the_experiment_grid(self):
        for gamma, k in [(0.5, 1), (0.7, 2), (1.5, 2)]:
            SquareFunctionSpec(gamma, k)


class TestGammaIntegralOracle:
    # the kernel closed form rests on a single scalar integral; check it
    # directly against numerical quadrature before trusting the matrix

    def test_scalar_identity(self):
        for p, c in [(1.0, 2.0), (2.6, 0.7), (3.0, 5.5)]:
            val, err = quad(lambda t: t ** (p - 1) * math.exp(-c * t), 0, np.inf)
            assert err < 1e-7
            expect = math.exp(gammaln(p)) / c**p
            assert val == pytest.approx(expect, rel=1e-9)

    def test_frozen_constant(self):
        assert l2_equivalence_constant(0.5, 1) == pytest.approx(
            0.7071067811865476, abs=1e-16
        )

    def test_eigenmode_constant_matches_ratio_form(self):
        for gamma, k in [(0.5, 1), (0.7, 2), (1.5, 2)]:
            spec = SquareFunctionSpec(gamma, k)
            lam = 7.3
            expect = l2_equivalence_constant(gamma, k) * lam ** (gamma / 2)
            assert eigenmode_constant(spec, lam) == pytest.approx(expect, rel=1e-13)

    def test_eigenmode_constant_of_a_zero_mode(self):
        # the plain flow holds a zero mode constant, so its time derivatives vanish
        assert eigenmode_constant(SquareFunctionSpec(0.5, 1), 0.0) == 0.0


class TestSingleModeValues:
    def test_plain_closed_form(self):
        theta = np.linspace(-2.8, 2.8, 10)  # even count keeps 0 off the grid
        spec = SquareFunctionSpec(0.7, 2)
        for pr in PAIRS:
            table = symm_eigenfunction_table(10, pr, theta)
            for n in (0, 1, 4, 9):
                e = unit(pr, n, 10)
                lam = e.eigenvalues()[n]
                if lam == 0.0:
                    # a flat mode does not move under the flow
                    np.testing.assert_array_equal(square_function(e, spec, theta), 0.0)
                    continue
                vals = square_function(e, spec, theta)
                expect = eigenmode_constant(spec, lam) * np.abs(table[n])
                np.testing.assert_allclose(vals, expect, rtol=1e-9, atol=1e-12)

    def test_modified_closed_form(self):
        theta = np.linspace(-2.8, 2.8, 9)
        spec = SquareFunctionSpec(0.5, 1, "modified")
        pr = JacobiParams(-0.5, -0.5)
        table = symm_eigenfunction_table(6, pr, theta)
        for n in (0, 1, 5):
            e = unit(pr, n, 6)
            lam = e.eigenvalues()[n]
            vals = square_function(e, spec, theta)
            expect = eigenmode_constant(spec, lam) * np.abs(table[n])
            np.testing.assert_allclose(vals, expect, rtol=1e-9, atol=1e-12)
            assert expect.max() > 0  # the shifted flow never kills a mode


class TestDualRoute:
    def test_plain_matches_time_quadrature(self):
        e = random_expansion(GENERIC, 6, 11)
        theta = np.array([-2.1, -0.9, 0.4, 1.3, 2.7])
        spec = SquareFunctionSpec(0.5, 1)
        closed = square_function(e, spec, theta)
        slow = square_function_by_time_quadrature(e, spec, theta)
        np.testing.assert_allclose(closed, slow, rtol=1e-6, atol=1e-10)

    def test_modified_matches_time_quadrature(self):
        e = random_expansion(GENERIC, 6, 12, complex_valued=True)
        theta = np.array([-1.7, 0.6, 2.2])
        spec = SquareFunctionSpec(0.7, 2, "modified")
        closed = square_function(e, spec, theta)
        slow = square_function_by_time_quadrature(e, spec, theta)
        np.testing.assert_allclose(closed, slow, rtol=1e-6, atol=1e-10)

    def test_zero_bottom_matches_time_quadrature(self):
        e = random_expansion(JacobiParams(-0.5, -0.5), 5, 13)
        theta = np.array([0.8, 1.9])
        spec = SquareFunctionSpec(1.5, 2)
        closed = square_function(e, spec, theta)
        slow = square_function_by_time_quadrature(e, spec, theta)
        np.testing.assert_allclose(closed, slow, rtol=1e-6, atol=1e-10)

    @pytest.mark.parametrize("variant", ["plain", "modified"])
    @pytest.mark.parametrize(
        "params, gamma, k",
        [
            (JacobiParams(-0.5, -0.5), 0.8, 1),
            (JacobiParams(-0.5, -0.5), 2.99, 3),
            (JacobiParams(-0.5, -0.4999), 0.5, 1),
        ],
        ids=["small-tail-power", "tiny-tail-power", "slow-bottom-rate"],
    )
    def test_time_range_follows_the_inputs(self, params, gamma, k, variant):
        # a small 2(k - gamma) leaves a small-t tail beyond u = -30, a slow
        # bottom rate a large-t tail beyond u = 10; that fixed range missed
        # the closed form by up to 33 here
        e = random_expansion(params, 6, 14)
        theta = np.array([-1.9, -0.7, 0.8, 2.1])
        spec = SquareFunctionSpec(gamma, k, variant)
        closed = square_function(e, spec, theta)
        slow = square_function_by_time_quadrature(e, spec, theta)
        assert np.max(np.abs(closed - slow)) <= 1e-9

    @pytest.mark.parametrize("variant", ["plain", "modified"])
    def test_time_route_at_a_large_pair(self, variant):
        # one adaptive quad per angle missed the closed form here by 3.6e-6
        # (plain) and 4.1e-6 (modified), near theta = 2.85
        e = random_expansion(JacobiParams(10, 10), 6, 1)
        theta = np.linspace(-3, 3, 40)
        spec = SquareFunctionSpec(0.8, 1, variant)
        closed = square_function(e, spec, theta)
        by_time = square_function_by_time_quadrature(e, spec, theta)
        assert np.max(np.abs(closed - by_time)) <= 1e-9

    def test_time_route_on_a_half_line_expansion(self):
        coeffs = np.random.default_rng(1).uniform(-1, 1, 6)
        e = HalfLineExpansion(JacobiParams(10, 10), coeffs, "odd")
        theta = np.linspace(0.05, 3.1, 40)
        for variant in ("plain", "modified"):
            spec = SquareFunctionSpec(0.8, 1, variant)
            closed = square_function(e, spec, theta)
            by_time = square_function_by_time_quadrature(e, spec, theta)
            assert np.max(np.abs(closed - by_time)) <= 1e-9

    def test_time_route_gives_one_row_per_member(self):
        # as many angles as modes, so a product that paired each amplitude
        # with the wrong row would still have the right shape
        block = random_band_limited(GENERIC, 5, 3, seed=2)
        theta = np.linspace(-2.0, 2.0, 6)
        spec = SquareFunctionSpec(0.7, 2, "modified")
        rows = [
            square_function_by_time_quadrature(SymmExpansion(GENERIC, c), spec, theta)
            for c in block.coeffs
        ]
        assert np.array_equal(square_function_by_time_quadrature(block, spec, theta), rows)

    def test_time_rule_widens_below_the_unit_panels(self):
        # p = 0.02 puts the bottom of the range near u = -1692; unit panels
        # all the way down would take about 54,000 points
        spec = SquareFunctionSpec(2.99, 3)
        e = random_expansion(JacobiParams(-0.5, -0.5), 6, 14)
        p = spec.tail_power
        u, w = _log_time_rule(p, _rates(e, spec))
        assert u.size < 2000
        assert u.max() < 10.0 and u.min() > math.log(1e-13 * p) / p
        assert math.fsum(w) == pytest.approx(10.0 - math.log(1e-13 * p) / p, rel=1e-14)


class TestPointwiseStructure:
    def test_sublinear(self):
        theta = np.linspace(-3.0, 3.0, 41)
        spec = SquareFunctionSpec(0.7, 2)
        f = random_expansion(GENERIC, 9, 14)
        g = random_expansion(GENERIC, 9, 15)
        total = SymmExpansion(GENERIC, f.coeffs + g.coeffs)
        lhs = square_function(total, spec, theta)
        rhs = square_function(f, spec, theta) + square_function(g, spec, theta)
        assert np.all(lhs <= rhs + 1e-12)

    def test_reflection_covariance_bitwise(self):
        theta = np.linspace(0.1, 3.0, 17)
        spec = SquareFunctionSpec(0.5, 1)
        f = random_expansion(GENERIC, 10, 16)
        flipped = reflect_coeffs(f)
        a = square_function(flipped, spec, theta)
        b = square_function(f, spec, -theta)
        assert np.array_equal(a, b)

    def test_parity_split_bound(self):
        theta = np.linspace(0.2, 2.9, 15)
        spec = SquareFunctionSpec(0.7, 2)
        f = random_expansion(GENERIC, 11, 17)
        even_coeffs = f.coeffs.copy()
        even_coeffs[1::2] = 0.0
        odd_coeffs = f.coeffs.copy()
        odd_coeffs[0::2] = 0.0
        half_sum = 0.5 * (square_function(f, spec, theta) + square_function(f, spec, -theta))
        for part in (even_coeffs, odd_coeffs):
            vals = square_function(SymmExpansion(GENERIC, part), spec, theta)
            assert np.all(vals <= half_sum + 1e-12)


class TestGlobalL2Identity:
    def test_ratio_is_parameter_free(self):
        # quadrature integrates the squared values exactly for band-limited
        # input, so the L2 ratio must hit the constant at every parameter pair
        for pr in PAIRS:
            e = random_expansion(pr, 12, 18)
            lam = e.eigenvalues()
            alive = lam > 0
            grid = symmetric_rule(48, pr)
            for gamma, k in [(0.5, 1), (1.5, 2)]:
                spec = SquareFunctionSpec(gamma, k)
                vals = square_function(e, spec, grid.nodes)
                lhs = math.sqrt(grid.integrate(vals**2))
                rhs = math.sqrt(np.sum(np.abs(e.coeffs[alive]) ** 2 * lam[alive] ** gamma))
                assert lhs == pytest.approx(
                    l2_equivalence_constant(gamma, k) * rhs, rel=1e-10
                )

    def test_modified_ratio(self):
        pr = JacobiParams(-0.5, -0.5)
        e = random_expansion(pr, 10, 19)
        rates = 1.0 + np.sqrt(e.eigenvalues())
        grid = symmetric_rule(48, pr)
        gamma, k = 0.7, 2
        vals = square_function(e, SquareFunctionSpec(gamma, k, "modified"), grid.nodes)
        lhs = math.sqrt(grid.integrate(vals**2))
        rhs = math.sqrt(np.sum(e.coeffs**2 * rates ** (2 * gamma)))
        assert lhs == pytest.approx(l2_equivalence_constant(gamma, k) * rhs, rel=1e-10)


class TestHalfLineVariant:
    def test_even_part_matches_restriction(self):
        coeffs = np.zeros(12)
        coeffs[0::2] = np.random.default_rng(20).uniform(-1, 1, 6)
        f = SymmExpansion(GENERIC, coeffs)
        ev, _ = to_halfline(f)
        theta = np.linspace(0.15, 3.0, 13)
        gamma, k = 0.5, 1
        whole = square_function(f, SquareFunctionSpec(gamma, k), theta)
        part = square_function(ev, SquareFunctionSpec(gamma, k), theta)
        np.testing.assert_allclose(part, whole, rtol=1e-12)

    def test_odd_part_matches_restriction(self):
        coeffs = np.zeros(12)
        coeffs[1::2] = np.random.default_rng(21).uniform(-1, 1, 6)
        f = SymmExpansion(GENERIC, coeffs)
        _, od = to_halfline(f)
        theta = np.linspace(0.15, 3.0, 13)
        gamma, k = 0.7, 2
        whole = square_function(f, SquareFunctionSpec(gamma, k), theta)
        part = square_function(od, SquareFunctionSpec(gamma, k), theta)
        np.testing.assert_allclose(part, whole, rtol=1e-12)

    def test_variant_input_mismatch(self):
        # either flow takes either kind of expansion, and nothing else
        f = random_expansion(GENERIC, 4, 22)
        grid = symmetric_rule(8, GENERIC)
        for spec in (SquareFunctionSpec(0.5, 1), SquareFunctionSpec(0.5, 1, "modified")):
            for e in (f, *to_halfline(f)):
                assert square_function(e, spec, [1.0]).shape == (1,)
            with pytest.raises(ConfigError):
                square_function(synthesize(f, grid), spec, [1.0])
            with pytest.raises(ConfigError):
                square_function_by_time_quadrature(f.coeffs, spec, [1.0])


def three_operand_square_function(e, spec, theta):
    # the original contraction sum_nm T_ni W_nm T_mi, kept as a reference
    table, rates = _mode_table(e, spec, theta)
    weights = np.outer(e.coeffs, np.conj(e.coeffs)) * _kernel(rates, spec)
    vals = np.real(np.einsum("ni,nm,mi->i", table, weights, table))
    return np.sqrt(np.clip(vals, 0.0, None))


# (flow, input kind) of the square function tests: "halfline" is a half-line
# input under the plain flow
FLOWS = pytest.mark.parametrize(
    "variant, halves",
    [("plain", False), ("modified", False), ("plain", True), ("modified", True)],
    ids=["plain", "modified", "halfline", "halfline-modified"],
)


def flow_inputs(e, halves):
    return to_halfline(e) if halves else (e,)


class TestContraction:
    @FLOWS
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_matches_three_operand_reference(self, variant, halves, kind):
        rng = np.random.default_rng([len(variant) + 8 * halves, kind == "complex"])
        theta = symmetric_rule(40, GENERIC).nodes
        for pr in PAIRS:
            coeffs = rng.uniform(-1, 1, 24)
            if kind == "complex":
                coeffs = coeffs + 1j * rng.uniform(-1, 1, 24)
            e = SymmExpansion(pr, coeffs)
            for f, (gamma, k) in itertools.product(flow_inputs(e, halves), ((0.5, 1), (1.5, 2))):
                spec = SquareFunctionSpec(gamma, k, variant)
                got = square_function(f, spec, theta)
                want = three_operand_square_function(f, spec, theta)
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(want))



def unfolded_square_function(e, spec, nodes):
    # the quadratic form on the full table, contracted row by row: the
    # evaluation square_function used before the kernel factor, kept as the
    # reference it must match to roundoff
    table, rates = _mode_table(e, spec, nodes)
    kern = _kernel(rates, spec)
    rows = np.atleast_2d(e.coeffs)
    vals = np.empty((rows.shape[0], nodes.size))
    for c, out in zip(rows, vals):
        out[:] = np.real(np.einsum("ni,ni->i", table, (np.outer(c, np.conj(c)) * kern) @ table))
    vals = np.sqrt(np.clip(vals, 0.0, None))
    return vals if e.coeffs.ndim == 2 else vals[0]


def non_mirrored_order(nodes):
    # the positive half, then the same angles negated: a set with no mirror
    # split, so every angle is evaluated
    pos = nodes[nodes.size // 2 :]
    return np.concatenate([pos, -pos])


def mirrored_order(values):
    # values on non_mirrored_order(nodes) put back in the order of nodes
    k = values.shape[-1] // 2
    return np.concatenate([values[..., k:][..., ::-1], values[..., :k]], axis=-1)


# Half sizes at which the fold is bitwise exact here: OpenBLAS rounds a
# column by its position within the product, and with the x86-64 kernels of
# the bundled OpenBLAS a product over k and over 2k columns agree column by
# column when k is a multiple of 8 (test_basis.py says more).
ALIGNED = [8, 24, 144]

# Largest deviation from the quadratic form allowed, relative to the block
# maximum. The factor sums other products than the quadratic form does.
ROUNDOFF = 1e-13


class TestMirrorFold:
    """On a mirrored angle set the products run on the positive half only."""

    @FLOWS
    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("members", [None, 3])
    def test_bitwise_the_unfolded_values(self, variant, halves, kind, members):
        # the fold gives bitwise the values of the same angles in an order
        # that is not folded, and both are the quadratic form to roundoff
        rng = np.random.default_rng([len(variant) + 8 * halves, kind == "complex", members or 1])
        shape = (members, 17) if members else (17,)
        for pr, n_half in itertools.product(PAIRS, ALIGNED):
            coeffs = rng.uniform(-1, 1, shape)
            if kind == "complex":
                coeffs = coeffs + 1j * rng.uniform(-1, 1, shape)
            e = SymmExpansion(pr, coeffs)
            nodes = symmetric_rule(n_half, pr).nodes
            for f, (gamma, k) in itertools.product(flow_inputs(e, halves), ((0.5, 1), (1.5, 2))):
                spec = SquareFunctionSpec(gamma, k, variant)
                got = square_function(f, spec, nodes)
                unfolded = square_function(f, spec, non_mirrored_order(nodes))
                assert got.tobytes() == mirrored_order(unfolded).tobytes()
                want = unfolded_square_function(f, spec, nodes)
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= ROUNDOFF * np.max(want)

    def test_other_nodes_agree_to_roundoff(self):
        e = random_expansion(GENERIC, 15, seed=3)
        spec = SquareFunctionSpec(0.5, 1)
        nodes = symmetric_rule(20, GENERIC).nodes
        nudged = nodes.copy()
        nudged[4] = np.nextafter(nudged[4], 0.0)
        assert _mirror_split(nudged) is None
        others = [nudged] + [symmetric_rule(n, GENERIC).nodes for n in (23, 46)]
        for theta in others:
            want = unfolded_square_function(e, spec, theta)
            got = square_function(e, spec, theta)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(want)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(alpha=st.floats(-0.99, 50.0), beta=st.floats(-0.99, 50.0), quarter=st.integers(1, 32))
    def test_fold_property_over_pairs_and_degrees(self, alpha, beta, quarter):
        # the CLI-default grid of a degree that is a multiple of 4
        pr, degree = JacobiParams(alpha, beta), 4 * quarter
        nodes = symmetric_rule(2 * degree + 16, pr).nodes
        block = random_band_limited(pr, degree, 2, seed=degree)
        for spec in (SquareFunctionSpec(0.5, 1), SquareFunctionSpec(1.5, 2, "modified")):
            got = square_function(block, spec, nodes)
            unfolded = square_function(block, spec, non_mirrored_order(nodes))
            assert got.tobytes() == mirrored_order(unfolded).tobytes()
            want = unfolded_square_function(block, spec, nodes)
            assert np.max(np.abs(got - want)) <= ROUNDOFF * np.max(want)


def bump(theta):
    # smooth, and zero on theta <= 0.4, so the square function is small on
    # the negative half
    theta = np.asarray(theta, dtype=float)
    out = np.zeros_like(theta)
    inside = (theta > 0.4) & (theta < 2.6)
    t = theta[inside]
    out[inside] = np.exp(-1.0 / ((t - 0.4) * (2.6 - t)))
    return out


def one_sided_bump():
    return analyze(bump, GENERIC, 49), symmetric_rule(112, GENERIC).nodes


def far_pair_member():
    # a draw at a pair far from the defaults, where the rates 39..101 lie
    # close together and a kernel factor built in double lost 3 digits
    pr = JacobiParams(35.36, 42.23)
    return random_band_limited(pr, 124, 2, seed=124)[1], symmetric_rule(264, pr).nodes


def mpmath_square_function(mp, e, spec, theta):
    # the quadratic form at 40 digits from the same float tables and rates
    table, rates = _mode_table(e, spec, theta)
    out = np.empty(theta.size)
    with mp.workdps(40):
        p = mp.mpf(spec.tail_power)
        r = [mp.mpf(float(x)) for x in rates]
        kern = [[mp.gamma(p) * (a * b) ** spec.k / (a + b) ** p if a and b else 0 for b in r] for a in r]
        for i in range(theta.size):
            v = [mp.mpf(float(c)) * mp.mpf(float(t)) for c, t in zip(e.coeffs, table[:, i])]
            out[i] = float(mp.sqrt(mp.fdot(v, [mp.fdot(row, v) for row in kern])))
    return out


class TestSmallValues:
    @pytest.mark.parametrize(
        "case, spec, stride",
        [
            (one_sided_bump, SquareFunctionSpec(0.5, 1), 8),
            (one_sided_bump, SquareFunctionSpec(1.5, 2), 8),
            (far_pair_member, SquareFunctionSpec(0.5, 1), 24),
            (far_pair_member, SquareFunctionSpec(1.5, 2, "modified"), 24),
        ],
    )
    def test_against_mpmath_where_small(self, case, spec, stride):
        # pointwise error relative to the value itself, at every stride-th
        # node; each case reaches nodes where S is at most 2 % of its
        # maximum. The old quadratic form is up to 2.4e-13 off here.
        mp = pytest.importorskip("mpmath")
        e, nodes = case()
        got = square_function(e, spec, nodes)
        theta = nodes[::stride]
        want = mpmath_square_function(mp, e, spec, theta)
        assert np.min(want) <= 0.02 * np.max(got)
        assert np.max(np.abs(got[::stride] - want) / want) <= 1e-14


class TestFactorPath:
    def test_every_mode_dead(self):
        # one coefficient on a zero-bottom pair: the only rate is 0, so the
        # factor has no columns and every value is 0
        pr = JacobiParams(-0.5, -0.5)
        spec = SquareFunctionSpec(0.5, 1)
        assert _kernel_factor(np.zeros(1).tobytes(), spec).shape == (1, 0)
        for theta in (symmetric_rule(8, pr).nodes, np.array([-2.0, 0.3, 1.2])):
            one = square_function(SymmExpansion(pr, [1.0]), spec, theta)
            block = square_function(SymmExpansion(pr, [[1.0], [2.0]]), spec, theta)
            assert one.shape == theta.shape and np.array_equal(one, np.zeros(theta.size))
            assert block.shape == (2, theta.size) and not np.any(block)

    def test_complex_coefficients(self):
        # |u|^2 = (Re u)^2 + (Im u)^2 for the complex block and its two parts
        rng = np.random.default_rng(23)
        coeffs = rng.uniform(-1, 1, (4, 21)) + 1j * rng.uniform(-1, 1, (4, 21))
        nodes = symmetric_rule(40, GENERIC).nodes
        spec = SquareFunctionSpec(0.7, 2)
        whole = square_function(SymmExpansion(GENERIC, coeffs), spec, nodes)
        re = square_function(SymmExpansion(GENERIC, coeffs.real), spec, nodes)
        im = square_function(SymmExpansion(GENERIC, coeffs.imag), spec, nodes)
        np.testing.assert_allclose(whole**2, re**2 + im**2, rtol=1e-13, atol=1e-13 * np.max(whole**2))

    def test_one_dimensional_input_is_a_one_row_block(self):
        e = random_expansion(GENERIC, 13, seed=24)
        nodes = symmetric_rule(24, GENERIC).nodes
        for theta in (nodes, nodes[::3]):
            for spec in (SquareFunctionSpec(0.5, 1), SquareFunctionSpec(1.5, 2, "modified")):
                one = square_function(e, spec, theta)
                block = square_function(SymmExpansion(GENERIC, e.coeffs[None, :]), spec, theta)
                assert one.shape == theta.shape and block.shape == (1, theta.size)
                assert one.tobytes() == block[0].tobytes()

    def test_odd_half_line_parts(self):
        # sign(theta) times a half-line sum: the square function is even in
        # theta, and it is the quadratic form of the unfolded odd table
        coeffs = np.random.default_rng(25).uniform(-1, 1, (3, 9))
        odd = HalfLineExpansion(GENERIC.shift(1), coeffs, "odd")
        spec = SquareFunctionSpec(0.5, 1)
        nodes = symmetric_rule(24, GENERIC).nodes
        got = square_function(odd, spec, nodes)
        assert got.tobytes() == got[:, ::-1].tobytes()
        want = unfolded_square_function(odd, spec, nodes)
        assert np.max(np.abs(got - want)) <= ROUNDOFF * np.max(want)
        # at theta = 0 an odd part is 0, also on a pair whose table is not
        theta = np.array([-2.5, -0.4, 0.0, 0.7, 1.9])
        for pr in (GENERIC.shift(1), JacobiParams(-0.5, 0.0)):
            part = HalfLineExpansion(pr, coeffs, "odd")
            got = square_function(part, spec, theta)
            want = unfolded_square_function(part, spec, theta)
            assert np.max(np.abs(got - want)) <= ROUNDOFF * np.max(want)
            assert not np.any(got[:, 2])

    def test_factor_cache_is_bounded_and_read_only(self):
        spec = SquareFunctionSpec(0.5, 1)
        limit = _kernel_factor.cache_info().maxsize
        assert limit is not None
        for n in range(2, limit + 12):
            rates = np.sqrt(symm_eigenvalues(n, GENERIC))
            factor = _kernel_factor(rates.tobytes(), spec)
            assert _kernel_factor.cache_info().currsize <= limit
            assert not factor.flags.writeable
            with pytest.raises(ValueError):
                factor[0, 0] = 1.0
        kern = _kernel(rates, spec)
        assert np.max(np.abs(factor @ factor.T - kern)) <= 1e-14 * np.max(kern)

    def test_factor_cache_holds_a_squarefn_run(self):
        # a second run of the suite in the same process builds no factor
        _kernel_factor.cache_clear()
        config = SuiteConfig(suite="squarefn", trunc=32, ensemble=4)
        run_suite(config, write=False)
        first = _kernel_factor.cache_info()
        run_suite(config, write=False)
        second = _kernel_factor.cache_info()
        assert first.misses > 16 and second.misses == first.misses

    def test_cancelling_parts_give_a_small_value(self):
        # two modes of one rate whose parts cancel at the negative node -t:
        # there S is 0 up to roundoff, and a sum of squares is not negative
        rng = np.random.default_rng(0)
        spec = SquareFunctionSpec(0.5, 1)
        for _ in range(100):
            pr = JacobiParams(*rng.uniform(-0.9, 3.0, 2))
            nodes = symmetric_rule(8, pr).nodes
            i, j = rng.integers(8), rng.integers(1, 4)
            t = nodes[8 + i]
            even = eigenfunction_table(j, pr, [t])[j, 0]
            odd = eigenfunction_table(j - 1, pr.shift(1), [t])[j - 1, 0]
            coeffs = np.zeros(2 * j + 1)
            coeffs[2 * j] = odd * rng.uniform(0.5, 2.0)
            coeffs[2 * j - 1] = even * coeffs[2 * j] / odd
            vals = square_function(SymmExpansion(pr, coeffs), spec, nodes)
            assert np.all(vals >= 0.0)
            assert vals[7 - i] <= 1e-7 * np.max(vals)
