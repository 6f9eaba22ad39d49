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
    SymmExpansion,
    reflect_coeffs,
    symm_eigenfunction_table,
    to_halfline,
)
from symjacobi.core import JacobiParams, _mirror_split, symmetric_rule
from symjacobi.errors import ConfigError, DomainError
from symjacobi.norms import random_band_limited
from symjacobi.squarefn import (
    SquareFunctionSpec,
    _kernel,
    _mode_table,
    eigenmode_constant,
    l2_equivalence_constant,
    square_function,
    square_function_by_time_quadrature,
)

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
        with pytest.raises(ConfigError):
            SquareFunctionSpec(0.5, 1, "fancy")

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
        part = square_function(ev, SquareFunctionSpec(gamma, k, "halfline"), theta)
        np.testing.assert_allclose(part, whole, rtol=1e-12)

    def test_odd_part_matches_restriction(self):
        coeffs = np.zeros(12)
        coeffs[1::2] = np.random.default_rng(21).uniform(-1, 1, 6)
        f = SymmExpansion(GENERIC, coeffs)
        _, od = to_halfline(f)
        theta = np.linspace(0.15, 3.0, 13)
        gamma, k = 0.7, 2
        whole = square_function(f, SquareFunctionSpec(gamma, k), theta)
        part = square_function(od, SquareFunctionSpec(gamma, k, "halfline"), theta)
        np.testing.assert_allclose(part, whole, rtol=1e-12)

    def test_variant_input_mismatch(self):
        f = random_expansion(GENERIC, 4, 22)
        with pytest.raises(ConfigError):
            square_function(f, SquareFunctionSpec(0.5, 1, "halfline"), [1.0])
        ev, _ = to_halfline(f)
        with pytest.raises(ConfigError):
            square_function(ev, SquareFunctionSpec(0.5, 1), [1.0])


def three_operand_square_function(e, spec, theta):
    # the original contraction sum_nm T_ni W_nm T_mi, kept as a reference
    table, rates = _mode_table(e, spec, theta)
    weights = np.outer(e.coeffs, np.conj(e.coeffs)) * _kernel(rates, spec)
    vals = np.real(np.einsum("ni,nm,mi->i", table, weights, table))
    return np.sqrt(np.clip(vals, 0.0, None))


class TestContraction:
    @pytest.mark.parametrize("variant", ["plain", "modified", "halfline"])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_matches_three_operand_reference(self, variant, kind):
        rng = np.random.default_rng([len(variant), kind == "complex"])
        theta = symmetric_rule(40, GENERIC).nodes
        for pr in PAIRS:
            coeffs = rng.uniform(-1, 1, 24)
            if kind == "complex":
                coeffs = coeffs + 1j * rng.uniform(-1, 1, 24)
            e = SymmExpansion(pr, coeffs)
            inputs = to_halfline(e) if variant == "halfline" else (e,)
            for f, (gamma, k) in itertools.product(inputs, ((0.5, 1), (1.5, 2))):
                spec = SquareFunctionSpec(gamma, k, variant)
                got = square_function(f, spec, theta)
                want = three_operand_square_function(f, spec, theta)
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(want))



def unfolded_square_function(e, spec, nodes):
    # square_function without the fold: the full table contracted row by row
    table, rates = _mode_table(e, spec, nodes)
    kern = _kernel(rates, spec)
    rows = np.atleast_2d(e.coeffs)
    vals = np.empty((rows.shape[0], nodes.size))
    for c, out in zip(rows, vals):
        out[:] = np.real(np.einsum("ni,ni->i", table, (np.outer(c, np.conj(c)) * kern) @ table))
    vals = np.sqrt(np.clip(vals, 0.0, None))
    return vals if e.coeffs.ndim == 2 else vals[0]


# Half sizes at which the fold is bitwise exact here: OpenBLAS rounds a
# column by its position within the product, and with the x86-64 kernels of
# the bundled OpenBLAS a product over k and over 2k columns agree column by
# column when k is a multiple of 8 (test_basis.py says more).
ALIGNED = [8, 24, 144]


class TestMirrorFold:
    """On a mirrored angle set the contraction runs on the positive half only."""

    @pytest.mark.parametrize("variant", ["plain", "modified", "halfline"])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("members", [None, 3])
    def test_bitwise_the_unfolded_values(self, variant, kind, members):
        rng = np.random.default_rng([len(variant), kind == "complex", members or 1])
        shape = (members, 17) if members else (17,)
        for pr, n_half in itertools.product(PAIRS, ALIGNED):
            coeffs = rng.uniform(-1, 1, shape)
            if kind == "complex":
                coeffs = coeffs + 1j * rng.uniform(-1, 1, shape)
            e = SymmExpansion(pr, coeffs)
            inputs = to_halfline(e) if variant == "halfline" else (e,)
            nodes = symmetric_rule(n_half, pr).nodes
            for f, (gamma, k) in itertools.product(inputs, ((0.5, 1), (1.5, 2))):
                spec = SquareFunctionSpec(gamma, k, variant)
                got = square_function(f, spec, nodes)
                want = unfolded_square_function(f, spec, nodes)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()

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
            assert got.tobytes() == unfolded_square_function(block, spec, nodes).tobytes()
