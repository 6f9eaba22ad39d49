"""Spectral operators against finite-difference and closed-form oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symjacobi.basis import (
    HalfLineExpansion,
    SymmExpansion,
    eval_halfline_expansion,
    eval_symm_expansion,
    recombine,
    symm_eigenfunction_table,
    symm_eigenvalues,
    to_halfline,
)
from symjacobi.core import (
    JacobiParams,
    eigenfunction_table,
    eigenvalue,
    symmetric_rule,
)
from symjacobi.errors import DomainError, UnsupportedParametersError
from symjacobi.operators import (
    FD_MARGIN,
    FD_STEP,
    _coefficient_terms,
    _fd_step,
    _stencil,
    apply_dunkl_fd,
    apply_ladder_down_fd,
    apply_ladder_up_fd,
    bessel_potential,
    dunkl_derivative,
    fd_derivative,
    ladder_constants,
    ladder_up,
    modified_riesz_potential,
    poisson_semigroup,
    poisson_time_derivative,
    riesz_potential,
    riesz_transform,
    riesz_transform_shifted,
    schrodinger_propagator,
    spectral_base,
    spectral_potential,
    symm_higher_derivative,
    var_index_derivative,
)
from symjacobi.witnesses import (
    cross_parameter_derivative,
    decay_witness,
    decay_witness_first_derivative,
    growth_witness,
    growth_witness_coefficient,
    growth_witness_double_derivative,
    trig_power,
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
ZERO_BOTTOM = JacobiParams(-0.5, -0.5)


def unit(params, n, length=None):
    coeffs = np.zeros((length or n + 1))
    coeffs[n] = 1.0
    return SymmExpansion(params, coeffs)


def interior_nodes(count=9, margin=0.3):
    return np.linspace(margin, math.pi - margin, count)


class TestPotentials:
    def test_riesz_eigenvector(self):
        for pr in (GENERIC, JacobiParams(1.0, 2.0)):
            for n in (0, 1, 4):
                e = unit(pr, n, 6)
                lam = eigenvalue((n + 1) // 2, pr)
                out = riesz_potential(e, 0.7)
                assert out.coeffs[n] == pytest.approx(lam**-0.7, rel=1e-14)

    def test_riesz_composition_exact(self):
        rng = np.random.default_rng(0)
        e = SymmExpansion(GENERIC, rng.uniform(-1, 1, 9))
        twice = riesz_potential(riesz_potential(e, 0.35), 0.4)
        once = riesz_potential(e, 0.75)
        np.testing.assert_allclose(twice.coeffs, once.coeffs, rtol=1e-14)

    def test_riesz_operator_norm_is_bottom_symbol(self):
        pr = JacobiParams(1.0, 2.0)
        sigma = 0.6
        lam = symm_eigenvalues(12, pr)
        table = lam**-sigma
        assert table.max() == pytest.approx(eigenvalue(0, pr) ** -sigma, rel=1e-15)
        assert table.argmax() == 0

    def test_riesz_rejects_zero_bottom(self):
        e = unit(ZERO_BOTTOM, 2, 4)
        with pytest.raises(UnsupportedParametersError):
            riesz_potential(e, 0.5)
        with pytest.raises(DomainError):
            riesz_potential(unit(GENERIC, 1, 3), -0.2)

    def test_spectral_base_shifts_only_a_zero_bottom(self):
        lam = symm_eigenvalues(5, ZERO_BOTTOM)
        np.testing.assert_array_equal(spectral_base(ZERO_BOTTOM, lam), 1.0 + lam)
        lam = symm_eigenvalues(5, GENERIC)
        assert spectral_base(GENERIC, lam) is lam

    def test_spectral_potential_is_the_potential_of_its_case(self):
        # the shifted potential at a zero bottom, the plain one otherwise,
        # bitwise
        rng = np.random.default_rng(3)
        for pr, same in ((ZERO_BOTTOM, bessel_potential), (GENERIC, riesz_potential)):
            e = SymmExpansion(pr, rng.uniform(-1, 1, (3, 11)))
            for sigma in (0.3, 0.5, 1.5):
                got = spectral_potential(e, sigma).coeffs
                assert np.array_equal(got, same(e, sigma).coeffs)
        with pytest.raises(DomainError, match="sigma must be positive"):
            spectral_potential(unit(GENERIC, 1, 3), 0.0)

    def test_bessel_handles_zero_bottom(self):
        e = unit(ZERO_BOTTOM, 0, 3)
        out = bessel_potential(e, 0.9)
        assert out.coeffs[0] == pytest.approx(1.0, rel=1e-15)
        lam = symm_eigenvalues(20, GENERIC)
        table = (1 + lam) ** -0.9
        assert np.all(table > 0) and np.all(table <= 1)

    def test_modified_symbols(self):
        e = unit(ZERO_BOTTOM, 0, 3)
        assert modified_riesz_potential(e, 1.3).coeffs[0] == pytest.approx(1.0)
        for pr in PAIRS:
            lam = symm_eigenvalues(24, pr)
            s = 0.8
            modified = (1 + np.sqrt(lam)) ** -s
            bessel_half = (1 + lam) ** (-s / 2)
            # true two-sided sandwich: (1+l) <= (1+sqrt(l))^2 <= 2(1+l)
            assert np.all(modified <= bessel_half + 1e-15)
            assert np.all(bessel_half <= 2 ** (s / 2) * modified + 1e-15)
            assert np.all(modified <= 1.0)
        for pr in (GENERIC, JacobiParams(1.0, 2.0), JacobiParams(2.5, 1.5)):
            # spectra starting at or above 1: plain same-order comparison holds
            lam = symm_eigenvalues(24, pr)
            assert np.all((1 + lam) ** -0.8 <= (1 + np.sqrt(lam)) ** -0.8 + 1e-15)


def test_multipliers_refuse_a_plain_array():
    with pytest.raises(DomainError, match="symmetrized or half-line expansions"):
        poisson_semigroup(np.ones(3), 0.1)


@pytest.mark.parametrize(
    "call, cited",
    [
        (lambda e: poisson_time_derivative(e, 0.1, -1), "nonnegative, got -1"),
        (lambda e: var_index_derivative(to_halfline(e)[0], -1), "nonnegative, got -1"),
        (lambda e: riesz_transform(e, 0), "at least 1, got 0"),
    ],
)
def test_derivative_orders_are_checked(call, cited):
    with pytest.raises(DomainError, match=cited):
        call(SymmExpansion(GENERIC, np.ones(4)))


class TestPoisson:
    def test_zero_time_identity(self):
        e = SymmExpansion(GENERIC, np.array([1.0, -2.0, 0.5]))
        np.testing.assert_array_equal(poisson_semigroup(e, 0.0).coeffs, e.coeffs)

    def test_semigroup_law_exact(self):
        rng = np.random.default_rng(1)
        e = SymmExpansion(GENERIC, rng.uniform(-1, 1, 10))
        a = poisson_semigroup(poisson_semigroup(e, 0.3), 0.45)
        b = poisson_semigroup(e, 0.75)
        np.testing.assert_allclose(a.coeffs, b.coeffs, rtol=1e-14)

    def test_derivative_symbol(self):
        pr = GENERIC
        n, t = 3, 0.8
        lam = eigenvalue(2, pr)
        out = poisson_time_derivative(unit(pr, n, 5), t, 1)
        assert out.coeffs[n] == pytest.approx(-math.sqrt(lam) * math.exp(-t * math.sqrt(lam)), rel=1e-13)

    def test_derivative_against_finite_difference(self):
        rng = np.random.default_rng(2)
        e = SymmExpansion(GENERIC, rng.uniform(-1, 1, 8))
        t, dt = 0.9, 5e-6
        fd = (poisson_semigroup(e, t + dt).coeffs - poisson_semigroup(e, t - dt).coeffs) / (2 * dt)
        np.testing.assert_allclose(poisson_time_derivative(e, t, 1).coeffs, fd, atol=1e-7)

    def test_time_validation(self):
        e = unit(GENERIC, 0, 2)
        with pytest.raises(DomainError):
            poisson_semigroup(e, -0.1)
        with pytest.raises(DomainError):
            poisson_time_derivative(e, 0.0, 1)
        # order zero falls back to the plain flow
        np.testing.assert_array_equal(
            poisson_time_derivative(e, 0.0, 0).coeffs, e.coeffs
        )


class TestSchrodinger:
    def test_identity_and_unitarity(self):
        rng = np.random.default_rng(3)
        e = SymmExpansion(GENERIC, rng.uniform(-1, 1, 12))
        np.testing.assert_allclose(schrodinger_propagator(e, 0.0).coeffs, e.coeffs, rtol=1e-15)
        out = schrodinger_propagator(e, 1.7)
        assert np.linalg.norm(out.coeffs) == pytest.approx(np.linalg.norm(e.coeffs), rel=1e-15)

    @settings(max_examples=20, deadline=None)
    @given(
        s=st.floats(-3, 3, allow_nan=False, allow_infinity=False),
        t=st.floats(-3, 3, allow_nan=False, allow_infinity=False),
    )
    def test_group_law(self, s, t):
        e = SymmExpansion(GENERIC, np.arange(1.0, 7.0))
        a = schrodinger_propagator(schrodinger_propagator(e, s), t)
        b = schrodinger_propagator(e, s + t)
        np.testing.assert_allclose(a.coeffs, b.coeffs, atol=1e-12)


class TestLadder:
    def test_kills_lowest(self):
        h = HalfLineExpansion(GENERIC, np.array([1.0]), "even")
        out = var_index_derivative(h, 1)
        np.testing.assert_array_equal(out.coeffs, [0.0])
        assert out.params.alpha == pytest.approx(GENERIC.alpha + 1)
        assert out.parity == "odd"

    def test_single_mode_constant(self):
        pr = GENERIC
        s = pr.alpha + pr.beta + 1
        for n in (0, 1, 5):
            h = HalfLineExpansion(pr, np.eye(7)[n + 1], "even")
            out = var_index_derivative(h, 1)
            expect = -math.sqrt((n + 1) * (n + 1 + s))
            assert out.coeffs[n] == pytest.approx(expect, rel=1e-14)

    def test_fourier_factor(self):
        # flat-weight case: lowering acts as d/dt, factor -n
        pr = JacobiParams(-0.5, -0.5)
        h = HalfLineExpansion(pr, np.eye(5)[3], "even")
        out = var_index_derivative(h, 1)
        assert out.coeffs[2] == pytest.approx(-3.0, rel=1e-14)

    def test_up_after_down_is_eigenvalue_gap(self):
        for pr in PAIRS:
            for n in (0, 2, 6):
                h = HalfLineExpansion(pr, np.eye(8)[n + 1], "even")
                back = ladder_up(var_index_derivative(h, 1))
                gap = eigenvalue(n + 1, pr) - eigenvalue(0, pr)
                assert back.coeffs[n + 1] == pytest.approx(gap, rel=1e-13)
                others = np.delete(back.coeffs, n + 1)
                np.testing.assert_array_equal(others, 0.0)
                assert back.parity == "even"

    def test_up_zero_input(self):
        h = HalfLineExpansion(GENERIC.shift(1), np.zeros(4), "odd")
        out = ladder_up(h)
        np.testing.assert_array_equal(out.coeffs, 0.0)
        assert out.params.alpha == pytest.approx(GENERIC.alpha)

    def test_down_matches_finite_differences(self):
        # spectral route vs 5-point stencil on the first-order expression
        nodes = interior_nodes(margin=0.2)
        for pr in (GENERIC, JacobiParams(-0.7, 0.4)):
            ladder = ladder_constants(pr, 21)
            for n in (1, 7, 20):
                def f(t, n=n, pr=pr):
                    return eigenfunction_table(n, pr, t)[n]

                fd_vals = apply_ladder_down_fd(pr, f, nodes)
                target = -ladder[n] * eigenfunction_table(n - 1, pr.shift(1), nodes)[n - 1]
                scale = np.max(np.abs(target))
                np.testing.assert_allclose(fd_vals, target, atol=1e-5 * scale)

    def test_ladder_constants_closed_form(self):
        for pr in PAIRS + [JacobiParams(-0.999999, 0.0), JacobiParams(1e5, 0.0)]:
            n = np.arange(30, dtype=float)
            want = np.sqrt(n * (n + (pr.alpha + pr.beta + 1.0)))
            assert np.array_equal(ladder_constants(pr, 30), want)
            # the first-order lowering sends index n to n - 1 times minus entry n
            h = HalfLineExpansion(pr, np.arange(1.0, 31.0), "even")
            assert np.array_equal(var_index_derivative(h, 1).coeffs, -want[1:] * h.coeffs[1:])

    @pytest.mark.parametrize("alpha", [1e4, 1e5])
    def test_down_matches_finite_differences_at_large_alpha(self, alpha):
        # the stencil step shrinks with alpha + beta + 1, so the rows, which
        # live next to pi there, stay resolved at the 1e-5 bound
        pr = JacobiParams(alpha, 0.0)
        nodes = np.linspace(0.2, math.pi - 0.2, 9)
        fd_vals = apply_ladder_down_fd(pr, lambda t: eigenfunction_table(20, pr, t), nodes)
        lowered = eigenfunction_table(19, pr.shift(1), nodes)
        ladder = ladder_constants(pr, 21)
        for n in (1, 5, 10, 20):
            target = -ladder[n] * lowered[n - 1]
            scale = np.max(np.abs(target))
            assert np.max(np.abs(fd_vals[n] - target)) <= 1e-5 * scale

    def test_the_step_is_fd_step_up_to_a_hundred(self):
        for pr in PAIRS + [JacobiParams(60.0, 39.0), JacobiParams(-0.9, -0.9)]:
            assert _fd_step(pr) == FD_STEP
        assert _fd_step(JacobiParams(999.0, 0.0)) == FD_STEP / 10.0

    def test_up_matches_finite_differences(self):
        nodes = interior_nodes(margin=0.2)
        for pr in (GENERIC, JacobiParams(1.0, 2.0)):
            up = pr.shift(1)
            ladder = ladder_constants(pr, 13)
            for n in (0, 3, 11):
                def f(t, n=n, up=up):
                    return eigenfunction_table(n, up, t)[n]

                fd_vals = apply_ladder_up_fd(pr, f, nodes)
                target = -ladder[n + 1] * eigenfunction_table(n + 1, pr, nodes)[n + 1]
                scale = np.max(np.abs(target))
                np.testing.assert_allclose(fd_vals, target, atol=1e-5 * scale)


class TestDunkl:
    def test_eigen_relation_exact(self):
        # minus the square plus the shift squared reproduces the eigenvalue
        for pr in PAIRS:
            a2 = pr.eigen_shift**2
            for n in range(41):
                e = unit(pr, n, 41)
                dd = dunkl_derivative(dunkl_derivative(e))
                lhs = -dd.coeffs
                lhs[: 41] += a2 * e.coeffs
                lam = eigenvalue((n + 1) // 2, pr)
                assert lhs[n] == pytest.approx(lam, rel=1e-13)
                mask = np.ones(lhs.size, dtype=bool)
                mask[n] = False
                np.testing.assert_array_equal(lhs[mask], 0.0)

    def test_kills_index_zero(self):
        out = dunkl_derivative(unit(GENERIC, 0, 1))
        np.testing.assert_array_equal(out.coeffs, 0.0)

    def test_antisymmetric_matrix(self):
        for pr in (GENERIC, ZERO_BOTTOM):
            grid = symmetric_rule(40, pr)
            table = symm_eigenfunction_table(21, pr, grid.nodes)
            mat = np.empty((21, 21))
            for n in range(21):
                de = dunkl_derivative(unit(pr, n, 21))
                vals = eval_symm_expansion(de, grid.nodes)
                mat[:, n] = (table * grid.weights) @ vals
            np.testing.assert_allclose(mat, -mat.T, atol=1e-10)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        for pr in (GENERIC, JacobiParams(1.0, 2.0)):
            e = SymmExpansion(pr, rng.uniform(-1, 1, 9))
            nodes = np.concatenate([-interior_nodes(5, 0.25), interior_nodes(5, 0.25)])

            def f(t, e=e):
                return eval_symm_expansion(e, t)

            fd_vals = apply_dunkl_fd(pr, f, nodes)
            spectral = eval_symm_expansion(dunkl_derivative(e), nodes)
            scale = np.max(np.abs(spectral))
            np.testing.assert_allclose(fd_vals, spectral, atol=1e-6 * scale)

    def test_commutes_with_poisson(self):
        t = 0.6
        for n in range(8):
            e = unit(GENERIC, n, 8)
            a = dunkl_derivative(poisson_semigroup(e, t))
            b = poisson_semigroup(dunkl_derivative(e), t)
            np.testing.assert_allclose(a.coeffs, b.coeffs, rtol=1e-15, atol=0)


class TestVarIndexDerivative:
    def test_identity_at_zero(self):
        h = HalfLineExpansion(GENERIC, np.array([1.0, 2.0]), "even")
        assert var_index_derivative(h, 0) is h

    def test_annihilates_low_indices(self):
        for k in (1, 2, 3):
            for n in range(k):
                h = HalfLineExpansion(GENERIC, np.eye(4)[n], "even")
                out = var_index_derivative(h, k)
                np.testing.assert_array_equal(out.coeffs, 0.0)

    def test_second_order_constant(self):
        pr = GENERIC
        s = pr.alpha + pr.beta
        for n in (2, 5, 9):
            h = HalfLineExpansion(pr, np.eye(10)[n], "even")
            out = var_index_derivative(h, 2)
            expect = math.sqrt(n * (n + s + 1)) * math.sqrt((n - 1) * (n + s + 2))
            assert out.coeffs[n - 2] == pytest.approx(expect, rel=1e-13)
            assert out.params.alpha == pytest.approx(pr.alpha + 2)
            assert out.parity == "even"

    def test_composition_matches_single_shot(self):
        rng = np.random.default_rng(5)
        h = HalfLineExpansion(GENERIC, rng.uniform(-1, 1, 9), "odd")
        two_steps = var_index_derivative(var_index_derivative(h, 1), 1)
        one_shot = var_index_derivative(h, 2)
        np.testing.assert_allclose(one_shot.coeffs, two_steps.coeffs, rtol=1e-13, atol=1e-15)
        assert one_shot.parity == two_steps.parity == "odd"

    def test_second_order_against_nested_finite_differences(self):
        pr = JacobiParams(0.0, 0.0)
        n = 6
        nodes = interior_nodes(7, margin=0.4)

        def f(t):
            return eigenfunction_table(n, pr, t)[n]

        def first(t):
            return apply_ladder_down_fd(pr, f, t)

        nested = apply_ladder_down_fd(pr.shift(1), first, nodes)
        h = HalfLineExpansion(pr, np.eye(n + 1)[n], "even")
        out = var_index_derivative(h, 2)
        target = out.coeffs[n - 2] * eigenfunction_table(n - 2, pr.shift(2), nodes)[n - 2]
        scale = np.max(np.abs(target))
        np.testing.assert_allclose(nested, target, atol=1e-4 * scale)


class TestSymmHigherDerivative:
    def test_order_zero_returns_parts(self):
        rng = np.random.default_rng(6)
        e = SymmExpansion(GENERIC, rng.uniform(-1, 1, 7))
        dev, dod = symm_higher_derivative(e, 0)
        ev, od = to_halfline(e)
        np.testing.assert_array_equal(dev.coeffs, ev.coeffs)
        np.testing.assert_array_equal(dod.coeffs, od.coeffs)

    def test_even_order_recombines(self):
        rng = np.random.default_rng(7)
        e = SymmExpansion(GENERIC, rng.uniform(-1, 1, 12))
        dev, dod = symm_higher_derivative(e, 2)
        assert dev.parity == "even" and dod.parity == "odd"
        combined = recombine(dev, dod)
        assert combined.params.alpha == pytest.approx(GENERIC.alpha + 2)

    def test_odd_order_needs_twist(self):
        rng = np.random.default_rng(8)
        e = SymmExpansion(GENERIC, rng.uniform(-1, 1, 12))
        dev, dod = symm_higher_derivative(e, 1)
        assert dev.parity == "odd" and dod.parity == "even"
        with pytest.raises(DomainError):
            recombine(dev, dod)
        tev, tod = symm_higher_derivative(e, 1, twisted=True)
        np.testing.assert_array_equal(tev.coeffs, dev.coeffs)
        assert tev.parity == "even" and tod.parity == "odd"
        recombine(tev, tod)

    def test_twist_changes_values_only_by_sign(self):
        rng = np.random.default_rng(9)
        e = SymmExpansion(GENERIC, rng.uniform(-1, 1, 10))
        dev, _ = symm_higher_derivative(e, 1)
        tev, _ = symm_higher_derivative(e, 1, twisted=True)
        th = interior_nodes(5, 0.3)
        plain = eval_halfline_expansion(dev, -th)
        twisted = eval_halfline_expansion(tev, -th)
        np.testing.assert_allclose(twisted, -plain, rtol=1e-15)
        np.testing.assert_allclose(
            eval_halfline_expansion(dev, th), eval_halfline_expansion(tev, th), rtol=1e-15
        )

    def test_growth_witness_vanishes(self):
        # the witness occupies a single odd slot; orders 1 and 2 kill it exactly
        pr = GENERIC
        c = growth_witness_coefficient(pr)
        coeffs = np.zeros(6)
        coeffs[1] = c
        e = SymmExpansion(pr, coeffs)
        for k in (1, 2):
            dev, dod = symm_higher_derivative(e, k)
            np.testing.assert_array_equal(dev.coeffs, 0.0)
            np.testing.assert_array_equal(dod.coeffs, 0.0)


class TestRieszTransforms:
    def test_second_order_symbol(self):
        for pr in (GENERIC, JacobiParams(1.0, 2.0), JacobiParams(-0.7, 0.4)):
            a2 = pr.eigen_shift**2
            for n in (0, 1, 3, 6):
                e = unit(pr, n, 8)
                out = riesz_transform(e, 2)
                lam = eigenvalue((n + 1) // 2, pr)
                assert out.coeffs[n] == pytest.approx(-(1 - a2 / lam), rel=1e-13, abs=1e-15)

    def test_second_order_symbol_zero_bottom(self):
        # shifted potential replaces the plain one
        pr = ZERO_BOTTOM
        for n in (0, 1, 4):
            e = unit(pr, n, 6)
            out = riesz_transform(e, 2)
            lam = eigenvalue((n + 1) // 2, pr)
            assert out.coeffs[n] == pytest.approx(-lam / (1 + lam), rel=1e-13, abs=1e-15)

    def test_first_order_kills_bottom(self):
        out = riesz_transform(unit(GENERIC, 0, 4), 1)
        np.testing.assert_array_equal(out.coeffs, 0.0)

    def test_matrix_norm_finite(self):
        pr = GENERIC
        m = 12
        cols = []
        for n in range(m):
            out = riesz_transform(unit(pr, n, m), 3)
            cols.append(np.linalg.norm(out.coeffs))
        top = max(cols)
        assert math.isfinite(top)
        assert top < 10.0

    def test_shifted_variant_composes(self):
        rng = np.random.default_rng(10)
        e = SymmExpansion(GENERIC, rng.uniform(-1, 1, 9))
        dev, dod = riesz_transform_shifted(e, 2)
        pot = riesz_potential(e, 1.0)
        dev2, dod2 = symm_higher_derivative(pot, 2)
        np.testing.assert_allclose(dev.coeffs, dev2.coeffs, rtol=1e-14)
        np.testing.assert_allclose(dod.coeffs, dod2.coeffs, rtol=1e-14)


class TestFiniteDifferenceHelpers:
    def test_derivative_of_sine(self):
        th = interior_nodes(11, 0.2)
        np.testing.assert_allclose(fd_derivative(np.sin, th), np.cos(th), atol=1e-9)

    def test_margin_enforced(self):
        with pytest.raises(DomainError):
            fd_derivative(np.sin, np.array([FD_MARGIN / 2]))
        with pytest.raises(DomainError):
            fd_derivative(np.sin, np.array([math.pi - FD_MARGIN / 2]))

    @pytest.mark.parametrize("case", ["table", "witness"])
    def test_one_stacked_call_is_five_separate_calls(self, case):
        # the stencil calls f once on its stacked angle sets; each part is
        # bitwise the value of a call on its own angles
        if case == "table":
            pr = JacobiParams(2.5, 1.5)
            th = np.linspace(0.2, math.pi - 0.2, 9)

            def f(t):
                return eigenfunction_table(20, pr, t)
        else:
            pr = JacobiParams(-0.3, -0.3)
            th = interior_nodes(9, 0.3)
            f = decay_witness(pr)
        h = _fd_step(pr)
        calls = []

        def counted(t):
            calls.append(t.shape)
            return f(t)

        derivative, values = _stencil(counted, th, h)
        assert calls == [(5 * th.size,)]
        separate = (-f(th + 2 * h) + 8 * f(th + h) - 8 * f(th - h) + f(th - 2 * h)) / (12 * h)
        assert derivative.tobytes() == separate.tobytes()
        assert values.tobytes() == f(th).tobytes()
        up = apply_ladder_up_fd(pr, f, th)
        assert up.tobytes() == (-separate + _coefficient_terms(pr, th) * f(th)).tobytes()


class TestWitnessClosedForms:
    # every closed form is gated by a finite-difference check before the
    # divergence experiments are allowed to use it

    def test_decay_witness_raising_annihilation(self):
        for pr in (JacobiParams(-0.3, -0.3), JacobiParams(-0.45, -0.2)):
            f = decay_witness(pr)
            nodes = interior_nodes(9, 0.3)
            residual = apply_ladder_up_fd(pr, lambda t: f(t), nodes)
            assert np.max(np.abs(residual)) < 1e-8

    def test_decay_witness_first_derivative_closed_form(self):
        for pr in (JacobiParams(-0.3, -0.3), JacobiParams(-0.45, -0.2)):
            f = decay_witness(pr)
            g = decay_witness_first_derivative(pr)
            nodes = interior_nodes(9, 0.3)
            fd_vals = apply_ladder_down_fd(pr.shift(1), lambda t: f(t), nodes)
            target = g(nodes)
            scale = np.max(np.abs(target))
            np.testing.assert_allclose(fd_vals, target, atol=1e-7 * scale)

    def test_growth_witness_is_first_odd_mode(self):
        pr = GENERIC
        f = growth_witness(pr)
        c = growth_witness_coefficient(pr)
        th = np.linspace(-2.9, 2.9, 12)
        np.testing.assert_allclose(
            f(th), c * symm_eigenfunction_table(2, pr, th)[1], rtol=1e-13
        )

    def test_growth_witness_double_derivative_closed_form(self):
        for pr in (JacobiParams(0.0, 0.0), GENERIC):
            f = growth_witness(pr)
            dd = growth_witness_double_derivative(pr)
            nodes = interior_nodes(7, 0.4)

            def raised(t, pr=pr, f=f):
                return apply_ladder_up_fd(pr, f, t)

            nested = apply_ladder_down_fd(pr.shift(1), raised, nodes)
            target = dd(nodes)
            scale = np.max(np.abs(target))
            np.testing.assert_allclose(nested, target, atol=1e-4 * scale)

    def test_cross_parameter_derivative_closed_form(self):
        own = JacobiParams(-0.6, -0.4)
        other = JacobiParams(-0.45, -0.35)
        w = cross_parameter_derivative(own, other)
        nodes = interior_nodes(9, 0.3)

        def f(t):
            return trig_power(own.alpha, own.beta, t)

        fd_vals = apply_ladder_down_fd(other, f, nodes)
        target = w(nodes)
        scale = np.max(np.abs(target))
        np.testing.assert_allclose(fd_vals, target, atol=1e-7 * scale)

    def test_own_weight_annihilated(self):
        own = JacobiParams(-0.6, -0.4)
        nodes = interior_nodes(9, 0.3)

        def f(t):
            return trig_power(own.alpha, own.beta, t)

        residual = apply_ladder_down_fd(own, f, nodes)
        assert np.max(np.abs(residual)) < 1e-8
