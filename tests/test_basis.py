"""Symmetrized basis: parity bookkeeping, transforms, round trips."""

import math

import numpy as np
import pytest

from symjacobi.basis import (
    HalfLineExpansion,
    SymmExpansion,
    analyze,
    eigen_index,
    eval_halfline_expansion,
    eval_symm_eigenfunction,
    eval_symm_expansion,
    min_quadrature_order,
    recombine,
    reflect,
    reflect_coeffs,
    split_even_odd,
    symm_eigenfunction_table,
    symm_eigenvalues,
    synthesize,
    to_halfline,
)
from symjacobi.core import (
    GridFunction,
    JacobiParams,
    eval_eigenfunction,
    gauss_jacobi_rule,
    norm_constant,
    symmetric_rule,
)
from symjacobi.errors import ConfigError, DomainError, GridError

PAIRS = [
    JacobiParams(-0.5, -0.5),
    JacobiParams(0.0, 0.0),
    JacobiParams(0.3, 0.7),
    JacobiParams(1.0, 2.0),
    JacobiParams(-0.7, 0.4),
    JacobiParams(2.5, 1.5),
]


def unit_expansion(params, n, length=None):
    length = length or n + 1
    coeffs = np.zeros(length)
    coeffs[n] = 1.0
    return SymmExpansion(params, coeffs)


class TestIndexMap:
    def test_frozen_values(self):
        assert eigen_index(0) == 0
        assert eigen_index(1) == 1
        assert eigen_index(2) == 1
        assert eigen_index(7) == 4

    def test_eigenvalue_alignment(self):
        # consecutive odd/even indices share an eigenvalue
        pr = JacobiParams(0.3, 0.7)
        lam = symm_eigenvalues(9, pr)
        assert lam[1] == lam[2] and lam[3] == lam[4]
        assert lam[0] == pytest.approx(pr.eigen_shift**2)

    def test_negative(self):
        with pytest.raises(DomainError):
            eigen_index(-2)


class TestSymmEigenfunction:
    def test_parity_bitwise(self):
        pr = JacobiParams(0.3, 0.7)
        th = np.linspace(0.07, 3.05, 11)
        for n in (0, 2, 6):
            np.testing.assert_array_equal(
                eval_symm_eigenfunction(n, pr, th), eval_symm_eigenfunction(n, pr, -th)
            )
        for n in (1, 3, 9):
            np.testing.assert_array_equal(
                eval_symm_eigenfunction(n, pr, th), -eval_symm_eigenfunction(n, pr, -th)
            )

    def test_fourier_degeneration(self):
        # even slots become cos(n t)/sqrt(pi), odd slots sin((n+1) t)/sqrt(pi)
        pr = JacobiParams(-0.5, -0.5)
        th = np.linspace(-3.0, 3.0, 41)
        np.testing.assert_allclose(
            eval_symm_eigenfunction(0, pr, th), 1 / math.sqrt(2 * math.pi), rtol=1e-13
        )
        for k in (1, 3):
            np.testing.assert_allclose(
                eval_symm_eigenfunction(2 * k, pr, th),
                np.cos(k * th) / math.sqrt(math.pi),
                atol=1e-13,
            )
        for k in (0, 2):
            np.testing.assert_allclose(
                eval_symm_eigenfunction(2 * k + 1, pr, th),
                np.sin((k + 1) * th) / math.sqrt(math.pi),
                atol=1e-13,
            )

    def test_gram_identity(self):
        for pr in PAIRS:
            grid = symmetric_rule(48, pr)
            table = symm_eigenfunction_table(41, pr, grid.nodes)
            gram = (table * grid.weights) @ table.T
            np.testing.assert_allclose(gram, np.eye(41), atol=1e-10)

    def test_table_matches_scalar(self):
        pr = JacobiParams(1.0, 2.0)
        th = np.linspace(-2.9, 2.9, 7)
        table = symm_eigenfunction_table(6, pr, th)
        for n in range(6):
            np.testing.assert_allclose(table[n], eval_symm_eigenfunction(n, pr, th), rtol=1e-13)


class TestReflect:
    def test_even_odd_samples(self):
        pr = JacobiParams(0.3, 0.7)
        grid = symmetric_rule(12, pr)
        even = GridFunction(grid, eval_symm_eigenfunction(4, pr, grid.nodes))
        odd = GridFunction(grid, eval_symm_eigenfunction(3, pr, grid.nodes))
        np.testing.assert_array_equal(reflect(even).values, even.values)
        np.testing.assert_array_equal(reflect(odd).values, -odd.values)

    def test_involution(self):
        pr = JacobiParams(0.0, 0.0)
        grid = symmetric_rule(9, pr)
        f = GridFunction(grid, np.sin(grid.nodes) + grid.nodes**2)
        np.testing.assert_array_equal(reflect(reflect(f)).values, f.values)

    def test_requires_symmetric(self):
        pr = JacobiParams(0.0, 0.0)
        half = gauss_jacobi_rule(6, pr)
        with pytest.raises(GridError):
            reflect(GridFunction(half, np.ones(6)))

    def test_coefficient_reflection(self):
        e = SymmExpansion(JacobiParams(0.3, 0.7), np.array([1.0, 2.0, 3.0, 4.0]))
        r = reflect_coeffs(e)
        np.testing.assert_array_equal(r.coeffs, [1.0, -2.0, 3.0, -4.0])
        np.testing.assert_array_equal(reflect_coeffs(r).coeffs, e.coeffs)


class TestSplitEvenOdd:
    def test_pure_parity_inputs(self):
        pr = JacobiParams(0.3, 0.7)
        grid = symmetric_rule(16, pr)
        f2 = GridFunction(grid, eval_symm_eigenfunction(2, pr, grid.nodes))
        ev, od = split_even_odd(f2)
        np.testing.assert_allclose(
            ev.values,
            eval_eigenfunction(1, pr, ev.grid.nodes) / math.sqrt(2),
            rtol=1e-14,
        )
        np.testing.assert_allclose(od.values, 0.0, atol=1e-16)

        f1 = GridFunction(grid, eval_symm_eigenfunction(1, pr, grid.nodes))
        ev, od = split_even_odd(f1)
        np.testing.assert_allclose(ev.values, 0.0, atol=1e-16)
        np.testing.assert_allclose(
            od.values,
            eval_eigenfunction(0, pr.shift(1), od.grid.nodes) / math.sqrt(2),
            rtol=1e-14,
        )

    def test_reconstruction_and_norm(self):
        pr = JacobiParams(1.0, 2.0)
        grid = symmetric_rule(20, pr)
        rng = np.random.default_rng(7)
        f = GridFunction(grid, rng.normal(size=len(grid)))
        ev, od = split_even_odd(f)
        k = len(grid) // 2
        rebuilt_pos = ev.values + od.values
        rebuilt_neg = (ev.values - od.values)[::-1]
        np.testing.assert_allclose(
            np.concatenate([rebuilt_neg, rebuilt_pos]), f.values, rtol=1e-14, atol=1e-15
        )
        total = grid.integrate(f.values**2)
        parts = 2 * ev.grid.integrate(ev.values**2) + 2 * od.grid.integrate(od.values**2)
        assert total == pytest.approx(parts, rel=1e-13)


class TestAnalyze:
    def test_unit_vector_recovery(self):
        pr = JacobiParams(0.3, 0.7)
        e = analyze(lambda t: eval_symm_eigenfunction(3, pr, t), pr, 6)
        expect = np.zeros(6)
        expect[3] = 1.0
        np.testing.assert_allclose(e.coeffs, expect, atol=1e-13)

    def test_linearity(self):
        pr = JacobiParams(-0.7, 0.4)

        def f(t):
            return eval_symm_eigenfunction(0, pr, t) + 2 * eval_symm_eigenfunction(5, pr, t)

        e = analyze(f, pr, 8)
        expect = np.zeros(8)
        expect[0], expect[5] = 1.0, 2.0
        np.testing.assert_allclose(e.coeffs, expect, atol=1e-13)

    def test_odd_witness_kills_even_coefficients(self):
        # sign(t) * weight of the shifted pair is a pure odd-slot object:
        # exactly the first odd basis function up to normalization
        pr = JacobiParams(0.3, 0.7)
        up = pr.shift(1)

        def f(t):
            t = np.asarray(t, dtype=float)
            half = np.abs(t) / 2
            w = np.abs(np.sin(half)) ** (up.alpha + 0.5) * np.cos(half) ** (up.beta + 0.5)
            return np.sign(t) * w

        e = analyze(f, pr, 10)
        np.testing.assert_allclose(e.coeffs[0::2], 0.0, atol=1e-14)
        expect_b1 = math.sqrt(2) / norm_constant(0, up)
        assert e.coeffs[1] == pytest.approx(expect_b1, rel=1e-12)
        np.testing.assert_allclose(e.coeffs[3::2], 0.0, atol=1e-12)

    def test_grid_function_path_matches_callable(self):
        pr = JacobiParams(1.0, 2.0)
        coeffs = np.array([0.3, -1.2, 0.0, 2.0, 0.7])
        e = SymmExpansion(pr, coeffs)
        grid = symmetric_rule(16, pr)
        from_grid = analyze(synthesize(e, grid), pr, 5)
        from_callable = analyze(lambda t: eval_symm_expansion(e, t), pr, 5)
        np.testing.assert_allclose(from_grid.coeffs, coeffs, atol=1e-12)
        np.testing.assert_allclose(from_callable.coeffs, coeffs, atol=1e-12)

    def test_insufficient_quadrature(self):
        pr = JacobiParams(0.0, 0.0)
        with pytest.raises(ConfigError):
            analyze(lambda t: np.ones_like(t), pr, 16, n_quad=4)
        grid = symmetric_rule(4, pr)
        f = GridFunction(grid, np.ones(8))
        with pytest.raises(ConfigError):
            analyze(f, pr, 16)
        assert min_quadrature_order(16) == 9


class TestSynthesize:
    def test_round_trip_and_parseval(self):
        for pr in PAIRS:
            rng = np.random.default_rng(42)
            coeffs = rng.uniform(-1, 1, 12)
            e = SymmExpansion(pr, coeffs)
            grid = symmetric_rule(32, pr)
            f = synthesize(e, grid)
            back = analyze(f, pr, 12)
            np.testing.assert_allclose(back.coeffs, coeffs, atol=1e-12)
            grid_norm = math.sqrt(grid.integrate(f.values**2))
            assert grid_norm == pytest.approx(e.coeff_norm(), abs=1e-10)

    def test_zeroing_odd_coefficients_gives_even_part(self):
        pr = JacobiParams(0.3, 0.7)
        rng = np.random.default_rng(3)
        e = SymmExpansion(pr, rng.uniform(-1, 1, 9))
        grid = symmetric_rule(16, pr)
        f = synthesize(e, grid)
        ev, _ = split_even_odd(f)
        even_only = e.coeffs.copy()
        even_only[1::2] = 0.0
        g = synthesize(SymmExpansion(pr, even_only), grid)
        k = len(grid) // 2
        np.testing.assert_allclose(g.values[k:], ev.values, atol=1e-14)


class TestHalfLineSynthesisPath:
    """eval_symm_expansion sums two half-line tables instead of the interleaved one."""

    @pytest.mark.parametrize("length", [1, 2, 7, 12])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_matches_symmetrized_table(self, length, kind):
        rng = np.random.default_rng([length, kind == "complex"])
        for pr in PAIRS:
            coeffs = rng.uniform(-1, 1, length)
            if kind == "complex":
                coeffs = coeffs + 1j * rng.uniform(-1, 1, length)
            nodes = symmetric_rule(40, pr).nodes
            got = eval_symm_expansion(SymmExpansion(pr, coeffs), nodes)
            want = coeffs @ symm_eigenfunction_table(length, pr, nodes)
            assert got.shape == want.shape
            assert np.iscomplexobj(got) == (kind == "complex")
            bound = 1e-13 * np.linalg.norm(coeffs)
            assert float(np.max(np.abs(got - want))) <= bound


class TestHalfLineRoundTrip:
    def test_unit_even_vector(self):
        pr = JacobiParams(0.3, 0.7)
        e = unit_expansion(pr, 2, 3)
        ev, od = to_halfline(e)
        np.testing.assert_allclose(ev.coeffs, [0.0, 1 / math.sqrt(2)], rtol=1e-15)
        np.testing.assert_allclose(od.coeffs, [0.0], atol=0)
        assert ev.parity == "even" and od.parity == "odd"
        assert od.params.alpha == pytest.approx(pr.alpha + 1)

    def test_values_match_parts(self):
        pr = JacobiParams(-0.7, 0.4)
        rng = np.random.default_rng(11)
        e = SymmExpansion(pr, rng.uniform(-1, 1, 10))
        ev, od = to_halfline(e)
        th = np.linspace(-3.0, 3.0, 16)  # even count keeps 0 out of the sample set
        direct = eval_symm_expansion(e, th)
        split = eval_halfline_expansion(ev, th) + eval_halfline_expansion(od, th)
        np.testing.assert_allclose(split, direct, atol=1e-13)

    def test_round_trip(self):
        pr = JacobiParams(1.0, 2.0)
        rng = np.random.default_rng(23)
        coeffs = rng.uniform(-1, 1, 11)
        e = SymmExpansion(pr, coeffs)
        back = recombine(*to_halfline(e))
        np.testing.assert_allclose(back.coeffs[:11], coeffs, rtol=1e-15, atol=1e-16)
        np.testing.assert_allclose(back.coeffs[11:], 0.0, atol=0)

    def test_coefficient_norm_split(self):
        # squared full-interval norms: parts carry a factor 2 each
        pr = JacobiParams(0.0, 0.0)
        rng = np.random.default_rng(5)
        e = SymmExpansion(pr, rng.uniform(-1, 1, 8))
        ev, od = to_halfline(e)
        assert e.coeff_norm() ** 2 == pytest.approx(
            2 * ev.coeff_norm() ** 2 + 2 * od.coeff_norm() ** 2, rel=1e-14
        )

    def test_recombine_validation(self):
        pr = JacobiParams(0.3, 0.7)
        ev = HalfLineExpansion(pr, np.ones(3), "even")
        od_ok = HalfLineExpansion(pr.shift(1), np.ones(3), "odd")
        recombine(ev, od_ok)
        with pytest.raises(DomainError):
            recombine(od_ok, od_ok)
        with pytest.raises(DomainError):
            recombine(ev, HalfLineExpansion(pr.shift(2), np.ones(3), "odd"))


class TestCompletenessSurrogate:
    def test_projection_distance_decreases(self):
        # smooth bump supported inside (0.4, 2.8), away from 0 and the endpoints
        def bump(t):
            t = np.asarray(t, dtype=float)
            u = (t - 1.6) / 1.2
            inside = np.abs(u) < 1.0
            out = np.zeros_like(t)
            with np.errstate(divide="ignore", over="ignore"):
                vals = np.exp(-1.0 / (1.0 - u[inside] ** 2))
            out[inside] = vals
            return out

        pr = JacobiParams(0.3, 0.7)
        grid = symmetric_rule(128, pr)
        target = bump(grid.nodes)
        exponents = [1.0, 2.0, 3.0]  # 3 lies inside E(0.3, 0.7) = (1, inf)
        for p in exponents:
            dists = []
            for m in (8, 16, 32, 64):
                proj = synthesize(analyze(bump, pr, m), grid)
                diff = np.abs(proj.values - target)
                dists.append(grid.integrate(diff**p) ** (1 / p))
            for a, b in zip(dists, dists[1:]):
                assert b <= 1.05 * a
        assert dists[-1] < 1e-2
