"""Half-line basis primitives against independent oracles.

Expected values come from three places: closed forms at the trigonometric
parameter pairs where everything degenerates to sines and cosines, direct
adaptive quadrature of the defining integrals, and the defining property of
Gauss nodes, that they are the zeros of the top polynomial.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from symjacobi.basis import _mirror_split
from symjacobi.core import (
    _TABLE_CACHE,
    _TABLE_CACHE_BYTES,
    _eigenfunction_rows,
    GridFunction,
    JacobiParams,
    QuadratureGrid,
    eigenfunction_table,
    eigenvalue,
    gauss_jacobi_rule,
    jacobi_poly_table,
    norm_constant_table,
    symmetric_rule,
    trig_weight,
)
from symjacobi.errors import DomainError, GridError, SingularPointError

PAIRS = [
    JacobiParams(-0.5, -0.5),
    JacobiParams(0.0, 0.0),
    JacobiParams(0.3, 0.7),
    JacobiParams(1.0, 2.0),
    JacobiParams(-0.7, 0.4),
    JacobiParams(2.5, 1.5),
]


def legendre_by_own_recurrence(n, x):
    # independent of the code under test: (k+1)P_{k+1} = (2k+1)xP_k - kP_{k-1}
    p_prev, p = 1.0, x
    if n == 0:
        return 1.0
    for k in range(1, n):
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
    return p


class TestParams:
    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            JacobiParams(-1.0, 0.0)
        with pytest.raises(DomainError):
            JacobiParams(0.0, -1.5)

    def test_eigen_shift(self):
        assert JacobiParams(0.0, 0.0).eigen_shift == 0.5
        assert JacobiParams(-0.5, -0.5).eigen_shift == 0.0
        assert JacobiParams(1.0, 2.0).eigen_shift == 2.0

    def test_shift(self):
        p = JacobiParams(0.3, 0.7).shift(2)
        assert p.alpha == 2.3 and p.beta == 2.7

    def test_admissible_range_large_params(self):
        p = JacobiParams(1.0, 2.0)
        assert p.admissible_range() == (1.0, math.inf)
        assert p.contains_p(1.5) and p.contains_p(200.0)
        assert not p.contains_p(1.0)

    def test_admissible_range_small_alpha(self):
        # alpha + 1/2 = -0.2 so p_upper = 5, p_lower = 5/4
        p = JacobiParams(-0.7, 0.4)
        lo, hi = p.admissible_range()
        assert hi == pytest.approx(5.0)
        assert lo == pytest.approx(1.25)
        assert p.contains_p(2.0)
        # the range is open: its own endpoints are excluded
        assert not p.contains_p(hi)
        assert not p.contains_p(lo)


class TestEigenvalue:
    def test_values(self):
        assert eigenvalue(0, JacobiParams(0.0, 0.0)) == 0.25
        assert eigenvalue(3, JacobiParams(0.0, 0.0)) == 12.25
        assert eigenvalue(0, JacobiParams(-0.5, -0.5)) == 0.0
        assert eigenvalue(2, JacobiParams(1.0, 2.0)) == 16.0

    def test_shift_identity(self):
        # lambda_{n+1} at (a, b) equals lambda_n at (a+1, b+1)
        for pr in PAIRS:
            for n in range(5):
                assert eigenvalue(n + 1, pr) == pytest.approx(
                    eigenvalue(n, pr.shift(1)), rel=1e-15
                )

    def test_negative_index(self):
        with pytest.raises(DomainError):
            eigenvalue(-1, JacobiParams(0.0, 0.0))


class TestJacobiPoly:
    def test_degree_zero_and_one(self):
        pr = JacobiParams(0.3, 0.7)
        table = jacobi_poly_table(1, pr, 0.2)
        assert table[0, 0] == 1.0
        # P_1 = (a - b)/2 + (a + b + 2) x / 2
        assert table[1, 0] == pytest.approx(0.5 * (0.3 - 0.7) + 0.5 * 3.0 * 0.2, rel=1e-15)

    def test_legendre_case_frozen(self):
        # hand-iterated Legendre recurrence at x = 0.7
        assert jacobi_poly_table(5, JacobiParams(0.0, 0.0), 0.7)[5, 0] == pytest.approx(
            -0.36519875, abs=1e-12
        )

    def test_legendre_case_sweep(self):
        xs = (-0.9, -0.3, 0.0, 0.55, 1.0)
        table = jacobi_poly_table(11, JacobiParams(0.0, 0.0), xs)
        for n in range(12):
            for x, value in zip(xs, table[n]):
                assert value == pytest.approx(legendre_by_own_recurrence(n, x), abs=1e-13)

    def test_endpoint_value(self):
        # P_n(1) = binom(n + a, n)
        for pr in PAIRS:
            table = jacobi_poly_table(7, pr, 1.0)
            for n in range(8):
                expect = math.exp(
                    math.lgamma(n + pr.alpha + 1)
                    - math.lgamma(pr.alpha + 1)
                    - math.lgamma(n + 1)
                )
                assert table[n, 0] == pytest.approx(expect, rel=1e-12)

    def test_recurrence_stable_at_degree_200(self):
        # endpoint values have log-gamma closed forms
        n = 200
        for pr in PAIRS:
            at_one = math.exp(
                math.lgamma(n + pr.alpha + 1) - math.lgamma(pr.alpha + 1) - math.lgamma(n + 1)
            )
            at_minus_one = math.exp(
                math.lgamma(n + pr.beta + 1) - math.lgamma(pr.beta + 1) - math.lgamma(n + 1)
            )
            top = jacobi_poly_table(n, pr, [1.0, -1.0])[n]
            assert top[0] == pytest.approx(at_one, rel=1e-8)
            assert top[1] == pytest.approx(at_minus_one, rel=1e-8)

    def test_matches_the_plain_recurrence_bitwise(self):
        # reference: one expression per degree, coefficients formed per n
        x = np.cos(np.linspace(0.01, 3.1, 37))
        for pr in PAIRS + [JacobiParams(40.0, -0.9)]:
            a, b = pr.alpha, pr.beta
            s = a + b
            ref = [np.ones_like(x), 0.5 * (a - b) + 0.5 * (a + b + 2.0) * x]
            for n in range(1, 60):
                c1 = 2.0 * (n + 1) * (n + s + 1) * (2 * n + s)
                c2 = (2 * n + s + 1) * (a * a - b * b)
                c3 = (2 * n + s) * (2 * n + s + 1) * (2 * n + s + 2)
                c4 = 2.0 * (n + a) * (n + b) * (2 * n + s + 2)
                ref.append(((c2 + c3 * x) * ref[n] - c4 * ref[n - 1]) / c1)
            np.testing.assert_array_equal(jacobi_poly_table(60, pr, x), np.array(ref))

    def test_domain_check(self):
        with pytest.raises(DomainError):
            jacobi_poly_table(2, JacobiParams(0.0, 0.0), 1.001)


class TestTrigWeight:
    def test_chebyshev_flat(self):
        # exponents vanish at (-1/2, -1/2)
        pr = JacobiParams(-0.5, -0.5)
        th = np.linspace(0.01, 3.1, 11)
        np.testing.assert_allclose(trig_weight(pr, th), 1.0, rtol=1e-15)

    def test_half_angle_values(self):
        assert trig_weight(JacobiParams(0.5, -0.5), math.pi / 2) == pytest.approx(
            math.sin(math.pi / 4), rel=1e-15
        )
        assert trig_weight(JacobiParams(0.5, 0.5), math.pi / 2) == pytest.approx(
            0.5, rel=1e-15
        )

    def test_even_in_theta(self):
        pr = JacobiParams(0.3, 0.7)
        th = np.linspace(0.1, 3.0, 9)
        np.testing.assert_array_equal(trig_weight(pr, th), trig_weight(pr, -th))

    def test_singular_origin(self):
        with pytest.raises(SingularPointError):
            trig_weight(JacobiParams(-0.7, 0.4), 0.0)
        # fine for alpha >= -1/2
        assert trig_weight(JacobiParams(-0.5, -0.5), 0.0) == 1.0
        assert trig_weight(JacobiParams(0.0, 0.0), 0.0) == 0.0

    def test_domain_edge(self):
        with pytest.raises(DomainError):
            trig_weight(JacobiParams(0.0, 0.0), math.pi)


class TestNormConstant:
    def test_frozen_closed_forms(self):
        assert norm_constant_table(0, JacobiParams(-0.5, -0.5))[0] == pytest.approx(
            1.0 / math.sqrt(math.pi), rel=1e-14
        )
        assert norm_constant_table(0, JacobiParams(1.0, 0.0))[0] == pytest.approx(
            math.sqrt(2.0), rel=1e-14
        )

    @pytest.mark.parametrize("n", [0, 1, 3])
    @pytest.mark.parametrize("pr", [PAIRS[2], PAIRS[4]], ids=str)
    def test_against_direct_quadrature(self, n, pr):
        # c_n = (integral of (weight * P_n)^2 over the half line)^(-1/2)
        def integrand(t):
            return (trig_weight(pr, t) * jacobi_poly_table(n, pr, math.cos(t))[n, 0]) ** 2

        val, err = quad(integrand, 0.0, math.pi, limit=200)
        assert err < 1e-7
        assert norm_constant_table(n, pr)[n] == pytest.approx(val ** -0.5, rel=1e-7)

    def test_large_degree_finite(self):
        for pr in PAIRS:
            c = norm_constant_table(200, pr)
            assert np.all(np.isfinite(c)) and np.all(c > 0)


class TestEigenfunction:
    def test_cosine_degeneration(self):
        # at (-1/2, -1/2): phi_0 = 1/sqrt(pi), phi_n = sqrt(2/pi) cos(n t)
        pr = JacobiParams(-0.5, -0.5)
        th = np.linspace(0.001, math.pi - 0.001, 1000)
        table = eigenfunction_table(9, pr, th)
        np.testing.assert_allclose(table[0], 1.0 / math.sqrt(math.pi), rtol=1e-12)
        for n in (1, 2, 5, 9):
            np.testing.assert_allclose(
                table[n], math.sqrt(2 / math.pi) * np.cos(n * th), atol=1e-12
            )

    def test_sine_degeneration(self):
        # at (1/2, 1/2): phi_n = sqrt(2/pi) sin((n+1) t)
        pr = JacobiParams(0.5, 0.5)
        th = np.linspace(0.05, 3.09, 13)
        table = eigenfunction_table(7, pr, th)
        for n in (0, 1, 4, 7):
            np.testing.assert_allclose(
                table[n], math.sqrt(2 / math.pi) * np.sin((n + 1) * th), atol=1e-12
            )

    def test_scalar_angle_is_a_one_element_array(self):
        pr = JacobiParams(0.3, 0.7)
        _TABLE_CACHE.clear()
        scalar = eigenfunction_table(3, pr, 0.5).copy()
        _TABLE_CACHE.clear()
        np.testing.assert_array_equal(scalar, eigenfunction_table(3, pr, np.array([0.5])))
        assert scalar.shape == (4, 1)

    def test_even_extension_bitwise(self):
        # built afresh both times, so the cache cannot make this hold
        pr = JacobiParams(0.3, 0.7)
        th = np.linspace(0.1, 3.0, 9)
        _TABLE_CACHE.clear()
        plus = eigenfunction_table(3, pr, th).copy()
        _TABLE_CACHE.clear()
        np.testing.assert_array_equal(eigenfunction_table(3, pr, -th), plus)


def retained_bytes():
    return sum(size for _, size in _TABLE_CACHE._entries.values())


class TestTableCache:
    def test_hit_is_fresh_build_and_read_only(self):
        _TABLE_CACHE.clear()
        pr = JacobiParams(0.3, 0.7)
        th = np.linspace(0.1, 3.0, 40)
        first = eigenfunction_table(12, pr, th)
        hit = eigenfunction_table(12, pr, th.copy())
        assert hit is first
        fresh = (
            norm_constant_table(12, pr)[:, None]
            * trig_weight(pr, th)[None, :]
            * jacobi_poly_table(12, pr, np.cos(th))
        )
        np.testing.assert_array_equal(hit, fresh)
        assert not hit.flags.writeable
        with pytest.raises(ValueError):
            hit[0, 0] = 1.0

    def test_key_covers_degree_pair_and_nodes(self):
        _TABLE_CACHE.clear()
        pr = JacobiParams(0.3, 0.7)
        th = np.linspace(0.1, 3.0, 40)
        base = eigenfunction_table(12, pr, th)
        nudged = th.copy()
        nudged[7] = np.nextafter(nudged[7], 4.0)
        others = [
            eigenfunction_table(11, pr, th),
            eigenfunction_table(12, JacobiParams(0.3, 0.7 + 1e-15), th),
            eigenfunction_table(12, pr, nudged),
            eigenfunction_table(12, pr, th[:-1]),
        ]
        assert all(t is not base for t in others)
        assert others[0].shape == (12, 40)
        # the table depends on |theta| only, so mirrored nodes share it
        assert eigenfunction_table(12, pr, -th) is base

    def test_retained_bytes_stay_within_budget(self):
        _TABLE_CACHE.clear()
        th = np.linspace(0.05, 3.0, 256)
        requested = 0
        for i in range(10):
            table = eigenfunction_table(255, JacobiParams(0.1 * i, 0.5), th)
            requested += table.nbytes
            assert _TABLE_CACHE.nbytes == retained_bytes() <= _TABLE_CACHE_BYTES
        assert requested > _TABLE_CACHE_BYTES
        # least recently used tables went first; the newest one is kept
        assert eigenfunction_table(255, JacobiParams(0.9, 0.5), th) is table

    def test_oversized_table_is_returned_not_retained(self):
        _TABLE_CACHE.clear()
        pr = JacobiParams(0.3, 0.7)
        th = np.linspace(0.05, 3.0, 300)
        small = eigenfunction_table(8, pr, th)
        kept = _TABLE_CACHE.nbytes
        big = eigenfunction_table(1023, pr, th)
        assert big.nbytes > _TABLE_CACHE_BYTES
        assert big.shape == (1024, 300)
        assert not big.flags.writeable
        # the oversized table neither stays nor pushes the small one out
        assert _TABLE_CACHE.nbytes == kept == retained_bytes()
        assert eigenfunction_table(8, pr, th) is small
        again = eigenfunction_table(1023, pr, th)
        assert again is not big
        np.testing.assert_array_equal(again, big)

    def test_failed_calls_store_nothing(self):
        _TABLE_CACHE.clear()
        th = np.array([0.0, 0.5, 1.0])
        for _ in range(2):
            with pytest.raises(SingularPointError):
                eigenfunction_table(4, JacobiParams(-0.7, 0.4), th)
            with pytest.raises(DomainError):
                eigenfunction_table(4, JacobiParams(0.3, 0.7), np.array([0.5, math.pi]))
        assert _TABLE_CACHE.nbytes == 0 == retained_bytes()


def assert_bitwise(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def near_mirrored(case):
    # angle sets that miss the mirror condition by one node, one count or a 0
    half = symmetric_rule(10, JacobiParams(0.3, 0.7)).half.nodes
    nodes = np.concatenate([-half[::-1], half])
    if case == "nudged":
        nodes[13] = np.nextafter(nodes[13], 4.0)
    elif case == "odd":
        nodes = np.concatenate([-half[::-1], [0.0], half])
    elif case == "zero":
        nodes = np.concatenate([-half[::-1], [-0.0, 0.0], half])
    elif case == "nan":
        nodes[0] = nodes[-1] = np.nan
    return nodes


class TestMirrorFold:
    """Tables on a mirrored angle set are plain tables on |theta|.

    Folding evaluations onto the positive half is the basis module's job;
    its mirror test is checked here against the rules this module builds.
    """

    def test_split_of_a_symmetric_rule(self):
        grid = symmetric_rule(20, JacobiParams(0.3, 0.7))
        assert _mirror_split(grid.nodes) == 20
        assert _mirror_split(grid.half.nodes) is None
        assert _mirror_split(-grid.half.nodes) is None

    @pytest.mark.parametrize("case", ["nudged", "odd", "zero", "nan"])
    def test_near_mirrored_sets_do_not_split(self, case):
        assert _mirror_split(near_mirrored(case)) is None

    @pytest.mark.parametrize("case", ["nudged", "odd", "zero"])
    def test_near_mirrored_sets_take_the_unfolded_path(self, case):
        pr = JacobiParams(0.3, 0.7)
        nodes = near_mirrored(case)
        _TABLE_CACHE.clear()
        table = eigenfunction_table(6, pr, nodes)
        # one entry, built at every node of the set
        (key,) = _TABLE_CACHE._entries
        assert key[2] == nodes.shape
        assert _TABLE_CACHE.get(key) is table
        assert_bitwise(table, _eigenfunction_rows(6, pr, np.abs(nodes)))

    @pytest.mark.parametrize("n_half", [1, 23, 24, 144])
    def test_table_is_bitwise_the_unfolded_one(self, n_half):
        # one plain table on |theta|, built at every node of the set
        for pr in PAIRS:
            nodes = symmetric_rule(n_half, pr).nodes
            _TABLE_CACHE.clear()
            table = eigenfunction_table(30, pr, nodes)
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 1.0
            assert_bitwise(table, _eigenfunction_rows(30, pr, np.abs(nodes)))


class TestGaussJacobiRule:
    def test_one_point_legendre_frozen(self):
        rule = gauss_jacobi_rule(1, JacobiParams(0.0, 0.0))
        np.testing.assert_allclose(rule.nodes, [math.pi / 2], rtol=1e-15)
        np.testing.assert_allclose(rule.weights, [2.0], rtol=1e-13)

    def test_chebyshev_rule_frozen(self):
        # at (-1/2, -1/2) the rule is uniform: nodes (2i-1)pi/2N, weights pi/N
        rule = gauss_jacobi_rule(4, JacobiParams(-0.5, -0.5))
        np.testing.assert_allclose(
            rule.nodes, [math.pi / 8, 3 * math.pi / 8, 5 * math.pi / 8, 7 * math.pi / 8],
            rtol=1e-13,
        )
        np.testing.assert_allclose(rule.weights, math.pi / 4, rtol=1e-13)

    def test_nodes_are_zeros_of_the_top_polynomial(self):
        # twelve distinct nodes where P_12 vanishes are all of its zeros
        fine = np.linspace(-1.0, 1.0, 2001)
        for pr in PAIRS:
            rule = gauss_jacobi_rule(12, pr)
            at_nodes = jacobi_poly_table(12, pr, np.cos(rule.nodes))[12]
            scale = np.max(np.abs(jacobi_poly_table(12, pr, fine)[12]))
            assert len(rule) == 12
            assert np.max(np.abs(at_nodes)) <= 1e-12 * scale

    def test_integrates_weighted_polynomials(self):
        # exact for trig_weight^2 * cos^k up to the algebraic degree bound
        pr = JacobiParams(0.3, 0.7)
        rule = gauss_jacobi_rule(6, pr)
        for k in (0, 1, 3, 7, 11):
            approx = rule.integrate(trig_weight(pr, rule.nodes) ** 2 * np.cos(rule.nodes) ** k)
            ref, err = quad(
                lambda t: trig_weight(pr, t) ** 2 * math.cos(t) ** k, 0, math.pi, limit=200
            )
            assert err < 1e-7
            assert approx == pytest.approx(ref, abs=1e-9)

    def test_orthonormality_exact(self):
        for pr in PAIRS:
            rule = gauss_jacobi_rule(48, pr)
            table = eigenfunction_table(40, pr, rule.nodes)
            gram = (table * rule.weights) @ table.T
            np.testing.assert_allclose(gram, np.eye(41), atol=1e-10)

    def test_weight_mass_large_rule(self):
        pr = JacobiParams(0.3, 0.7)
        rule = gauss_jacobi_rule(64, pr)
        approx = rule.integrate(trig_weight(pr, rule.nodes) ** 2)
        ref, err = quad(lambda t: trig_weight(pr, t) ** 2, 0, math.pi, limit=200)
        assert err < 1e-8
        assert approx == pytest.approx(ref, abs=1e-10)

    def test_rows_stay_out_of_the_table_cache(self):
        # the rule's N x N rows would evict the tables callers reuse
        _TABLE_CACHE.clear()
        gauss_jacobi_rule(64, JacobiParams(0.3, 0.7))
        assert _TABLE_CACHE.nbytes == 0 == retained_bytes()

    def test_size_check(self):
        with pytest.raises(GridError):
            gauss_jacobi_rule(0, JacobiParams(0.0, 0.0))


class TestSymmetricRule:
    def test_structure(self):
        rule = symmetric_rule(8, JacobiParams(0.3, 0.7))
        assert len(rule) == 16
        assert rule.interval == "symmetric"
        assert rule.half is not None and len(rule.half) == 8
        assert np.all(rule.nodes != 0.0)
        np.testing.assert_array_equal(rule.nodes, -rule.nodes[::-1])
        np.testing.assert_array_equal(rule.weights, rule.weights[::-1])

    def test_even_integrand_doubles(self):
        pr = JacobiParams(1.0, 2.0)
        sym = symmetric_rule(10, pr)
        f_half = trig_weight(pr, sym.half.nodes) ** 2 * np.cos(sym.half.nodes) ** 2
        f_full = trig_weight(pr, np.abs(sym.nodes)) ** 2 * np.cos(sym.nodes) ** 2
        assert sym.integrate(f_full) == pytest.approx(2 * sym.half.integrate(f_half), rel=1e-14)

    def test_odd_integrand_cancels(self):
        pr = JacobiParams(0.3, 0.7)
        sym = symmetric_rule(10, pr)
        f = np.sign(sym.nodes) * trig_weight(pr, np.abs(sym.nodes)) ** 2
        assert abs(sym.integrate(f)) < 1e-15


class TestGridTypes:
    def test_grid_validation(self):
        with pytest.raises(GridError):
            QuadratureGrid(np.array([0.2, 0.1]), np.array([1.0, 1.0]), "halfline")
        with pytest.raises(GridError):
            QuadratureGrid(np.array([0.1, 0.2]), np.array([1.0, -1.0]), "halfline")
        with pytest.raises(GridError):
            QuadratureGrid(np.array([-0.1, 0.2]), np.array([1.0, 1.0]), "halfline")
        with pytest.raises(GridError):
            QuadratureGrid(np.array([0.1, 0.2]), np.array([1.0, 1.0]), "circle")

    @pytest.mark.parametrize(
        "nodes, weights",
        [([np.nan], [1.0]), ([0.1, np.nan, 0.3], [1.0, 1.0, 1.0]), ([0.1, 0.2], [1.0, np.nan])],
    )
    def test_grid_rejects_nan(self, nodes, weights):
        # scipy returns roots at or past x = 1 for alpha within about 1e-12 of
        # -1; the rule must then fail instead of carrying NaN angles
        with pytest.raises(GridError):
            QuadratureGrid(np.array(nodes), np.array(weights), "halfline")

    def test_grid_function_shape(self):
        rule = gauss_jacobi_rule(4, JacobiParams(0.0, 0.0))
        GridFunction(rule, np.zeros(4))
        with pytest.raises(GridError):
            GridFunction(rule, np.zeros(5))
