"""Half-line basis primitives against independent oracles.

Expected values come from three places: closed forms at the trigonometric
parameter pairs where everything degenerates to sines and cosines, direct
adaptive quadrature of the defining integrals, and the defining property of
Gauss nodes, that they are the zeros of the top polynomial.
"""

import dataclasses
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import roots_jacobi

from symjacobi import core
from symjacobi.basis import analyze, symm_eigenfunction_table
from symjacobi.core import (
    _GRID_FACTS,
    _TABLE_CAP_BYTES,
    _eigenfunction_rows,
    _mirror_split,
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
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(DomainError):
                JacobiParams(bad, 0.0)
            with pytest.raises(DomainError):
                JacobiParams(0.0, bad)

    def test_eigen_shift(self):
        assert JacobiParams(0.0, 0.0).eigen_shift == 0.5
        assert JacobiParams(-0.5, -0.5).eigen_shift == 0.0
        assert JacobiParams(1.0, 2.0).eigen_shift == 2.0

    def test_shift(self):
        p = JacobiParams(0.3, 0.7).shift(2)
        assert p.alpha == 2.3 and p.beta == 2.7

    def test_label_is_the_case_name_form(self):
        assert JacobiParams(0.3, 0.7).label() == "(0.3,0.7)"
        assert JacobiParams(-0.5, 100000.0).label() == "(-0.5,100000)"

    def test_key_is_the_exact_bytes_of_the_pair(self):
        pr = JacobiParams(0.3, 0.7)
        assert pr.key == np.array([0.3, 0.7]).tobytes() == JacobiParams(0.3, 0.7).key
        assert JacobiParams(-0.0, 0.0).key != JacobiParams(0.0, 0.0).key
        assert JacobiParams(0.0, 0.3).key != JacobiParams(0.3, 0.0).key

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
        # reference: one expression per degree, coefficients formed per n;
        # 150 rows span several blocks of the sweep
        x = np.cos(np.linspace(0.01, 3.1, 37))
        for pr in PAIRS + [JacobiParams(40.0, -0.9)]:
            a, b = pr.alpha, pr.beta
            s = a + b
            ref = [np.ones_like(x), 0.5 * (a - b) + 0.5 * (a + b + 2.0) * x]
            for n in range(1, 150):
                c1 = 2.0 * (n + 1) * (n + s + 1) * (2 * n + s)
                c2 = (2 * n + s + 1) * (a * a - b * b)
                c3 = (2 * n + s) * (2 * n + s + 1) * (2 * n + s + 2)
                c4 = 2.0 * (n + a) * (n + b) * (2 * n + s + 2)
                ref.append(((c2 + c3 * x) * ref[n] - c4 * ref[n - 1]) / c1)
            np.testing.assert_array_equal(jacobi_poly_table(150, pr, x), np.array(ref))

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

    @pytest.mark.parametrize(
        "alpha, beta", [(-0.5, -0.5), (-0.5, 0.7), (0.0, 0.0), (0.3, 0.7), (2.5, 1.5)]
    )
    def test_rows_at_zero_take_the_limit(self, alpha, beta):
        # the start row is formed from log sin(theta/2), which is -inf at 0;
        # a warning there would fail under the RuntimeWarning error filter
        pr = JacobiParams(alpha, beta)
        table = _eigenfunction_rows(20, pr, np.array([0.0, 0.5]))
        limit = norm_constant_table(20, pr) * jacobi_poly_table(20, pr, 1.0)[:, 0]
        limit *= trig_weight(pr, 0.0)
        np.testing.assert_allclose(table[:, 0], limit, rtol=1e-13, atol=0)

    @pytest.mark.parametrize(
        "alpha, beta, node",
        [(-0.999999, 0.0, 0), (0.0, -0.999999, -1)],
        ids=["alpha-end", "beta-end"],
    )
    def test_rows_match_an_mpmath_oracle_next_to_either_end(self, alpha, beta, node):
        # at the first node of the default rule for degree 256 at alpha near
        # -1 the x-form product was 4.1e-6 off: P_n(cos t) cancels to a small
        # value there; the last node at beta near -1 takes the 2 cos^2(t/2)
        # branch next to pi
        mp = pytest.importorskip("mpmath")
        degree = 256
        pr = JacobiParams(alpha, beta)
        t = gauss_jacobi_rule(2 * degree + 16, pr).nodes[[node]]
        row = eigenfunction_table(degree, pr, t)[:, 0]
        with mp.workdps(40):
            a, b, th = mp.mpf(alpha), mp.mpf(beta), mp.mpf(t[0])
            w = mp.sin(th / 2) ** (a + 0.5) * mp.cos(th / 2) ** (b + 0.5)
            for n in range(degree + 1):
                norm = mp.gamma(n + a + 1) * mp.gamma(n + b + 1) / (
                    (2 * n + a + b + 1) * mp.gamma(n + a + b + 1) * mp.factorial(n)
                )
                ref = w * mp.jacobi(n, a, b, mp.cos(th)) / mp.sqrt(norm)
                assert abs(row[n] - ref) <= 1e-10 * abs(ref)

    def test_scalar_angle_is_a_one_element_array(self):
        pr = JacobiParams(0.3, 0.7)
        scalar = eigenfunction_table(3, pr, 0.5)
        np.testing.assert_array_equal(scalar, eigenfunction_table(3, pr, np.array([0.5])))
        assert scalar.shape == (4, 1)

    def test_even_extension_bitwise(self):
        # angles that are no grid's nodes are built afresh each call, so no
        # kept table can make this hold
        pr = JacobiParams(0.3, 0.7)
        th = np.linspace(0.1, 3.0, 9)
        plus = eigenfunction_table(3, pr, th)
        np.testing.assert_array_equal(eigenfunction_table(3, pr, -th), plus)


def grid_on(th):
    # a half-line grid on a read-only copy of the angles th
    return QuadratureGrid(th, np.ones_like(th))


def store_of(grid):
    return grid._facts.tables


class TestTableCache:
    """Each grid keeps the tables built on its own node arrays while it lives."""

    def test_hit_is_fresh_build_and_read_only(self):
        pr = JacobiParams(0.3, 0.7)
        grid = grid_on(np.linspace(0.1, 3.0, 40))
        th = grid.nodes
        first = eigenfunction_table(12, pr, th)
        hit = eigenfunction_table(12, pr, th)
        assert hit is first
        assert_bitwise(hit, _eigenfunction_rows(12, pr, th))
        # the x-form product is an independent oracle for the rows; 1e-13 of
        # each row's largest value is about 450 ulps
        product = (
            norm_constant_table(12, pr)[:, None]
            * trig_weight(pr, th)[None, :]
            * jacobi_poly_table(12, pr, np.cos(th))
        )
        scale = np.max(np.abs(product), axis=1, keepdims=True)
        assert np.max(np.abs(hit - product) / scale) <= 1e-13
        assert not hit.flags.writeable
        with pytest.raises(ValueError):
            hit[0, 0] = 1.0

    def test_key_covers_pair_and_nodes(self):
        pr = JacobiParams(0.3, 0.7)
        grid = grid_on(np.linspace(0.1, 3.0, 40))
        th = grid.nodes
        base = eigenfunction_table(12, pr, th)
        other = eigenfunction_table(12, JacobiParams(0.3, 0.7 + 1e-15), th)
        assert not np.shares_memory(other, base)
        assert len(store_of(grid)) == 2
        # grids on two slices of the read-only nodes: one shape, other bytes
        ends = [QuadratureGrid(th[cut], grid.weights[cut]) for cut in (slice(1, None), slice(-1))]
        parts = [eigenfunction_table(12, pr, g.nodes) for g in ends]
        assert not np.shares_memory(*parts)
        assert not any(np.shares_memory(t, base) for t in parts)
        assert [len(store_of(g)) for g in ends] == [1, 1]
        assert len(store_of(grid)) == 2
        # a shallower request is a view of the leading rows of the same entry
        prefix = eigenfunction_table(11, pr, th)
        assert prefix.shape == (12, 40) and np.shares_memory(prefix, base)
        assert_bitwise(prefix, _eigenfunction_rows(11, pr, th))

    def test_mirrored_nodes_share_the_positive_half_table(self):
        # a symmetric grid's folded tables are its half's tables; the
        # reversed negative half is no grid's node array, and the table built
        # on it, on the same |theta|, is equal and not kept
        pr = JacobiParams(0.3, 0.7)
        grid = symmetric_rule(20, pr)
        assert store_of(grid.half) is store_of(grid)
        pos = eigenfunction_table(12, pr, grid.half.nodes)
        symm_eigenfunction_table(25, pr, grid.nodes)
        assert eigenfunction_table(12, pr, grid.half.nodes) is pos
        neg = eigenfunction_table(12, pr, grid.nodes[19::-1])
        assert neg is not pos
        assert_bitwise(neg, pos)
        assert len(store_of(grid)) == 2

    def test_other_arrays_of_a_grids_nodes_get_equal_unstored_tables(self):
        pr = JacobiParams(0.3, 0.7)
        grid = grid_on(np.linspace(0.1, 3.0, 40))
        stored = eigenfunction_table(12, pr, grid.nodes)
        kept = dict(store_of(grid))
        for cols in (slice(None), slice(None, None, -1), slice(5, 30)):
            for th in (grid.nodes[cols], grid.nodes[cols].copy()):
                table = eigenfunction_table(12, pr, th)
                assert not np.shares_memory(table, stored)
                assert_bitwise(table, stored[:, cols])
        assert store_of(grid) == kept and all(store_of(grid)[k] is v for k, v in kept.items())

    def test_grids_on_one_read_only_node_array_share_one_store(self):
        # as a grid with one weight changed on a rule's nodes; the entry
        # lives while either grid does
        pr = JacobiParams(0.3, 0.7)
        rule = symmetric_rule(20, pr)
        weights = rule.weights.copy()
        weights[3] *= 2.0
        other = QuadratureGrid(rule.nodes, weights, "symmetric")
        assert other.nodes is rule.nodes and other.weights is not weights
        assert store_of(other) is store_of(rule)
        assert store_of(other.half) is store_of(rule.half) is store_of(rule)
        table = eigenfunction_table(12, pr, rule.nodes)
        assert eigenfunction_table(12, pr, other.nodes) is table
        del rule
        assert id(other.nodes) in _GRID_FACTS
        assert eigenfunction_table(12, pr, other.nodes) is table

    def test_a_held_grid_keeps_every_table(self):
        # ten tables of 0.5 MiB, more than twice the 2 MiB budget of the
        # least recently used cache this store replaced; every one stays
        grid = grid_on(np.linspace(0.05, 3.0, 256))
        pairs = [JacobiParams(0.1 * i, 0.5) for i in range(10)]
        tables = [eigenfunction_table(255, pr, grid.nodes) for pr in pairs]
        lru_budget = 2 * 1024 * 1024
        assert sum(t.nbytes for t in tables) > 2 * lru_budget
        assert all(eigenfunction_table(255, pr, grid.nodes) is t for pr, t in zip(pairs, tables))
        assert len(store_of(grid)) == 10

    def test_the_store_leaves_with_its_grid(self):
        pr = JacobiParams(0.3, 0.7)
        grid = symmetric_rule(24, pr)
        owners = {id(grid.nodes), id(grid.half.nodes)}
        kept = weakref.ref(eigenfunction_table(20, pr, grid.half.nodes))
        assert owners <= set(_GRID_FACTS) and kept() is not None
        del grid
        assert not owners & set(_GRID_FACTS) and kept() is None

    def test_angles_off_a_grid_keep_nothing(self):
        pr = JacobiParams(0.3, 0.7)
        grid = symmetric_rule(24, pr)
        half = list(grid.half.nodes)
        stores = set(_GRID_FACTS)
        for th in (grid.nodes.copy(), np.linspace(0.1, 3.0, 40), half):
            first, again = eigenfunction_table(12, pr, th), eigenfunction_table(12, pr, th)
            assert first is not again and not np.shares_memory(first, again)
            assert not first.flags.writeable
            assert_bitwise(first, again)
        assert store_of(grid) == {} and set(_GRID_FACTS) == stores

    def test_oversized_table_is_returned_not_retained(self):
        # a deeper table over the budget leaves the small one's entry as it was
        pr = JacobiParams(0.3, 0.7)
        grid = grid_on(np.linspace(0.05, 3.0, 600))
        th = grid.nodes
        small = eigenfunction_table(8, pr, th)
        big = eigenfunction_table(1023, pr, th)
        assert big.nbytes > _TABLE_CAP_BYTES
        assert big.shape == (1024, 600)
        assert not big.flags.writeable
        # the oversized table neither stays nor replaces the small one
        (kept,) = store_of(grid).values()
        assert kept is small
        assert eigenfunction_table(8, pr, th) is small
        again = eigenfunction_table(1023, pr, th)
        assert again is not big
        np.testing.assert_array_equal(again, big)

    def test_failed_calls_store_nothing(self):
        # nor does a grid on the valid part of each angle set
        singular = np.array([0.0, 0.5, 1.0])
        past_pi = np.array([0.5, 1.0, math.pi])
        grids = [grid_on(singular[1:]), grid_on(past_pi[:2])]
        for _ in range(2):
            with pytest.raises(SingularPointError):
                eigenfunction_table(4, JacobiParams(-0.7, 0.4), singular)
            with pytest.raises(DomainError):
                eigenfunction_table(4, JacobiParams(0.3, 0.7), past_pi)
        assert [store_of(g) for g in grids] == [{}, {}]

    def test_deeper_request_replaces_the_entry(self):
        pr = JacobiParams(0.3, 0.7)
        grid = grid_on(np.linspace(0.05, 3.0, 50))
        th = grid.nodes
        shallow = eigenfunction_table(10, pr, th)
        deep = eigenfunction_table(40, pr, th)
        # one entry, now the deeper table
        (kept,) = store_of(grid).values()
        assert kept is deep
        assert_bitwise(deep[:11], shallow)
        assert eigenfunction_table(40, pr, th) is deep
        assert np.shares_memory(eigenfunction_table(10, pr, th), deep)

    def test_a_deeper_request_continues_from_the_stored_rows(self, monkeypatch):
        builds = []
        original = core._eigenfunction_rows

        def counting(n_top, params, th, head=None):
            builds.append((0 if head is None else head.shape[0], n_top + 1))
            return original(n_top, params, th, head)

        monkeypatch.setattr(core, "_eigenfunction_rows", counting)
        pr = JacobiParams(2.5, 1.5)
        grid = grid_on(np.linspace(0.05, 3.0, 30))
        th = grid.nodes
        eigenfunction_table(20, pr, th)
        for n_top in (5, 20, 70, 33, 70):
            eigenfunction_table(n_top, pr, th)
        # 21 rows from row 0, then the deeper table from the 21 stored ones;
        # every other request was served from the store
        assert builds == [(0, 21), (21, 71)]
        monkeypatch.undo()
        assert_bitwise(eigenfunction_table(70, pr, th), _eigenfunction_rows(70, pr, th))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        alpha=st.floats(-1.0, 50.0, exclude_min=True),
        beta=st.floats(-1.0, 50.0, exclude_min=True),
        count=st.integers(1, 40),
        depths=st.tuples(st.integers(0, 150), st.integers(1, 150), st.integers(0, 300)),
    )
    def test_every_served_table_is_a_cold_build(self, alpha, beta, count, depths):
        # shallow, then deeper, then back to a depth at or below the deepest
        pr = JacobiParams(alpha, beta)
        grid = grid_on(np.linspace(0.01, 3.13, count))
        th = grid.nodes
        shallow, gap, back = depths
        for n_top in (shallow, shallow + gap, min(back, shallow + gap)):
            table = eigenfunction_table(n_top, pr, th)
            assert not table.flags.writeable
            assert_bitwise(table, _eigenfunction_rows(n_top, pr, th))


class TestContinuedTables:
    """A request deeper than a stored table continues the recurrence from
    the stored rows, and every row is bitwise the row of a build from 0."""

    @pytest.mark.parametrize("head", [1, 63, 64, 65])
    def test_continued_rows_are_a_fresh_build(self, head):
        # heads on either side of a 64-row block edge
        pr = JacobiParams(0.3, 1.7)
        th = np.sort(np.random.default_rng(7).uniform(0.02, 3.12, 83))
        fresh = _eigenfunction_rows(200, pr, th)
        assert_bitwise(_eigenfunction_rows(200, pr, th, fresh[:head]), fresh)
        grid = grid_on(th)
        eigenfunction_table(head - 1, pr, grid.nodes)
        assert_bitwise(eigenfunction_table(200, pr, grid.nodes), fresh)

    def test_unsorted_angles(self):
        # the stored head is in the caller's order, the sweep in side order
        pr = JacobiParams(-0.7, 0.4)
        th = np.random.default_rng(8).uniform(0.02, 3.12, 77)
        assert core._below_first(th)[2] is not None
        fresh = _eigenfunction_rows(150, pr, th)
        for head in (1, 2, 64, 65):
            assert_bitwise(_eigenfunction_rows(150, pr, th, fresh[:head]), fresh)
        # the absolute values of an unmirrored symmetric grid's nodes are
        # stored unsorted
        grid = grid_on(np.sort(np.concatenate([-th[:30], th[30:]])))
        folded = np.abs(grid.nodes)
        assert core._below_first(folded)[2] is not None
        eigenfunction_table(40, pr, grid.nodes)
        table = eigenfunction_table(150, pr, grid.nodes)
        assert_bitwise(table, _eigenfunction_rows(150, pr, folded))

    def test_a_grids_half_view(self):
        # the positive half of a symmetric rule, and the folded tables that
        # synthesis reads on the whole grid
        pr = JacobiParams(2.5, 1.5)
        grid = symmetric_rule(100, pr)
        half = grid.half.nodes
        shallow = eigenfunction_table(40, pr, half)
        deep = eigenfunction_table(130, pr, half)
        assert_bitwise(deep, _eigenfunction_rows(130, pr, half.copy()))
        assert_bitwise(deep[:41], shallow)
        assert_bitwise(eigenfunction_table(130, pr, grid.nodes[99::-1]), deep)
        symm_eigenfunction_table(31, pr, grid.nodes)
        assert_bitwise(
            symm_eigenfunction_table(201, pr, grid.nodes),
            symm_eigenfunction_table(201, pr, grid.nodes.copy()),
        )

    def test_a_table_above_the_cap_continues_from_the_stored_one(self, monkeypatch):
        # the oversized table is not kept, so each request continues from
        # the 301 stored rows, which stay the entry
        pr = JacobiParams(0.3, 0.7)
        grid = grid_on(np.linspace(0.05, 3.0, 600))
        small = eigenfunction_table(300, pr, grid.nodes)
        heads = []
        original = core._eigenfunction_rows

        def counting(n_top, params, th, head=None):
            heads.append(None if head is None else head.shape[0])
            return original(n_top, params, th, head)

        monkeypatch.setattr(core, "_eigenfunction_rows", counting)
        tables = [eigenfunction_table(1023, pr, grid.nodes) for _ in range(2)]
        assert heads == [301, 301]
        assert tables[0].nbytes > _TABLE_CAP_BYTES and tables[0] is not tables[1]
        (kept,) = store_of(grid).values()
        assert kept is small
        monkeypatch.undo()
        fresh = _eigenfunction_rows(1023, pr, grid.nodes)
        assert all(t.tobytes() == fresh.tobytes() for t in tables)


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


class TestSideOrder:
    """The recurrences fill their coefficient blocks by side of pi/2 in two
    broadcast writes; unsorted angles are permuted in and scattered back."""

    @pytest.mark.parametrize("pr", PAIRS, ids=str)
    def test_unsorted_rows_are_the_sorted_rows_permuted(self, pr):
        th = np.sort(np.random.default_rng(3).uniform(0.05, 3.1, 97))
        order = np.random.default_rng(4).permutation(th.size)
        sorted_rows = _eigenfunction_rows(70, pr, th)
        assert_bitwise(_eigenfunction_rows(70, pr, th[order]), sorted_rows[:, order])
        # a reversed set, as the negative half of a symmetric rule gives
        assert_bitwise(_eigenfunction_rows(70, pr, th[::-1].copy()), sorted_rows[:, ::-1])

    def test_unsorted_weights_are_the_sorted_ones_permuted(self):
        # the rule's sweep reduces its columns in side order and scatters
        # the weights and sign counts back
        pr = JacobiParams(0.3, 0.7)
        theta = gauss_jacobi_rule(130, pr).nodes
        order = np.random.default_rng(6).permutation(theta.size)
        weights, changes = core._weights_and_sign_changes(130, pr, theta)
        shuffled = core._weights_and_sign_changes(130, pr, theta[order])
        assert_bitwise(shuffled[0], weights[order])
        assert np.array_equal(shuffled[1], changes[order])

    def test_unsorted_newton_step_is_the_sorted_one_permuted(self):
        pr = JacobiParams(0.3, 0.7)
        theta = gauss_jacobi_rule(130, pr).nodes
        order = np.random.default_rng(5).permutation(theta.size)
        step = core._newton_step(130, pr, theta)
        assert_bitwise(core._newton_step(130, pr, theta[order]), step[order])

    @pytest.mark.parametrize("th", [[0.3, 0.7], [2.0, 3.0], [], [0.5 * np.pi]])
    def test_one_sided_sets(self, th):
        th = np.array(th, dtype=float)
        _, cut, order = core._below_first(th)
        assert order is None and cut == np.count_nonzero(th < 0.5 * np.pi)


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
        table = eigenfunction_table(6, pr, nodes)
        assert_bitwise(table, _eigenfunction_rows(6, pr, np.abs(nodes)))
        if case == "nudged":
            # the one set a grid accepts: it keeps one entry, built at every node
            grid = grid_on(nodes)
            assert eigenfunction_table(6, pr, grid.nodes) is not table
            ((key, kept),) = store_of(grid).items()
            assert key[1] == nodes.shape
            assert_bitwise(kept, table)

    @pytest.mark.parametrize("n_half", [1, 23, 24, 144])
    def test_table_is_bitwise_the_unfolded_one(self, n_half):
        # one plain table on |theta|, built at every node of the set
        for pr in PAIRS:
            nodes = symmetric_rule(n_half, pr).nodes
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

    def test_nodes_match_scipy_roots(self):
        # an independent construction: scipy's Golub-Welsch roots in x
        for pr in PAIRS:
            for n in (1, 2, 12, 144):
                x, _ = roots_jacobi(n, pr.alpha, pr.beta)
                rule = gauss_jacobi_rule(n, pr)
                assert np.max(np.abs(np.cos(rule.nodes) - x[::-1])) <= 1e-14

    def test_weights_are_the_inverse_christoffel_function(self):
        # the blocked sweep against one sum over all rows, at block edges
        pr = JacobiParams(0.3, 0.7)
        for n in (1, 2, 3, 63, 64, 65, 128, 129):
            rule = gauss_jacobi_rule(n, pr)
            rows = _eigenfunction_rows(n - 1, pr, rule.nodes)
            np.testing.assert_allclose(rule.weights, 1.0 / np.sum(rows**2, axis=0), rtol=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 129, 1040])
    def test_weights_are_the_block_sums_of_the_whole_table(self, n):
        # the sweep reduces each block of 64 rows as it fills its window:
        # bitwise a reference summed 64 rows at a time over the full
        # table, and a sign change across a block edge counts once
        pr = JacobiParams(0.3, 1.7)
        rule = gauss_jacobi_rule(n, pr)
        rows = _eigenfunction_rows(n - 1, pr, rule.nodes)
        total = np.zeros(n)
        for lo in range(0, n, 64):
            block = rows[lo : lo + 64]
            total += np.einsum("ij,ij->j", block, block)
        assert_bitwise(rule.weights, 1.0 / total)
        weights, changes = core._weights_and_sign_changes(n, pr, rule.nodes)
        assert_bitwise(weights, rule.weights)
        signs = np.signbit(rows)
        assert np.array_equal(np.count_nonzero(signs[1:] != signs[:-1], axis=0), np.arange(n))
        assert np.array_equal(changes, np.arange(n))

    def test_the_weight_sweep_forms_no_full_table(self):
        # the 1,040 x 1,040 table of the rows is 8.65 MB; the rule's peak
        # is its window, its Newton blocks and a few rows
        pr = JacobiParams(0.3, 1.7)
        gauss_jacobi_rule(1040, pr)
        tracemalloc.start()
        try:
            gauss_jacobi_rule(1040, pr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    @pytest.mark.parametrize("n", [1, 2])
    def test_smallest_rules_are_exact(self, n):
        # n nodes integrate the products of rows 0..n-1 exactly
        for pr in PAIRS + [JacobiParams(-0.999999, 0.0), JacobiParams(30.0, 0.5)]:
            rule = gauss_jacobi_rule(n, pr)
            table = eigenfunction_table(n - 1, pr, rule.nodes)
            gram = (table * rule.weights) @ table.T
            np.testing.assert_allclose(gram, np.eye(n), rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "alpha, beta, n",
        [(0.3, 1.7, 144), (-0.9, 2.0, 144), (30.0, 0.5, 144), (-0.999999, 0.0, 144),
         (-0.999999, 0.0, 528), (-0.999999999, 0.0, 1040), (-0.999999, 61.0, 144),
         (-0.999999, 61.0, 272), (-0.999999, 1e3, 144), (-0.999999, 1e3, 272)],
    )
    def test_end_nodes_match_an_mpmath_oracle(self, alpha, beta, n):
        # the three nodes next to each end, against zeros of P_n(cos t)
        # refined in 40 digits by Newton steps from scipy's roots, or from
        # the rule's own nodes where those round to +-1; at 528 nodes the
        # first eigenvalue starts too far off for one step, and at 1,040
        # an eigenvalue start raises; beta of 61 and 1e3 is out of the
        # asymptotic start's range, so those rules are eigenvalue starts
        mp = pytest.importorskip("mpmath")
        rule = gauss_jacobi_rule(n, JacobiParams(alpha, beta))
        x = roots_jacobi(n, alpha, beta)[0][::-1]
        start = np.where(np.abs(x) < 1.0, np.arccos(x), rule.nodes)
        with mp.workdps(40):
            a, b = mp.mpf(alpha), mp.mpf(beta)
            for i in (0, 1, 2, n - 3, n - 2, n - 1):
                t = mp.mpf(start[i])
                for _ in range(6):
                    x = mp.cos(t)
                    slope = -mp.sin(t) * (n + a + b + 1) / 2 * mp.jacobi(n - 1, a + 1, b + 1, x)
                    t -= mp.jacobi(n, a, b, x) / slope
                assert abs(rule.nodes[i] - t) <= 1e-12 * t

    @pytest.mark.parametrize("alpha, beta, n", [(300.0, 0.0, 528), (1e5, 0.0, 144)])
    def test_rows_are_orthonormal_at_large_alpha(self, alpha, beta, n):
        # the x-form rows overflowed here, P_n(1) being binom(n + alpha, n):
        # the rule raised at (300, 0), and at (1e5, 0) the shifted pair's
        # norm missed by 1.3e-10 through lgamma; the shifted rows are exact
        # on this rule too
        pr = JacobiParams(alpha, beta)
        rule = gauss_jacobi_rule(n, pr)
        degree = (n - 16) // 2
        for rows in (pr, pr.shift(1)):
            table = eigenfunction_table(degree, rows, rule.nodes)
            gram = (table * rule.weights) @ table.T
            assert np.max(np.abs(gram - np.eye(degree + 1))) <= 1e-10

    def test_overflowing_newton_step_names_the_overflow(self):
        # the step's ratio-difference recurrence overflows here although the
        # rows are fine; a warning used to precede a convergence error
        with pytest.raises(GridError, match=r"size 528 .*alpha=10000\.0, beta=0\.0.*overflow"):
            gauss_jacobi_rule(528, JacobiParams(1e4, 0.0))

    @pytest.mark.parametrize("alpha, beta", [(-0.999999, 0.0), (-0.9, 2.0), (30.0, 0.5)])
    def test_swapping_the_pair_mirrors_the_nodes(self, alpha, beta):
        # the nodes of (b, a) are pi minus those of (a, b); nodes next to pi
        # are polished on the other side from nodes next to 0, so this holds
        # that side to the same accuracy, a few ulps of pi
        for n in (144, 1040):
            ab = gauss_jacobi_rule(n, JacobiParams(alpha, beta)).nodes
            ba = gauss_jacobi_rule(n, JacobiParams(beta, alpha)).nodes
            assert np.max(np.abs(np.pi - ab[::-1] - ba)) <= 2e-15

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
        # the weight sum builds its table uncached, so no store keeps it
        assert store_of(gauss_jacobi_rule(64, JacobiParams(0.3, 0.7))) == {}

    def test_size_check(self):
        with pytest.raises(GridError):
            gauss_jacobi_rule(0, JacobiParams(0.0, 0.0))

    def test_a_root_outside_the_interval_is_refused(self):
        # at alpha = 1e20 every root of the Jacobi matrix rounds to -1
        with pytest.raises(GridError, match=r"a root is not finite or lies outside \(-1, 1\)"):
            gauss_jacobi_rule(8, JacobiParams(1e20, 0.0))


SWEEP = (-0.999999, -0.99, -0.9, -0.5, 0.0, 0.5, 2.5, 8.0, 20.0, 40.0, 50.0)


class TestJacobiEntries:
    """_jacobi_matrix reads read-only slices of a per-pair cache that holds
    at most 32 pairs and grows by powers of two."""

    def test_cached_entries_are_a_direct_build_and_read_only(self):
        for pr in (JacobiParams(0.3, 1.7), JacobiParams(-0.5, -0.5), JacobiParams(-0.999999, 40.0)):
            for n in (1, 2, 3, 64, 65, 100, 3, 1040, 7):
                got, want = core._jacobi_matrix(n, pr), core._jacobi_entries(n, pr)
                for part, direct in zip(got, want):
                    assert_bitwise(part, direct)
                    assert not part.flags.writeable
        diag = core._jacobi_matrix(5, JacobiParams(0.3, 1.7))[0]
        with pytest.raises(ValueError):
            diag[0] = 1.0

    def test_the_cache_grows_by_powers_of_two_and_keeps_32_pairs(self, monkeypatch):
        monkeypatch.setattr(core, "_JACOBI_ENTRIES", {})
        sizes = []
        original = core._jacobi_entries

        def counting(n, params):
            sizes.append(n)
            return original(n, params)

        monkeypatch.setattr(core, "_jacobi_entries", counting)
        pr = JacobiParams(0.3, 1.7)
        for n in (5, 8, 3, 9, 100, 64, 128):
            core._jacobi_matrix(n, pr)
        assert sizes == [8, 16, 128]
        # the least recently used pair leaves first
        others = [JacobiParams(0.1 * i, 0.5) for i in range(32)]
        for q in others:
            core._jacobi_matrix(4, q)
        assert len(core._JACOBI_ENTRIES) == 32
        sizes.clear()
        core._jacobi_matrix(4, others[0])
        core._jacobi_matrix(4, pr)
        assert sizes == [4]
        # 1 and 1.0 never share an entry
        core._jacobi_matrix(4, JacobiParams(1, 2))
        core._jacobi_matrix(4, JacobiParams(1.0, 2.0))
        assert sizes == [4, 4, 4]

    @pytest.mark.parametrize("n", [1, 2, 5, 7])
    def test_a_small_rule_starts_from_dsterf_on_the_cached_entries(self, n):
        # under 8 nodes the eigenvalue start runs on read-only slices of a
        # larger cached entry, which LAPACK leaves as it was
        from scipy.linalg.lapack import dsterf

        pr = JacobiParams(0.3, 0.7)
        before = [part.copy() for part in core._jacobi_matrix(512, pr)]
        assert core._asymptotic_start(n, pr) is None
        rule = gauss_jacobi_rule(n, pr)
        diag, off, _ = core._jacobi_entries(n, pr)
        x = dsterf(diag, off)[0][::-1] if n > 1 else diag
        assert_bitwise(rule.nodes, core._polish(n, pr, np.arccos(x)))
        for part, old in zip(core._jacobi_matrix(512, pr), before):
            assert_bitwise(part, old)


def eigenvalue_nodes(n, pr):
    # the polished nodes of the eigenvalue start
    return core._polish(n, pr, core._eigenvalue_start(n, pr))


def asymptotic_nodes(n, pr):
    # the polished nodes of the asymptotic start; None out of its range or
    # where the polish fails
    theta = core._asymptotic_start(n, pr)
    if theta is None:
        return None
    try:
        return core._polish(n, pr, theta)
    except GridError:
        return None


class TestAsymptoticStart:
    """Nodes from closed-form starts, and the sign counts that certify
    every rule, from either start."""

    @pytest.mark.parametrize("n", [8, 9, 16, 33, 64, 144, 272, 528, 1040])
    def test_nodes_match_the_eigenvalue_start(self, n):
        # where the asymptotic start converges and its count holds, each
        # node lies within 1e-13 of the eigenvalue start's, relative to its
        # distance from the nearer end; from 33 nodes on every pair takes it
        fast = 0
        for alpha in SWEEP:
            for beta in SWEEP:
                pr = JacobiParams(alpha, beta)
                theta = asymptotic_nodes(n, pr)
                if theta is None:
                    continue
                _, changes = core._weights_and_sign_changes(n, pr, theta)
                if not np.array_equal(changes, np.arange(n)):
                    continue
                fast += 1
                ref = eigenvalue_nodes(n, pr)
                assert np.max(np.abs(theta - ref) / np.minimum(ref, np.pi - ref)) <= 1e-13
        assert fast == len(SWEEP) ** 2 if n >= 33 else fast > 0

    def test_a_start_with_a_duplicated_node_is_refused(self, monkeypatch):
        # Newton takes both copies to one zero, whose column shows one sign
        # change too many for the first copy's place
        n, pr = 64, JacobiParams(2.5, 1.5)
        eigen = eigenvalue_nodes(n, pr)
        start = core._asymptotic_start

        def doubled(*args):
            theta = start(*args)
            theta[20] = theta[21]
            return theta

        monkeypatch.setattr(core, "_asymptotic_start", doubled)
        assert gauss_jacobi_rule(n, pr).nodes.tobytes() == eigen.tobytes()
        eigen[20] = eigen[21]
        monkeypatch.setattr(core, "_eigenvalue_start", lambda *args: eigen.copy())
        with pytest.raises(GridError, match="sign count .* node 20: .* 21 times, not 20"):
            gauss_jacobi_rule(n, pr)

    @pytest.mark.parametrize(
        "alpha, beta, n",
        [(0.3, 0.7, 7), (60.5, 0.0, 272), (0.0, 61.0, 272), (300.0, 0.0, 528), (1e5, 0.0, 144),
         (2e5, 0.0, 64), (1e3, 1e3, 272)],
    )
    def test_out_of_range_rules_take_the_eigenvalue_start(self, alpha, beta, n):
        # bitwise the eigenvalue start's nodes, whose sign counts hold out
        # to these parameters
        pr = JacobiParams(alpha, beta)
        assert core._asymptotic_start(n, pr) is None
        rule = gauss_jacobi_rule(n, pr)
        assert rule.nodes.tobytes() == eigenvalue_nodes(n, pr).tobytes()
        weights, changes = core._weights_and_sign_changes(n, pr, rule.nodes)
        assert rule.weights.tobytes() == weights.tobytes()
        assert np.array_equal(changes, np.arange(n))

    def test_an_unconverged_node_hands_on_to_the_next_start(self, monkeypatch):
        # with one step allowed, the asymptotic start of this rule has not
        # converged, and the eigenvalue start gives the rule; at (-0.999999,
        # 1e3) its first node needs a second step too, and the error names it
        monkeypatch.setattr(core, "_NEWTON_STEPS", 1)
        pr = JacobiParams(2.5, 1.5)
        with pytest.raises(GridError, match="node .* has not converged in 1 Newton steps"):
            core._polish(64, pr, core._asymptotic_start(64, pr))
        assert gauss_jacobi_rule(64, pr).nodes.tobytes() == eigenvalue_nodes(64, pr).tobytes()
        with pytest.raises(
            GridError,
            match=r"size 144 for alpha=-0\.999999, beta=1000\.0: node 0 has not converged in 1 ",
        ):
            gauss_jacobi_rule(144, JacobiParams(-0.999999, 1e3))

    def test_a_rule_builds_next_to_beta_minus_one(self):
        # the eigenvalue start raises here, its last root rounding to -1;
        # the alpha side is held by the mpmath oracle and the basis suite
        pr = JacobiParams(0.0, -0.999999999999)
        with pytest.raises(GridError):
            eigenvalue_nodes(1040, pr)
        rule = gauss_jacobi_rule(1040, pr)
        table = eigenfunction_table(512, pr, rule.nodes)
        gram = (table * rule.weights) @ table.T
        assert np.max(np.abs(gram - np.eye(513))) <= 1e-10


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


class TestReadOnlyRules:
    """A grid's nodes and weights are read-only; a writable input is copied."""

    @pytest.mark.parametrize(
        "array",
        [
            lambda pr: gauss_jacobi_rule(6, pr).nodes,
            lambda pr: gauss_jacobi_rule(6, pr).weights,
            lambda pr: symmetric_rule(6, pr).nodes,
            lambda pr: symmetric_rule(6, pr).weights,
            lambda pr: symmetric_rule(6, pr).half.nodes,
        ],
        ids=["rule-nodes", "rule-weights", "symmetric-nodes", "symmetric-weights", "half-nodes"],
    )
    def test_writing_into_a_rule_raises(self, array):
        target = array(JacobiParams(0.3, 0.7))
        with pytest.raises(ValueError, match="read-only"):
            target[0] = 1.0

    def test_a_hand_built_grid_leaves_the_callers_arrays_writable(self):
        # the caller's arrays stay writable and unchanged, and a later write
        # to them changes neither the grid nor a table kept on it
        pr = JacobiParams(0.3, 0.7)
        nodes, weights = np.array([-0.5, 0.2, 0.5]), np.array([1.0, 2.0, 3.0])
        grid = QuadratureGrid(nodes, weights)
        assert nodes.tolist() == [-0.5, 0.2, 0.5] and weights.tolist() == [1.0, 2.0, 3.0]
        assert nodes.flags.writeable and weights.flags.writeable
        assert not np.shares_memory(grid.nodes, nodes)
        assert not np.shares_memory(grid.weights, weights)
        for arr in (grid.nodes, grid.weights, grid.half.nodes, grid.half.weights):
            assert not arr.flags.writeable
        table = eigenfunction_table(4, pr, grid.nodes)
        before = table.copy()
        nodes[1], weights[1] = 0.3, 5.0
        assert grid.nodes.tolist() == [-0.5, 0.2, 0.5] and grid.weights.tolist() == [1.0, 2.0, 3.0]
        assert eigenfunction_table(4, pr, grid.nodes) is table
        assert_bitwise(table, before)
        # a read-only input is taken as it is
        rule = gauss_jacobi_rule(6, pr)
        again = QuadratureGrid(rule.nodes, rule.weights)
        assert again.nodes is rule.nodes and again.weights is rule.weights

    def test_analyze_hands_a_callable_read_only_angles(self):
        pr = JacobiParams(0.3, 0.7)
        seen = []

        def f(t):
            seen.append(t.flags.writeable)
            return symm_eigenfunction_table(4, pr, t)[3]

        e = analyze(f, pr, 6)
        expect = np.zeros(6)
        expect[3] = 1.0
        np.testing.assert_allclose(e.coeffs, expect, atol=1e-13)
        assert seen == [False]


class TestGridTypes:
    def test_grid_validation(self):
        with pytest.raises(GridError):
            QuadratureGrid(np.array([0.2, 0.1]), np.array([1.0, 1.0]))
        with pytest.raises(GridError):
            QuadratureGrid(np.array([0.1, 0.2]), np.array([1.0, -1.0]))
        # a layout passed in must agree with the one the nodes make
        with pytest.raises(GridError, match="the nodes make a symmetric grid, not 'halfline'"):
            QuadratureGrid(np.array([-0.1, 0.2]), np.array([1.0, 1.0]), "halfline")
        with pytest.raises(GridError, match="the nodes make a halfline grid, not 'circle'"):
            QuadratureGrid(np.array([0.1, 0.2]), np.array([1.0, 1.0]), "circle")

    @pytest.mark.parametrize(
        "nodes, weights",
        [([np.nan], [1.0]), ([0.1, np.nan, 0.3], [1.0, 1.0, 1.0]), ([0.1, 0.2], [1.0, np.nan])],
    )
    def test_grid_rejects_nan(self, nodes, weights):
        # a rule whose nodes or weights come out NaN must fail instead of
        # carrying them
        with pytest.raises(GridError):
            QuadratureGrid(np.array(nodes), np.array(weights))

    @pytest.mark.parametrize(
        "nodes, weights, interval, cited",
        [
            ([0.1, 0.2], [1.0], "halfline", "1-d arrays of equal length"),
            ([-0.1, 0.0, 0.1], [1.0, 1.0, 1.0], "symmetric", "must not contain 0"),
        ],
    )
    def test_grid_rejects_a_malformed_layout(self, nodes, weights, interval, cited):
        with pytest.raises(GridError, match=cited):
            QuadratureGrid(np.array(nodes), np.array(weights), interval)

    def test_grid_rejects_infinite_weights(self):
        # 1 / sum phi_n^2 is inf at a node where every row underflows
        with pytest.raises(GridError, match="finite"):
            QuadratureGrid(np.array([0.5, 1.0]), np.array([np.inf, 1.0]))

    def test_half_is_derived_from_the_grid(self):
        # a symmetric grid's half is the views of its positive nodes and
        # weights; a half-line grid has none, and none can be given
        nodes, weights = np.array([-0.5, 0.2, 0.5]), np.array([1.0, 2.0, 3.0])
        grid = QuadratureGrid(nodes, weights)
        assert grid.half.nodes.base is grid.nodes and grid.half.weights.base is grid.weights
        assert grid.half.nodes.tolist() == [0.2, 0.5] and grid.half.weights.tolist() == [2.0, 3.0]
        assert grid.half.interval == "halfline"
        assert gauss_jacobi_rule(4, JacobiParams(0.0, 0.0)).half is None
        with pytest.raises(TypeError):
            QuadratureGrid(nodes, weights, half=grid.half)

    def test_the_nodes_decide_the_layout(self):
        half = np.array([0.4, 1.1, 2.5])
        mirrored = QuadratureGrid(np.concatenate([-half[::-1], half]), np.ones(6))
        assert mirrored.interval == "symmetric"
        assert np.array_equal(mirrored.half.nodes, half) and mirrored.half.interval == "halfline"
        positive = QuadratureGrid(half, np.ones(3))
        assert positive.interval == "halfline" and positive.half is None
        for nodes in ([-0.4, 0.0, 0.4], [0.0, 0.4]):
            with pytest.raises(GridError, match="must not contain 0"):
                QuadratureGrid(np.array(nodes), np.ones(len(nodes)))
        for nodes in ([-np.pi, 0.4], [0.4, np.pi]):
            with pytest.raises(GridError, match=r"inside \(-pi, pi\)"):
                QuadratureGrid(np.array(nodes), np.ones(2))
        with pytest.raises(dataclasses.FrozenInstanceError):
            positive.interval = "symmetric"

    def test_grid_function_shape(self):
        rule = gauss_jacobi_rule(4, JacobiParams(0.0, 0.0))
        GridFunction(rule, np.zeros(4))
        with pytest.raises(GridError):
            GridFunction(rule, np.zeros(5))
