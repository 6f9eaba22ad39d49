"""Symmetrized basis: parity bookkeeping, transforms, round trips."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symjacobi.basis import (
    HalfLineExpansion,
    SymmExpansion,
    _mirror_split,
    analyze,
    eigen_index,
    eval_halfline_expansion,
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
    _TABLE_CACHE,
    GridFunction,
    JacobiParams,
    QuadratureGrid,
    _eigenfunction_rows,
    eigenfunction_table,
    gauss_jacobi_rule,
    norm_constant_table,
    symmetric_rule,
)
from symjacobi.errors import ConfigError, DomainError, GridError
from symjacobi.norms import random_band_limited

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
        # built afresh both times, so the cache cannot make this hold
        pr = JacobiParams(0.3, 0.7)
        th = np.linspace(0.07, 3.05, 11)
        _TABLE_CACHE.clear()
        plus = symm_eigenfunction_table(10, pr, th)
        _TABLE_CACHE.clear()
        minus = symm_eigenfunction_table(10, pr, -th)
        for n in (0, 2, 6):
            np.testing.assert_array_equal(plus[n], minus[n])
        for n in (1, 3, 9):
            np.testing.assert_array_equal(plus[n], -minus[n])

    def test_scalar_angle_is_a_one_element_array(self):
        pr = JacobiParams(0.3, 0.7)
        for theta in (0.5, -0.5):
            scalar = symm_eigenfunction_table(3, pr, theta)
            np.testing.assert_array_equal(
                scalar, symm_eigenfunction_table(3, pr, np.array([theta]))
            )
            assert scalar.shape == (3, 1)

    def test_fourier_degeneration(self):
        # even slots become cos(n t)/sqrt(pi), odd slots sin((n+1) t)/sqrt(pi)
        pr = JacobiParams(-0.5, -0.5)
        th = np.linspace(-3.0, 3.0, 41)
        table = symm_eigenfunction_table(7, pr, th)
        np.testing.assert_allclose(table[0], 1 / math.sqrt(2 * math.pi), rtol=1e-13)
        for k in (1, 3):
            np.testing.assert_allclose(
                table[2 * k], np.cos(k * th) / math.sqrt(math.pi), atol=1e-13
            )
        for k in (0, 2):
            np.testing.assert_allclose(
                table[2 * k + 1], np.sin((k + 1) * th) / math.sqrt(math.pi), atol=1e-13
            )

    def test_gram_identity(self):
        for pr in PAIRS:
            grid = symmetric_rule(48, pr)
            table = symm_eigenfunction_table(41, pr, grid.nodes)
            gram = (table * grid.weights) @ table.T
            np.testing.assert_allclose(gram, np.eye(41), atol=1e-10)


class TestReflect:
    def test_even_odd_samples(self):
        pr = JacobiParams(0.3, 0.7)
        grid = symmetric_rule(12, pr)
        table = symm_eigenfunction_table(5, pr, grid.nodes)
        even = GridFunction(grid, table[4])
        odd = GridFunction(grid, table[3])
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
        table = symm_eigenfunction_table(3, pr, grid.nodes)
        f2 = GridFunction(grid, table[2])
        ev, od = split_even_odd(f2)
        np.testing.assert_allclose(
            ev.values,
            eigenfunction_table(1, pr, ev.grid.nodes)[1] / math.sqrt(2),
            rtol=1e-14,
        )
        np.testing.assert_allclose(od.values, 0.0, atol=1e-16)

        f1 = GridFunction(grid, table[1])
        ev, od = split_even_odd(f1)
        np.testing.assert_allclose(ev.values, 0.0, atol=1e-16)
        np.testing.assert_allclose(
            od.values,
            eigenfunction_table(0, pr.shift(1), od.grid.nodes)[0] / math.sqrt(2),
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
        e = analyze(lambda t: symm_eigenfunction_table(4, pr, t)[3], pr, 6)
        expect = np.zeros(6)
        expect[3] = 1.0
        np.testing.assert_allclose(e.coeffs, expect, atol=1e-13)

    def test_linearity(self):
        pr = JacobiParams(-0.7, 0.4)

        def f(t):
            table = symm_eigenfunction_table(6, pr, t)
            return table[0] + 2 * table[5]

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
        expect_b1 = math.sqrt(2) / norm_constant_table(0, up)[0]
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


def unfolded_synthesis(e, nodes):
    # eval_symm_expansion without the fold: products over every node
    even, odd = to_halfline(e)
    vals = unfolded_halfline(even, nodes)
    return vals + unfolded_halfline(odd, nodes) if len(e) > 1 else vals


def unfolded_halfline(h, nodes):
    vals = h.coeffs @ _eigenfunction_rows(len(h) - 1, h.params, np.abs(nodes))
    return np.sign(nodes) * vals if h.parity == "odd" else vals


# Half sizes at which the fold is bitwise exact here. OpenBLAS picks its
# micro-kernel by column position, so one column can round differently in a
# product over k columns and over 2k; with the x86-64 kernels of the bundled
# OpenBLAS this happens unless k is a multiple of 8. The CLI-default rule
# 2*trunc + 16 has such a half size whenever trunc is a multiple of 4.
ALIGNED = [8, 24, 144]


def assert_bitwise(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def unfolded_table(n_coeffs, pr, nodes):
    # symm_eigenfunction_table without the fold: both parts at every node
    out = np.empty((n_coeffs, nodes.size))
    out[0::2] = _eigenfunction_rows((n_coeffs - 1) // 2, pr, np.abs(nodes)) / math.sqrt(2)
    odd = _eigenfunction_rows(n_coeffs // 2 - 1, pr.shift(1), np.abs(nodes)) / math.sqrt(2)
    out[1::2] = np.sign(nodes) * odd
    return out


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
    """On a mirrored angle set synthesis runs on the positive half only."""

    @pytest.mark.parametrize("n_half", [1, 23, 24, 144])
    def test_symm_table_is_bitwise_the_unfolded_one(self, n_half):
        # the fold only copies and negates cells, so it is exact at any size
        for pr in PAIRS:
            nodes = symmetric_rule(n_half, pr).nodes
            assert _mirror_split(nodes) == n_half
            assert_bitwise(symm_eigenfunction_table(31, pr, nodes), unfolded_table(31, pr, nodes))

    @pytest.mark.parametrize("case", ["nudged", "odd", "zero", "nan"])
    def test_symm_table_off_the_mirror_is_the_unfolded_one(self, case):
        pr = JacobiParams(0.3, 0.7)
        nodes = near_mirrored(case)
        assert _mirror_split(nodes) is None
        assert_bitwise(symm_eigenfunction_table(12, pr, nodes), unfolded_table(12, pr, nodes))

    def test_cache_keeps_only_the_positive_half(self):
        pr = JacobiParams(0.3, 0.7)
        grid = symmetric_rule(24, pr)
        _TABLE_CACHE.clear()
        full = symm_eigenfunction_table(61, pr, grid.nodes)
        assert full.shape == (61, 48)
        # one half table per parity, under the key of the half-line rule
        keys = list(_TABLE_CACHE._entries)
        assert [key[0] for key in keys] == [30, 29]
        assert all(key[2:] == ((24,), grid.half.nodes.tobytes()) for key in keys)
        tables = [_TABLE_CACHE.get(key) for key in keys]
        assert _TABLE_CACHE.nbytes == sum(t.nbytes + grid.half.nodes.nbytes for t in tables)
        # analysis on the half-line rule shares both entries
        assert eigenfunction_table(30, pr, grid.half.nodes) is tables[0]
        assert eigenfunction_table(29, pr.shift(1), grid.half.nodes) is tables[1]
        assert_bitwise(symm_eigenfunction_table(61, pr, grid.nodes), full)
        assert len(_TABLE_CACHE._entries) == 2

    @pytest.mark.parametrize("shape", [(1,), (2,), (13,), (4, 13), (3, 1)])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_symm_synthesis_is_bitwise_the_unfolded_one(self, shape, kind):
        rng = np.random.default_rng([len(shape), shape[-1], kind == "complex"])
        for pr, n_half in itertools.product(PAIRS, ALIGNED):
            coeffs = rng.uniform(-1, 1, shape)
            if kind == "complex":
                coeffs = coeffs + 1j * rng.uniform(-1, 1, shape)
            e = SymmExpansion(pr, coeffs)
            nodes = symmetric_rule(n_half, pr).nodes
            assert_bitwise(eval_symm_expansion(e, nodes), unfolded_synthesis(e, nodes))

    @pytest.mark.parametrize("parity", ["even", "odd"])
    @pytest.mark.parametrize("shape", [(9,), (3, 9)])
    def test_halfline_synthesis_is_bitwise_the_unfolded_one(self, parity, shape):
        rng = np.random.default_rng([len(parity), len(shape)])
        for pr, n_half in itertools.product(PAIRS, ALIGNED):
            h = HalfLineExpansion(pr, rng.uniform(-1, 1, shape), parity)
            nodes = symmetric_rule(n_half, pr).nodes
            assert_bitwise(eval_halfline_expansion(h, nodes), unfolded_halfline(h, nodes))

    def test_other_half_sizes_agree_to_roundoff(self):
        e = SymmExpansion(JacobiParams(0.3, 0.7), np.random.default_rng(5).uniform(-1, 1, (3, 40)))
        for n_half in (23, 46, 101):
            nodes = symmetric_rule(n_half, e.params).nodes
            got, want = eval_symm_expansion(e, nodes), unfolded_synthesis(e, nodes)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(alpha=st.floats(-0.99, 50.0), beta=st.floats(-0.99, 50.0), quarter=st.integers(1, 64))
    def test_fold_property_over_pairs_and_degrees(self, alpha, beta, quarter):
        # the CLI-default grid of a degree that is a multiple of 4
        pr, degree = JacobiParams(alpha, beta), 4 * quarter
        nodes = symmetric_rule(2 * degree + 16, pr).nodes
        assert_bitwise(
            eigenfunction_table(degree, pr, nodes),
            _eigenfunction_rows(degree, pr, np.abs(nodes)),
        )
        block = random_band_limited(pr, degree, 3, seed=degree)
        assert_bitwise(eval_symm_expansion(block, nodes), unfolded_synthesis(block, nodes))

    def test_synthesis_requests_only_half_tables(self):
        pr = JacobiParams(0.3, 0.7)
        grid = symmetric_rule(20, pr)
        _TABLE_CACHE.clear()
        synthesize(SymmExpansion(pr, np.ones(9)), grid)
        eval_halfline_expansion(HalfLineExpansion(pr, np.ones(5), "odd"), grid.nodes)
        assert {key[2] for key in _TABLE_CACHE._entries} == {(20,)}
        # a node one ulp off its mirror image takes the full-set path
        nodes = grid.nodes.copy()
        nodes[3] = np.nextafter(nodes[3], 0.0)
        _TABLE_CACHE.clear()
        eval_symm_expansion(SymmExpansion(pr, np.ones(9)), nodes)
        assert {key[2] for key in _TABLE_CACHE._entries} == {(40,)}

    def test_symmetric_tag_needs_an_exact_mirror(self):
        grid = symmetric_rule(6, JacobiParams(0.3, 0.7))
        nodes = grid.nodes.copy()
        nodes[2] = np.nextafter(nodes[2], 0.0)
        off = QuadratureGrid(nodes, grid.weights, "symmetric")
        with pytest.raises(GridError):
            reflect(GridFunction(off, np.ones(12)))


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
