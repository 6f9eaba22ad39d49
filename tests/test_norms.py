"""Norm operations, admissibility arithmetic, ensembles, divergence flags."""

import math

import numpy as np
import pytest

from symjacobi.basis import (
    SymmExpansion,
    eval_halfline_expansion,
    eval_symm_expansion,
    symm_eigenfunction_table,
)
from symjacobi.core import (
    GridFunction,
    JacobiParams,
    QuadratureGrid,
    eigenvalue,
    gauss_jacobi_rule,
    norm_constant_table,
    symmetric_rule,
    trig_weight,
)
from symjacobi.errors import (
    AdmissibilityError,
    DomainError,
    EnsembleError,
    GridError,
)
from symjacobi.norms import (
    AdmissibilityRecord,
    admissibility,
    alt_sobolev_norms,
    equivalence_ratio,
    flag_divergent_by_exponent,
    flag_divergent_by_growth,
    lp_norm,
    mixed_norm,
    potential_norm,
    random_band_limited,
    sobolev_norm,
    truncated_lp_powers,
    uniform_time_grid,
)
from symjacobi.operators import LadderCoefficients, symm_higher_derivative
from symjacobi.witnesses import growth_witness_coefficient

GENERIC = JacobiParams(0.3, 0.7)
CHEBYSHEV = JacobiParams(-0.5, -0.5)

PAIRS = [
    CHEBYSHEV,
    JacobiParams(0.0, 0.0),
    GENERIC,
    JacobiParams(1.0, 2.0),
    JacobiParams(-0.7, 0.4),
    JacobiParams(2.5, 1.5),
]


class TestLpNorm:
    def test_constant_on_flat_grid(self):
        # the flat-weight grid has exact total mass 2 pi, so the constant
        # function integrates exactly
        grid = symmetric_rule(64, CHEBYSHEV)
        f = GridFunction(grid, np.ones(len(grid)))
        assert lp_norm(f, 2) == pytest.approx(math.sqrt(2 * math.pi), abs=1e-10)
        assert lp_norm(f, 1) == pytest.approx(2 * math.pi, abs=1e-10)

    def test_basis_members_are_unit(self):
        for pr in PAIRS:
            grid = symmetric_rule(48, pr)
            table = symm_eigenfunction_table(13, pr, grid.nodes)
            for n in (0, 1, 5, 12):
                vals = table[n]
                assert lp_norm(GridFunction(grid, vals), 2) == pytest.approx(1.0, abs=1e-9)

    def test_parity_split_change_of_variables(self):
        rng = np.random.default_rng(30)
        e = SymmExpansion(GENERIC, rng.uniform(-1, 1, 10))
        grid = symmetric_rule(40, GENERIC)
        vals = eval_symm_expansion(e, grid.nodes)
        p = 3.0
        direct = lp_norm(GridFunction(grid, vals), p) ** p
        half = grid.half
        pos = eval_symm_expansion(e, half.nodes)
        neg = eval_symm_expansion(e, -half.nodes)
        recombined = np.sum(half.weights * (np.abs(pos) ** p + np.abs(neg) ** p))
        assert direct == pytest.approx(recombined, abs=1e-10)

    def test_max_norm_and_validation(self):
        grid = symmetric_rule(8, CHEBYSHEV)
        f = GridFunction(grid, np.linspace(-3, 2, len(grid)))
        assert lp_norm(f, math.inf) == 3.0
        with pytest.raises(DomainError):
            lp_norm(f, 0.5)


class TestPotentialNorm:
    def test_unit_mode_value(self):
        grid = symmetric_rule(48, GENERIC)
        for n in (0, 1, 4, 9):
            coeffs = np.zeros(10)
            coeffs[n] = 1.0
            e = SymmExpansion(GENERIC, coeffs)
            lam = eigenvalue((n + 1) // 2, GENERIC)
            for s in (0.5, 1.0, 2.0):
                assert potential_norm(e, 2, s, grid) == pytest.approx(
                    lam ** (s / 2), abs=1e-10
                )

    def test_zero_bottom_uses_shifted_flow(self):
        grid = symmetric_rule(48, CHEBYSHEV)
        coeffs = np.zeros(3)
        coeffs[0] = 1.0
        e = SymmExpansion(CHEBYSHEV, coeffs)
        assert potential_norm(e, 2, 1.0, grid) == pytest.approx(1.0, abs=1e-10)

    def test_isometry_under_smoothing(self):
        from symjacobi.operators import riesz_potential

        rng = np.random.default_rng(31)
        e = SymmExpansion(GENERIC, rng.uniform(-1, 1, 9))
        grid = symmetric_rule(40, GENERIC)
        s, t = 0.8, 0.6
        lifted = riesz_potential(e, t / 2)
        assert potential_norm(lifted, 2, s + t, grid) == pytest.approx(
            potential_norm(e, 2, s, grid), rel=1e-12
        )

    def test_monotone_in_s_on_high_spectrum(self):
        pr = JacobiParams(1.0, 2.0)  # bottom eigenvalue 4
        grid = symmetric_rule(40, pr)
        coeffs = np.zeros(6)
        coeffs[3] = 1.0
        e = SymmExpansion(pr, coeffs)
        vals = [potential_norm(e, 2, s, grid) for s in (0.5, 1.0, 1.5, 2.0)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_admissibility_gate(self):
        pr = JacobiParams(-0.7, 0.4)  # upper exponent 5
        grid = symmetric_rule(16, pr)
        e = SymmExpansion(pr, np.ones(4))
        with pytest.raises(AdmissibilityError):
            potential_norm(e, 6.0, 1.0, grid)
        with pytest.raises(AdmissibilityError):
            potential_norm(e, 1.1, 1.0, grid)
        with pytest.raises(DomainError):
            potential_norm(e, 2.0, -1.0, grid)


class TestSobolevNorm:
    def test_band_limited_witness_truncation(self):
        # the first odd mode is killed by orders 1 and 2, so the whole norm
        # collapses to the plain p-norm
        pr = GENERIC
        grid = symmetric_rule(40, pr)
        coeffs = np.zeros(4)
        coeffs[1] = growth_witness_coefficient(pr)
        e = SymmExpansion(pr, coeffs)
        vals = eval_symm_expansion(e, grid.nodes)
        for p in (2.0, 3.0):
            base = lp_norm(GridFunction(grid, vals), p)
            assert sobolev_norm(e, p, 2, grid) == pytest.approx(base, rel=1e-12)

    def test_zero_and_lower_bound(self):
        grid = symmetric_rule(24, GENERIC)
        zero = SymmExpansion(GENERIC, np.zeros(5))
        assert sobolev_norm(zero, 2, 3, grid) == 0.0
        rng = np.random.default_rng(32)
        e = SymmExpansion(GENERIC, rng.uniform(-1, 1, 8))
        vals = eval_symm_expansion(e, grid.nodes)
        assert sobolev_norm(e, 2, 2, grid) >= lp_norm(GridFunction(grid, vals), 2)

    def test_rejects_inadmissible_exponent(self):
        pr = JacobiParams(-0.7, 0.4)
        grid = symmetric_rule(16, pr)
        with pytest.raises(AdmissibilityError):
            sobolev_norm(SymmExpansion(pr, np.ones(3)), 6.0, 1, grid)

    @pytest.mark.parametrize("m", [1, 2])
    def test_block_is_bitwise_the_sum_of_its_two_parts(self, m):
        # each order sums the values of its even and odd half-line parts, on
        # a mirrored grid (folded) and on a half-line rule (not folded)
        block = random_band_limited(GENERIC, 20, 3, seed=m)
        for grid in (symmetric_rule(24, GENERIC), gauss_jacobi_rule(24, GENERIC)):
            want = 0.0
            for k in range(m + 1):
                dev, dod = symm_higher_derivative(block, k)
                values = eval_halfline_expansion(dev, grid.nodes) + eval_halfline_expansion(
                    dod, grid.nodes
                )
                want = want + lp_norm(GridFunction(grid, values), 3.0)
            got = sobolev_norm(block, 3.0, m, grid)
            assert got.shape == (3,) and got.tobytes() == want.tobytes()


class TestAltSobolevNorms:
    def test_zero_input(self):
        grid = symmetric_rule(16, GENERIC)
        fixed, variable = alt_sobolev_norms(SymmExpansion(GENERIC, np.zeros(4)), 2, 2, grid)
        assert fixed == 0.0 and variable == 0.0

    def test_first_order_routes_coincide(self):
        rng = np.random.default_rng(33)
        e = SymmExpansion(GENERIC, rng.uniform(-1, 1, 9))
        grid = symmetric_rule(32, GENERIC)
        for p in (2.0, 4.0):
            fixed, variable = alt_sobolev_norms(e, p, 1, grid)
            assert fixed == pytest.approx(variable, rel=1e-14)

    def test_fixed_route_on_unit_mode(self):
        pr = GENERIC
        grid = symmetric_rule(40, pr)
        coeffs = np.zeros(3)
        coeffs[2] = 1.0
        e = SymmExpansion(pr, coeffs)
        d1 = LadderCoefficients(pr).table(2)[1]
        fixed, _ = alt_sobolev_norms(e, 2, 2, grid)
        assert fixed == pytest.approx(1.0 + d1 + d1**2, rel=1e-10)

    def test_variable_second_order_against_closed_form(self):
        # one even mode: the exact outer layer has an elementary expression,
        # which checks the finite-difference chain end to end
        pr = GENERIC
        grid = symmetric_rule(40, pr)
        coeffs = np.zeros(3)
        coeffs[2] = 1.0
        e = SymmExpansion(pr, coeffs)
        _, variable = alt_sobolev_norms(e, 2, 2, grid)

        d1 = LadderCoefficients(pr).table(2)[1]
        c0 = norm_constant_table(0, pr.shift(1))[0]
        th = np.abs(grid.nodes)
        outer = (
            d1
            * c0
            / math.sqrt(2.0)
            * trig_weight(pr.shift(1), th)
            * (
                -(2 * pr.alpha + 3) / (2 * np.tan(th / 2))
                + (2 * pr.beta + 3) / 2 * np.tan(th / 2)
            )
        )
        k2_norm = lp_norm(GridFunction(grid, outer), 2)
        assert variable == pytest.approx(1.0 + d1 + k2_norm, rel=1e-6)

    def test_fd_route_demands_margin(self):
        nodes = np.array([-2.0, -1e-4, 1e-4, 2.0])
        weights = np.ones(4)
        grid = QuadratureGrid(nodes, weights, "symmetric")
        e = SymmExpansion(GENERIC, np.ones(4))
        with pytest.raises(GridError):
            alt_sobolev_norms(e, 2, 2, grid)


class TestAdmissibility:
    def test_smoothing_example(self):
        rec = admissibility(JacobiParams(0.0, 0.0), p=2, q=4, sigma=0.2)
        assert rec.p_admissible
        assert rec.smoothing_lp_lq is True

    def test_range_examples(self):
        rec = admissibility(JacobiParams(-0.7, 0.0), p=2)
        lo, hi = rec.p_range
        assert hi == pytest.approx(5.0, rel=1e-12)
        assert lo == pytest.approx(1.25, rel=1e-12)
        both = admissibility(JacobiParams(0.4, 0.4), p=2)
        assert both.p_range == (1.0, math.inf)
        # endpoints stay excluded under exact comparison
        assert not admissibility(JacobiParams(-0.7, 0.0), p=hi).p_admissible
        assert not admissibility(JacobiParams(0.4, 0.4), p=math.inf).p_admissible

    def test_infinite_target_exponent(self):
        rec = admissibility(JacobiParams(0.0, 0.0), p=2, q=math.inf, sigma=0.3)
        assert rec.smoothing_lp_linf is True
        assert rec.smoothing_lp_lq is True
        below = admissibility(JacobiParams(-0.7, 0.0), p=2, q=math.inf, sigma=0.3)
        assert below.smoothing_lp_linf is False

    def test_embedding_and_continuity(self):
        rec = admissibility(JacobiParams(0.0, 0.0), p=2, q=4, s=0.3)
        assert rec.embedding is True  # 1/4 >= 1/2 - 0.3
        tight = admissibility(JacobiParams(0.0, 0.0), p=2, q=4, s=0.2)
        assert tight.embedding is False  # 1/4 < 1/2 - 0.2 is false... 0.25 >= 0.3 fails
        cont = admissibility(JacobiParams(0.0, 0.0), p=2, s=0.6)
        assert cont.continuity is True
        flat = admissibility(JacobiParams(0.0, 0.0), p=2, s=0.5)
        assert flat.continuity is False  # strict inequality required

    def test_optional_fields_stay_unset(self):
        rec = admissibility(GENERIC, p=2)
        assert rec.smoothing_lp_lq is None
        assert rec.smoothing_lp_linf is None
        assert rec.embedding is None
        assert rec.continuity is None


class TestMixedNorm:
    def test_constant(self):
        grid = symmetric_rule(32, CHEBYSHEV)
        tg = uniform_time_grid(16)
        c = 0.7
        vals = np.full((len(grid), 16), c)
        expect = c * (2 * math.pi) ** 0.5 * (2 * math.pi) ** (1 / 3)
        assert mixed_norm(vals, grid, tg, 3, 2) == pytest.approx(expect, rel=1e-12)

    def test_separable(self):
        grid = symmetric_rule(32, CHEBYSHEV)
        tg = uniform_time_grid(10)
        g = np.sin(grid.nodes)
        vals = np.tile(g[:, None], (1, 10))
        p, q = 2.0, 4.0
        expect = (2 * math.pi) ** (1 / q) * lp_norm(GridFunction(grid, g), p)
        assert mixed_norm(vals, grid, tg, p, q) == pytest.approx(expect, rel=1e-12)

    def test_unimodular_time_factor(self):
        grid = symmetric_rule(32, GENERIC)
        tg = uniform_time_grid(12)
        phi = symm_eigenfunction_table(4, GENERIC, grid.nodes)[3]
        lam = eigenvalue(2, GENERIC)
        vals = phi[:, None] * np.exp(1j * tg.nodes * lam)[None, :]
        p, q = 3.0, 2.0
        expect = (2 * math.pi) ** (1 / q) * lp_norm(GridFunction(grid, phi), p)
        assert mixed_norm(vals, grid, tg, p, q) == pytest.approx(expect, rel=1e-12)

    def test_validation(self):
        grid = symmetric_rule(4, CHEBYSHEV)
        tg = uniform_time_grid(3)
        with pytest.raises(DomainError):
            mixed_norm(np.ones((8, 3)), grid, tg, 0.5, 2)
        with pytest.raises(GridError):
            mixed_norm(np.ones((8, 4)), grid, tg, 2, 2)


class TestEquivalenceRatio:
    def test_identical_norms(self):
        members = random_band_limited(GENERIC, 8, 5, seed=40)
        grid = symmetric_rule(24, GENERIC)
        norms = lp_norm(GridFunction(grid, eval_symm_expansion(members, grid.nodes)), 2)
        stats = equivalence_ratio(norms, norms)
        assert stats.minimum == stats.maximum == stats.mean == 1.0
        assert stats.count == 5
        assert stats.window == 1.0

    def test_parity_decomposition_ratio_is_one(self):
        # potential norm of the whole vs the two parity components measured
        # as functions on the full interval
        grid = symmetric_rule(48, GENERIC)
        members = random_band_limited(GENERIC, 12, 8, seed=41)
        s = 0.7
        even = members.coeffs.copy()
        even[:, 1::2] = 0.0
        odd = members.coeffs.copy()
        odd[:, 0::2] = 0.0
        a = potential_norm(SymmExpansion(GENERIC, even), 2, s, grid)
        b = potential_norm(SymmExpansion(GENERIC, odd), 2, s, grid)
        stats = equivalence_ratio(potential_norm(members, 2, s, grid), np.sqrt(a**2 + b**2))
        assert stats.minimum == pytest.approx(1.0, abs=1e-9)
        assert stats.maximum == pytest.approx(1.0, abs=1e-9)

    def test_per_member_ratios_skip_degenerate_members(self):
        stats = equivalence_ratio([4.0, 0.0, 9.0], [2.0, 0.0, 3.0])
        assert stats.ratios == (2.0, 3.0)
        assert (stats.min_index, stats.max_index) == (0, 2)

    def test_zero_denominator_gives_an_infinite_ratio(self):
        stats = equivalence_ratio([1.0, 2.0], [0.0, 1.0])
        assert stats.ratios == (math.inf, 2.0)
        assert stats.max_index == 0

    def test_degenerate_ensemble(self):
        with pytest.raises(EnsembleError):
            equivalence_ratio(np.zeros(3), np.zeros(3))


class TestEnsembles:
    def test_seeded_and_decaying(self):
        a = random_band_limited(GENERIC, 16, 4, seed=7)
        b = random_band_limited(GENERIC, 16, 4, seed=7)
        np.testing.assert_array_equal(a.coeffs, b.coeffs)
        assert np.all(np.abs(a.coeffs) <= (1 + np.arange(17.0)) ** -1.0)

    def test_block_shape_and_members(self):
        block = random_band_limited(GENERIC, 8, 3, seed=11)
        assert block.coeffs.shape == (3, 9)
        assert len(block) == 9
        assert block[0].coeffs.shape == (9,)
        np.testing.assert_array_equal(block[1].coeffs, block.coeffs[1])
        assert block[1:].coeffs.shape == (2, 9)
        with pytest.raises(DomainError):
            block[0][0]

    def test_prefix_stability_under_degree_growth(self):
        # the degree-doubling protocol reads its lower degree off the top
        # draw, so the degree-d draw must be bitwise the first d + 1 columns
        for low, high in [(0, 1), (8, 16), (16, 32), (64, 128), (127, 128)]:
            short = random_band_limited(GENERIC, low, 5, seed=9)
            long = random_band_limited(GENERIC, high, 5, seed=9)
            np.testing.assert_array_equal(short.coeffs, long.coeffs[:, : low + 1])

    def test_members_differ(self):
        members = random_band_limited(GENERIC, 8, 3, seed=11)
        assert not np.array_equal(members.coeffs[0], members.coeffs[1])

    def test_validation(self):
        with pytest.raises(EnsembleError):
            random_band_limited(GENERIC, -1, 3, seed=1)
        with pytest.raises(EnsembleError):
            random_band_limited(GENERIC, 4, 0, seed=1)


class TestTruncatedPowers:
    def test_exact_power_integral(self):
        r = 0.8
        eps0 = 0.1
        upper = math.pi - 0.25
        vals = truncated_lp_powers(lambda t: t**-r, 1.0, eps0, levels=5)
        for j, v in enumerate(vals):
            eps = eps0 * 2.0**-j
            exact = (upper ** (1 - r) - eps ** (1 - r)) / (1 - r)
            assert v == pytest.approx(exact, rel=1e-10)

    def test_monotone_by_construction(self):
        vals = truncated_lp_powers(lambda t: t**-1.2, 2.0, 0.05, levels=6)
        assert np.all(np.diff(vals) > 0)

    def test_validation(self):
        with pytest.raises(DomainError):
            truncated_lp_powers(lambda t: t, 1.0, -0.1)
        with pytest.raises(DomainError):
            truncated_lp_powers(lambda t: t, 1.0, 4.0)


class TestDivergenceDetectors:
    def exponent_sequence(self, r, p=1.0):
        return truncated_lp_powers(lambda t: t ** (-r / p), p, 0.05, levels=6)

    def test_strong_power_blowup_fires_both(self):
        vals = self.exponent_sequence(2.2)
        assert flag_divergent_by_growth(vals)
        verdict = flag_divergent_by_exponent(vals)
        assert verdict.divergent
        assert verdict.mean_exponent == pytest.approx(2.2, abs=0.05)

    def test_moderate_power_blowup(self):
        vals = self.exponent_sequence(1.9)
        assert flag_divergent_by_growth(vals)  # ratios near 2^0.9 = 1.87
        assert flag_divergent_by_exponent(vals).divergent

    def test_logarithmic_blowup_splits_the_detectors(self):
        # the growth detector provably cannot fire here: refinement ratios
        # tend to 1; the exponent detector recovers the borderline rate 1
        vals = self.exponent_sequence(1.0)
        assert not flag_divergent_by_growth(vals)
        verdict = flag_divergent_by_exponent(vals)
        assert verdict.divergent
        assert verdict.mean_exponent == pytest.approx(1.0, abs=0.02)

    def test_convergent_rate_flags_neither(self):
        vals = self.exponent_sequence(0.5)
        assert not flag_divergent_by_growth(vals)
        verdict = flag_divergent_by_exponent(vals)
        assert not verdict.divergent
        assert verdict.mean_exponent == pytest.approx(0.5, abs=0.02)

    def test_short_sequences_rejected(self):
        with pytest.raises(DomainError):
            flag_divergent_by_growth([1.0, 2.0, 4.0])
        with pytest.raises(DomainError):
            flag_divergent_by_exponent([1.0, 2.0, 4.0])

    def test_flat_sequence(self):
        verdict = flag_divergent_by_exponent([1.0, 1.0, 1.0, 1.0, 1.0])
        assert not verdict.divergent
