"""End-to-end acceptance checks.

One test per criterion, each printing a single pass/fail line with the
measured quantity next to its tolerance. The prints bypass capture so the
full list is visible in a normal pytest run.
"""

import glob
import json
import math
import os
import time

import numpy as np
import pytest

from symjacobi.basis import (
    SymmExpansion,
    symm_eigenfunction_table,
    symm_eigenvalues,
)
from symjacobi.core import (
    GridFunction,
    JacobiParams,
    eigenfunction_table,
    eigenvalue,
    gauss_jacobi_rule,
    symmetric_rule,
)
from symjacobi.norms import (
    flag_divergent_by_exponent,
    flag_divergent_by_growth,
    lp_norm,
    potential_norm,
    truncated_lp_powers,
)
from symjacobi.operators import (
    apply_ladder_down_fd,
    apply_ladder_up_fd,
    bessel_potential,
    dunkl_derivative,
    ladder_constants,
    riesz_potential,
    symm_higher_derivative,
)
from symjacobi.squarefn import (
    SquareFunctionSpec,
    l2_equivalence_constant,
    square_function,
    square_function_by_time_quadrature,
)
from symjacobi.suites import (
    SuiteConfig,
    run_decomposition,
    run_embed,
    run_schrodinger,
    run_sobolev,
    run_suite,
)
from symjacobi.witnesses import (
    decay_witness,
    decay_witness_first_derivative,
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


def announce(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE criterion {num:02d}: "
              f"{'PASS' if ok else 'FAIL'}  {detail}")


def test_criterion_01_orthonormality(capsys):
    started = time.perf_counter()
    worst = 0.0
    for pr in PAIRS:
        half = gauss_jacobi_rule(96, pr)
        table = eigenfunction_table(40, pr, half.nodes)
        gram = (table * half.weights) @ table.T
        worst = max(worst, float(np.max(np.abs(gram - np.eye(41)))))

        grid = symmetric_rule(96, pr)
        stable = symm_eigenfunction_table(41, pr, grid.nodes)
        sgram = (stable * grid.weights) @ stable.T
        worst = max(worst, float(np.max(np.abs(sgram - np.eye(41)))))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-10 and elapsed < 5.0
    announce(capsys, 1, ok,
             f"gram identity dev {worst:.3g} (tol 1e-10) over modes 0..40, "
             f"6 pairs, both lines, in {elapsed:.2f}s (limit 5s)")
    assert worst < 1e-10
    assert elapsed < 5.0


def test_criterion_02_fourier_degeneration(capsys):
    pr = JacobiParams(-0.5, -0.5)
    theta = np.linspace(-math.pi + 1e-6, math.pi - 1e-6, 1000)
    half = np.linspace(1e-6, math.pi - 1e-6, 1000)
    table = eigenfunction_table(10, pr, half)
    dev = float(np.max(np.abs(table[0] - 1.0 / math.sqrt(math.pi))))
    for n in range(1, 11):
        target = math.sqrt(2 / math.pi) * np.cos(n * half)
        dev = max(dev, float(np.max(np.abs(table[n] - target))))
    symm = symm_eigenfunction_table(21, pr, theta)
    dev = max(dev, float(np.max(np.abs(
        symm[0] - 1.0 / math.sqrt(2 * math.pi)))))
    for n in range(1, 11):
        even = np.cos(n * theta) / math.sqrt(math.pi)
        dev = max(dev, float(np.max(np.abs(symm[2 * n] - even))))
    for n in range(0, 10):
        odd = np.sin((n + 1) * theta) / math.sqrt(math.pi)
        dev = max(dev, float(np.max(np.abs(symm[2 * n + 1] - odd))))
    ok = dev < 1e-12
    announce(capsys, 2, ok,
             f"flat-weight cosine/sine forms dev {dev:.3g} (tol 1e-12) "
             "on 1000 nodes")
    assert ok


def test_criterion_03_eigen_relation_and_ladder(capsys):
    worst_rel = 0.0
    pattern_ok = True
    for pr in PAIRS:
        shift_sq = pr.eigen_shift**2
        for n in range(41):
            coeffs = np.zeros(41)
            coeffs[n] = 1.0
            dd = dunkl_derivative(dunkl_derivative(SymmExpansion(pr, coeffs)))
            size = max(dd.coeffs.size, 41)
            out = np.zeros(size)
            out[: dd.coeffs.size] = -dd.coeffs
            out[:41] += shift_sq * coeffs
            lam = eigenvalue((n + 1) // 2, pr)
            worst_rel = max(
                worst_rel, abs(out[n] - lam) / (lam if lam > 0 else 1.0))
            mask = np.ones(size, dtype=bool)
            mask[n] = False
            if np.any(out[mask] != 0.0):
                pattern_ok = False

    nodes = np.linspace(0.2, math.pi - 0.2, 9)
    fd_worst = 0.0
    for pr in PAIRS:
        ladder = ladder_constants(pr, 21)
        shifted = eigenfunction_table(19, pr.shift(1), nodes)
        for n in range(1, 21):
            fd_vals = apply_ladder_down_fd(
                pr, lambda t, n=n, pr=pr: eigenfunction_table(n, pr, t)[n], nodes)
            target = -ladder[n] * shifted[n - 1]
            scale = float(np.max(np.abs(target)))
            fd_worst = max(
                fd_worst, float(np.max(np.abs(fd_vals - target))) / scale)
    ok = worst_rel <= 1e-13 and pattern_ok and fd_worst <= 1e-5
    announce(capsys, 3, ok,
             f"eigen-relation rel dev {worst_rel:.3g} (pinned 1e-13, "
             f"zero pattern {'exact' if pattern_ok else 'BROKEN'}) n<=40; "
             f"ladder vs finite differences rel {fd_worst:.3g} (tol 1e-5) n<=20")
    assert worst_rel <= 1e-13
    assert pattern_ok
    assert fd_worst <= 1e-5


def test_criterion_04_composition_and_isometry(capsys):
    comp_dev = 0.0
    iso_dev = 0.0
    for pr in PAIRS:
        rng = np.random.default_rng([1729, 4])
        e = SymmExpansion(pr, rng.uniform(-1, 1, 25))
        if pr.eigen_shift != 0.0:
            twice = riesz_potential(riesz_potential(e, 0.35), 0.4)
            once = riesz_potential(e, 0.75)
        else:
            twice = bessel_potential(bessel_potential(e, 0.35), 0.4)
            once = bessel_potential(e, 0.75)
        comp_dev = max(comp_dev, float(
            np.max(np.abs(twice.coeffs - once.coeffs))
            / np.max(np.abs(once.coeffs))))

        if pr.eigen_shift != 0.0:
            grid = symmetric_rule(96, pr)
            lifted = riesz_potential(e, 0.3)
            a = potential_norm(lifted, 2, 1.4, grid)
            b = potential_norm(e, 2, 0.8, grid)
            iso_dev = max(iso_dev, abs(a - b) / b)
    ok = comp_dev <= 1e-14 and iso_dev <= 1e-12
    announce(capsys, 4, ok,
             f"potential composition rel dev {comp_dev:.3g} (pinned 1e-14); "
             f"smoothing-shift isometry rel dev {iso_dev:.3g} (pinned 1e-12)")
    assert comp_dev <= 1e-14
    assert iso_dev <= 1e-12


def test_criterion_05_parity_decomposition(capsys):
    report = run_decomposition(SuiteConfig(suite="decomposition"))
    p2 = [c for c in report.cases if c["name"].startswith("parity-ratio-p2")]
    p3 = [c for c in report.cases if c["name"].startswith("parity-window-p3")]
    assert len(p2) == 6 and len(p3) == 6
    dev = max(c["value"] for c in p2)
    window = max(c["value"] for c in p3)
    ok = report.passed
    announce(capsys, 5, ok,
             f"p=2 parity ratio dev {dev:.3g} (tol 1e-9, 50 members); "
             f"p=3 window max {window:.3g} (bound 50, stable within 10% "
             "as degree 32 -> 64)")
    assert ok


def test_criterion_06_sobolev_windows(capsys):
    report = run_sobolev(SuiteConfig(suite="sobolev"))
    m1 = [c for c in report.cases if "-m1-" in c["name"]]
    m2 = [c for c in report.cases if "-m2-" in c["name"]]
    assert len(m1) == 6 and len(m2) == 6
    worst = max(c["value"] for c in report.cases)
    ok = report.passed
    announce(capsys, 6, ok,
             f"sobolev/potential windows (p,m) in {{(2,1),(2,2)}} max "
             f"{worst:.3g} (bound 50, stable within 10% as degree doubles)")
    assert ok


def test_criterion_07_square_function_constants(capsys):
    worst = 0.0
    for pr in PAIRS:
        grid = symmetric_rule(96, pr)
        lam_all = symm_eigenvalues(31, pr)
        for gamma, k in ((0.5, 1), (0.7, 2), (1.5, 2)):
            spec = SquareFunctionSpec(gamma, k)
            expected = l2_equivalence_constant(gamma, k)
            for n in range(31):
                lam = lam_all[n]
                if lam == 0.0:
                    continue
                coeffs = np.zeros(31)
                coeffs[n] = 1.0
                vals = square_function(SymmExpansion(pr, coeffs), spec, grid.nodes)
                measured = lp_norm(GridFunction(grid, vals), 2) / lam ** (gamma / 2)
                worst = max(worst, abs(measured - expected))

    quad_dev = 0.0
    pr = JacobiParams(0.3, 0.7)
    rng = np.random.default_rng([1729, 7])
    e = SymmExpansion(pr, rng.uniform(-1, 1, 6))
    theta = np.array([-1.9, -0.7, 0.8, 2.1])
    for gamma, k in ((0.5, 1), (0.7, 2), (1.5, 2)):
        spec = SquareFunctionSpec(gamma, k)
        closed = square_function(e, spec, theta)
        slow = square_function_by_time_quadrature(e, spec, theta)
        quad_dev = max(quad_dev, float(np.max(np.abs(closed - slow))))
    ok = worst <= 1e-9 and quad_dev <= 1e-6
    announce(capsys, 7, ok,
             f"eigenmode constants dev {worst:.3g} (tol 1e-9) n<=30, three "
             f"index pairs, 6 parameter pairs; time-quadrature crosscheck "
             f"dev {quad_dev:.3g} (tol 1e-6)")
    assert worst <= 1e-9
    assert quad_dev <= 1e-6


def test_criterion_08_witness_functions(capsys):
    started = time.perf_counter()
    nodes = np.linspace(0.3, math.pi - 0.3, 9)

    w1 = JacobiParams(-0.3, -0.3)
    f1 = decay_witness(w1)
    residual1 = float(np.max(np.abs(apply_ladder_up_fd(w1, f1, nodes))))
    g1 = decay_witness_first_derivative(w1)
    vals1 = truncated_lp_powers(lambda t: np.abs(g1(t)), 2, 0.1, levels=6)
    growth1 = flag_divergent_by_growth(vals1)

    w2 = JacobiParams(0.0, 0.0)
    coeffs = np.zeros(4)
    coeffs[1] = growth_witness_coefficient(w2)
    e2 = SymmExpansion(w2, coeffs)
    spectral_dev = 0.0
    for k in (1, 2):
        dev, dod = symm_higher_derivative(e2, k)
        spectral_dev = max(spectral_dev,
                           float(np.max(np.abs(dev.coeffs))),
                           float(np.max(np.abs(dod.coeffs))))
    fd2 = float(np.max(np.abs(apply_ladder_down_fd(
        w2.shift(1), lambda t: trig_power(1.0, 1.0, t), nodes))))

    dd = growth_witness_double_derivative(w2)
    vals2 = truncated_lp_powers(lambda t: np.abs(dd(t)), 2, 0.1, levels=6)
    growth2 = flag_divergent_by_growth(vals2)
    verdict2 = flag_divergent_by_exponent(vals2)
    elapsed = time.perf_counter() - started

    ok = (residual1 <= 1e-8 and growth1
          and spectral_dev == 0.0 and fd2 <= 1e-8
          and verdict2.divergent and elapsed < 10.0)
    announce(capsys, 8, ok,
             f"witness 1: residual {residual1:.3g} (tol 1e-8), truncated "
             f"integrals grow >=1.5x over 3 levels: {growth1}; witness 2: "
             f"orders 1,2 dev {max(spectral_dev, fd2):.3g} (tol 1e-8), mixed "
             f"second derivative literal 1.5x detector {growth2} "
             f"(logarithmic blowup, ratios tend to 1), exponent detector "
             f"divergent={verdict2.divergent} mean rate "
             f"{verdict2.mean_exponent:.4f}; {elapsed:.2f}s (limit 10s)")
    assert residual1 <= 1e-8
    assert growth1
    assert spectral_dev == 0.0
    assert fd2 <= 1e-8
    # the mixed second derivative blows up like 1/theta in the p-th power,
    # so truncated integrals grow by a constant increment per level and the
    # fixed-factor detector cannot fire; divergence is certified by the
    # increment-exponent detector instead, with both outcomes recorded
    assert growth2 is False
    assert verdict2.divergent
    assert abs(verdict2.mean_exponent - 1.0) <= 0.05
    assert elapsed < 10.0


def test_criterion_09_embedding_ratios(capsys):
    report = run_embed(SuiteConfig(suite="embed"))
    names = [c["name"] for c in report.cases]
    assert "embedding-ratio-stable" in names
    assert "supnorm-ratio-stable" in names
    ok = report.passed
    detail = "; ".join(
        f"{c['name']} value {c['value']:.4g} bound {c['tolerance']:.4g}"
        for c in report.cases)
    announce(capsys, 9, ok, detail + " (pair (0,0), p=2, s=0.3, q=4; "
             "sup-norm at s=0.6)")
    assert ok


def test_criterion_10_schrodinger_convergence(capsys):
    report = run_schrodinger(SuiteConfig(suite="schrodinger"))
    bound = next(c for c in report.cases if c["name"] == "linear-error-bound")
    slope = next(c for c in report.cases if c["name"] == "convergence-slope")
    ok = report.passed
    announce(capsys, 10, ok,
             f"max-node error within t*sum|c_n|*lambda_n*max|phi_n| bound (ratio "
             f"{bound['value']:.3g}); log-log slope {slope['value']:.4f} "
             "(target 1.0 +- 0.1) over t = 2^-j / lambda_max, j = 0 .. 10")
    assert ok


def test_criterion_11_determinism_and_runtime(capsys, tmp_path):
    started = time.perf_counter()
    outs = [tmp_path / "a", tmp_path / "b"]
    all_passed = True
    for out in outs:
        reports = run_suite(SuiteConfig(suite="all", out=str(out)))
        assert len(reports) == 12
        all_passed = all_passed and all(r.passed for r in reports)
    elapsed = time.perf_counter() - started

    identical = True
    for path in sorted(glob.glob(str(outs[0] / "*-report.json"))):
        name = os.path.basename(path)
        docs = []
        for out in outs:
            with open(out / name) as fh:
                doc = json.load(fh)
            doc.pop("wall_clock_s")
            docs.append(json.dumps(doc, sort_keys=True))
        identical = identical and docs[0] == docs[1]
    sidecars = sorted(glob.glob(str(outs[0] / "*.csv")))
    sidecars += sorted(glob.glob(str(outs[0] / "*.svg")))
    for path in sidecars:
        name = os.path.basename(path)
        with open(path, "rb") as fh_a, open(outs[1] / name, "rb") as fh_b:
            identical = identical and fh_a.read() == fh_b.read()

    ok = all_passed and identical and elapsed < 180.0
    announce(capsys, 11, ok,
             f"two full sweeps: all 12 suites passed={all_passed}, reports and "
             f"sidecars byte-identical modulo wall clock: {identical}, "
             f"{elapsed:.1f}s total (limit 180s for one sweep)")
    assert all_passed
    assert identical
    assert elapsed < 180.0
