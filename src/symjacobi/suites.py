"""Verification suites for the experiment runner.

Each suite is a pure function from a validated SuiteConfig to an
ExperimentReport; file output lives in the reporting module. Suites never
read each other's results, and a fixed config gives the same report on every
run.
"""

import dataclasses
import math
import time

import numpy as np

from ._version import __version__
from .basis import (
    SymmExpansion,
    eval_symm_eigenfunction,
    eval_symm_expansion,
    symm_eigenfunction_table,
    symm_eigenvalues,
)
from .core import (
    GridFunction,
    JacobiParams,
    eigenfunction_table,
    eigenvalue,
    eval_eigenfunction,
    gauss_jacobi_rule,
    symmetric_rule,
)
from .errors import ConfigError
from .norms import (
    admissibility,
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
from .operators import (
    LadderCoefficients,
    apply_ladder_down_fd,
    apply_ladder_up_fd,
    bessel_potential,
    dunkl_derivative,
    poisson_semigroup,
    riesz_potential,
    riesz_transform,
    riesz_transform_shifted,
    schrodinger_propagator,
    symm_higher_derivative,
)
from .reporting import ExperimentReport, emit_plots, write_report
from .squarefn import (
    SquareFunctionSpec,
    eigenmode_constant,
    l2_equivalence_constant,
    square_function,
    square_function_by_time_quadrature,
)
from .witnesses import (
    cross_parameter_derivative,
    decay_witness,
    decay_witness_first_derivative,
    growth_witness_coefficient,
    growth_witness_double_derivative,
    trig_power,
)

DEFAULT_PAIR_VALUES = (
    (-0.5, -0.5),
    (0.0, 0.0),
    (0.3, 0.7),
    (1.0, 2.0),
    (-0.7, 0.4),
    (2.5, 1.5),
)

SQUAREFN_INDEX_SET = ((0.5, 1), (0.7, 2), (1.5, 2))


def default_pairs() -> tuple:
    return tuple(JacobiParams(a, b) for a, b in DEFAULT_PAIR_VALUES)


@dataclasses.dataclass
class SuiteConfig:
    suite: str
    pairs: tuple = ()
    p: float = 2.0
    q: float | None = None
    s: float | None = None
    gamma: float | None = None
    k: int | None = None
    m: int | None = None
    trunc: int = 64
    quad: int | None = None
    ensemble: int = 50
    seed: int = 1729
    out: str = "."
    explicit_pair: bool = False

    def __post_init__(self):
        if not self.pairs:
            self.pairs = default_pairs()
            self.explicit_pair = False
        else:
            self.pairs = tuple(
                pr if isinstance(pr, JacobiParams) else JacobiParams(*pr)
                for pr in self.pairs
            )

    def quad_order(self) -> int:
        return self.quad if self.quad is not None else 2 * self.trunc + 16

    def echo(self) -> dict:
        return {
            "suite": self.suite,
            "pairs": [[pr.alpha, pr.beta] for pr in self.pairs],
            "p": self.p,
            "q": self.q,
            "s": self.s,
            "gamma": self.gamma,
            "k": self.k,
            "m": self.m,
            "trunc": self.trunc,
            "quad": self.quad_order(),
            "ensemble": self.ensemble,
            "seed": self.seed,
        }


_ADMISSIBILITY_SUITES = {
    "potentials",
    "decomposition",
    "sobolev",
    "embed",
    "squarefn",
    "counterexample",
}


def validate_config(config: SuiteConfig) -> None:
    """Reject exactly the excluded parameter combinations, citing each one."""
    if config.suite not in SUITES and config.suite != "all":
        raise ConfigError(f"unknown suite {config.suite!r}; known: {sorted(SUITES)}")
    if config.trunc < 4:
        raise ConfigError(f"truncation degree must be at least 4, got {config.trunc}")
    if config.quad_order() <= config.trunc:
        raise ConfigError(
            f"quadrature order {config.quad_order()} must exceed the truncation "
            f"degree {config.trunc}"
        )
    if config.ensemble < 1:
        raise ConfigError(f"ensemble size must be positive, got {config.ensemble}")
    if config.p < 1:
        raise ConfigError(f"p must be at least 1, got {config.p}")
    if config.q is not None and config.q < 1:
        raise ConfigError(f"q must be at least 1, got {config.q}")
    if (config.gamma is None) != (config.k is None):
        raise ConfigError("gamma and k must be given together")
    if config.gamma is not None and not 0.0 < config.gamma < config.k:
        raise ConfigError(
            f"square function indices must satisfy 0 < gamma < k; "
            f"got gamma={config.gamma}, k={config.k}"
        )
    if config.m is not None and config.m < 1:
        raise ConfigError(f"derivative order m must be positive, got {config.m}")

    suites = list(SUITES) if config.suite == "all" else [config.suite]
    for suite in suites:
        if suite in _ADMISSIBILITY_SUITES:
            for pr in config.pairs:
                if not pr.contains_p(config.p):
                    lo, hi = pr.admissible_range()
                    raise ConfigError(
                        f"p={config.p} lies outside the open admissible interval "
                        f"({lo:.6g}, {hi:.6g}) for alpha={pr.alpha}, beta={pr.beta}"
                    )
        if suite == "potentials" and config.explicit_pair:
            for pr in config.pairs:
                if pr.eigen_shift == 0.0:
                    raise ConfigError(
                        "the plain fractional potential needs a positive bottom "
                        f"eigenvalue: alpha + beta must differ from -1, got "
                        f"alpha={pr.alpha}, beta={pr.beta}"
                    )
        if suite == "counterexample" and config.explicit_pair:
            bound = 1.0 / config.p - 0.5
            for pr in config.pairs:
                if not (pr.alpha < bound and pr.beta < bound):
                    raise ConfigError(
                        "the decay witness needs alpha, beta < 1/p - 1/2 = "
                        f"{bound:.6g}; got alpha={pr.alpha}, beta={pr.beta}"
                    )
        if suite == "noninclusion" and config.explicit_pair:
            other = JacobiParams(*NONINCLUSION_OTHER)
            for pr in config.pairs:
                if pr.alpha == other.alpha and pr.beta == other.beta:
                    raise ConfigError(
                        "the two parameter pairs must differ; "
                        f"({pr.alpha}, {pr.beta}) matches the built-in partner"
                    )


def _case(name: str, passed, value, tolerance=None, detail: str = "") -> dict:
    rec = {
        "name": name,
        "passed": bool(passed),
        "value": float(value),
        "detail": detail,
    }
    if tolerance is not None:
        rec["tolerance"] = float(tolerance)
    return rec


def _finish(config: SuiteConfig, suite: str, cases, series, started) -> ExperimentReport:
    return ExperimentReport(
        suite=suite,
        config=config.echo(),
        cases=cases,
        series=series,
        passed=all(c["passed"] for c in cases),
        version=__version__,
        seed=config.seed,
        wall_clock_s=time.perf_counter() - started,
    )


def _pair_label(pr: JacobiParams) -> str:
    return f"({pr.alpha:g},{pr.beta:g})"


def _unit(pr: JacobiParams, n: int, length: int) -> SymmExpansion:
    coeffs = np.zeros(length)
    coeffs[n] = 1.0
    return SymmExpansion(pr, coeffs)


def _single_pair(config: SuiteConfig, fallback: tuple) -> JacobiParams:
    if config.explicit_pair:
        return config.pairs[0]
    return JacobiParams(*fallback)


# ---------------------------------------------------------------- basis


def run_basis(config: SuiteConfig) -> ExperimentReport:
    started = time.perf_counter()
    cases, series_rows = [], []
    n_top = min(config.trunc, 40)
    for pr in config.pairs:
        half = gauss_jacobi_rule(config.quad_order(), pr)
        table = eigenfunction_table(n_top, pr, half.nodes)
        gram = (table * half.weights) @ table.T
        half_dev = float(np.max(np.abs(gram - np.eye(n_top + 1))))

        grid = symmetric_rule(config.quad_order(), pr)
        stable = symm_eigenfunction_table(n_top + 1, pr, grid.nodes)
        sgram = (stable * grid.weights) @ stable.T
        symm_dev = float(np.max(np.abs(sgram - np.eye(n_top + 1))))

        label = _pair_label(pr)
        cases.append(
            _case(f"halfline-gram-{label}", half_dev < 1e-10, half_dev, 1e-10)
        )
        cases.append(
            _case(f"symmetric-gram-{label}", symm_dev < 1e-10, symm_dev, 1e-10)
        )
        series_rows.append([label, half_dev, symm_dev])

    flat = [pr for pr in config.pairs if pr.alpha == -0.5 and pr.beta == -0.5]
    if flat:
        pr = flat[0]
        theta = np.linspace(-math.pi + 1e-6, math.pi - 1e-6, 1000)
        dev = 0.0
        for n in range(1, 9):
            half_vals = eval_symm_eigenfunction(2 * n, pr, theta) * math.sqrt(2.0)
            dev = max(dev, float(np.max(np.abs(half_vals - math.sqrt(2 / math.pi) * np.cos(n * np.abs(theta))))))
        for n in range(0, 8):
            odd_vals = eval_symm_eigenfunction(2 * n + 1, pr, theta)
            target = np.sin((n + 1) * theta) / math.sqrt(math.pi)
            dev = max(dev, float(np.max(np.abs(odd_vals - target))))
        cases.append(_case("flat-weight-degeneration", dev < 1e-12, dev, 1e-12))

    series = {
        "gram-deviation": {
            "columns": ["pair", "halfline_dev", "symmetric_dev"],
            "rows": series_rows,
        }
    }
    return _finish(config, "basis", cases, series, started)


# ---------------------------------------------------------------- eigen


def run_eigen(config: SuiteConfig) -> ExperimentReport:
    started = time.perf_counter()
    cases = []
    n_top = min(config.trunc, 40)
    residual_rows = []
    per_n = np.zeros(n_top + 1)
    for pr in config.pairs:
        shift_sq = pr.eigen_shift**2
        worst = 0.0
        pattern_ok = True
        for n in range(n_top + 1):
            e = _unit(pr, n, n_top + 1)
            dd = dunkl_derivative(dunkl_derivative(e))
            size = max(dd.coeffs.size, n_top + 1)
            out = np.zeros(size)
            out[: dd.coeffs.size] = -dd.coeffs
            out[: n_top + 1] += shift_sq * e.coeffs
            lam = eigenvalue((n + 1) // 2, pr)
            # absolute residual at a zero bottom eigenvalue, relative otherwise
            rel = abs(out[n] - lam) / (lam if lam > 0.0 else 1.0)
            worst = max(worst, rel)
            per_n[n] = max(per_n[n], rel)
            mask = np.ones(size, dtype=bool)
            mask[n] = False
            if np.any(out[mask] != 0.0):
                pattern_ok = False
        label = _pair_label(pr)
        cases.append(
            _case(
                f"eigen-relation-{label}",
                worst <= 1e-13 and pattern_ok,
                worst,
                1e-13,
                "off-diagonal pattern exact" if pattern_ok else "stray coefficients",
            )
        )

        nodes = np.linspace(0.2, math.pi - 0.2, 9)
        fd_worst = 0.0
        for n in (1, 5, 10, 20):
            def f(t, n=n, pr=pr):
                return eval_eigenfunction(n, pr, t)

            fd_vals = apply_ladder_down_fd(pr, f, nodes)
            target = -LadderCoefficients(pr).entry(n) * eval_eigenfunction(
                n - 1, pr.shift(1), nodes
            )
            scale = float(np.max(np.abs(target)))
            fd_worst = max(fd_worst, float(np.max(np.abs(fd_vals - target))) / scale)
        cases.append(
            _case(f"ladder-vs-fd-{label}", fd_worst <= 1e-5, fd_worst, 1e-5)
        )
    residual_rows = [[n, float(per_n[n])] for n in range(n_top + 1)]
    series = {
        "eigen-residual": {"columns": ["n", "max_rel_residual"], "rows": residual_rows}
    }
    return _finish(config, "eigen", cases, series, started)


# ---------------------------------------------------------------- potentials


def run_potentials(config: SuiteConfig) -> ExperimentReport:
    started = time.perf_counter()
    cases = []
    ratio_rows = []
    q = config.q if config.q is not None else 4.0
    sigma = config.s if config.s is not None else 0.2

    for pr in config.pairs:
        label = _pair_label(pr)
        rng = np.random.default_rng([config.seed, 99])
        e = SymmExpansion(pr, rng.uniform(-1, 1, 17))

        if pr.eigen_shift != 0.0:
            twice = riesz_potential(riesz_potential(e, 0.35), 0.4)
            once = riesz_potential(e, 0.75)
            dev = float(
                np.max(np.abs(twice.coeffs - once.coeffs))
                / np.max(np.abs(once.coeffs))
            )
            cases.append(_case(f"composition-{label}", dev <= 1e-14, dev, 1e-14))
        else:
            e0 = _unit(pr, 0, 3)
            out = bessel_potential(e0, 0.9)
            dev = abs(out.coeffs[0] - 1.0)
            cases.append(
                _case(
                    f"shifted-flow-bottom-{label}",
                    dev <= 1e-15,
                    dev,
                    1e-15,
                    "zero bottom eigenvalue: shifted potential fixes the lowest mode",
                )
            )

        lam = symm_eigenvalues(2 * config.trunc + 1, pr)
        s_exp = 0.8
        modified = (1.0 + np.sqrt(lam)) ** -s_exp
        bessel_half = (1.0 + lam) ** (-s_exp / 2)
        # two-sided bound from (1+l) <= (1+sqrt(l))^2 <= 2(1+l)
        violation = max(
            float(np.max(modified - bessel_half)),
            float(np.max(bessel_half - 2 ** (s_exp / 2) * modified)),
            float(np.max(modified - 1.0)),
        )
        cases.append(
            _case(f"bessel-sandwich-{label}", violation <= 1e-15, violation, 1e-15)
        )

        t1, t2 = 0.3, 0.45
        a = poisson_semigroup(poisson_semigroup(e, t1), t2)
        b = poisson_semigroup(e, t1 + t2)
        dev = float(np.max(np.abs(a.coeffs - b.coeffs)) / np.max(np.abs(b.coeffs)))
        cases.append(_case(f"semigroup-law-{label}", dev <= 1e-14, dev, 1e-14))

    smoothing_pairs = [
        pr
        for pr in config.pairs
        if pr.eigen_shift != 0.0
        and admissibility(pr, config.p, q=q, sigma=sigma).smoothing_lp_lq
        and pr.contains_p(q)
    ]
    for pr in smoothing_pairs:
        grid = symmetric_rule(config.quad_order(), pr)
        members = random_band_limited(pr, config.trunc // 2, config.ensemble, config.seed)

        def ratio(member, pr=pr, grid=grid):
            smoothed = riesz_potential(member, sigma)
            num = lp_norm(
                GridFunction(grid, eval_symm_expansion(smoothed, grid.nodes)), q
            )
            den = lp_norm(
                GridFunction(grid, eval_symm_expansion(member, grid.nodes)), config.p
            )
            return num / den

        ratios = [ratio(m) for m in members]
        window = max(ratios) / min(ratios)
        label = _pair_label(pr)
        cases.append(
            _case(
                f"smoothing-window-{label}",
                math.isfinite(window) and window <= 50.0,
                window,
                50.0,
                f"ratio of the q-norm after order-{2 * sigma:g} smoothing to the p-norm",
            )
        )
        if not ratio_rows:
            ratio_rows = [[i, float(r)] for i, r in enumerate(ratios)]

    series = {}
    if ratio_rows:
        series["smoothing-ratio"] = {"columns": ["member", "ratio"], "rows": ratio_rows}
    return _finish(config, "potentials", cases, series, started)


# ---------------------------------------------------------------- decomposition


def _parity_split_norm(e: SymmExpansion, p: float, s: float, grid) -> float:
    even = e.coeffs.copy()
    even[1::2] = 0.0
    odd = e.coeffs.copy()
    odd[0::2] = 0.0
    a = potential_norm(SymmExpansion(e.params, even), p, s, grid)
    b = potential_norm(SymmExpansion(e.params, odd), p, s, grid)
    if p == 2:
        return math.sqrt(a**2 + b**2)
    return a + b


def run_decomposition(config: SuiteConfig) -> ExperimentReport:
    started = time.perf_counter()
    cases = []
    s = config.s if config.s is not None else 0.7
    ratio_rows = []
    window_rows = []
    degree_lo = max(config.trunc // 2, 8)
    degree_hi = config.trunc

    for pr in config.pairs:
        label = _pair_label(pr)
        grid = symmetric_rule(config.quad_order(), pr)
        members = random_band_limited(pr, degree_lo, config.ensemble, config.seed)

        def ratio_p2(member, pr=pr, grid=grid):
            whole = potential_norm(member, 2, s, grid)
            split = _parity_split_norm(member, 2, s, grid)
            return whole / split

        ratios = [ratio_p2(m) for m in members]
        dev = float(np.max(np.abs(np.asarray(ratios) - 1.0)))
        cases.append(_case(f"parity-ratio-p2-{label}", dev <= 1e-9, dev, 1e-9))
        if not ratio_rows:
            ratio_rows = [[i, float(r)] for i, r in enumerate(ratios)]

        if pr.contains_p(3.0):
            windows = []
            for degree in (degree_lo, degree_hi):
                ens = random_band_limited(pr, degree, config.ensemble, config.seed)
                stats = equivalence_ratio(
                    lambda e, pr=pr, grid=grid: potential_norm(e, 3.0, s, grid),
                    lambda e, pr=pr, grid=grid: _parity_split_norm(e, 3.0, s, grid),
                    ens,
                )
                windows.append(stats.window)
            ok = windows[0] <= 50.0 and windows[1] <= 1.1 * windows[0]
            cases.append(
                _case(
                    f"parity-window-p3-{label}",
                    ok,
                    windows[1],
                    50.0,
                    f"window {windows[0]:.6g} at degree {degree_lo}, "
                    f"{windows[1]:.6g} at degree {degree_hi}",
                )
            )
            window_rows.append([label, windows[0], windows[1]])

    series = {
        "ratio-p2": {"columns": ["member", "ratio"], "rows": ratio_rows},
        "window-p3": {
            "columns": ["pair", "window_lo_degree", "window_hi_degree"],
            "rows": window_rows,
        },
    }
    return _finish(config, "decomposition", cases, series, started)


# ---------------------------------------------------------------- sobolev


def run_sobolev(config: SuiteConfig) -> ExperimentReport:
    started = time.perf_counter()
    cases = []
    window_rows = []
    orders = (config.m,) if config.m is not None else (1, 2)
    degree_lo = max(config.trunc // 2, 8)
    degree_hi = config.trunc

    for pr in config.pairs:
        label = _pair_label(pr)
        grid = symmetric_rule(config.quad_order(), pr)
        for m in orders:
            windows = []
            maxima = []
            for degree in (degree_lo, degree_hi):
                members = random_band_limited(pr, degree, config.ensemble, config.seed)
                stats = equivalence_ratio(
                    lambda e, m=m, grid=grid: sobolev_norm(e, config.p, m, grid),
                    lambda e, m=m, grid=grid: potential_norm(e, config.p, float(m), grid),
                    members,
                )
                windows.append(stats.window)
                maxima.append(stats.maximum)
            ok = (
                windows[0] <= 50.0
                and windows[1] <= 1.1 * windows[0]
                and maxima[1] <= 1.1 * maxima[0]
            )
            cases.append(
                _case(
                    f"sobolev-window-m{m}-{label}",
                    ok,
                    windows[1],
                    50.0,
                    f"window {windows[0]:.6g} -> {windows[1]:.6g}, "
                    f"max ratio {maxima[0]:.6g} -> {maxima[1]:.6g} as the degree doubles",
                )
            )
            window_rows.append([label, m, windows[0], windows[1]])

    series = {
        "sobolev-window": {
            "columns": ["pair", "m", "window_lo_degree", "window_hi_degree"],
            "rows": window_rows,
        }
    }
    return _finish(config, "sobolev", cases, series, started)


# ---------------------------------------------------------------- counterexample

COUNTEREXAMPLE_PAIR = (-0.3, -0.3)
WITNESS2_PAIR = (0.0, 0.0)


def run_counterexample(config: SuiteConfig) -> ExperimentReport:
    started = time.perf_counter()
    cases = []
    p = config.p
    w1 = _single_pair(config, COUNTEREXAMPLE_PAIR)
    bound = 1.0 / p - 0.5
    if not (w1.alpha < bound and w1.beta < bound):
        raise ConfigError(
            f"the decay witness needs alpha, beta < 1/p - 1/2 = {bound:.6g}; "
            f"got alpha={w1.alpha}, beta={w1.beta}"
        )

    nodes = np.linspace(0.3, math.pi - 0.3, 9)
    f1 = decay_witness(w1)
    residual = float(np.max(np.abs(apply_ladder_up_fd(w1, lambda t: f1(t), nodes))))
    cases.append(
        _case(
            "witness1-reflection-term-vanishes",
            residual <= 1e-8,
            residual,
            1e-8,
            "raising part annihilates the decay witness, so the first fixed-index "
            "norm stays finite",
        )
    )

    base_vals = truncated_lp_powers(lambda t: np.abs(f1(t)), p, 0.1, levels=6)
    base_verdict = flag_divergent_by_exponent(base_vals)
    cases.append(
        _case(
            "witness1-own-lp-integral-converges",
            not base_verdict.divergent,
            base_verdict.mean_exponent,
            0.95,
            "the witness itself stays p-integrable",
        )
    )

    g1 = decay_witness_first_derivative(w1)
    w1_vals = truncated_lp_powers(lambda t: np.abs(g1(t)), p, 0.1, levels=6)
    w1_growth = flag_divergent_by_growth(w1_vals)
    w1_exponent = flag_divergent_by_exponent(w1_vals)
    cases.append(
        _case(
            "witness1-derivative-diverges-growth",
            w1_growth,
            float(np.min(w1_vals[1:] / w1_vals[:-1])),
            1.5,
            f"exponent route agrees: mean rate {w1_exponent.mean_exponent:.4g}",
        )
    )

    # the band-limited witness is pinned: its closed forms are derived at
    # integer parameters and the grid oracle below depends on them
    w2 = JacobiParams(*WITNESS2_PAIR)
    c2 = growth_witness_coefficient(w2)
    coeffs = np.zeros(4)
    coeffs[1] = c2
    e2 = SymmExpansion(w2, coeffs)
    spectral_dev = 0.0
    for k in (1, 2):
        dev_pair = symm_higher_derivative(e2, k)
        spectral_dev = max(
            spectral_dev,
            float(np.max(np.abs(dev_pair[0].coeffs))),
            float(np.max(np.abs(dev_pair[1].coeffs))),
        )
    g2plus = lambda t: trig_power(w2.alpha + 1, w2.beta + 1, t)
    fd_dev = float(
        np.max(np.abs(apply_ladder_down_fd(w2.shift(1), g2plus, nodes)))
    )
    cases.append(
        _case(
            "witness2-variable-derivatives-vanish",
            spectral_dev == 0.0 and fd_dev <= 1e-8,
            max(spectral_dev, fd_dev),
            1e-8,
            "orders 1 and 2 are exactly zero in coefficient space; the pointwise "
            "first-order residual confirms it",
        )
    )

    dd = growth_witness_double_derivative(w2)
    w2_vals = truncated_lp_powers(lambda t: np.abs(dd(t)), p, 0.1, levels=6)
    w2_growth = flag_divergent_by_growth(w2_vals)
    w2_exponent = flag_divergent_by_exponent(w2_vals)
    cases.append(
        _case(
            "witness2-mixed-second-derivative-diverges",
            w2_exponent.divergent,
            w2_exponent.mean_exponent,
            0.95,
            "logarithmic blowup: the growth-factor detector reads "
            f"{w2_growth} because refinement ratios tend to 1, so the verdict "
            "gates on the exponent detector",
        )
    )

    series = {
        "witness1-refinement": {
            "columns": ["level", "truncated_integral"],
            "rows": [[j, float(v)] for j, v in enumerate(w1_vals)],
        },
        "witness2-refinement": {
            "columns": ["level", "truncated_integral"],
            "rows": [[j, float(v)] for j, v in enumerate(w2_vals)],
        },
    }
    return _finish(config, "counterexample", cases, series, started)


# ---------------------------------------------------------------- inclusion


def run_inclusion(config: SuiteConfig) -> ExperimentReport:
    started = time.perf_counter()
    cases = []
    orders = (config.k,) if config.k is not None else (1, 2, 3)
    n_top = min(config.trunc, 32)
    column_rows = []
    for pr in config.pairs:
        label = _pair_label(pr)
        for k in orders:
            norms = []
            for n in range(n_top + 1):
                out = riesz_transform(_unit(pr, n, n_top + 1), k)
                norms.append(float(np.linalg.norm(out.coeffs)))
            top = max(norms)
            cases.append(
                _case(
                    f"transform-columns-k{k}-{label}",
                    top <= 1.0 + 1e-12,
                    top,
                    1.0,
                    "column norms of the order-k transform stay inside the unit ball",
                )
            )
            if k == 2 and not column_rows:
                column_rows = [[n, norms[n]] for n in range(n_top + 1)]

            shifted_tops = []
            for n in range(n_top + 1):
                dev, dod = riesz_transform_shifted(_unit(pr, n, n_top + 1), k)
                shifted_tops.append(
                    math.sqrt(
                        float(np.sum(dev.coeffs**2)) + float(np.sum(dod.coeffs**2))
                    )
                )
            stop = max(shifted_tops)
            cases.append(
                _case(
                    f"shifted-transform-columns-k{k}-{label}",
                    stop <= 1.0 + 1e-12,
                    stop,
                    1.0,
                )
            )
    series = {
        "column-norm": {"columns": ["n", "column_norm"], "rows": column_rows}
    }
    return _finish(config, "inclusion", cases, series, started)


# ---------------------------------------------------------------- squarefn


def run_squarefn(config: SuiteConfig) -> ExperimentReport:
    started = time.perf_counter()
    cases = []
    index_set = (
        ((config.gamma, config.k),) if config.gamma is not None else SQUAREFN_INDEX_SET
    )
    n_top = min(config.trunc // 2, 30)
    constant_rows = []
    window_rows = []
    q_alt = config.q if config.q is not None else 4.0

    for pr in config.pairs:
        label = _pair_label(pr)
        grid = symmetric_rule(config.quad_order(), pr)
        lam_all = symm_eigenvalues(n_top + 1, pr)
        for gamma, k in index_set:
            spec = SquareFunctionSpec(gamma, int(k))
            expected = l2_equivalence_constant(gamma, int(k))
            worst = 0.0
            for n in range(n_top + 1):
                lam = lam_all[n]
                if lam == 0.0:
                    continue
                e = _unit(pr, n, n_top + 1)
                vals = square_function(e, spec, grid.nodes)
                measured = lp_norm(GridFunction(grid, vals), 2) / lam ** (gamma / 2)
                worst = max(worst, abs(measured - expected))
                if (gamma, k) == index_set[0] and pr is config.pairs[0]:
                    constant_rows.append([n, float(measured)])
            cases.append(
                _case(
                    f"eigenmode-constant-g{gamma:g}-k{k:g}-{label}",
                    worst <= 1e-9,
                    worst,
                    1e-9,
                    f"target constant {expected:.12g}; zero modes carry no flow and are skipped",
                )
            )

        gamma, k = index_set[0]
        spec = SquareFunctionSpec(gamma, int(k))
        members = random_band_limited(pr, config.trunc // 2, config.ensemble, config.seed)

        def p2_ratio(member, spec=spec, grid=grid, gamma=gamma):
            vals = square_function(member, spec, grid.nodes)
            num = lp_norm(GridFunction(grid, vals), 2)
            lam = member.eigenvalues()
            alive = lam > 0
            den = math.sqrt(
                float(np.sum(np.abs(member.coeffs[alive]) ** 2 * lam[alive] ** gamma))
            )
            return num / den

        ratios = [p2_ratio(m) for m in members]
        expected = l2_equivalence_constant(gamma, int(k))
        dev = float(np.max(np.abs(np.asarray(ratios) - expected)))
        cases.append(
            _case(f"p2-ratio-constant-{label}", dev <= 1e-9, dev, 1e-9)
        )

        if pr.contains_p(q_alt):
            def alt_ratio(member, spec=spec, grid=grid, gamma=gamma):
                vals = square_function(member, spec, grid.nodes)
                num = lp_norm(GridFunction(grid, vals), q_alt)
                den = potential_norm(member, q_alt, gamma, grid)
                return num / den

            alt = [alt_ratio(m) for m in members]
            window = max(alt) / min(alt)
            cases.append(
                _case(
                    f"char-window-p{q_alt:g}-{label}",
                    math.isfinite(window) and window <= 50.0,
                    window,
                    50.0,
                )
            )
            window_rows.append([label, window])

    pr = config.pairs[0]
    gamma, k = index_set[0]
    theta = np.array([-1.9, -0.7, 0.8, 2.1])
    rng = np.random.default_rng([config.seed, 7])
    for variant in ("plain", "modified"):
        spec = SquareFunctionSpec(gamma, int(k), variant)
        e = SymmExpansion(pr, rng.uniform(-1, 1, 6))
        closed = square_function(e, spec, theta)
        slow = square_function_by_time_quadrature(e, spec, theta)
        dev = float(np.max(np.abs(closed - slow)))
        cases.append(
            _case(
                f"time-quadrature-crosscheck-{variant}",
                dev <= 1e-6,
                dev,
                1e-6,
                "closed kernel against direct time integration",
            )
        )

    mod_spec = SquareFunctionSpec(0.5, 1, "modified")
    flat = JacobiParams(-0.5, -0.5)
    theta_line = np.linspace(0.2, 2.9, 7)
    worst = 0.0
    for n in (0, 1, 4):
        e = _unit(flat, n, 5)
        lam = symm_eigenvalues(5, flat)[n]
        vals = square_function(e, mod_spec, theta_line)
        target = eigenmode_constant(mod_spec, lam) * np.abs(
            eval_symm_eigenfunction(n, flat, theta_line)
        )
        worst = max(worst, float(np.max(np.abs(vals - target))))
    cases.append(
        _case(
            "modified-keeps-zero-mode",
            worst <= 1e-9,
            worst,
            1e-9,
            "the shifted flow never kills a mode, including the flat one",
        )
    )

    series = {
        "eigen-constant": {"columns": ["n", "measured_ratio"], "rows": constant_rows},
        "char-window": {"columns": ["pair", "window"], "rows": window_rows},
    }
    return _finish(config, "squarefn", cases, series, started)


# ---------------------------------------------------------------- structure


def run_structure(config: SuiteConfig) -> ExperimentReport:
    started = time.perf_counter()
    cases = []
    q = config.q if config.q is not None else 4.0
    if q <= config.p:
        # the containment direction needs q above p
        q = 2.0 * config.p
    monotone_rows = []
    for pr in config.pairs:
        label = _pair_label(pr)
        grid = symmetric_rule(config.quad_order(), pr)
        members = random_band_limited(pr, config.trunc // 2, min(config.ensemble, 12), config.seed)

        worst = -math.inf
        const = (2 * math.pi) ** (1.0 / config.p - 1.0 / q)
        for member in members:
            vals = eval_symm_expansion(member, grid.nodes)
            f = GridFunction(grid, vals)
            worst = max(worst, lp_norm(f, config.p) - const * lp_norm(f, q))
        cases.append(
            _case(
                f"holder-containment-{label}",
                worst <= 1e-9,
                worst,
                1e-9,
                f"p={config.p} norm bounded by the q={q} norm times mass^(1/p-1/q)",
            )
        )

        if eigenvalue(0, pr) >= 1.0:
            drops = 0.0
            s_values = (0.5, 1.0, 1.5, 2.0)
            for member in members[:6]:
                norms = [potential_norm(member, 2, s, grid) for s in s_values]
                for a, b in zip(norms, norms[1:]):
                    drops = max(drops, a - b)
            cases.append(
                _case(
                    f"smoothness-monotone-{label}",
                    drops <= 1e-12,
                    drops,
                    1e-12,
                    "spectrum at or above 1: raising the smoothness index never "
                    "shrinks the norm",
                )
            )
            if not monotone_rows:
                member = members[0]
                monotone_rows = [
                    [s, float(potential_norm(member, 2, s, grid))] for s in s_values
                ]

        rng = np.random.default_rng([config.seed, 5])
        e = SymmExpansion(pr, rng.uniform(-1, 1, 13))
        if pr.eigen_shift != 0.0:
            twice = riesz_potential(riesz_potential(e, 0.3), 0.5)
            once = riesz_potential(e, 0.8)
        else:
            twice = bessel_potential(bessel_potential(e, 0.3), 0.5)
            once = bessel_potential(e, 0.8)
        comp_dev = float(
            np.max(np.abs(twice.coeffs - once.coeffs)) / np.max(np.abs(once.coeffs))
        )
        cases.append(
            _case(f"composition-law-{label}", comp_dev <= 1e-14, comp_dev, 1e-14)
        )

        if pr.eigen_shift != 0.0:
            s_iso, t_iso = 0.8, 0.6
            lifted = riesz_potential(e, t_iso / 2)
            iso_a = potential_norm(lifted, 2, s_iso + t_iso, grid)
            iso_b = potential_norm(e, 2, s_iso, grid)
            iso_dev = abs(iso_a - iso_b) / iso_b
            cases.append(
                _case(f"smoothing-isometry-{label}", iso_dev <= 1e-12, iso_dev, 1e-12)
            )

        lam = e.eigenvalues()
        sigma = 0.6
        if pr.eigen_shift != 0.0:
            forward = riesz_potential(e, sigma)
            back = SymmExpansion(pr, forward.coeffs * lam**sigma)
        else:
            forward = bessel_potential(e, sigma)
            back = SymmExpansion(pr, forward.coeffs * (1 + lam) ** sigma)
        inj_dev = float(np.max(np.abs(back.coeffs - e.coeffs)))
        cases.append(
            _case(
                f"injectivity-roundtrip-{label}",
                inj_dev <= 1e-13,
                inj_dev,
                1e-13,
                "the smoothing flow has an exact coefficient-space inverse on "
                "band-limited input",
            )
        )

    series = {
        "monotone-norms": {"columns": ["s", "norm"], "rows": monotone_rows}
    }
    return _finish(config, "structure", cases, series, started)


# ---------------------------------------------------------------- embed

EMBED_PAIR = (0.0, 0.0)


def run_embed(config: SuiteConfig) -> ExperimentReport:
    started = time.perf_counter()
    cases = []
    pr = _single_pair(config, EMBED_PAIR)
    p = config.p
    s = config.s if config.s is not None else 0.3
    q = config.q if config.q is not None else 4.0
    record = admissibility(pr, p, q=q, s=s)
    if record.embedding is not True:
        raise ConfigError(
            f"embedding requires 1/q >= 1/p - s; got p={p}, q={q}, s={s}"
        )
    grid = symmetric_rule(config.quad_order(), pr)
    degree_lo = max(config.trunc // 2, 8)
    degree_hi = config.trunc

    ratio_rows = []
    maxima = []
    for degree in (degree_lo, degree_hi):
        members = random_band_limited(pr, degree, config.ensemble, config.seed)

        def ratio(member, grid=grid):
            num = lp_norm(GridFunction(grid, eval_symm_expansion(member, grid.nodes)), q)
            return num / potential_norm(member, p, s, grid)

        ratios = [ratio(m) for m in members]
        maxima.append(max(ratios))
        if degree == degree_lo:
            ratio_rows = [[i, float(r)] for i, r in enumerate(ratios)]
    ok = math.isfinite(maxima[0]) and maxima[1] <= 1.1 * maxima[0]
    cases.append(
        _case(
            "embedding-ratio-stable",
            ok,
            maxima[1],
            1.1 * maxima[0],
            f"max ratio {maxima[0]:.6g} at degree {degree_lo}, "
            f"{maxima[1]:.6g} at degree {degree_hi}",
        )
    )

    s_sup = s if s > 0.5 else 0.6
    sup_record = admissibility(pr, p, s=s_sup)
    sup_rows = []
    if sup_record.continuity is True:
        sup_maxima = []
        for degree in (degree_lo, degree_hi):
            members = random_band_limited(pr, degree, config.ensemble, config.seed)

            def sup_ratio(member, grid=grid):
                num = lp_norm(
                    GridFunction(grid, eval_symm_expansion(member, grid.nodes)),
                    math.inf,
                )
                return num / potential_norm(member, p, s_sup, grid)

            ratios = [sup_ratio(m) for m in members]
            sup_maxima.append(max(ratios))
            if degree == degree_lo:
                sup_rows = [[i, float(r)] for i, r in enumerate(ratios)]
        sup_ok = math.isfinite(sup_maxima[0]) and sup_maxima[1] <= 1.1 * sup_maxima[0]
        cases.append(
            _case(
                "supnorm-ratio-stable",
                sup_ok,
                sup_maxima[1],
                1.1 * sup_maxima[0],
                f"smoothness {s_sup} above the continuity threshold 1/p",
            )
        )

    series = {
        "embed-ratio": {"columns": ["member", "ratio"], "rows": ratio_rows},
    }
    if sup_rows:
        series["embed-sup"] = {"columns": ["member", "ratio"], "rows": sup_rows}
    return _finish(config, "embed", cases, series, started)


# ---------------------------------------------------------------- noninclusion

NONINCLUSION_OWN = (-0.6, -0.4)
NONINCLUSION_OTHER = (-0.45, -0.35)


def run_noninclusion(config: SuiteConfig) -> ExperimentReport:
    started = time.perf_counter()
    cases = []
    p = config.p
    own = _single_pair(config, NONINCLUSION_OWN)
    other = JacobiParams(*NONINCLUSION_OTHER)
    if own.alpha == other.alpha and own.beta == other.beta:
        raise ConfigError("the two parameter pairs must differ")

    nodes = np.linspace(0.3, math.pi - 0.3, 9)
    series_rows = []
    for first, second, tag in ((own, other, "own-under-other"), (other, own, "other-under-own")):
        weight = lambda t, pr=first: trig_power(pr.alpha, pr.beta, t)
        own_residual = float(
            np.max(np.abs(apply_ladder_down_fd(first, weight, nodes)))
        )
        cases.append(
            _case(
                f"weight-annihilated-{tag}",
                own_residual <= 1e-8,
                own_residual,
                1e-8,
                "each weight is killed by its own lowering operator, so its own "
                "first-order norm is finite",
            )
        )
        cross = cross_parameter_derivative(first, second)
        vals = truncated_lp_powers(lambda t: np.abs(cross(t)), p, 0.05, levels=6)
        growth = flag_divergent_by_growth(vals)
        verdict = flag_divergent_by_exponent(vals)
        cases.append(
            _case(
                f"cross-derivative-diverges-{tag}",
                growth and verdict.divergent,
                verdict.mean_exponent,
                1.5,
                f"minimum refinement ratio {float(np.min(vals[1:] / vals[:-1])):.4g}",
            )
        )
        if not series_rows:
            series_rows = [[j, float(v)] for j, v in enumerate(vals)]
        else:
            for row, v in zip(series_rows, vals):
                row.append(float(v))

    series = {
        "cross-divergence": {
            "columns": ["level", "integral_own_under_other", "integral_other_under_own"],
            "rows": series_rows,
        }
    }
    return _finish(config, "noninclusion", cases, series, started)


# ---------------------------------------------------------------- schrodinger

SCHRODINGER_PAIR = (0.0, 0.0)
SCHRODINGER_DECAY = 3.0


def run_schrodinger(config: SuiteConfig) -> ExperimentReport:
    started = time.perf_counter()
    cases = []
    pr = _single_pair(config, SCHRODINGER_PAIR)
    grid = symmetric_rule(config.quad_order(), pr)
    degree = max(config.trunc // 2, 8)
    members = random_band_limited(
        pr, degree, min(config.ensemble, 8), config.seed, decay=SCHRODINGER_DECAY
    )
    lam = members[0].eigenvalues()
    lam_max = float(lam[-1])
    times = [2.0**-j for j in range(4, 15)]

    tables = symm_eigenfunction_table(degree + 1, pr, grid.nodes)

    def max_error(t):
        worst = 0.0
        bound_ratio = 0.0
        for member in members:
            moved = schrodinger_propagator(member, t)
            diff = moved.coeffs - member.coeffs
            vals = diff @ tables
            err = float(np.max(np.abs(vals)))
            worst = max(worst, err)
            bound = t * lam_max * float(np.sum(np.abs(member.coeffs)))
            bound_ratio = max(bound_ratio, err / bound)
        return worst, bound_ratio

    results = [max_error(t) for t in times]
    errors = [r[0] for r in results]
    worst_bound_ratio = max(r[1] for r in results)
    cases.append(
        _case(
            "linear-error-bound",
            worst_bound_ratio <= 1.0 + 1e-9,
            worst_bound_ratio,
            1.0,
            "max-node error never exceeds t times the top eigenvalue times the "
            "coefficient l1 mass",
        )
    )

    logs_t = np.log2(times)
    logs_e = np.log2(errors)
    slope = float(np.polyfit(logs_t, logs_e, 1)[0])
    cases.append(
        _case(
            "convergence-slope",
            0.9 <= slope <= 1.1,
            slope,
            1.1,
            "log-log slope of the max-node error as t shrinks dyadically",
        )
    )

    tg = uniform_time_grid(16)
    member = members[0]
    phases = np.exp(1j * np.outer(tg.nodes, lam))
    flow = (phases * member.coeffs) @ tables
    mix = mixed_norm(flow.T, grid, tg, 2, 2)
    s_hyp = 1.5 + max(pr.alpha, pr.beta)
    ref = potential_norm(member, 2, s_hyp, grid)
    cases.append(
        _case(
            "mixed-norm-recorded",
            True,
            mix / ref,
            None,
            f"mixed (2,2) norm over one period against the smoothness-{s_hyp:g} "
            "norm; recorded only, no sharpness claim",
        )
    )

    series = {
        "convergence": {
            "columns": ["t", "max_error"],
            "rows": [[float(t), float(e)] for t, e in zip(times, errors)],
        }
    }
    return _finish(config, "schrodinger", cases, series, started)


# ---------------------------------------------------------------- registry

SUITES = {
    "basis": run_basis,
    "eigen": run_eigen,
    "potentials": run_potentials,
    "decomposition": run_decomposition,
    "sobolev": run_sobolev,
    "counterexample": run_counterexample,
    "inclusion": run_inclusion,
    "squarefn": run_squarefn,
    "structure": run_structure,
    "embed": run_embed,
    "noninclusion": run_noninclusion,
    "schrodinger": run_schrodinger,
}


def run_suite(config: SuiteConfig, write: bool = True) -> list:
    """Validate, run the requested suite (or all), write outputs, return reports."""
    validate_config(config)
    names = list(SUITES) if config.suite == "all" else [config.suite]
    reports = []
    for name in names:
        sub = dataclasses.replace(config, suite=name)
        report = SUITES[name](sub)
        if write:
            write_report(report, config.out)
            emit_plots(report, config.out)
        reports.append(report)
    return reports
