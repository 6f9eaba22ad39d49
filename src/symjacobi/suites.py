"""Verification suites for the experiment runner.

Each suite is a pure function from a validated SuiteConfig to an
ExperimentReport; file output lives in the reporting module. Suites never
read each other's results, and a fixed config gives the same report on every
run. What suites of one run_suite call do share are read-only inputs: one
quadrature grid per (pair, quad order) and one ensemble draw per (degree,
count, seed, decay), built on first use and dropped when the call ends.
"""

import dataclasses
import math
import time

import numpy as np

from ._version import __version__
from .basis import (
    SymmExpansion,
    symm_eigenfunction_table,
    symm_eigenvalues,
    synthesize,
)
from .core import (
    GridFunction,
    JacobiParams,
    QuadratureGrid,
    eigenfunction_table,
    eigenvalue,
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
    spectral_base,
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

    def __post_init__(self):
        if not self.pairs:
            self.pairs = default_pairs()
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


def _pairs_given(config: SuiteConfig) -> bool:
    # pairs equal to the built-in sweep count as none given; this also holds
    # for the sub-configs run_suite derives, whose pairs are already filled in
    return config.pairs != default_pairs()


def _embed_exponents(config: SuiteConfig) -> tuple:
    """Smoothness s and target exponent q of the embed suite."""
    s = config.s if config.s is not None else 0.3
    q = config.q if config.q is not None else 4.0
    return s, q


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
    if config.s is not None and not config.s > 0:
        raise ConfigError(f"smoothness s must be positive, got {config.s}")
    if (config.gamma is None) != (config.k is None):
        raise ConfigError("gamma and k must be given together")
    if config.gamma is not None and not 0.0 < config.gamma < config.k:
        raise ConfigError(
            f"square function indices must satisfy 0 < gamma < k; "
            f"got gamma={config.gamma}, k={config.k}"
        )
    if config.m is not None and config.m < 1:
        raise ConfigError(f"derivative order m must be positive, got {config.m}")

    given = _pairs_given(config)
    suites = list(SUITES) if config.suite == "all" else [config.suite]
    for suite in suites:
        # embed and counterexample run one pair: the given one or their own
        pairs = config.pairs
        if suite == "embed":
            pairs = [_single_pair(config, EMBED_PAIR)]
        elif suite == "counterexample":
            pairs = [_single_pair(config, COUNTEREXAMPLE_PAIR)]
        if suite in _ADMISSIBILITY_SUITES:
            for pr in pairs:
                if not pr.contains_p(config.p):
                    lo, hi = pr.admissible_range()
                    raise ConfigError(
                        f"p={config.p} lies outside the open admissible interval "
                        f"({lo:.6g}, {hi:.6g}) for alpha={pr.alpha}, beta={pr.beta}"
                    )
        if suite == "potentials" and given:
            for pr in config.pairs:
                if pr.eigen_shift == 0.0:
                    raise ConfigError(
                        "the plain fractional potential needs a positive bottom "
                        f"eigenvalue: alpha + beta must differ from -1, got "
                        f"alpha={pr.alpha}, beta={pr.beta}"
                    )
        if suite == "counterexample":
            bound = 1.0 / config.p - 0.5
            for pr in pairs:
                if not (pr.alpha < bound and pr.beta < bound):
                    raise ConfigError(
                        "the decay witness needs alpha, beta < 1/p - 1/2 = "
                        f"{bound:.6g}; got alpha={pr.alpha}, beta={pr.beta}"
                    )
        if suite == "noninclusion" and given:
            other = JacobiParams(*NONINCLUSION_OTHER)
            for pr in config.pairs:
                if pr.alpha == other.alpha and pr.beta == other.beta:
                    raise ConfigError(
                        "the two parameter pairs must differ; "
                        f"({pr.alpha}, {pr.beta}) matches the built-in partner"
                    )
        if suite == "embed":
            s, q = _embed_exponents(config)
            if not admissibility(pairs[0], config.p, q=q, s=s).embedding:
                raise ConfigError(
                    f"embedding requires 1/q >= 1/p - s; got p={config.p}, q={q}, s={s}"
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
    if _pairs_given(config):
        return config.pairs[0]
    return JacobiParams(*fallback)


# The grids and draws of the current run_suite call, keyed as in _grid and
# _draw; None outside a call, so a suite run on its own keeps nothing.
_run_inputs: dict | None = None


def _shared(key, build):
    memo = _run_inputs
    if memo is None:
        return build()
    if key not in memo:
        memo[key] = build()
    return memo[key]


def _grid(config: SuiteConfig, pr: JacobiParams) -> QuadratureGrid:
    """The read-only symmetric rule of pr at the config's quadrature order."""
    n = config.quad_order()

    def build():
        grid = symmetric_rule(n, pr)
        for arr in (grid.nodes, grid.weights, grid.half.nodes, grid.half.weights):
            arr.flags.writeable = False
        return grid

    # exact bytes, so -0.0 and 0.0 parameters never share a grid
    pair = np.array([pr.alpha, pr.beta], dtype=float).tobytes()
    return _shared(("grid", n, pair), build)


def _draw(
    pr: JacobiParams, degree: int, count: int, seed: int, decay: float = 1.0
) -> SymmExpansion:
    """The seeded ensemble block over pr, with read-only coeffs.

    The coefficients do not depend on the pair, so every pair of a run
    wraps the same block.
    """

    def build():
        coeffs = random_band_limited(pr, degree, count, seed, decay).coeffs
        coeffs.flags.writeable = False
        return coeffs

    return SymmExpansion(pr, _shared(("draw", degree, count, seed, decay), build))


def _degree_doubling(config: SuiteConfig, pr: JacobiParams, norm_a, norm_b) -> list:
    """Ratio statistics of norm_a / norm_b as the ensemble degree doubles.

    The equivalence-window protocol the suites share: the seeded ensemble is
    taken at degree max(trunc // 2, 8), then at degree trunc, and a suite
    asks that the window (at most 50) or the largest ratio grows by at most
    10 % between the two. The norms map a block to one norm per member. The
    block is drawn once at the top degree; the lower degree is its column
    prefix, which is exactly the lower-degree draw. Returns (degree,
    RatioStats) for each degree.
    """
    degrees = (max(config.trunc // 2, 8), config.trunc)
    block = _draw(pr, max(degrees), config.ensemble, config.seed)
    out = []
    for degree in degrees:
        members = SymmExpansion(pr, block.coeffs[:, : degree + 1])
        out.append((degree, equivalence_ratio(norm_a(members), norm_b(members))))
    return out


# ---------------------------------------------------------------- basis


def run_basis(config: SuiteConfig) -> ExperimentReport:
    started = time.perf_counter()
    cases, series_rows = [], []
    n_top = min(config.trunc, 40)
    for pr in config.pairs:
        grid = _grid(config, pr)
        half = grid.half
        table = eigenfunction_table(n_top, pr, half.nodes)
        gram = (table * half.weights) @ table.T
        half_dev = float(np.max(np.abs(gram - np.eye(n_top + 1))))

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
        table = symm_eigenfunction_table(17, pr, theta)
        dev = 0.0
        for n in range(1, 9):
            half_vals = table[2 * n] * math.sqrt(2.0)
            dev = max(dev, float(np.max(np.abs(half_vals - math.sqrt(2 / math.pi) * np.cos(n * np.abs(theta))))))
        for n in range(0, 8):
            odd_vals = table[2 * n + 1]
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
    units = np.eye(n_top + 1)
    diag = np.arange(n_top + 1)
    for pr in config.pairs:
        # row n is -D^2 + A^2 applied to unit vector n
        out = -dunkl_derivative(dunkl_derivative(SymmExpansion(pr, units))).coeffs
        out[:, : n_top + 1] += pr.eigen_shift**2 * units
        lam = symm_eigenvalues(n_top + 1, pr)
        # absolute residual at a zero bottom eigenvalue, relative otherwise
        rel = np.abs(out[diag, diag] - lam) / np.where(lam > 0.0, lam, 1.0)
        worst = float(np.max(rel))
        np.maximum(per_n, rel, out=per_n)
        out[diag, diag] = 0.0
        pattern_ok = not np.any(out != 0.0)
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
        ladder = LadderCoefficients(pr).table(21)
        # rows of one top-height table per angle set, so the table cache
        # serves every n after the first
        degrees = (1, 5, 10, 20)
        top = max(degrees)
        for n in degrees:
            def f(t, n=n, pr=pr):
                return eigenfunction_table(top, pr, t)[n]

            fd_vals = apply_ladder_down_fd(pr, f, nodes)
            target = -ladder[n] * eigenfunction_table(top - 1, pr.shift(1), nodes)[n - 1]
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
        grid = _grid(config, pr)
        members = _draw(pr, config.trunc // 2, config.ensemble, config.seed)
        smoothed = riesz_potential(members, sigma)
        ratios = lp_norm(synthesize(smoothed, grid), q) / lp_norm(
            synthesize(members, grid), config.p
        )
        window = np.max(ratios) / np.min(ratios)
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


def _parity_split_norm(e: SymmExpansion, p: float, s: float, grid) -> np.ndarray:
    even = e.coeffs.copy()
    even[..., 1::2] = 0.0
    odd = e.coeffs.copy()
    odd[..., 0::2] = 0.0
    a = potential_norm(SymmExpansion(e.params, even), p, s, grid)
    b = potential_norm(SymmExpansion(e.params, odd), p, s, grid)
    if p == 2:
        return np.sqrt(a**2 + b**2)
    return a + b


def run_decomposition(config: SuiteConfig) -> ExperimentReport:
    started = time.perf_counter()
    cases = []
    s = config.s if config.s is not None else 0.7
    ratio_rows = []
    window_rows = []
    degree_lo = max(config.trunc // 2, 8)

    for pr in config.pairs:
        label = _pair_label(pr)
        grid = _grid(config, pr)
        members = _draw(pr, degree_lo, config.ensemble, config.seed)
        ratios = potential_norm(members, 2, s, grid) / _parity_split_norm(members, 2, s, grid)
        dev = float(np.max(np.abs(ratios - 1.0)))
        cases.append(_case(f"parity-ratio-p2-{label}", dev <= 1e-9, dev, 1e-9))
        if not ratio_rows:
            ratio_rows = [[i, float(r)] for i, r in enumerate(ratios)]

        if pr.contains_p(3.0):
            (lo, at_lo), (hi, at_hi) = _degree_doubling(
                config,
                pr,
                lambda e: potential_norm(e, 3.0, s, grid),
                lambda e: _parity_split_norm(e, 3.0, s, grid),
            )
            ok = at_lo.window <= 50.0 and at_hi.window <= 1.1 * at_lo.window
            cases.append(
                _case(
                    f"parity-window-p3-{label}",
                    ok,
                    at_hi.window,
                    50.0,
                    f"window {at_lo.window:.6g} at degree {lo}, "
                    f"{at_hi.window:.6g} at degree {hi}",
                )
            )
            window_rows.append([label, at_lo.window, at_hi.window])

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

    for pr in config.pairs:
        label = _pair_label(pr)
        grid = _grid(config, pr)
        for m in orders:
            (_, at_lo), (_, at_hi) = _degree_doubling(
                config,
                pr,
                lambda e: sobolev_norm(e, config.p, m, grid),
                lambda e: potential_norm(e, config.p, float(m), grid),
            )
            ok = (
                at_lo.window <= 50.0
                and at_hi.window <= 1.1 * at_lo.window
                and at_hi.maximum <= 1.1 * at_lo.maximum
            )
            cases.append(
                _case(
                    f"sobolev-window-m{m}-{label}",
                    ok,
                    at_hi.window,
                    50.0,
                    f"window {at_lo.window:.6g} -> {at_hi.window:.6g}, "
                    f"max ratio {at_lo.maximum:.6g} -> {at_hi.maximum:.6g} as the degree doubles",
                )
            )
            window_rows.append([label, m, at_lo.window, at_hi.window])

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
        # row n of each block is the transform of unit vector n, one column
        units = SymmExpansion(pr, np.eye(n_top + 1))
        for k in orders:
            norms = np.linalg.norm(riesz_transform(units, k).coeffs, axis=-1)
            top = float(np.max(norms))
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
                column_rows = [[n, float(c)] for n, c in enumerate(norms)]

            dev, dod = riesz_transform_shifted(units, k)
            shifted = np.sqrt(np.sum(dev.coeffs**2, axis=-1) + np.sum(dod.coeffs**2, axis=-1))
            stop = float(np.max(shifted))
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
        grid = _grid(config, pr)
        # zero modes carry no flow, so only the live unit vectors are measured
        lam = symm_eigenvalues(n_top + 1, pr)
        live = np.flatnonzero(lam > 0.0)
        units = SymmExpansion(pr, np.eye(n_top + 1)[live])
        for gamma, k in index_set:
            spec = SquareFunctionSpec(gamma, int(k))
            expected = l2_equivalence_constant(gamma, int(k))
            vals = GridFunction(grid, square_function(units, spec, grid.nodes))
            measured = lp_norm(vals, 2) / lam[live] ** (gamma / 2)
            worst = float(np.max(np.abs(measured - expected), initial=0.0))
            if (gamma, k) == index_set[0] and pr is config.pairs[0]:
                constant_rows = [[int(n), float(m)] for n, m in zip(live, measured)]
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
        members = _draw(pr, config.trunc // 2, config.ensemble, config.seed)
        sq = GridFunction(grid, square_function(members, spec, grid.nodes))
        lam = members.eigenvalues()
        alive = lam > 0
        weighted = np.abs(members.coeffs[:, alive]) ** 2 * lam[alive] ** gamma
        smooth = np.sqrt(np.sum(weighted, axis=-1))
        ratios = lp_norm(sq, 2) / smooth
        expected = l2_equivalence_constant(gamma, int(k))
        dev = float(np.max(np.abs(ratios - expected)))
        cases.append(
            _case(f"p2-ratio-constant-{label}", dev <= 1e-9, dev, 1e-9)
        )

        if pr.contains_p(q_alt):
            alt = lp_norm(sq, q_alt) / potential_norm(members, q_alt, gamma, grid)
            window = float(np.max(alt) / np.min(alt))
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
    flat_table = symm_eigenfunction_table(5, flat, theta_line)
    worst = 0.0
    for n in (0, 1, 4):
        e = _unit(flat, n, 5)
        lam = symm_eigenvalues(5, flat)[n]
        vals = square_function(e, mod_spec, theta_line)
        target = eigenmode_constant(mod_spec, lam) * np.abs(flat_table[n])
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
        grid = _grid(config, pr)
        members = _draw(pr, config.trunc // 2, min(config.ensemble, 12), config.seed)
        const = (2 * math.pi) ** (1.0 / config.p - 1.0 / q)
        f = synthesize(members, grid)
        worst = float(np.max(lp_norm(f, config.p) - const * lp_norm(f, q)))
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
            s_values = (0.5, 1.0, 1.5, 2.0)
            # row j holds the norms of the first six members at s_values[j]
            norms = np.array([potential_norm(members[:6], 2, s, grid) for s in s_values])
            drops = max(0.0, float(np.max(norms[:-1] - norms[1:])))
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
                monotone_rows = [[s, float(n)] for s, n in zip(s_values, norms[:, 0])]

        rng = np.random.default_rng([config.seed, 5])
        e = SymmExpansion(pr, rng.uniform(-1, 1, 13))
        potential = riesz_potential if pr.eigen_shift != 0.0 else bessel_potential
        twice = potential(potential(e, 0.3), 0.5)
        once = potential(e, 0.8)
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

        sigma = 0.6
        forward = potential(e, sigma)
        back = SymmExpansion(pr, forward.coeffs * spectral_base(pr, e.eigenvalues()) ** sigma)
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
    s, q = _embed_exponents(config)
    grid = _grid(config, pr)
    (lo, at_lo), (hi, at_hi) = _degree_doubling(
        config,
        pr,
        lambda e: lp_norm(synthesize(e, grid), q),
        lambda e: potential_norm(e, p, s, grid),
    )
    ratio_rows = [[i, r] for i, r in enumerate(at_lo.ratios)]
    ok = math.isfinite(at_lo.maximum) and at_hi.maximum <= 1.1 * at_lo.maximum
    cases.append(
        _case(
            "embedding-ratio-stable",
            ok,
            at_hi.maximum,
            1.1 * at_lo.maximum,
            f"max ratio {at_lo.maximum:.6g} at degree {lo}, "
            f"{at_hi.maximum:.6g} at degree {hi}",
        )
    )

    s_sup = s if s > 0.5 else 0.6
    sup_record = admissibility(pr, p, s=s_sup)
    sup_rows = []
    if sup_record.continuity is True:
        (_, sup_lo), (_, sup_hi) = _degree_doubling(
            config,
            pr,
            lambda e: lp_norm(synthesize(e, grid), math.inf),
            lambda e: potential_norm(e, p, s_sup, grid),
        )
        sup_rows = [[i, r] for i, r in enumerate(sup_lo.ratios)]
        sup_ok = math.isfinite(sup_lo.maximum) and sup_hi.maximum <= 1.1 * sup_lo.maximum
        cases.append(
            _case(
                "supnorm-ratio-stable",
                sup_ok,
                sup_hi.maximum,
                1.1 * sup_lo.maximum,
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
    grid = _grid(config, pr)
    degree = max(config.trunc // 2, 8)
    members = _draw(pr, degree, min(config.ensemble, 8), config.seed, decay=SCHRODINGER_DECAY)
    lam = members.eigenvalues()
    lam_max = float(lam[-1])
    times = [2.0**-j for j in range(4, 15)]

    tables = symm_eigenfunction_table(degree + 1, pr, grid.nodes)
    mass = np.sum(np.abs(members.coeffs), axis=-1)

    def max_error(t):
        diff = schrodinger_propagator(members, t).coeffs - members.coeffs
        err = np.max(np.abs(diff @ tables), axis=-1)
        return float(np.max(err)), float(np.max(err / (t * lam_max * mass)))

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
    """Validate, run the requested suite (or all), write outputs, return reports.

    The suites of one call share its grids and ensemble draws; they are
    dropped when the call ends, also when it raises.
    """
    global _run_inputs
    validate_config(config)
    names = list(SUITES) if config.suite == "all" else [config.suite]
    reports = []
    _run_inputs = {}
    try:
        for name in names:
            sub = dataclasses.replace(config, suite=name)
            report = SUITES[name](sub)
            if write:
                write_report(report, config.out)
                emit_plots(report, config.out)
            reports.append(report)
    finally:
        _run_inputs = None
    return reports
