"""The three benchmark workloads: their inputs, timed steps and checks.

Every check compares a program output with a value this file computes on
its own (closed forms, recomputed eigenvalues, scipy's Jacobi polynomials)
or with a property the method must have. None of the checks calls
symjacobi, so a traced run counts only the workload's own calls.

Library calls go through module attributes (`basis.synthesize`, not a name
imported into this file), so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import shutil
import statistics
from time import perf_counter

import numpy as np
from scipy.special import eval_jacobi

from symjacobi import basis, cli, core, norms, squarefn
from symjacobi.errors import GridError

TOL = 1e-10

# ---------------------------------------------------------------- shared


def symm_eigenvalues(n_coeffs: int, alpha: float, beta: float) -> np.ndarray:
    """(floor((n+1)/2) + (alpha+beta+1)/2)^2 for symmetrized indices 0..n_coeffs-1."""
    idx = (np.arange(n_coeffs) + 1) // 2
    return (idx + 0.5 * (alpha + beta + 1.0)) ** 2


def p90(values) -> float:
    """The 90th percentile, interpolated between samples (never beyond them)."""
    if len(values) < 2:
        return float(values[0])
    return float(statistics.quantiles(values, n=10, method="inclusive")[-1])


def failed_checks(errors: dict, tol: float = TOL) -> list:
    """Names of the checks whose error exceeds tol; NaN counts as failed."""
    return [name for name, err in errors.items() if not err <= tol]


def run_rounds(seconds: float, round_fn, first: int = 0) -> int:
    """Run whole rounds round_fn(r) for about `seconds` of wall time.

    A round starts while the elapsed time plus half the median round time
    so far stays within the budget, so a run never stops mid-round and
    overshoots by at most about half a round. Returns the rounds run.
    """
    start = perf_counter()
    durations = []
    r = first
    while True:
        t0 = perf_counter()
        round_fn(r)
        durations.append(perf_counter() - t0)
        r += 1
        if perf_counter() - start + 0.5 * statistics.median(durations) > seconds:
            return r - first


class Tally:
    """Timings and pass/fail counts of the recorded part of one run."""

    def __init__(self):
        self.unit_s: list[float] = []
        self.round_s: list[float] = []
        self.timed_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def end_to_end(self) -> dict:
        return {
            "pass_s": {"value": statistics.median(self.round_s), "unit": "s"},
            "ok_units_per_s": {"value": (self.attempted - self.failed) / self.timed_s, "unit": "1/s"},
            "unit_p50_ms": {"value": 1e3 * statistics.median(self.unit_s), "unit": "ms"},
            "unit_p90_ms": {"value": 1e3 * p90(self.unit_s), "unit": "ms"},
        }


def run_workload(workload, seconds: float, tracer_factory=None):
    """Warm up, then run whole rounds for `seconds`, or the traced protocol.

    Untraced: rounds 1, 2, ... run and are recorded until the time is up.
    Traced: a fixed number of rounds runs untraced and as many new rounds
    run under the tracer, set-up included, so the per-layer counts repeat
    exactly; only the traced half is recorded. Returns the tally and, for a
    traced run, (tracer, untraced seconds, traced seconds).
    """
    tally = Tally()
    state = workload.setup()
    workload.warm(state)
    if tracer_factory is None:
        run_rounds(seconds, lambda r: workload.round(state, r, tally), first=1)
        return tally, None
    n = workload.trace_rounds
    t0 = perf_counter()
    state = workload.setup()
    untraced = perf_counter() - t0
    untraced += sum(workload.round(state, r, None) for r in range(1, n + 1))
    with tracer_factory() as tracer:
        t0 = perf_counter()
        state = workload.setup()
        traced = perf_counter() - t0
        traced += sum(workload.round(state, r, tally) for r in range(n + 1, 2 * n + 1))
    return tally, (tracer, untraced, traced)


# ---------------------------------------------------------------- verif-all

# `verif all --trunc 128` with the default pairs, ensemble 50 and seed 1729.
VERIF_ARGS = ["all", "--trunc", "128"]
VERIF_CASES = 181
# the squarefn suite writes its eigen-constant series for the first index pair
EIGEN_CONSTANT_INDEX = (0.5, 1)
EIGEN_CONSTANT_TOL = 1e-9


def verif_pass(out_dir: str, args=VERIF_ARGS) -> tuple[int, float]:
    """One in-process CLI run into a fresh directory: (exit code, seconds)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    sink = io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(sink):
        code = cli.main(list(args) + ["--out", out_dir])
    return code, perf_counter() - t0


def _csv_rows(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_verif_outputs(out_dir: str, code: int, expected_cases: int = VERIF_CASES):
    """Problems in one CLI run's outputs, its passing case count and seconds per suite."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    cases = ok = 0
    suite_s = {}
    names = sorted(f for f in os.listdir(out_dir) if f.endswith("-report.json"))
    for name in names:
        with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
            report = json.load(fh)
        cases += len(report["cases"])
        for case in report["cases"]:
            if case["passed"]:
                ok += 1
            else:
                problems.append(f"{report['suite']}: case {case['name']} failed")
        suite_s[report["suite"]] = float(report["wall_clock_s"])
    if cases != expected_cases:
        problems.append(f"{cases} report cases, expected {expected_cases}")

    gamma, k = EIGEN_CONSTANT_INDEX
    target = 2.0 ** (gamma - k) * math.exp(0.5 * math.lgamma(2.0 * (k - gamma)))
    rows = _csv_rows(os.path.join(out_dir, "squarefn-eigen-constant.csv"))
    if not rows:
        problems.append("squarefn eigen-constant series is empty")
    for row in rows:
        err = abs(float(row["measured_ratio"]) - target)
        if not err <= EIGEN_CONSTANT_TOL:
            problems.append(f"eigen constant at n={row['n']} is off by {err:.3g}")

    # read from the report: the CSV sidecar splits the "(a,b)" pair label
    with open(os.path.join(out_dir, "basis-report.json"), encoding="utf-8") as fh:
        series = json.load(fh)["series"]["gram-deviation"]
    if not series["rows"]:
        problems.append("basis gram-deviation series is empty")
    for row in series["rows"]:
        record = dict(zip(series["columns"], row))
        for col in ("halfline_dev", "symmetric_dev"):
            if not float(record[col]) <= TOL:
                problems.append(f"basis {col} {record[col]} at {record['pair']} exceeds {TOL:g}")
    return problems, ok, suite_s


class VerifAll:
    """Whole `verif all --trunc 128` passes, in process through cli.main.

    One report case is one operation; one pass is both a round and the timed
    unit, because suite times (0.002 s to 6 s) are too uneven to give a
    steady median. The inputs are the CLI defaults, so the seed does not
    change them.
    """

    trace_rounds = 1

    def __init__(self, seed: int, out_dir: str):
        self.out_dir = out_dir
        self.suite_s = []

    def setup(self):
        return None

    def warm(self, _state):
        warm_dir = self.out_dir + "-warm"
        verif_pass(warm_dir, ["all", "--trunc", "8", "--ensemble", "4"])
        shutil.rmtree(warm_dir, ignore_errors=True)

    def round(self, _state, _r, tally):
        code, dt = verif_pass(self.out_dir)
        problems, ok, suite_s = check_verif_outputs(self.out_dir, code)
        if tally is not None:
            self.suite_s.append(suite_s)
            tally.round_s.append(dt)
            tally.timed_s += dt
            tally.unit_s.append(dt)
            tally.attempted += VERIF_CASES
            tally.failed += VERIF_CASES - ok
            tally.problems += problems
        return dt

    def details(self):
        return {"suite_s": self.suite_s}


# ---------------------------------------------------------------- ensemble-norms

ENSEMBLE_DEGREE = 256
ENSEMBLE_PAIRS = ((0.3, 0.7), (-0.5, -0.5))
SMOOTHNESS = 1.0
SOBOLEV_ORDER = 2
SQUARE_INDEX = (0.5, 1)
ENSEMBLE_STEPS = ("synthesis_l2", "potential_p2", "sobolev_m2", "square_function_l2", "potential_p3")


def ensemble_rule(pair, degree: int = ENSEMBLE_DEGREE):
    """The CLI-default symmetric rule for this degree (order 2*degree + 16)."""
    return core.symmetric_rule(2 * degree + 16, core.JacobiParams(*pair))


def ensemble_member(pair, degree: int, seed: int, index: int):
    """Member `index` of a seeded random_band_limited ensemble."""
    return norms.random_band_limited(core.JacobiParams(*pair), degree, 1, seed * 1_000_003 + index)[0]


def ensemble_unit(e, grid) -> tuple[dict, np.ndarray]:
    """One member through the five steps: (results by step, seconds per step)."""
    spec = squarefn.SquareFunctionSpec(*SQUARE_INDEX)
    out = {}
    t = [perf_counter()]
    out["synthesis_l2"] = norms.lp_norm(basis.synthesize(e, grid), 2.0)
    t.append(perf_counter())
    out["potential_p2"] = norms.potential_norm(e, 2.0, SMOOTHNESS, grid)
    t.append(perf_counter())
    out["sobolev_m2"] = norms.sobolev_norm(e, 2.0, SOBOLEV_ORDER, grid)
    t.append(perf_counter())
    values = squarefn.square_function(e, spec, grid.nodes)
    out["square_function_l2"] = norms.lp_norm(core.GridFunction(grid, values), 2.0)
    t.append(perf_counter())
    out["potential_p3"] = norms.potential_norm(e, 3.0, SMOOTHNESS, grid)
    t.append(perf_counter())
    return out, np.diff(t)


def sobolev_p2(coeffs: np.ndarray, alpha: float, beta: float, order: int) -> float:
    """Coefficient-space value of the order-m Sobolev norm at p = 2.

    Slot 2j holds half-line index j of (alpha, beta), slot 2j+1 index j of
    the unit-shifted pair. Each derivative order i lowers the index and
    advances the pair, multiplying the squared coefficient by the
    eigenvalue gap (j + A)^2 - (i + A)^2, where A is the pair's shift.
    """
    j = np.arange(coeffs.size) // 2
    shift = 0.5 * (alpha + beta + 1.0) + np.arange(coeffs.size) % 2
    total = 0.0
    for k in range(order + 1):
        factor = np.ones(coeffs.size)
        for i in range(k):
            factor *= (j + shift) ** 2 - (i + shift) ** 2
        total += math.sqrt(float(np.sum(factor * coeffs**2)))
    return total


def ensemble_errors(coeffs, alpha: float, beta: float, weights, out: dict) -> dict:
    """Relative error of each p = 2 result against its coefficient-space form.

    The p = 3 entry is the relative distance by which the value falls
    outside its Hoelder/interpolation interval, 0 when inside.
    """
    c = np.asarray(coeffs, dtype=float)
    w = np.asarray(weights, dtype=float)
    lam = symm_eigenvalues(c.size, alpha, beta)
    zero_bottom = alpha + beta + 1.0 == 0.0
    rho = (1.0 + lam if zero_bottom else lam) ** (SMOOTHNESS / 2.0)
    pot2 = math.sqrt(float(np.sum((c * rho) ** 2)))
    gamma, k = SQUARE_INDEX
    constant = 2.0 ** (gamma - k) * math.exp(0.5 * math.lgamma(2.0 * (k - gamma)))
    refs = {
        "synthesis_l2": math.sqrt(float(np.sum(c**2))),
        "potential_p2": pot2,
        "sobolev_m2": sobolev_p2(c, alpha, beta, SOBOLEV_ORDER),
        # the L2 ratio to the smoothness norm is the closed-form constant
        "square_function_l2": constant * math.sqrt(float(np.sum(lam**gamma * c**2))),
    }
    errors = {step: abs(out[step] - ref) / ref for step, ref in refs.items()}
    # p = 3 against the exact p = 2 value of the same potential g on the same
    # grid: Hoelder gives |g|_2 <= |g|_3 (sum w)^(1/6); |g_i|^2 w_i <= |g|_2^2
    # bounds |g|_inf, and |g|_3^3 <= |g|_inf |g|_2^2 then gives the upper side.
    p3 = out["potential_p3"]
    lower = pot2 * float(np.sum(w)) ** (-1.0 / 6.0)
    upper = pot2 * float(np.min(w)) ** (-1.0 / 6.0)
    errors["potential_p3"] = max(0.0, (lower - p3) / lower, (p3 - upper) / upper)
    return errors


class EnsembleNorms:
    """Members of two seeded ensembles on fixed grids; a round is one member per pair."""

    trace_rounds = 40

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.step_s = {step: [] for step in ENSEMBLE_STEPS}
        self.worst = {step: 0.0 for step in ENSEMBLE_STEPS}

    def setup(self):
        return [ensemble_rule(pair) for pair in ENSEMBLE_PAIRS]

    def warm(self, grids):
        self.round(grids, 0, None)

    def round(self, grids, r, tally):
        round_s = 0.0
        for pair, grid in zip(ENSEMBLE_PAIRS, grids):
            t0 = perf_counter()
            e = ensemble_member(pair, ENSEMBLE_DEGREE, self.seed, r)
            gen_s = perf_counter() - t0
            out, steps = ensemble_unit(e, grid)
            errors = ensemble_errors(e.coeffs, *pair, grid.weights, out)
            bad = failed_checks(errors)
            unit_s = float(np.sum(steps))
            round_s += gen_s + unit_s
            if tally is None:
                continue
            tally.attempted += 1
            tally.unit_s.append(unit_s)
            tally.timed_s += unit_s
            for step, dt in zip(ENSEMBLE_STEPS, steps):
                self.step_s[step].append(dt)
                self.worst[step] = max(self.worst[step], errors[step])
            if bad:
                tally.failed += 1
                tally.problems += [f"member {r} of {pair}: {s} off by {errors[s]:.3g}" for s in bad]
        if tally is not None:
            tally.round_s.append(round_s)
        return round_s

    def details(self):
        return {
            "step_ms_p50": {s: 1e3 * statistics.median(v) for s, v in self.step_s.items() if v},
            "worst_relative_error": self.worst,
        }


# ---------------------------------------------------------------- fresh-params

# Narrow pairs pass on every seed probed (worst Gram deviation 2.7e-12 at
# degree 512); toward -1 or 3 the deviation nears 1e-10 and a seed could fail.
NARROW = (-0.9, 2.5)
WIDE = (8.0, 40.0)
# One round: a fixed degree ladder, so every round (and every seed) does the
# same work. "w" units take one parameter from WIDE; at degree 320 and up
# every probed wide pair misses the Gram tolerance at least twentyfold, so
# they fail on every run. Thirteen units, odd on purpose: the median and
# 90th percentile of unit times then fall inside one degree's samples
# instead of on the gap between two degrees.
FRESH_ROUND = (
    (16, "n"), (320, "w"), (32, "n"), (48, "n"), (64, "n"), (416, "w"), (96, "n"),
    (128, "n"), (160, "n"), (512, "w"), (192, "n"), (256, "n"), (512, "n"),
)
REF_ANGLES = np.linspace(0.05, math.pi - 0.05, 16)
FRESH_STEPS = ("rule", "gram", "round_trip", "table")
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_SILVER = math.sqrt(2.0) - 1.0


def narrow_unit_inputs(seed: int, index: int, degree: int):
    """Seeded pair in NARROW x NARROW and seeded coefficients."""
    rng = np.random.default_rng([seed, index])
    lo, hi = NARROW
    alpha, beta = hi - (hi - lo) * rng.random(2)
    coeffs = rng.uniform(-1.0, 1.0, degree + 1) / (1.0 + np.arange(degree + 1))
    return float(alpha), float(beta), coeffs


def wide_unit_inputs(u: int, degree: int):
    """The u-th wide unit: fixed inputs that do not depend on the run's seed.

    One parameter walks WIDE and the other NARROW by irrational rotations,
    so no pair repeats; even u puts the wide value on alpha, odd u on beta.
    """
    lo, hi = WIDE
    big = lo + (hi - lo) * math.modf(0.5 + u * _GOLDEN)[0]
    other = NARROW[1] - (NARROW[1] - NARROW[0]) * math.modf(0.25 + u * _SILVER)[0]
    alpha, beta = (big, other) if u % 2 == 0 else (other, big)
    rng = np.random.default_rng([0x5749444, u])
    coeffs = rng.uniform(-1.0, 1.0, degree + 1) / (1.0 + np.arange(degree + 1))
    return alpha, beta, coeffs


def fresh_unit(alpha: float, beta: float, degree: int, coeffs) -> tuple[dict, np.ndarray]:
    """Rule, Gram matrix, analyze/synthesize round trip and a table at REF_ANGLES."""
    pr = core.JacobiParams(alpha, beta)
    t = [perf_counter()]
    grid = core.symmetric_rule(2 * degree + 16, pr)
    t.append(perf_counter())
    table = basis.symm_eigenfunction_table(degree + 1, pr, grid.nodes)
    gram = (table * grid.weights) @ table.T
    t.append(perf_counter())
    e = basis.SymmExpansion(pr, coeffs)
    back = basis.analyze(basis.synthesize(e, grid), pr, degree + 1).coeffs
    t.append(perf_counter())
    values = core.eigenfunction_table(degree, pr, REF_ANGLES)
    t.append(perf_counter())
    return {"gram": gram, "back": back, "table": values}, np.diff(t)


def reference_table(degree: int, alpha: float, beta: float, theta) -> np.ndarray:
    """Normalized half-line eigenfunctions from scipy's eval_jacobi and lgamma."""
    theta = np.asarray(theta, dtype=float)
    s = alpha + beta + 1.0
    ln2 = math.log(2.0)
    ln_h = [s * ln2 + math.lgamma(alpha + 1) + math.lgamma(beta + 1) - math.lgamma(s + 1)]
    ln_h += [
        s * ln2
        + math.lgamma(n + alpha + 1)
        + math.lgamma(n + beta + 1)
        - math.log(2 * n + s)
        - math.lgamma(n + s)
        - math.lgamma(n + 1)
        for n in range(1, degree + 1)
    ]
    const = np.exp(0.5 * s * ln2 - 0.5 * np.asarray(ln_h))
    weight = np.sin(theta / 2) ** (alpha + 0.5) * np.cos(theta / 2) ** (beta + 0.5)
    poly = eval_jacobi(np.arange(degree + 1)[:, None], alpha, beta, np.cos(theta)[None, :])
    return const[:, None] * weight[None, :] * poly


def check_fresh_unit(alpha: float, beta: float, degree: int, coeffs, out: dict) -> dict:
    """Deviation of each check: Gram identity, round trip, scipy reference."""
    with np.errstate(all="ignore"):
        gram = np.max(np.abs(out["gram"] - np.eye(degree + 1)))
        round_trip = np.max(np.abs(out["back"] - coeffs))
        ref = reference_table(degree, alpha, beta, REF_ANGLES)
        reference = np.max(np.abs(out["table"] - ref)) / max(1.0, float(np.max(np.abs(ref))))
    return {"gram": float(gram), "round_trip": float(round_trip), "reference": float(reference)}


class FreshParams:
    """Units whose pair and degree no earlier unit used; nothing is reused.

    Unit i of round r is the (r * len(FRESH_ROUND) + i)-th unit of the run.
    Narrow units draw from the seed; wide units are the fixed sequence of
    wide_unit_inputs and fail today on the quadrature weights. A failed
    wide unit counts in `failed`; any other failure is a problem.
    """

    trace_rounds = 12

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.step_s = {step: [] for step in FRESH_STEPS}
        self.narrow_gram = 0.0
        self.wide_failed = {}

    def setup(self):
        return None

    def warm(self, state):
        self.round(state, 0, None)

    def round(self, _state, r, tally):
        round_s = 0.0
        n_wide = sum(kind == "w" for _, kind in FRESH_ROUND)
        wide = r * n_wide
        for i, (degree, kind) in enumerate(FRESH_ROUND):
            if kind == "w":
                alpha, beta, coeffs = wide_unit_inputs(wide, degree)
                wide += 1
            else:
                alpha, beta, coeffs = narrow_unit_inputs(self.seed, r * len(FRESH_ROUND) + i, degree)
            label = f"({alpha!r}, {beta!r}) degree {degree}"
            t0 = perf_counter()
            try:
                out, steps = fresh_unit(alpha, beta, degree, coeffs)
                unit_s = float(np.sum(steps))
                devs = check_fresh_unit(alpha, beta, degree, coeffs, out)
            except GridError as exc:
                # the rule builder rejects its own weights: the unit fails
                steps = None
                unit_s = perf_counter() - t0
                devs = {"rule": math.inf}
                label += f" ({exc})"
            round_s += unit_s
            if tally is not None:
                self._record(tally, kind, label, devs, unit_s, steps)
        if tally is not None:
            tally.round_s.append(round_s)
        return round_s

    def _record(self, tally, kind, label, devs, unit_s, steps):
        bad = failed_checks(devs)
        tally.attempted += 1
        tally.unit_s.append(unit_s)
        tally.timed_s += unit_s
        if steps is not None:
            for step, dt in zip(FRESH_STEPS, steps):
                self.step_s[step].append(dt)
        if kind == "n" and "gram" in devs:
            self.narrow_gram = max(self.narrow_gram, devs["gram"])
        if not bad:
            return
        tally.failed += 1
        if kind == "n":
            tally.problems.append(f"narrow unit {label} failed {bad}")
        elif "reference" in bad:
            tally.problems.append(f"wide unit {label} failed the scipy reference")
        else:
            self.wide_failed[bad[0]] = self.wide_failed.get(bad[0], 0) + 1

    def details(self):
        return {
            "step_ms_p50": {s: 1e3 * statistics.median(v) for s, v in self.step_s.items() if v},
            "narrow_worst_gram_dev": self.narrow_gram,
            "wide_units_failed_by_first_check": self.wide_failed,
        }


WORKLOADS = {
    "verif-all": VerifAll,
    "ensemble-norms": EnsembleNorms,
    "fresh-params": FreshParams,
}
