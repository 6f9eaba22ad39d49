"""Each workload's checks accept a correct result and reject a corrupted one."""

import dataclasses
import json

import numpy as np
import pytest

import workloads as w
from symjacobi import cli, core

SMALL = 16


@pytest.mark.parametrize("pair", w.ENSEMBLE_PAIRS)
def test_ensemble_checks_accept_correct_results(pair):
    grid = w.ensemble_rule(pair, SMALL)
    e = w.ensemble_member(pair, SMALL, seed=3, index=1)
    out, steps = w.ensemble_unit(e, grid)
    assert w.failed_checks(w.ensemble_errors(e.coeffs, *pair, grid.weights, out)) == []
    assert len(steps) == len(w.ENSEMBLE_STEPS)


@pytest.mark.parametrize("pair", w.ENSEMBLE_PAIRS)
def test_ensemble_checks_reject_one_perturbed_coefficient(pair):
    grid = w.ensemble_rule(pair, SMALL)
    e = w.ensemble_member(pair, SMALL, seed=3, index=1)
    coeffs = e.coeffs.copy()
    coeffs[5] += 1e-6
    out, _ = w.ensemble_unit(dataclasses.replace(e, coeffs=coeffs), grid)
    bad = w.failed_checks(w.ensemble_errors(e.coeffs, *pair, grid.weights, out))
    assert {"synthesis_l2", "potential_p2", "sobolev_m2"} <= set(bad)


@pytest.mark.parametrize("step", w.ENSEMBLE_STEPS)
def test_ensemble_checks_reject_each_corrupted_result(step):
    pair = w.ENSEMBLE_PAIRS[0]
    grid = w.ensemble_rule(pair, SMALL)
    e = w.ensemble_member(pair, SMALL, seed=3, index=1)
    out, _ = w.ensemble_unit(e, grid)
    # the p = 3 value is checked by inequalities, so it needs a coarse error
    out[step] *= 100.0 if step == "potential_p3" else 1.0 + 1e-8
    assert w.failed_checks(w.ensemble_errors(e.coeffs, *pair, grid.weights, out)) == [step]


def test_fresh_checks_accept_a_narrow_unit():
    alpha, beta, coeffs = w.narrow_unit_inputs(seed=5, index=0, degree=SMALL)
    out, _ = w.fresh_unit(alpha, beta, SMALL, coeffs)
    devs = w.check_fresh_unit(alpha, beta, SMALL, coeffs, out)
    assert w.failed_checks(devs) == []


def test_fresh_checks_reject_one_wrong_weight(monkeypatch):
    original = core.symmetric_rule

    def one_wrong_weight(n, params):
        grid = original(n, params)
        weights = grid.weights.copy()
        weights[3] *= 1.0 + 1e-6
        return core.QuadratureGrid(grid.nodes, weights, "symmetric")

    monkeypatch.setattr(w.core, "symmetric_rule", one_wrong_weight)
    alpha, beta, coeffs = w.narrow_unit_inputs(seed=5, index=0, degree=SMALL)
    out, _ = w.fresh_unit(alpha, beta, SMALL, coeffs)
    bad = w.failed_checks(w.check_fresh_unit(alpha, beta, SMALL, coeffs, out))
    assert "gram" in bad and "reference" not in bad


@pytest.mark.parametrize("key", ["back", "table"])
def test_fresh_checks_reject_a_perturbed_output(key):
    alpha, beta, coeffs = w.narrow_unit_inputs(seed=5, index=0, degree=SMALL)
    out, _ = w.fresh_unit(alpha, beta, SMALL, coeffs)
    out[key].flat[4] += 1e-8
    bad = w.failed_checks(w.check_fresh_unit(alpha, beta, SMALL, coeffs, out))
    assert bad == [{"back": "round_trip", "table": "reference"}[key]]


def test_wide_unit_fails_on_the_quadrature_only():
    degree = min(d for d, kind in w.FRESH_ROUND if kind == "w")
    alpha, beta, coeffs = w.wide_unit_inputs(0, degree)
    out, _ = w.fresh_unit(alpha, beta, degree, coeffs)
    bad = w.failed_checks(w.check_fresh_unit(alpha, beta, degree, coeffs, out))
    assert "gram" in bad and "reference" not in bad


def test_unit_inputs_ranges_and_seeds():
    lo, hi = w.NARROW
    a1 = w.narrow_unit_inputs(1, 7, SMALL)
    a2 = w.narrow_unit_inputs(2, 7, SMALL)
    assert a1[:2] != a2[:2]
    assert all(lo < x <= hi for x in a1[:2] + a2[:2])
    pairs = {w.wide_unit_inputs(u, SMALL)[:2] for u in range(200)}
    assert len(pairs) == 200
    for alpha, beta in pairs:
        big, other = max(alpha, beta), min(alpha, beta)
        assert w.WIDE[0] <= big <= w.WIDE[1] and lo < other <= hi


def _small_cli_run(out_dir) -> int:
    cases = 0
    for argv in (["basis"], ["squarefn", "--ensemble", "3"]):
        assert cli.main(argv + ["--trunc", "8", "--out", str(out_dir)]) == 0
        with open(out_dir / f"{argv[0]}-report.json", encoding="utf-8") as fh:
            cases += len(json.load(fh)["cases"])
    return cases


def test_verif_checks_accept_and_reject(tmp_path):
    cases = _small_cli_run(tmp_path)
    problems, ok, suite_s = w.check_verif_outputs(str(tmp_path), 0, cases)
    assert problems == [] and ok == cases and len(suite_s) == 2

    assert w.check_verif_outputs(str(tmp_path), 1, cases)[0] == ["exit code 1"]
    assert w.check_verif_outputs(str(tmp_path), 0, cases + 1)[0]

    csv_path = tmp_path / "squarefn-eigen-constant.csv"
    lines = csv_path.read_text().splitlines()
    n, value = lines[1].split(",")
    lines[1] = f"{n},{float(value) * (1 + 1e-8)!r}"
    csv_path.write_text("\n".join(lines) + "\n")
    problems = w.check_verif_outputs(str(tmp_path), 0, cases)[0]
    assert len(problems) == 1 and "eigen constant" in problems[0]


def test_verif_checks_reject_a_gram_deviation_and_a_failed_case(tmp_path):
    cases = _small_cli_run(tmp_path)
    path = tmp_path / "basis-report.json"
    report = json.loads(path.read_text())
    report["series"]["gram-deviation"]["rows"][0][1] = 2e-10
    report["cases"][0]["passed"] = False
    path.write_text(json.dumps(report))
    problems, ok, _ = w.check_verif_outputs(str(tmp_path), 0, cases)
    assert ok == cases - 1
    assert any("halfline_dev" in p for p in problems)
    assert any("failed" in p for p in problems)


def test_run_rounds_runs_whole_rounds():
    seen = []
    assert w.run_rounds(0.0, seen.append, first=1) == 1
    assert seen == [1]


def test_reference_table_matches_known_values():
    # alpha = beta = -1/2: the eigenfunctions are sqrt(2/pi) cos(n theta)
    theta = np.linspace(0.1, 3.0, 5)
    ref = w.reference_table(4, -0.5, -0.5, theta)
    expect = np.sqrt(2 / np.pi) * np.cos(np.arange(5)[:, None] * theta[None, :])
    expect[0] = np.sqrt(1 / np.pi)
    assert np.max(np.abs(ref - expect)) < 1e-13


def test_fresh_round_counts_a_rule_error_as_a_wide_failure(monkeypatch):
    original = core.symmetric_rule

    def reject_wide(n, params):
        if max(params.alpha, params.beta) >= w.WIDE[0]:
            raise w.GridError("weights must be positive")
        return original(n, params)

    monkeypatch.setattr(w.core, "symmetric_rule", reject_wide)
    monkeypatch.setattr(w, "FRESH_ROUND", ((16, "n"), (24, "w"), (20, "n")))
    tally = w.Tally()
    w.FreshParams(seed=1, out_dir="").round(None, 1, tally)
    assert (tally.attempted, tally.failed) == (3, 1)
    assert tally.problems == []
    assert len(tally.unit_s) == 3 and len(tally.round_s) == 1
