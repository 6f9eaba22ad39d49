import csv
import dataclasses
import gc
import itertools
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import symjacobi
from symjacobi import cli, core, errors, norms, suites
from symjacobi.basis import SymmExpansion
from symjacobi.core import _GRID_FACTS, JacobiParams
from symjacobi.errors import ConfigError
from symjacobi.reporting import ExperimentReport, emit_plots, report_to_json, write_report
from symjacobi.suites import (
    SUITES,
    SuiteConfig,
    default_pairs,
    run_suite,
    validate_config,
)

# in run order
EXPECTED_SUITES = (
    "basis",
    "eigen",
    "potentials",
    "decomposition",
    "sobolev",
    "counterexample",
    "inclusion",
    "squarefn",
    "structure",
    "embed",
    "noninclusion",
    "schrodinger",
)

# small enough to keep this module fast, large enough that every
# refinement-stability check is already in its settled regime
FAST = dict(trunc=32, quad=80, ensemble=6)


def fast_config(suite, **kw):
    merged = dict(FAST)
    merged.update(kw)
    return SuiteConfig(suite=suite, **merged)


DOMAIN_SWEEP = (-0.99, -0.5, 0.0, 2.0, 10.0, 40.0)


def domain_sweep_cells():
    # every suite on every pair of the sweep; the sobolev cells with a
    # parameter of 10 or 40, and (2, 2), fail the window protocol's 10 %
    # growth bound (the FOUND on suites._degree_doubling)
    pairs = list(itertools.product(DOMAIN_SWEEP, repeat=2))
    for suite, (alpha, beta) in itertools.product(EXPECTED_SUITES, pairs):
        marks = ()
        if suite == "sobolev" and ({10.0, 40.0} & {alpha, beta} or alpha == beta == 2.0):
            marks = pytest.mark.xfail(
                strict=True, raises=AssertionError, reason="window growth bound"
            )
        yield pytest.param(suite, alpha, beta, marks=marks)


def stub_report(series):
    return ExperimentReport(
        suite="stub",
        config={},
        cases=[{"name": "x", "passed": True, "value": 0.0}],
        series=series,
        passed=True,
        version="0",
        seed=0,
        wall_clock_s=0.0,
    )


class TestConfigValidation:
    def test_registry_names(self):
        # bench/tracer.py swaps these bindings by object identity; a binding
        # it cannot match would read as zero calls instead of failing
        assert list(SUITES) == list(EXPECTED_SUITES)
        for name in EXPECTED_SUITES:
            assert SUITES[name] is getattr(suites, f"run_{name}")

    def test_declarations(self):
        # the runner facts each suite declares at registration
        declared = {
            name: (run.pinned, run.window, run.admissible) for name, run in SUITES.items()
        }
        assert declared == {
            "basis": (None, False, False),
            "eigen": (None, False, False),
            "potentials": (None, True, True),
            "decomposition": (None, True, True),
            "sobolev": (None, True, True),
            "counterexample": ((-0.3, -0.3), False, True),
            "inclusion": (None, False, False),
            "squarefn": (None, False, True),
            "structure": (None, False, False),
            "embed": ((0.0, 0.0), True, True),
            "noninclusion": ((-0.6, -0.4), False, False),
            "schrodinger": ((0.0, 0.0), True, False),
        }

    def test_trunc_help_names_the_window_suites(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["basis", "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert (
            "at least 8 for potentials, decomposition, sobolev, embed, schrodinger and all"
            in text
        )

    def test_default_pairs(self):
        pairs = default_pairs()
        assert len(pairs) == 6
        assert (pairs[0].alpha, pairs[0].beta) == (-0.5, -0.5)

    def test_unknown_suite(self):
        with pytest.raises(ConfigError, match="unknown suite"):
            validate_config(SuiteConfig(suite="nope"))

    def test_trunc_floor(self):
        with pytest.raises(ConfigError, match="at least 4"):
            validate_config(SuiteConfig(suite="basis", trunc=2))

    def test_suites_without_a_window_keep_trunc_4(self):
        window = {"potentials", "decomposition", "sobolev", "embed", "schrodinger"}
        for suite in set(EXPECTED_SUITES) - window:
            validate_config(SuiteConfig(suite=suite, trunc=4))
        validate_config(SuiteConfig(suite="all", trunc=8))

    def test_negative_seed(self):
        # numpy's generators take no negative seed
        with pytest.raises(ConfigError, match="seed must be nonnegative, got -1"):
            validate_config(SuiteConfig(suite="potentials", seed=-1))
        validate_config(SuiteConfig(suite="potentials", seed=0))

    def test_quad_must_exceed_trunc(self):
        with pytest.raises(ConfigError, match="must exceed the truncation"):
            validate_config(SuiteConfig(suite="basis", trunc=32, quad=32))

    def test_ensemble_positive(self):
        with pytest.raises(ConfigError, match="ensemble size"):
            validate_config(SuiteConfig(suite="basis", ensemble=0))

    def test_gamma_needs_k(self):
        with pytest.raises(ConfigError, match="together"):
            validate_config(SuiteConfig(suite="squarefn", gamma=0.5))

    def test_gamma_window_cited(self):
        with pytest.raises(ConfigError, match="0 < gamma < k"):
            validate_config(SuiteConfig(suite="squarefn", gamma=2.5, k=2))

    def test_inadmissible_p_cites_interval(self):
        cfg = SuiteConfig(suite="decomposition", pairs=((-0.7, 0.4),), p=6.0)
        with pytest.raises(ConfigError, match="open admissible interval"):
            validate_config(cfg)

    def test_library_and_suites_refuse_p_in_one_wording(self):
        # each caller raises its own error type over the same message
        pr = JacobiParams(-0.7, 0.4)
        e = SymmExpansion(pr, np.ones(5))
        grid = core.symmetric_rule(8, pr)
        with pytest.raises(errors.AdmissibilityError) as library:
            norms.potential_norm(e, 6.0, 0.5, grid)
        with pytest.raises(ConfigError) as suite:
            validate_config(SuiteConfig(suite="decomposition", pairs=(pr,), p=6.0))
        assert str(library.value) == str(suite.value) == (
            "p=6.0 lies outside the open admissible interval (1.25, 5) for alpha=-0.7, beta=0.4"
        )

    def test_potentials_rejects_zero_bottom_pair(self):
        cfg = SuiteConfig(suite="potentials", pairs=((-0.5, -0.5),))
        with pytest.raises(ConfigError, match="differ from -1"):
            validate_config(cfg)

    def test_potentials_default_pairs_allowed(self):
        # the built-in sweep keeps the flat pair but routes it through the
        # shifted potential, so no rejection
        validate_config(SuiteConfig(suite="potentials"))

    def test_counterexample_hypothesis_cited(self):
        cfg = SuiteConfig(suite="counterexample", pairs=((0.2, 0.2),), p=2.0)
        with pytest.raises(ConfigError, match="1/p - 1/2"):
            validate_config(cfg)

    def test_noninclusion_partner_must_differ(self):
        cfg = SuiteConfig(suite="noninclusion", pairs=((-0.45, -0.35),))
        with pytest.raises(ConfigError, match="must differ"):
            validate_config(cfg)

    def test_all_validates_every_suite(self):
        cfg = SuiteConfig(suite="all", pairs=((-0.7, 0.4),), p=6.0)
        with pytest.raises(ConfigError):
            validate_config(cfg)

    @pytest.mark.parametrize("suite", ["embed", "all"])
    def test_embedding_condition_cited(self, suite):
        cfg = SuiteConfig(suite=suite, q=100.0, s=0.1)
        with pytest.raises(ConfigError, match="1/q >= 1/p - s"):
            validate_config(cfg)

    @pytest.mark.parametrize(
        "suite, pair",
        [("embed", (0.5, 0.5)), ("noninclusion", (-0.55, -0.45)), ("counterexample", (-0.2, -0.2))],
    )
    def test_library_pair_is_the_pair_run(self, tmp_path, suite, pair):
        # a pair given to SuiteConfig runs exactly as the same pair on the CLI
        given = run_suite(fast_config(suite, pairs=(pair,)), write=False)[0]
        built_in = run_suite(fast_config(suite), write=False)[0]
        assert given.config["pairs"] == [list(pair)]
        assert given.series != built_in.series
        code = cli.main(
            [suite, "--alpha", str(pair[0]), "--beta", str(pair[1]), "--trunc", "32",
             "--quad", "80", "--ensemble", "6", "--out", str(tmp_path)]
        )
        assert code == 0
        doc = json.loads((tmp_path / f"{suite}-report.json").read_text())
        assert doc["cases"] == given.cases
        assert doc["series"] == given.series

    @pytest.mark.parametrize("given", [None, ((0.5, 0.5), (1.0, 2.0))])
    def test_a_pinned_report_names_the_one_pair_it_ran(self, given):
        # the built-in pair of each pinned suite, or the first pair given;
        # a suite over the sweep echoes every pair
        pairs = {} if given is None else {"pairs": given}
        for suite in ("counterexample", "embed", "noninclusion", "schrodinger"):
            if given is not None and suite in ("counterexample", "noninclusion"):
                continue  # their hypotheses refuse (0.5, 0.5)
            report = SUITES[suite](fast_config(suite, **pairs))
            ran = given[0] if given else SUITES[suite].pinned
            assert report.config["pairs"] == [list(ran)]
        report = SUITES["inclusion"](fast_config("inclusion", trunc=8))
        assert report.config["pairs"] == [list(pr) for pr in suites.DEFAULT_PAIR_VALUES]

    def test_all_runs_the_built_in_pairs(self):
        # run_suite re-creates each sub-config with the default pairs filled
        # in; those must still count as no pair given
        reports = run_suite(SuiteConfig(suite="all", trunc=8, ensemble=2), write=False)
        noninclusion = [r for r in reports if r.suite == "noninclusion"][0]
        alone = run_suite(SuiteConfig(suite="noninclusion", trunc=8, ensemble=2), write=False)
        assert noninclusion.series == alone[0].series


class TestRunSuite:
    def test_write_false_leaves_directory_alone(self, tmp_path):
        cfg = fast_config("basis", out=str(tmp_path))
        reports = run_suite(cfg, write=False)
        assert len(reports) == 1
        assert reports[0].passed
        assert list(tmp_path.iterdir()) == []

    def test_json_is_that_of_the_deep_copy(self):
        # report_to_json dumps the report's own fields, without the deep copy
        # dataclasses.asdict makes, and writes the same text
        reports = run_suite(fast_config("all"), write=False)
        assert len(reports) == len(SUITES)
        for r in reports:
            expected = json.dumps(dataclasses.asdict(r), sort_keys=True, indent=2) + "\n"
            assert report_to_json(r) == expected

    def test_outputs_on_disk(self, tmp_path):
        cfg = fast_config("eigen", out=str(tmp_path))
        run_suite(cfg)
        report = tmp_path / "eigen-report.json"
        assert report.exists()
        doc = json.loads(report.read_text())
        assert doc["suite"] == "eigen"
        assert doc["passed"] is True
        assert doc["seed"] == 1729
        assert "wall_clock_s" in doc
        lines = (tmp_path / "eigen-eigen-residual.csv").read_text().splitlines()
        assert lines[0] == "n,max_rel_residual"
        assert "," in lines[1] and "." in lines[1]
        svg = (tmp_path / "eigen-eigen-residual.svg").read_text()
        assert svg.startswith("<svg")

    def test_csv_keeps_pair_labels_in_one_cell(self, tmp_path):
        run_suite(fast_config("basis", out=str(tmp_path)))
        with open(tmp_path / "basis-gram-deviation.csv", newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            records = list(reader)
        assert reader.fieldnames == ["pair", "halfline_dev", "symmetric_dev"]
        # a row with more cells than the header would carry a None key
        assert all(None not in r and len(r) == 3 for r in records)
        labels = [f"({pr.alpha:g},{pr.beta:g})" for pr in default_pairs()]
        assert [r["pair"] for r in records] == labels
        assert all(float(r["halfline_dev"]) < 1e-10 for r in records)

    def test_config_echo_keeps_overrides(self, tmp_path):
        cfg = fast_config("basis", out=str(tmp_path), seed=42)
        report = run_suite(cfg, write=False)[0]
        assert report.config["seed"] == 42
        assert report.config["trunc"] == 32
        assert report.config["quad"] == 80

    def test_empty_series_writes_no_plots(self, tmp_path):
        report = ExperimentReport(
            suite="stub",
            config={},
            cases=[{"name": "x", "passed": True, "value": 0.0}],
            series={},
            passed=True,
            version="0",
            seed=0,
            wall_clock_s=0.0,
        )
        write_report(report, str(tmp_path))
        written = emit_plots(report, str(tmp_path))
        assert written == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["stub-report.json"]

    def test_cells_and_charts_of_a_series_with_no_numeric_column(self, tmp_path):
        report = stub_report({"flags": {"columns": ["name", "ok"], "rows": [["a", True]]}})
        emit_plots(report, str(tmp_path))
        assert (tmp_path / "stub-flags.csv").read_text() == "name,ok\na,true\n"
        assert "no plottable data" in (tmp_path / "stub-flags.svg").read_text()

    def test_a_ragged_series_is_refused(self, tmp_path):
        report = stub_report({"ragged": {"columns": ["n", "value"], "rows": [[0, 1.0], [1]]}})
        with pytest.raises(errors.GridError, match="column count"):
            emit_plots(report, str(tmp_path))

    def test_reports_identical_across_runs(self, tmp_path):
        # each run builds its own grids and draws, and its grids their tables
        outputs = []
        for i in range(2):
            out = tmp_path / f"run{i}"
            run_suite(fast_config("all", out=str(out)))
            files = {}
            for path in sorted(out.iterdir()):
                if path.name.endswith("-report.json"):
                    doc = json.loads(path.read_text())
                    doc.pop("wall_clock_s")
                    files[path.name] = json.dumps(doc, sort_keys=True)
                else:
                    files[path.name] = path.read_bytes()
            outputs.append(files)
        assert len(outputs[0]) > 2 * len(SUITES)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("before", [32, 8])
    def test_reports_do_not_depend_on_the_tables_left_cached(self, before):
        # the first pass runs on rules of the second one's size (quad 48) at
        # a deeper (trunc 32) or shallower (trunc 8) degree; its grids go
        # with the run, and their tables with them
        stores = set(_GRID_FACTS)

        def reports():
            run = run_suite(SuiteConfig(suite="all", trunc=16, ensemble=4), write=False)
            gc.collect()
            assert set(_GRID_FACTS) - stores == set()
            return [
                json.dumps({k: v for k, v in vars(r).items() if k != "wall_clock_s"}, sort_keys=True)
                for r in run
            ]

        cold = reports()
        run_suite(SuiteConfig(suite="all", trunc=before, quad=48, ensemble=4), write=False)
        assert reports() == cold

    def test_the_eigen_suite_builds_two_tables_per_pair(self, monkeypatch):
        # one table of depth 20 on the stencil's five stacked angle sets of
        # 9 angles, and one lowered table
        builds = []
        original = core._eigenfunction_rows

        def counting(n_top, params, th, head=None):
            builds.append((n_top, th.size))
            return original(n_top, params, th, head)

        monkeypatch.setattr(core, "_eigenfunction_rows", counting)
        config = fast_config("eigen")
        run_suite(config, write=False)
        assert builds == [(20, 45), (19, 9)] * len(config.pairs)

    def test_each_grid_and_draw_is_built_once_per_run(self, monkeypatch):
        rules, draws = [], []
        original_rule = core.gauss_jacobi_rule
        original_draw = norms.random_band_limited

        def counting_rule(*args, **kwargs):
            rules.append(args)
            return original_rule(*args, **kwargs)

        def counting_draw(*args, **kwargs):
            draws.append(args)
            return original_draw(*args, **kwargs)

        for name in ("core", "basis", "norms", "suites"):
            module = getattr(symjacobi, name)
            if getattr(module, "gauss_jacobi_rule", None) is original_rule:
                monkeypatch.setattr(module, "gauss_jacobi_rule", counting_rule)
            if getattr(module, "random_band_limited", None) is original_draw:
                monkeypatch.setattr(module, "random_band_limited", counting_draw)
        config = SuiteConfig(suite="all", trunc=32, ensemble=4)
        run_suite(config, write=False)
        # one rule per default pair; one draw per decay, the default and the
        # faster-decaying schrodinger draw
        assert (len(rules), len(draws)) == (6, 2)
        run_suite(config, write=False)
        assert (len(rules), len(draws)) == (12, 4)

    def test_the_sobolev_suite_lowers_each_draw_once(self, monkeypatch):
        # one list of per-order norms per pair and degree serves m = 1 and 2
        calls = []
        original = suites._sobolev_terms

        def counting(e, p, m, grid):
            calls.append((len(e), m))
            return original(e, p, m, grid)

        monkeypatch.setattr(suites, "_sobolev_terms", counting)
        config = fast_config("sobolev")
        run_suite(config, write=False)
        degrees = (suites._window_degree(config.trunc), config.trunc)
        assert calls == [(d + 1, 2) for d in degrees] * len(config.pairs)

    def test_the_work_of_a_run_is_pinned(self, monkeypatch, tmp_path):
        # the rows core._sweep_rows writes, in sweeps, rows and cells (rows
        # times angles), and the misses of the Jacobi-matrix cache, in one
        # verif all --trunc 128 from an empty cache; a change to the work
        # updates these figures and says why
        work = dict.fromkeys(("sweeps", "rows", "cells", "misses"), 0)
        sweep, entries = core._sweep_rows, core._jacobi_entries

        def counting_sweep(n_top, params, th, cut, rows, reduce=None, start=0):
            work["sweeps"] += 1
            work["rows"] += n_top + 1 - start
            work["cells"] += (n_top + 1 - start) * th.size
            return sweep(n_top, params, th, cut, rows, reduce, start)

        def counting_entries(n, params):
            work["misses"] += 1
            return entries(n, params)

        monkeypatch.setattr(core, "_JACOBI_ENTRIES", {})
        monkeypatch.setattr(core, "_sweep_rows", counting_sweep)
        monkeypatch.setattr(core, "_jacobi_entries", counting_entries)
        assert cli.main(["all", "--trunc", "128", "--out", str(tmp_path)]) == 0
        assert work == {"sweeps": 90, "rows": 3463, "cells": 882418, "misses": 42}

    def test_shared_inputs_are_read_only_and_keyed_exactly(self, monkeypatch):
        ran = []

        def probe(config):
            zero, signed = JacobiParams(0.0, 0.0), JacobiParams(-0.0, 0.0)
            grid = suites._grid(config, zero)
            block = suites._draw(config, zero, 8, 3)
            assert suites._grid(config, zero) is grid
            assert suites._draw(config, signed, 8, 3).coeffs.base is block.coeffs.base
            assert suites._grid(config, signed) is not grid
            arrays = (grid.nodes, grid.weights, grid.half.nodes, grid.half.weights, block.coeffs)
            for arr in arrays:
                with pytest.raises(ValueError):
                    arr[0] = 1.0
            ran.append(config.suite)
            raise RuntimeError("probe done")

        monkeypatch.setitem(SUITES, "probe", probe)
        with pytest.raises(RuntimeError, match="probe done"):
            run_suite(fast_config("probe"), write=False)
        assert ran == ["probe"]
        # nothing outlives the call, also when a suite raises
        assert suites._run_inputs is None

    @pytest.mark.parametrize(
        "suite", ["decomposition", "sobolev", "squarefn", "potentials", "structure", "embed"]
    )
    def test_table_requests_do_not_grow_with_the_ensemble(self, suite, monkeypatch):
        # an ensemble is one coefficient block, so a suite asks for the same
        # tables however many members the block holds; every table request,
        # through eigenfunction_table or straight from basis, reaches the
        # store through _stored_table
        original = core._stored_table
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        for name in ("core", "basis", "squarefn", "suites"):
            module = getattr(symjacobi, name)
            if getattr(module, "_stored_table", None) is original:
                monkeypatch.setattr(module, "_stored_table", counting)
        counts = []
        for ensemble in (4, 40):
            calls.clear()
            run_suite(SuiteConfig(suite=suite, trunc=32, ensemble=ensemble), write=False)
            counts.append(len(calls))
        assert counts[0] > 0
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("suite, alpha, beta", domain_sweep_cells())
    def test_every_suite_passes_or_refuses_on_the_domain_sweep(self, suite, alpha, beta):
        # a refusal is a SymJacobiError; a RuntimeWarning is an error here
        try:
            config = SuiteConfig(suite=suite, pairs=((alpha, beta),), trunc=16)
            (report,) = run_suite(config, write=False)
        except errors.SymJacobiError:
            return
        assert report.passed, [case["name"] for case in report.cases if not case["passed"]]


class TestCli:
    def test_exit_zero_and_files(self, tmp_path, capsys):
        code = cli.main(
            ["basis", "--trunc", "32", "--quad", "80", "--ensemble", "6",
             "--out", str(tmp_path)]
        )
        assert code == 0
        assert "basis: pass" in capsys.readouterr().out
        assert (tmp_path / "basis-report.json").exists()

    def test_exit_two_on_config_error(self, tmp_path, capsys):
        code = cli.main(
            ["squarefn", "--gamma", "2.5", "--k", "2", "--out", str(tmp_path)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and "0 < gamma < k" in err

    @pytest.mark.parametrize("trunc", ["4", "6", "7"])
    @pytest.mark.parametrize("suite", ["decomposition", "sobolev", "embed", "schrodinger", "all"])
    def test_exit_two_below_the_window_floor(self, tmp_path, capsys, suite, trunc):
        # the lower window degree max(trunc // 2, 8) would exceed trunc
        out = tmp_path / "out"
        code = cli.main([suite, "--trunc", trunc, "--out", str(out)])
        assert code == 2
        assert f"must be at least 8, got {trunc}" in capsys.readouterr().err
        assert not out.exists()

    def test_exit_two_before_any_suite_writes(self, tmp_path, capsys):
        # the embed suite runs tenth; its condition is checked before the first
        out = tmp_path / "out"
        code = cli.main(
            ["all", "--q", "100", "--s", "0.1", "--trunc", "8", "--ensemble", "4",
             "--out", str(out)]
        )
        assert code == 2
        assert "1/q >= 1/p - s" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("suite", ["potentials", "all"])
    def test_exit_two_on_a_negative_seed(self, tmp_path, capsys, suite):
        # refused before any suite runs, so all writes no report either
        out = tmp_path / "out"
        code = cli.main([suite, "--seed", "-1", "--trunc", "8", "--out", str(out)])
        assert code == 2
        assert "seed must be nonnegative, got -1" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_embed_checks_p_against_its_own_pair(self, tmp_path):
        # embed runs (0, 0), whose admissible range has no upper end; the
        # default sweep's (-0.7, 0.4) would reject p = 6
        code = cli.main(
            ["embed", "--p", "6", "--trunc", "8", "--ensemble", "2", "--out", str(tmp_path)]
        )
        assert code == 0

    def test_counterexample_checks_its_own_pair_against_the_decay_bound(
        self, tmp_path, capsys
    ):
        code = cli.main(["counterexample", "--p", "6", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "1/p - 1/2" in err and "alpha=-0.3, beta=-0.3" in err

    @pytest.mark.parametrize("p", ["1.2", "1.5"])
    def test_counterexample_needs_p_of_at_least_two(self, tmp_path, capsys, p):
        # witness 2's mixed second derivative blows up at rate p/2, so below
        # p = 2 its divergence case failed on input the CLI had accepted
        out = tmp_path / "out"
        code = cli.main(["counterexample", "--p", p, "--out", str(out)])
        assert code == 2
        assert "p >= 2" in capsys.readouterr().err
        assert not out.exists()

    def test_witness1_divergence_is_seen_below_the_growth_detectors_reach(self, tmp_path):
        # the derivative blows up at rate 1.2 here; three growth ratios of
        # 1.5 need a rate of about 1.585, so the exponent detector decides
        code = cli.main(
            ["counterexample", "--alpha", "-0.9", "--beta", "-0.9", "--out", str(tmp_path)]
        )
        assert code == 0

    def test_witness1_divergence_fails_on_a_convergent_sequence(self, monkeypatch):
        original = suites.truncated_lp_powers

        def convergent(f, p, eps0, levels=5):
            # |t|^(-1/2) has integrable blowup rate 0.5
            return original(lambda t: t**-0.5, 1.0, eps0, levels)

        monkeypatch.setattr(suites, "truncated_lp_powers", convergent)
        report = suites.run_counterexample(fast_config("counterexample"))
        case = next(c for c in report.cases if c["name"] == "witness1-derivative-diverges-growth")
        assert not case["passed"]

    @pytest.mark.parametrize(
        "argv", [["--p", "1.5"], ["--p", "1.2"], ["--p", "1.06"], ["--alpha", "-0.2", "--beta", "-0.6"]]
    )
    def test_noninclusion_divergence_is_seen_below_the_growth_detectors_reach(self, tmp_path, argv):
        # the cross derivatives blow up at rates from 1.007 (p = 1.06) to
        # 1.425 here; three growth ratios of 1.5 need about 1.585, so the
        # exponent detector decides
        assert cli.main(["noninclusion", *argv, "--out", str(tmp_path)]) == 0

    def test_noninclusion_divergence_fails_on_a_convergent_sequence(self, monkeypatch):
        original = suites.truncated_lp_powers

        def convergent(f, p, eps0, levels=5):
            return original(lambda t: t**-0.5, 1.0, eps0, levels)

        monkeypatch.setattr(suites, "truncated_lp_powers", convergent)
        report = suites.run_noninclusion(fast_config("noninclusion"))
        diverges = [c for c in report.cases if c["name"].startswith("cross-derivative-diverges")]
        assert len(diverges) == 2 and not any(c["passed"] for c in diverges)

    def test_potentials_draws_at_the_window_floor(self, tmp_path, capsys):
        # its smoothing window goes through the window protocol
        assert cli.main(["potentials", "--trunc", "7", "--out", str(tmp_path)]) == 2
        assert "must be at least 8, got 7" in capsys.readouterr().err
        assert cli.main(["potentials", "--trunc", "8", "--out", str(tmp_path)]) == 0

    def test_inclusion_takes_k_alone(self, tmp_path):
        assert cli.main(["inclusion", "--k", "2", "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "inclusion-report.json").read_text())
        assert doc["cases"] and all("-k2-" in c["name"] for c in doc["cases"])

    @pytest.mark.parametrize(
        "argv, cited",
        [
            # no cross derivative diverges at 0, so the cases could not pass
            (["noninclusion", "--p", "1"], "at most 1/2 - 1/p = -0.5; got alpha=-0.45"),
            (
                ["noninclusion", "--alpha", "0.4", "--beta", "0.4"],
                "at most 1/2 - 1/p = 0; got alpha=0.4",
            ),
            (["noninclusion", "--alpha", "-0.45", "--beta", "-0.2"], "the two alphas must differ"),
            # the square function needs both indices; inclusion takes k alone
            (["squarefn", "--k", "2"], "gamma and k given together"),
            (["all", "--k", "2"], "gamma and k given together"),
            (["inclusion", "--k", "0"], "order k must be at least 1, got 0"),
            (["basis", "--p", "0.5"], "p must be at least 1, got 0.5"),
            (["embed", "--q", "0.5"], "q must be at least 1, got 0.5"),
            (["sobolev", "--m", "0"], "derivative order m must be positive, got 0"),
        ],
    )
    def test_exit_two_cites_the_refused_condition(self, tmp_path, capsys, argv, cited):
        out = tmp_path / "out"
        assert cli.main([*argv, "--out", str(out)]) == 2
        assert cited in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("alpha", ["1e4", "1e5"])
    def test_exit_two_names_an_overflowing_newton_step(self, tmp_path, capsys, alpha):
        # an overflow warning used to precede a convergence error here
        code = cli.main(
            ["basis", "--alpha", alpha, "--beta", "0", "--trunc", "256", "--out", str(tmp_path)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "overflow" in err and "RuntimeWarning" not in err

    def test_all_checks_p_against_the_default_sweep(self, tmp_path, capsys):
        code = cli.main(["all", "--p", "6", "--out", str(tmp_path)])
        assert code == 2
        assert "alpha=-0.7, beta=0.4" in capsys.readouterr().err

    def test_exit_two_on_out_of_domain_pair(self, tmp_path, capsys):
        code = cli.main(
            ["basis", "--alpha", "-1.5", "--beta", "0", "--out", str(tmp_path)]
        )
        assert code == 2
        assert "exceed -1" in capsys.readouterr().err

    def test_exit_two_when_no_rule_can_be_built(self, tmp_path, capsys):
        # alpha = 1e20 is beyond the asymptotic start's range, and every
        # eigenvalue of its Jacobi matrix rounds to -1, which the root check
        # refuses
        code = cli.main(
            ["basis", "--alpha", "1e20", "--beta", "0", "--trunc", "64", "--out", str(tmp_path)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and "alpha=1e+20, beta=0.0" in err
        assert "a root is not finite or lies outside (-1, 1)" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--gamma", "0.8", "--k", "1"],
            ["--gamma", "2.99", "--k", "3"],
            ["--alpha", "-0.5", "--beta", "-0.4999", "--trunc", "16"],
        ],
        ids=["small-tail-power", "tiny-tail-power", "slow-bottom-rate"],
    )
    def test_squarefn_time_quadrature_range_follows_the_inputs(self, tmp_path, argv):
        # the cross-check integrated over a fixed u in (-30, 10) and read
        # up to 33 against its bound of 1e-6 on these inputs
        assert cli.main(["squarefn", *argv, "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["--alpha", "-0.999999", "--trunc", "64"], id="64"),
            pytest.param(["--alpha", "-0.999999", "--trunc", "256"], id="256"),
            pytest.param(["--alpha", "-0.999999999", "--trunc", "512"], id="1e-9-at-512"),
            pytest.param(["--alpha", "-0.999999999999", "--trunc", "64"], id="1e-12"),
            pytest.param(
                ["--alpha", "-0.999999999999999", "--beta", "50", "--trunc", "64", "--quad", "1000"],
                id="1e-15-beside-50",
            ),
        ],
    )
    def test_basis_passes_next_to_alpha_minus_one(self, tmp_path, argv):
        # nodes from arccos of x-roots missed the odd rows' Gram identity at
        # -0.999999; closer to -1 the first eigenvalue rounds to x = 1 or too
        # close to it for the polish, and the asymptotic start, which has no
        # x, builds these rules
        code = cli.main(["basis", "--beta", "0", *argv, "--out", str(tmp_path)])
        assert code == 0

    @pytest.mark.parametrize("alpha, trunc", [("300", "256"), ("1e5", "64")])
    def test_basis_passes_at_large_alpha(self, tmp_path, alpha, trunc):
        # the x-form rows overflowed through P_n(1) = binom(n + alpha, n):
        # the rule raised at 300, and at 1e5 the odd rows missed the Gram
        # tolerance
        code = cli.main(
            ["basis", "--alpha", alpha, "--beta", "0", "--trunc", trunc, "--out", str(tmp_path)]
        )
        assert code == 0

    @pytest.mark.parametrize("alpha", ["1e4", "1e5"])
    def test_eigen_resolves_the_ladder_at_large_alpha(self, tmp_path, capsys, alpha):
        # a fixed stencil step read 8.1e-4 and 135 here against 1e-5
        code = cli.main(["eigen", "--alpha", alpha, "--beta", "0", "--out", str(tmp_path)])
        assert code == 0, capsys.readouterr().out
        doc = json.loads((tmp_path / "eigen-report.json").read_text())
        ladder = [c for c in doc["cases"] if c["name"].startswith("ladder-vs-fd-")]
        assert [c["name"] for c in ladder] == [f"ladder-vs-fd-({float(alpha):g},0)"]
        assert ladder[0]["value"] <= 1e-6

    def test_eigen_refuses_rows_that_underflow_at_every_check_node(self, tmp_path, capsys):
        # the case read NaN here, after a RuntimeWarning, and exited 1
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main(["eigen", "--alpha", "2e5", "--beta", "0", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "alpha=200000.0, beta=0.0 row 1 or its lowered target underflows to 0" in err
        assert "linspace(0.2, pi - 0.2, 9)" in err
        assert not out.exists()

    @pytest.mark.parametrize("beta", DOMAIN_SWEEP)
    @pytest.mark.parametrize("alpha", DOMAIN_SWEEP)
    def test_schrodinger_passes_on_every_pair_of_the_sweep(self, tmp_path, capsys, alpha, beta):
        # fixed times 2^-4 .. 2^-14 and a bound that took |phi_n| <= 1 failed
        # on every pair with a 40 and on (10, 10)
        argv = ["schrodinger", "--alpha", str(alpha), "--beta", str(beta), "--trunc", "16"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main([*argv, "--out", str(tmp_path)])
        assert code == 0, capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["inclusion", "--p", "nan"], "p"),
            (["structure", "--p", "nan"], "p"),
            (["inclusion", "--p", "inf"], "p"),
            (["decomposition", "--s", "inf", "--trunc", "8", "--ensemble", "2"], "s"),
            (["potentials", "--s", "inf"], "s"),
            (["embed", "--q", "nan"], "q"),
            (["all", "--q=-inf"], "q"),
        ],
    )
    def test_exit_two_on_a_nonfinite_exponent(self, tmp_path, capsys, argv, field):
        out = tmp_path / "out"
        code = cli.main(argv + ["--out", str(out)])
        assert code == 2
        assert f"{field} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("suite", ["inclusion", "eigen"])
    def test_exit_two_on_an_infinite_parameter(self, tmp_path, capsys, suite):
        # these suites build no quadrature rule, so an infinite alpha used
        # to reach their cases and report NaN values with exit 1
        out = tmp_path / "out"
        code = cli.main([suite, "--alpha", "inf", "--beta", "0", "--trunc", "8", "--out", str(out)])
        assert code == 2
        assert "must each be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "body, field",
        [
            ({"trunc": "64"}, "trunc"),
            ({"trunc": 16.5}, "trunc"),
            ({"alpha": "0.1", "beta": 0.2}, "alpha"),
            ({"p": None}, "p"),
            ({"quad": 20.5}, "quad"),
            ({"ensemble": 2.5}, "ensemble"),
            ({"seed": "x"}, "seed"),
            ({"k": 2.7, "gamma": 0.5}, "k"),
            ({"ensemble": True}, "ensemble"),
            ({"out": 3}, "out"),
        ],
    )
    @pytest.mark.parametrize("suite", ["squarefn", "all"])
    def test_exit_two_on_a_config_value_of_the_wrong_type(
        self, tmp_path, capsys, body, field, suite
    ):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps(body))
        out = tmp_path / "out"
        code = cli.main([suite, "--config", str(conf), "--out", str(out)])
        assert code == 2
        assert f"config field {field!r} must be" in capsys.readouterr().err
        assert not out.exists()

    def test_config_numbers_take_the_flag_types(self, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"p": 2, "s": 1, "trunc": 8, "out": str(tmp_path)}))
        args = cli.build_parser().parse_args(["potentials", "--config", str(conf)])
        config = cli.make_config(args)
        assert (config.p, config.s, config.trunc) == (2.0, 1.0, 8)
        assert isinstance(config.p, float) and isinstance(config.s, float)

    @pytest.mark.parametrize("suite", ["potentials", "decomposition", "all"])
    @pytest.mark.parametrize("s", ["0", "-0.5"])
    def test_exit_two_on_nonpositive_smoothness(self, tmp_path, capsys, suite, s):
        out = tmp_path / "out"
        code = cli.main([suite, "--s", s, "--trunc", "8", "--out", str(out)])
        assert code == 2
        assert f"smoothness s must be positive, got {float(s)}" in capsys.readouterr().err
        assert not out.exists()

    def test_exit_two_on_half_pair(self, tmp_path, capsys):
        code = cli.main(["basis", "--alpha", "0.5", "--out", str(tmp_path)])
        assert code == 2
        assert "both" in capsys.readouterr().err

    def test_exit_two_on_malformed_config_file(self, tmp_path, capsys):
        bad = tmp_path / "conf.json"
        bad.write_text("{not json")
        code = cli.main(["basis", "--config", str(bad), "--out", str(tmp_path)])
        assert code == 2
        assert "malformed JSON" in capsys.readouterr().err

    def test_exit_two_on_a_config_file_that_is_not_an_object(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps([{"trunc": 32}]))
        code = cli.main(["basis", "--config", str(conf), "--out", str(tmp_path)])
        assert code == 2
        assert "config file must hold a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "error",
        [
            errors.DomainError,
            errors.SingularPointError,
            errors.GridError,
            errors.UnsupportedParametersError,
            errors.AdmissibilityError,
            errors.EnsembleError,
            errors.ConfigError,
        ],
    )
    def test_exit_two_on_every_library_error(self, tmp_path, capsys, monkeypatch, error):
        def refuse(config):
            raise error("refused")

        monkeypatch.setitem(SUITES, "basis", refuse)
        assert cli.main(["basis", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "config error: refused\n"

    def test_exit_two_on_unknown_config_field(self, tmp_path, capsys):
        bad = tmp_path / "conf.json"
        bad.write_text(json.dumps({"turnc": 32}))
        code = cli.main(["basis", "--config", str(bad), "--out", str(tmp_path)])
        assert code == 2
        assert "unknown config fields: turnc" in capsys.readouterr().err

    def test_exit_three_on_unwritable_out(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        code = cli.main(
            ["basis", "--trunc", "32", "--quad", "80", "--ensemble", "6",
             "--out", str(blocker / "sub")]
        )
        assert code == 3
        assert "i/o error" in capsys.readouterr().err

    def test_exit_three_on_missing_config_file(self, tmp_path, capsys):
        code = cli.main(
            ["basis", "--config", str(tmp_path / "absent.json"),
             "--out", str(tmp_path)]
        )
        assert code == 3
        assert "i/o error" in capsys.readouterr().err

    def test_exit_one_on_failing_case(self, tmp_path, capsys, monkeypatch):
        def stub(config):
            return ExperimentReport(
                suite="basis",
                config={},
                cases=[
                    {"name": "broken", "passed": False, "value": 9.0,
                     "tolerance": 1.0, "detail": "stubbed failure"},
                ],
                series={},
                passed=False,
                version="0",
                seed=0,
                wall_clock_s=0.0,
            )

        monkeypatch.setitem(cli.SUITES, "basis", stub)
        code = cli.main(["basis", "--out", str(tmp_path)])
        assert code == 1
        out = capsys.readouterr().out
        assert "basis: FAIL" in out
        assert "failing: broken" in out
        assert "stubbed failure" in out

    def test_argparse_rejects_unknown_suite(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_config_file_merge_and_flag_override(self, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"trunc": 32, "quad": 80, "ensemble": 4}))
        out = tmp_path / "out"
        code = cli.main(
            ["basis", "--config", str(conf), "--ensemble", "6", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads((out / "basis-report.json").read_text())
        assert doc["config"]["trunc"] == 32
        assert doc["config"]["ensemble"] == 6

    def test_explicit_pair_reaches_report(self, tmp_path):
        code = cli.main(
            ["embed", "--alpha", "0", "--beta", "0", "--trunc", "32",
             "--quad", "80", "--ensemble", "6", "--out", str(tmp_path)]
        )
        assert code == 0
        doc = json.loads((tmp_path / "embed-report.json").read_text())
        assert doc["config"]["pairs"] == [[0.0, 0.0]]

    def test_cli_rerun_is_byte_identical_modulo_clock(self, tmp_path):
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert cli.main(
                ["noninclusion", "--trunc", "32", "--quad", "80",
                 "--ensemble", "6", "--out", str(out)]
            ) == 0
        docs = []
        for out in outs:
            doc = json.loads((out / "noninclusion-report.json").read_text())
            doc.pop("wall_clock_s")
            docs.append(json.dumps(doc, sort_keys=True))
        assert docs[0] == docs[1]
        a = (outs[0] / "noninclusion-cross-divergence.csv").read_bytes()
        b = (outs[1] / "noninclusion-cross-divergence.csv").read_bytes()
        assert a == b

    def test_all_is_byte_identical_across_processes(self, tmp_path):
        # two fresh interpreters with different string hashing write the
        # same files, the reports up to their wall clock; at this degree and
        # ensemble two sobolev windows grow past their bound, so both exit 1
        src = os.path.dirname(os.path.dirname(symjacobi.__file__))
        outs = [tmp_path / "a", tmp_path / "b"]
        codes = []
        for seed, out in zip(("1", "2"), outs):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
            argv = ["all", "--trunc", "16", "--ensemble", "4", "--out", str(out)]
            run = subprocess.run(
                [sys.executable, "-m", "symjacobi.cli", *argv], env=env, capture_output=True
            )
            assert run.returncode in (0, 1), run.stderr
            codes.append(run.returncode)
        assert codes[0] == codes[1]
        names = sorted(os.listdir(outs[0]))
        assert len(names) == 44 and names == sorted(os.listdir(outs[1]))
        for name in names:
            a, b = ((out / name).read_bytes() for out in outs)
            if name.endswith("-report.json"):
                a, b = ({k: v for k, v in json.loads(x).items() if k != "wall_clock_s"} for x in (a, b))
            assert a == b, name


# Every case family of `verif all` at the FAST config with its tolerance, so
# a loosened bound shows up as an edit here. A family is a case name without
# its trailing pair label, and None stands for no tolerance. The two embed
# bounds are 1.1 times a measured lower-degree maximum, so only their
# presence is pinned.
CASE_FAMILIES = {
    "halfline-gram": 1e-10,
    "symmetric-gram": 1e-10,
    "flat-weight-degeneration": 1e-12,
    "eigen-relation": 1e-13,
    "ladder-vs-fd": 1e-5,
    "shifted-flow-bottom": 1e-15,
    "bessel-sandwich": 1e-15,
    "semigroup-law": 1e-14,
    "composition": 1e-14,
    "smoothing-window": 50.0,
    "parity-ratio-p2": 1e-9,
    "parity-window-p3": 50.0,
    "sobolev-window-m1": 50.0,
    "sobolev-window-m2": 50.0,
    "witness1-reflection-term-vanishes": 1e-8,
    "witness1-own-lp-integral-converges": 0.95,
    "witness1-derivative-diverges-growth": 0.95,
    "witness2-variable-derivatives-vanish": 1e-8,
    "witness2-mixed-second-derivative-diverges": 0.95,
    "transform-columns-k1": 1.0 + 1e-12,
    "shifted-transform-columns-k1": 1.0 + 1e-12,
    "transform-columns-k2": 1.0 + 1e-12,
    "shifted-transform-columns-k2": 1.0 + 1e-12,
    "transform-columns-k3": 1.0 + 1e-12,
    "shifted-transform-columns-k3": 1.0 + 1e-12,
    "eigenmode-constant-g0.5-k1": 1e-9,
    "eigenmode-constant-g0.7-k2": 1e-9,
    "eigenmode-constant-g1.5-k2": 1e-9,
    "p2-ratio-constant": 1e-9,
    "char-window-p4": 50.0,
    "time-quadrature-crosscheck-plain": 1e-6,
    "time-quadrature-crosscheck-modified": 1e-6,
    "modified-keeps-zero-mode": 1e-9,
    "holder-containment": 1e-9,
    "composition-law": 1e-14,
    "injectivity-roundtrip": 1e-13,
    "smoothing-isometry": 1e-12,
    "smoothness-monotone": 1e-12,
    "embedding-ratio-stable": "computed",
    "supnorm-ratio-stable": "computed",
    "weight-annihilated-own-under-other": 1e-8,
    "cross-derivative-diverges-own-under-other": 0.95,
    "weight-annihilated-other-under-own": 1e-8,
    "cross-derivative-diverges-other-under-own": 0.95,
    "linear-error-bound": 1.0,
    "convergence-slope": 1.1,
    "mixed-norm-recorded": None,
}


def test_structure_takes_q_above_p():
    # the containment direction needs q above p, so q defaults to 2p there
    report = SUITES["structure"](fast_config("structure", p=4.0))
    holder = [c for c in report.cases if c["name"].startswith("holder-containment-")]
    assert holder and all("q=8.0 norm" in c["detail"] for c in holder)


def test_divergence_records_name_both_detector_bounds():
    # the value is the exponent detector's mean rate against its 0.95; the
    # detail gives the growth detector's smallest ratio against its 1.5
    cases = [
        c
        for suite in ("counterexample", "noninclusion")
        for c in SUITES[suite](fast_config(suite)).cases
        if "-diverges" in c["name"]
    ]
    assert len(cases) == 4
    for c in cases:
        assert c["tolerance"] == 0.95 and "against 1.5" in c["detail"], c["name"]


def test_case_table_is_pinned():
    reports = run_suite(fast_config("all"), write=False)
    cases = [c for r in reports for c in r.cases]
    assert len(cases) == 181
    assert all(c["passed"] for c in cases)
    seen = {}
    for c in cases:
        family = re.sub(r"-\([^()]*\)$", "", c["name"])
        seen.setdefault(family, set()).add(c.get("tolerance"))
    assert sorted(seen) == sorted(CASE_FAMILIES)
    for family, tolerance in CASE_FAMILIES.items():
        if tolerance != "computed":
            assert seen[family] == {tolerance}, family


class TestVerdicts:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "bounds", [{"upper": 1.0}, {"lower": 0.0}, {"lower": 0.0, "upper": 1.0}],
        ids=["upper", "lower", "interval"],
    )
    def test_a_nonfinite_value_fails_every_bound(self, value, bounds):
        assert not suites._case("c", value, **bounds)["passed"]

    @pytest.mark.parametrize(
        "value, bounds, passed",
        [
            (1.0, {"upper": 1.0}, True),
            (1.0 + 1e-15, {"upper": 1.0}, False),
            (0.5, {"lower": 0.5}, True),
            (0.5 - 1e-15, {"lower": 0.5}, False),
            (0.9, {"lower": 0.9, "upper": 1.1}, True),
            (1.1, {"lower": 0.9, "upper": 1.1}, True),
            (0.89, {"lower": 0.9, "upper": 1.1}, False),
        ],
    )
    def test_every_bound_is_inclusive(self, value, bounds, passed):
        case = suites._case("c", value, **bounds)
        assert case["passed"] is passed
        # an interval records its upper end
        assert case["tolerance"] == bounds.get("upper", bounds.get("lower"))

    @pytest.mark.parametrize(
        "lo, hi, window, maximum",
        [
            ((1.0, 2.0), (1.0, 2.2), True, True),
            ((1.0, 2.0), (1.0, 2.3), False, False),
            ((1.0, 2.0), (1.0, math.inf), False, False),
            ((1.0, math.inf), (1.0, math.inf), False, False),
            ((1.0, 2.0), (0.5, 2.0), False, True),
            ((1.0, 60.0), (1.0, 60.0), False, True),
        ],
    )
    def test_window_protocol(self, lo, hi, window, maximum):
        # ratios lo at degree 8 and hi at degree 16: a tracked statistic may
        # grow by 10 %, and a tracked window must start at 50 or below
        config = fast_config("probe", trunc=16, ensemble=2)

        def norm_a(members):
            return np.array(lo if members.coeffs.shape[1] == 9 else hi)

        for tracked, expected in (
            (("window",), window),
            (("window", "maximum"), window and maximum),
            (("maximum",), maximum),
        ):
            case, at_lo, at_hi = suites._degree_doubling(
                config, JacobiParams(0.0, 0.0), "w", norm_a, lambda m: np.ones(2), tracked,
                "{lo_degree}",
            )
            assert case["passed"] is expected, tracked
            grown = [
                stat
                for stat in tracked
                if not (math.isfinite(getattr(at_lo, stat))
                        and getattr(at_hi, stat) <= 1.1 * getattr(at_lo, stat))
            ]
            if grown:
                # a failed growth is recorded as that statistic against its bound
                stat = grown[0]
                assert case["detail"] == f"8; the {stat} grew by more than 10 %"
                assert case["value"] == getattr(at_hi, stat)
                assert case["tolerance"] == 1.1 * getattr(at_lo, stat)
            else:
                assert case["detail"] == "8"
                assert case["tolerance"] == (
                    50.0 if "window" in tracked else 1.1 * at_lo.maximum
                )

    def test_a_failed_growth_reads_as_a_failure(self):
        # verif sobolev --trunc 16: the maximum ratio of this case grows from
        # 0.835 to 0.952, more than 10 %; its record kept only the window,
        # 1.33 against 50, so it read as a pass
        report = suites.run_sobolev(SuiteConfig(suite="sobolev", trunc=16))
        failing = [c for c in report.cases if not c["passed"]]
        assert [c["name"] for c in failing] == ["sobolev-window-m2-(2.5,1.5)"]
        assert failing[0]["value"] > failing[0]["tolerance"]

    def test_a_nan_is_not_lost_in_a_running_maximum(self, monkeypatch):
        # max(0.0, nan) is 0.0, so a NaN deviation at degree 1 used to leave
        # the case passing on the deviations of the other degrees
        original = suites.apply_ladder_down_fd
        calls = []

        def nan_first(*args):
            calls.append(args)
            out = original(*args)
            return out * np.nan if len(calls) == 1 else out

        monkeypatch.setattr(suites, "apply_ladder_down_fd", nan_first)
        report = suites.run_eigen(fast_config("eigen", pairs=((0.3, 0.7),)))
        case = next(c for c in report.cases if c["name"] == "ladder-vs-fd-(0.3,0.7)")
        assert math.isnan(case["value"])
        assert not case["passed"]

    def test_a_nan_rate_fails_the_convergence_case(self, monkeypatch):
        # a NaN mean rate is not divergent, so the old verdict passed it
        original = suites.truncated_lp_powers

        def nan_level(*args, **kwargs):
            levels = original(*args, **kwargs)
            levels[2] = np.nan
            return levels

        monkeypatch.setattr(suites, "truncated_lp_powers", nan_level)
        report = suites.run_counterexample(fast_config("counterexample"))
        case = next(c for c in report.cases if c["name"] == "witness1-own-lp-integral-converges")
        assert math.isnan(case["value"])
        assert not case["passed"]
