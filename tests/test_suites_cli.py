import csv
import json
import os

import pytest

from symjacobi import cli
from symjacobi.core import _TABLE_CACHE
from symjacobi.errors import ConfigError
from symjacobi.reporting import ExperimentReport, emit_plots, write_report
from symjacobi.suites import (
    SUITES,
    SuiteConfig,
    default_pairs,
    run_suite,
    validate_config,
)

EXPECTED_SUITES = {
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
}

# small enough to keep this module fast, large enough that every
# refinement-stability check is already in its settled regime
FAST = dict(trunc=32, quad=80, ensemble=6)


def fast_config(suite, **kw):
    merged = dict(FAST)
    merged.update(kw)
    return SuiteConfig(suite=suite, **merged)


class TestConfigValidation:
    def test_registry_names(self):
        assert set(SUITES) == EXPECTED_SUITES

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

    def test_potentials_rejects_zero_bottom_pair(self):
        cfg = SuiteConfig(
            suite="potentials", pairs=((-0.5, -0.5),), explicit_pair=True
        )
        with pytest.raises(ConfigError, match="differ from -1"):
            validate_config(cfg)

    def test_potentials_default_pairs_allowed(self):
        # the built-in sweep keeps the flat pair but routes it through the
        # shifted potential, so no rejection
        validate_config(SuiteConfig(suite="potentials"))

    def test_counterexample_hypothesis_cited(self):
        cfg = SuiteConfig(
            suite="counterexample", pairs=((0.2, 0.2),), p=2.0, explicit_pair=True
        )
        with pytest.raises(ConfigError, match="1/p - 1/2"):
            validate_config(cfg)

    def test_noninclusion_partner_must_differ(self):
        cfg = SuiteConfig(
            suite="noninclusion", pairs=((-0.45, -0.35),), explicit_pair=True
        )
        with pytest.raises(ConfigError, match="must differ"):
            validate_config(cfg)

    def test_all_validates_every_suite(self):
        cfg = SuiteConfig(suite="all", pairs=((-0.7, 0.4),), p=6.0, explicit_pair=True)
        with pytest.raises(ConfigError):
            validate_config(cfg)


class TestRunSuite:
    def test_write_false_leaves_directory_alone(self, tmp_path):
        cfg = fast_config("basis", out=str(tmp_path))
        reports = run_suite(cfg, write=False)
        assert len(reports) == 1
        assert reports[0].passed
        assert list(tmp_path.iterdir()) == []

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

    def test_reports_identical_with_cold_and_warm_table_cache(self, tmp_path):
        # the first run builds every table, the second reads them back
        _TABLE_CACHE.clear()
        docs = []
        blobs = []
        for i in range(2):
            out = tmp_path / f"run{i}"
            run_suite(fast_config("decomposition", out=str(out)))
            doc = json.loads((out / "decomposition-report.json").read_text())
            doc.pop("wall_clock_s")
            docs.append(json.dumps(doc, sort_keys=True))
            blobs.append((out / "decomposition-ratio-p2.csv").read_bytes())
        assert docs[0] == docs[1]
        assert blobs[0] == blobs[1]


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

    def test_exit_two_on_out_of_domain_pair(self, tmp_path, capsys):
        code = cli.main(
            ["basis", "--alpha", "-1.5", "--beta", "0", "--out", str(tmp_path)]
        )
        assert code == 2
        assert "exceed -1" in capsys.readouterr().err

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
