"""The tracer wraps every binding, nests spans, survives refactors and restores."""

import numpy as np

import symjacobi
from symjacobi import basis, cli, core, norms, suites
from tracer import Tracer


def _small_work():
    pr = core.JacobiParams(0.3, 0.7)
    grid = core.symmetric_rule(24, pr)
    e = norms.random_band_limited(pr, 8, 1, seed=1)[0]
    return norms.potential_norm(e, 2.0, 1.0, grid)


def test_wraps_imported_names_and_restores_them(tmp_path):
    original = core.eigenfunction_table
    suite_fn = suites.SUITES["basis"]
    with Tracer() as tracer:
        assert suites.eigenfunction_table is not original
        assert core.eigenfunction_table is not original
        assert symjacobi.eigenfunction_table is not original
        assert suites.SUITES["basis"] is not suite_fn
        assert cli.main(["basis", "--trunc", "8", "--out", str(tmp_path)]) == 0
    assert suites.eigenfunction_table is original
    assert core.eigenfunction_table is original
    assert symjacobi.eigenfunction_table is original
    assert suites.SUITES["basis"] is suite_fn

    m = tracer.metrics()
    assert m["cli.main.calls"]["value"] == 1
    assert m["suites.basis.s"]["value"] > 0
    assert m["suites.eigen.s"]["value"] == 0
    assert m["core.eigenfunction_table.calls"]["value"] > 0
    assert m["reporting.write_report.calls"]["value"] == 1
    written = sum(p.stat().st_size for p in tmp_path.iterdir())
    assert m["reporting.bytes_written"]["value"] == written


def test_self_time_excludes_child_spans():
    with Tracer() as tracer:
        _small_work()
    f = tracer.functions()
    pot = f["norms.potential_norm"]
    assert pot["calls"] == 1
    assert 0 <= pot["self_s"] < pot["total_s"]
    child = f["basis.eval_symm_expansion"]["total_s"]
    assert abs(pot["total_s"] - pot["self_s"] - child) < 1e-3 + 0.5 * child


def test_survives_a_missing_public_function(monkeypatch):
    monkeypatch.delattr(norms, "truncated_lp_powers")
    monkeypatch.delattr(symjacobi, "truncated_lp_powers")
    with Tracer() as tracer:
        _small_work()
    m = tracer.metrics()
    assert m["norms.truncated_lp_powers.calls"]["value"] == 0
    assert m["norms.truncated_lp_powers.self_s"]["value"] == 0.0
    assert m["norms.potential_norm.calls"]["value"] == 1


def test_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        with Tracer() as tracer:
            _small_work()
            basis.analyze(lambda t: np.cos(t), core.JacobiParams(0.0, 1.0), 6)
        counts.append(
            {k: v["value"] for k, v in tracer.metrics().items() if v["unit"] != "s"}
        )
    assert counts[0] == counts[1]
    assert counts[0]["core.gauss_jacobi_rule.nodes"] == 24 + 14 + 14
    assert counts[0]["core.eigenfunction_table.distinct"] == 4
