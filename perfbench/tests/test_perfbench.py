"""Tests of the benchmark's own arithmetic and oracle.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json

import numpy as np
import pytest

from perfbench import calibrate, run, spans, stats
from perfbench.ladder import LADDER, check_construct, check_verify, construct_argv, verify_argv
from perfbench.workloads import WORKLOADS, Runner


# -- percentile selection -----------------------------------------------------

def test_p99_needs_ten_samples_beyond_it():
    assert stats.min_samples_for(99) == 1000
    xs = list(range(1, 1001))
    assert stats.percentile(xs, 99) == 990
    with pytest.raises(ValueError, match="need 10"):
        stats.percentile(xs[:-1], 99)


def test_median_rank_and_order_do_not_matter():
    xs = [5, 1, 4, 2, 3] * 4
    assert stats.percentile(xs, 50) == 3
    with pytest.raises(ValueError):
        stats.percentile(xs[:19], 50)


def test_quartile_spread_matches_statistics_quantiles():
    assert stats.quartile_spread([10.0] * 10) == 0.0
    assert stats.quartile_spread([1, 2, 3, 4, 5]) == pytest.approx((4.5 - 1.5) / 3)


# -- span self time -------------------------------------------------------------

def test_self_time_subtracts_union_of_direct_children():
    # span 0 [0, 10] with children [1, 3], [2, 5] (overlap), [8, 12] (clipped to 10)
    # and a grandchild [1, 2] of span 1 that must not count against span 0.
    start = [0.0, 1.0, 2.0, 8.0, 1.0]
    end = [10.0, 3.0, 5.0, 12.0, 2.0]
    parent = [-1, 0, 0, 0, 1]
    got = spans.self_times(start, end, parent, [0, 1, 3])
    assert got[0] == pytest.approx(10 - (4 + 2))
    assert got[1] == pytest.approx(2 - 1)
    assert got[3] == pytest.approx(4)


def test_tracer_nests_and_layer_metrics_count():
    ticks = iter(range(100))
    tracer = spans.Tracer(lambda: float(next(ticks)))
    with tracer.span("round"):
        with tracer.span("cli.main"):
            with tracer.span("gflinalg.rref"):
                pass
    view = spans.SpanView(tracer, 0, len(tracer))
    assert list(view.parent) == [-1, 0, 1]
    m = spans.layer_metrics(view, np.ones(3, dtype=bool), scale=2.0)
    assert m["gflinalg.rref_calls"] == 1
    assert m["gflinalg.rref_s"] == pytest.approx(2.0)       # (3 - 2) * 2
    assert m["cli.self_s"] == pytest.approx((4 - 1 - 1) * 2.0)


def test_instrument_restores_and_reports_absent(monkeypatch):
    from lrctower import gflinalg
    from lrctower.field import FiniteField
    original_rref, original_vec = gflinalg.rref, FiniteField.vec_add
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (("lrctower.gflinalg", "gone", "x", None, None),))
    tracer = spans.Tracer(lambda: 0.0)
    with spans.instrument(tracer) as absent:
        assert gflinalg.rref is not original_rref
        assert FiniteField.vec_add is not original_vec
    assert absent == ["lrctower.gflinalg.gone"]
    assert gflinalg.rref is original_rref and FiniteField.vec_add is original_vec


# -- calibration ------------------------------------------------------------------

def test_factor_uses_kernel_samples_near_the_section():
    cal = calibrate.Calibrator()
    cal._at = [float(t) for t in range(20)]
    cal._took = [calibrate.REF_KERNEL_S] * 10 + [2 * calibrate.REF_KERNEL_S] * 10
    assert cal.factor(0.0, 9.0) == pytest.approx(1.0)
    assert cal.factor(10.0, 19.0) == pytest.approx(0.5)
    # three samples in the window; the nearest eight are used, all slow
    assert cal.corrected(14.0, 16.0) == pytest.approx(1.0)


# -- oracle -------------------------------------------------------------------------

def _golden(tmp_path):
    from lrctower import cli
    code = LADDER["golden"]
    desc, report = tmp_path / "golden.json", tmp_path / "golden.report.json"
    assert cli.main(construct_argv(code, desc)) == 0
    rc = cli.main(verify_argv(desc, report, seed=3))
    return code, desc, rc, json.loads(report.read_text())


def test_oracle_accepts_the_pinned_golden_code(tmp_path, capsys):
    code, desc, rc, report = _golden(tmp_path)
    line = capsys.readouterr().out.splitlines()[0]
    assert check_construct(code, 0, line, desc.read_bytes()) == []
    assert check_verify(code, rc, report) == []


def test_oracle_rejects_one_corrupted_descriptor_byte(tmp_path, capsys):
    from lrctower import cli
    code, desc, _, _ = _golden(tmp_path)
    data = bytearray(desc.read_bytes())
    at = data.index(b'"generator_matrix"') + len(b'"generator_matrix": [\n    [\n      ')
    data[at] = ord("2") if data[at] != ord("2") else ord("1")
    desc.write_bytes(bytes(data))
    assert any("sha256" in p for p in check_construct(code, 0, code.line, bytes(data)))
    report = tmp_path / "bad.report.json"
    rc = cli.main(verify_argv(desc, report, seed=3))
    assert check_verify(code, rc, json.loads(report.read_text())) != []


def test_oracle_rejects_a_wrong_pinned_distance(tmp_path):
    code, _, rc, report = _golden(tmp_path)
    wrong = dataclasses.replace(code, distance=code.distance + 1)
    assert any("distance" in p for p in check_verify(wrong, rc, report))


@pytest.mark.parametrize("pin", [{"distance": 5}, {"sha256": "0" * 64}])
def test_wrong_pin_counts_as_failed_operation(tmp_path, monkeypatch, pin):
    monkeypatch.setitem(LADDER, "golden", dataclasses.replace(LADDER["golden"], **pin))
    workload = WORKLOADS["repair"]
    runner = Runner(tmp_path, workload, 1, calibrate.Calibrator())
    runner.pipeline(LADDER["golden"], 0, lambda: None)
    failing = workload.verify_calls if "distance" in pin else workload.construct_calls
    assert runner.log.attempted == workload.construct_calls + workload.verify_calls
    assert runner.log.failed == failing


def test_refuses_to_run_with_enumeration_cap_override(monkeypatch, capsys):
    monkeypatch.setenv("LRC_MAX_ENUM", "50")
    assert run.main(["--workload", "distance", "--seed", "1", "--seconds", "1"]) == 2
    captured = capsys.readouterr()
    assert "LRC_MAX_ENUM" in captured.err and captured.out == ""
