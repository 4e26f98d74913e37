"""Tests for the ``repro bench`` performance harness."""

import json

import pytest

from repro.harness import bench
from repro.harness.bench import (
    BENCH_SCHEMA, bench_irb_micro, bench_path, bench_workload, calibrate,
    compare, find_baseline, load_report, write_report,
)


def tiny_report(date="2026-01-01", wall_s=0.1, events_per_sec=1000.0,
                calibration=None):
    """A minimal report: one workload of 2 transactions taking
    ``wall_s`` (0.1 s -> 50,000 µs/txn)."""
    meta = {"date": date, "quick": True, "txns": 2, "python": "3.x",
            "platform": "test"}
    if calibration is not None:
        meta["calibration_ops_per_sec"] = calibration
    return {
        "schema": BENCH_SCHEMA,
        "meta": meta,
        "workloads": {
            "hash_table": {"wall_s": wall_s, "events": 100,
                           "events_per_sec": events_per_sec,
                           "sim_ns_per_wall_s": 1.0, "sim_ns": 10,
                           "transactions": 2,
                           "us_per_txn": wall_s * 1e6 / 2},
        },
        "irb_micro": {"resident_entries": 8, "ops": 8,
                      "indexed_wall_s": 0.1, "linear_wall_s": 0.2,
                      "indexed_ops_per_sec": 80.0,
                      "linear_ops_per_sec": 40.0, "speedup": 2.0},
        "totals": {"wall_s": wall_s, "transactions": 2,
                   "us_per_txn": wall_s * 1e6 / 2, "events": 100,
                   "events_per_sec": events_per_sec,
                   "sim_ns_per_wall_s": 1.0},
    }


def test_bench_workload_reports_progress_and_events():
    result = bench_workload("hash_table", txns=2)
    assert result["transactions"] >= 2
    assert result["events"] > 0
    assert result["sim_ns"] > 0
    assert result["wall_s"] > 0
    assert result["events_per_sec"] > 0
    assert result["us_per_txn"] == pytest.approx(
        result["wall_s"] * 1e6 / result["transactions"])


def test_irb_micro_speedup_meets_acceptance_floor():
    """Acceptance criterion: the indexed IRB is >= 2x faster than the
    linear-scan baseline with >= 256 resident entries."""
    micro = bench_irb_micro(resident=256, ops=1200, repeats=2)
    assert micro["resident_entries"] >= 256
    assert micro["speedup"] >= bench.DEFAULT_MIN_IRB_SPEEDUP


def test_irb_micro_streams_are_deterministic():
    one = bench._irb_op_stream(16, 50)
    two = bench._irb_op_stream(16, 50)
    assert one == two


def test_calibrate_returns_positive_score():
    assert calibrate(target_s=0.005) > 0


def test_write_and_load_report_roundtrip(tmp_path):
    report = tiny_report()
    path = write_report(report, str(tmp_path / "BENCH_2026-01-01.json"))
    assert load_report(path) == report


def test_load_report_rejects_wrong_schema(tmp_path):
    path = tmp_path / "BENCH_bad.json"
    path.write_text(json.dumps({"schema": "other"}))
    with pytest.raises(ValueError):
        load_report(str(path))


def test_find_baseline_picks_latest_and_honours_exclude(tmp_path):
    for date in ("2026-01-01", "2026-02-01", "2026-03-01"):
        write_report(tiny_report(date=date),
                     str(tmp_path / f"BENCH_{date}.json"))
    latest = find_baseline(str(tmp_path), quick=True)
    assert latest.endswith("BENCH_2026-03-01.json")
    # Excluding the newest (the report being written) falls back.
    prev = find_baseline(str(tmp_path), quick=True, exclude=latest)
    assert prev.endswith("BENCH_2026-02-01.json")
    assert find_baseline(str(tmp_path / "empty"), quick=True) is None


def test_quick_run_never_picks_a_full_baseline(tmp_path):
    """Quick and full reports are gated only against their own kind,
    whatever their dates."""
    def write(date, quick):
        report = tiny_report(date=date)
        report["meta"]["quick"] = quick
        path = bench_path(str(tmp_path), date=date, quick=quick)
        write_report(report, path)
        return path

    quick_old = write("2026-01-01", quick=True)
    full_new = write("2026-03-01", quick=False)
    assert quick_old.endswith("BENCH_2026-01-01-quick.json")
    assert find_baseline(str(tmp_path), quick=True) == quick_old
    assert find_baseline(str(tmp_path), quick=False) == full_new
    # A full point dated like the quick one sorts after it by name,
    # and is still not picked for a quick run.
    write("2026-01-01", quick=False)
    assert find_baseline(str(tmp_path), quick=True) == quick_old
    assert find_baseline(str(tmp_path), quick=True,
                         exclude=quick_old) is None


def test_bench_path_uses_date(tmp_path):
    assert bench_path(str(tmp_path), date="2026-08-07").endswith(
        "BENCH_2026-08-07.json")


def test_compare_flags_regression_beyond_threshold():
    baseline = tiny_report(wall_s=0.1)
    ok = tiny_report(wall_s=0.11)        # 9% slower: fine
    bad = tiny_report(wall_s=0.2)        # 50% slower: regression
    assert compare(baseline, ok, threshold=0.25) == []
    # 50% slower trips both tiers: the workload gate (25% + 15% noise
    # allowance) and the aggregate-total gate (25%).
    regressions = compare(baseline, bad, threshold=0.25)
    assert len(regressions) == 2
    assert any("hash_table" in r for r in regressions)
    assert any(r.startswith("total:") for r in regressions)


def test_compare_ignores_events_per_sec():
    """Fewer events per transaction lowers events/sec while the run
    gets faster: only µs per transaction is gated."""
    baseline = tiny_report(wall_s=0.1, events_per_sec=1000.0)
    fewer_events = tiny_report(wall_s=0.08, events_per_sec=300.0)
    assert compare(baseline, fewer_events, threshold=0.25) == []


def test_compare_tolerates_single_workload_noise():
    """A lone workload running 30% slower (within shared-host noise)
    must not trip the gate while the aggregate total holds up."""
    baseline = tiny_report(wall_s=0.1)
    baseline["workloads"]["queue"] = dict(
        baseline["workloads"]["hash_table"], wall_s=0.9)
    noisy = tiny_report(wall_s=1 / 0.7 * 0.1)     # workload: 30% slower
    noisy["workloads"]["queue"] = dict(
        noisy["workloads"]["hash_table"], wall_s=0.9)
    assert compare(baseline, noisy, threshold=0.25) == []


def test_compare_total_gate_catches_broad_slowdown():
    """An across-the-board 30% slowdown passes every per-workload
    check (bar is 40%) but must still trip on the aggregate total."""
    baseline = tiny_report(wall_s=0.1)
    slow = tiny_report(wall_s=1 / 0.7 * 0.1)      # everything 30% slower
    regressions = compare(baseline, slow, threshold=0.25)
    assert len(regressions) == 1
    assert regressions[0].startswith("total:")


def test_compare_normalises_by_calibration():
    """A slower host (half the calibration score, twice the µs/txn)
    must not read as a code regression."""
    baseline = tiny_report(wall_s=0.1, calibration=2_000_000)
    slower_host = tiny_report(wall_s=0.2, calibration=1_000_000)
    assert compare(baseline, slower_host, threshold=0.25) == []
    # But a genuine slowdown on the same host is still caught.
    same_host_slow = tiny_report(wall_s=0.2, calibration=2_000_000)
    assert compare(baseline, same_host_slow, threshold=0.25) != []


def test_compare_reads_reports_without_us_per_txn():
    """Reports written before the µs/txn field derive it from wall
    time and transactions."""
    baseline = tiny_report(wall_s=0.1)
    del baseline["workloads"]["hash_table"]["us_per_txn"]
    assert compare(baseline, tiny_report(wall_s=0.1)) == []
    assert compare(baseline, tiny_report(wall_s=0.3)) != []


def test_compare_skips_missing_workloads():
    baseline = tiny_report()
    current = tiny_report()
    current["workloads"] = {}
    assert compare(baseline, current) == []


def test_render_mentions_totals_and_micro():
    text = bench.render(tiny_report())
    assert "TOTAL" in text
    assert "irb micro" in text
    assert "2.0x" in text
