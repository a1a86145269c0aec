"""Bench pipeline: pinned matrix, row schema, compare/regression logic."""

import copy
import json

import pytest

from repro.bench import (
    BENCH_MATRIX,
    BENCH_SCHEMA_VERSION,
    bench_payload,
    bench_specs,
    compare_bench,
    default_bench_path,
    host_info,
    load_bench_json,
    render_bench_report,
    render_compare_report,
    validate_bench,
    write_bench_json,
)
from repro.runner import ParallelRunner
from repro.runner.worker import execute_bench

QUICK_MS = 20_000.0


def quick_specs(n=2):
    return bench_specs(duration_ms=QUICK_MS)[:n]


def quick_payload(n=2, repeats=1):
    rows = [execute_bench(s, repeats=repeats) for s in quick_specs(n)]
    return bench_payload(rows, git_sha="deadbeef")


class TestBenchSpecs:
    def test_matrix_shape(self):
        specs = bench_specs()
        assert len(specs) == len(BENCH_MATRIX)
        cells = {(s.scheduler, s.workload.rate_tps, s.config.dd) for s in specs}
        assert cells == set(BENCH_MATRIX)

    def test_specs_are_deterministic_and_uncached_flavour(self):
        first, second = bench_specs(), bench_specs()
        assert [s.cache_key() for s in first] == [s.cache_key() for s in second]
        for s in first:
            assert s.warmup_ms == 0.0
            assert s.trace is False and s.timeseries is False

    def test_duration_override(self):
        for s in bench_specs(duration_ms=QUICK_MS):
            assert s.duration_ms == QUICK_MS


class TestExecuteBench:
    def test_row_fields_and_plausibility(self):
        row = execute_bench(quick_specs(1)[0], repeats=1)
        assert row["events"] > 0
        assert row["wall_s"] > 0.0
        assert row["events_per_s"] == pytest.approx(
            row["events"] / row["wall_s"], rel=1e-3
        )
        assert row["wall_per_sim_s"] == pytest.approx(
            row["wall_s"] / (QUICK_MS / 1_000.0), rel=1e-3
        )
        assert row["completed"] > 0
        phases = row["profile"]["phases"]
        assert phases["des.heap"]["calls"] > 0

    def test_repeats_keep_fastest(self):
        row = execute_bench(quick_specs(1)[0], repeats=2)
        assert row["repeats"] == 2

    def test_rejects_nonpositive_repeats(self):
        with pytest.raises(ValueError):
            execute_bench(quick_specs(1)[0], repeats=0)


class TestBenchPayload:
    def test_payload_validates_and_round_trips(self, tmp_path):
        payload = quick_payload()
        validate_bench(payload)
        assert payload["bench_schema_version"] == BENCH_SCHEMA_VERSION
        assert payload["git_sha"] == "deadbeef"
        assert payload["host"] == host_info()
        path = write_bench_json(payload, tmp_path / "BENCH_test.json")
        assert load_bench_json(path) == json.loads(json.dumps(payload))

    def test_validate_rejects_wrong_schema(self):
        payload = quick_payload(n=1)
        payload["schema_version"] = 999
        payload["bench_schema_version"] = 999
        with pytest.raises(ValueError, match="unknown bench schema_version"):
            validate_bench(payload)

    def test_payload_stamps_top_level_schema_version(self):
        payload = quick_payload(n=1)
        assert payload["schema_version"] == BENCH_SCHEMA_VERSION

    def test_validate_accepts_legacy_key_only(self):
        payload = quick_payload(n=1)
        del payload["schema_version"]
        validate_bench(payload)

    def test_validate_rejects_missing_schema_stamp(self):
        payload = quick_payload(n=1)
        del payload["schema_version"]
        del payload["bench_schema_version"]
        with pytest.raises(ValueError, match="no schema_version"):
            validate_bench(payload)

    def test_validate_rejects_contradicting_schema_keys(self):
        payload = quick_payload(n=1)
        payload["bench_schema_version"] = 999
        with pytest.raises(ValueError):
            validate_bench(payload)

    def test_validate_rejects_missing_row_fields(self):
        payload = quick_payload(n=1)
        del payload["runs"][0]["events_per_s"]
        with pytest.raises(ValueError):
            validate_bench(payload)

    def test_default_path_is_dated(self, tmp_path):
        path = default_bench_path(tmp_path, created="2026-08-06T12:00:00")
        assert path.name == "BENCH_2026-08-06.json"


def synthetic_payload(n_cells, events_per_s=100_000.0):
    """A hand-built artifact with ``n_cells`` distinct matrix cells."""
    rows = []
    for i in range(n_cells):
        events = int(events_per_s)
        rows.append({
            "scheduler": f"S{i}", "workload": {"kind": "exp1",
                                               "rate_tps": 1.0},
            "dd": 1, "seed": 0, "duration_ms": 1_000.0, "warmup_ms": 0.0,
            "repeats": 1, "wall_s": events / events_per_s,
            "events": events, "events_per_s": events_per_s,
            "wall_per_sim_s": 1.0,
            "profile": {"phases": {}, "total_s": 1.0, "other_s": 1.0},
            "completed": 1, "throughput_tps": 1.0,
        })
    payload = bench_payload(rows, git_sha=None)
    validate_bench(payload)
    return payload


def slow_down(payload, indices, factor=0.5):
    """Return a copy where the given cells ran ``factor`` times as fast."""
    slowed = copy.deepcopy(payload)
    for i in indices:
        row = slowed["runs"][i]
        row["wall_s"] /= factor
        row["events_per_s"] *= factor
        row["wall_per_sim_s"] /= factor
    return slowed


class TestCompare:
    def test_self_compare_is_clean(self):
        payload = quick_payload()
        report = compare_bench(payload, payload)
        assert report["regressions"] == 0
        assert report["failed"] is False
        assert all(c["status"] == "ok" for c in report["cells"])
        assert report["host_mismatch"] == []
        assert report["aggregate"]["ratio"] == pytest.approx(1.0)

    def test_flags_injected_regression(self):
        baseline = quick_payload()
        # simulate the first cell running at half speed
        current = slow_down(baseline, [0])
        report = compare_bench(baseline, current, tolerance=0.25)
        assert report["regressions"] == 1
        statuses = [c["status"] for c in report["cells"]]
        assert statuses.count("regression") == 1
        bad = next(c for c in report["cells"] if c["status"] == "regression")
        assert bad["ratio"] == pytest.approx(0.5)
        # with only two matched cells the quorum is one: the gate fails
        assert report["failed"] is True

    def test_speed_is_wall_per_commit_not_events_per_second(self):
        """A cell that drops needless events runs faster per commit even
        though its events/s falls: it must not read as a regression."""
        baseline = synthetic_payload(2)
        current = copy.deepcopy(baseline)
        row = current["runs"][0]
        row["events"] //= 4  # a quarter of the events ...
        row["wall_s"] /= 2  # ... in half the wall: events/s halves
        row["events_per_s"] = row["events"] / row["wall_s"]
        report = compare_bench(baseline, current)
        cell = report["cells"][0]
        assert cell["current_events_per_s"] < cell["baseline_events_per_s"]
        assert cell["ratio"] == pytest.approx(2.0)
        assert cell["status"] == "ok"
        assert report["failed"] is False

    def test_one_noisy_cell_does_not_fail_a_big_matrix(self):
        baseline = synthetic_payload(20)
        current = slow_down(baseline, [0])
        report = compare_bench(baseline, current)
        assert report["regressions"] == 1
        assert report["quorum"] == 3  # ceil(0.125 * 20)
        assert report["failed"] is False  # reported, but below the quorum

    def test_whole_scheduler_slowdown_trips_the_quorum(self):
        baseline = synthetic_payload(20)
        current = slow_down(baseline, [0, 1, 2, 3])
        report = compare_bench(baseline, current)
        assert report["regressions"] == 4
        assert report["failed"] is True
        assert any("quorum" in r for r in report["fail_reasons"])

    def test_severe_minority_slowdown_trips_the_aggregate(self):
        baseline = synthetic_payload(20)
        # two cells 10x slower: below the 3-cell quorum, but they now
        # dominate total wall time, so the aggregate speed craters
        current = slow_down(baseline, [0, 1], factor=0.1)
        report = compare_bench(baseline, current)
        assert report["regressions"] == 2 < report["quorum"]
        assert report["aggregate"]["ratio"] < 0.75
        assert report["failed"] is True
        assert any("aggregate" in r for r in report["fail_reasons"])

    def test_tolerance_controls_the_threshold(self):
        baseline = quick_payload(n=1)
        current = slow_down(baseline, [0], factor=0.85)  # 15% slower
        assert compare_bench(baseline, current, tolerance=0.25)["regressions"] == 0
        assert compare_bench(baseline, current, tolerance=0.10)["regressions"] == 1

    def test_rejects_out_of_range_tolerance(self):
        payload = quick_payload(n=1)
        with pytest.raises(ValueError):
            compare_bench(payload, payload, tolerance=1.5)

    def test_disjoint_cells_never_fail(self):
        baseline = synthetic_payload(2)
        current = copy.deepcopy(baseline)
        current["runs"][0]["scheduler"] = "XYZ"
        report = compare_bench(baseline, current)
        assert report["regressions"] == 0
        statuses = sorted(c["status"] for c in report["cells"])
        assert statuses == ["baseline-only", "new", "ok"]
        assert report["failed"] is False  # one cell still matched

    def test_zero_matched_cells_fail(self):
        """Artifacts sharing no cell (e.g. a 200 s run against a 60 s /
        150 s baseline) compared nothing: that must not read as OK."""
        baseline = synthetic_payload(2)
        current = copy.deepcopy(baseline)
        for row in current["runs"]:
            row["duration_ms"] = 200_000.0
        report = compare_bench(baseline, current)
        assert report["regressions"] == 0
        assert report["failed"] is True
        assert any("no cell matched" in r for r in report["fail_reasons"])
        text = render_compare_report(report)
        assert "FAIL: no cell matched" in text
        assert "OK" not in text

    def test_host_mismatch_is_a_warning_not_a_failure(self):
        baseline = quick_payload(n=1)
        current = copy.deepcopy(baseline)
        current["host"] = dict(current["host"], machine="other-arch")
        report = compare_bench(baseline, current)
        assert report["host_mismatch"] == ["machine"]
        assert report["regressions"] == 0


def with_maxrss(payload, kb):
    """A copy where every run row reports ``kb`` of peak RSS."""
    stamped = copy.deepcopy(payload)
    for row in stamped["runs"]:
        row["maxrss_kb"] = kb
    return stamped


class TestMemCompare:
    def test_memory_growth_beyond_tolerance_fails(self):
        baseline = with_maxrss(synthetic_payload(20), 100_000)
        current = with_maxrss(baseline, 150_000)  # 1.5x > the 1.30 gate
        report = compare_bench(baseline, current)
        assert report["mem_matched"] == 20
        assert report["mem_regressions"] == 20
        assert report["failed"] is True
        assert any("memory" in r for r in report["fail_reasons"])
        bad = report["cells"][0]
        assert bad["mem_status"] == "regression"
        assert bad["mem_ratio"] == pytest.approx(1.5)
        # speed was untouched: the fail is memory-only
        assert report["regressions"] == 0

    def test_memory_within_tolerance_is_ok(self):
        baseline = with_maxrss(synthetic_payload(4), 100_000)
        current = with_maxrss(baseline, 120_000)  # 1.2x < 1.30
        report = compare_bench(baseline, current)
        assert report["mem_regressions"] == 0
        assert report["failed"] is False
        assert all(c.get("mem_status") == "ok" for c in report["cells"])

    def test_mem_tolerance_is_independent_of_speed_tolerance(self):
        baseline = with_maxrss(synthetic_payload(4), 100_000)
        current = with_maxrss(baseline, 120_000)
        tight = compare_bench(baseline, current, mem_tolerance=0.10)
        assert tight["mem_regressions"] == 4
        assert tight["failed"] is True
        loose = compare_bench(baseline, current, mem_tolerance=0.50)
        assert loose["failed"] is False

    def test_one_noisy_mem_cell_stays_below_quorum(self):
        # one cell grows 1.4x per-cell, but the fleet peak (set by the
        # other cells) is unchanged: flagged, below quorum, no fail
        baseline = with_maxrss(synthetic_payload(20), 200_000)
        baseline["runs"][0]["maxrss_kb"] = 100_000
        current = copy.deepcopy(baseline)
        current["runs"][0]["maxrss_kb"] = 140_000
        report = compare_bench(baseline, current)
        assert report["mem_regressions"] == 1
        assert report["mem_quorum"] == 3  # ceil(0.125 * 20)
        assert report["mem_aggregate"]["ratio"] == pytest.approx(1.0)
        assert report["failed"] is False

    def test_single_cell_peak_doubling_trips_the_aggregate(self):
        # peak RSS is a max-type resource: one cell doubling the fleet
        # peak is a real regression even below the cell-count quorum
        baseline = with_maxrss(synthetic_payload(20), 100_000)
        current = copy.deepcopy(baseline)
        current["runs"][0]["maxrss_kb"] = 200_000
        report = compare_bench(baseline, current)
        assert report["mem_regressions"] == 1 < report["mem_quorum"]
        assert report["mem_aggregate"]["ratio"] == pytest.approx(2.0)
        assert report["failed"] is True
        assert any("peak RSS" in r for r in report["fail_reasons"])

    def test_rows_without_maxrss_are_skipped(self):
        baseline = synthetic_payload(4)  # no maxrss_kb anywhere
        report = compare_bench(baseline, baseline)
        assert report["mem_matched"] == 0
        assert report["mem_regressions"] == 0
        assert report["mem_aggregate"] is None
        assert report["failed"] is False

    def test_peak_aggregate_tracks_the_worst_cell(self):
        baseline = with_maxrss(synthetic_payload(4), 100_000)
        current = copy.deepcopy(baseline)
        current["runs"][2]["maxrss_kb"] = 180_000
        report = compare_bench(baseline, current)
        assert report["mem_aggregate"]["baseline_peak_kb"] == 100_000
        assert report["mem_aggregate"]["current_peak_kb"] == 180_000
        assert report["mem_aggregate"]["ratio"] == pytest.approx(1.8)

    def test_rejects_nonpositive_mem_tolerance(self):
        payload = quick_payload(n=1)
        with pytest.raises(ValueError):
            compare_bench(payload, payload, mem_tolerance=0.0)

    def test_compare_report_shows_memory_verdict(self):
        baseline = with_maxrss(synthetic_payload(4), 100_000)
        current = with_maxrss(baseline, 160_000)
        text = render_compare_report(compare_bench(baseline, current))
        assert "+mem" in text
        assert "FAIL" in text


class TestRendering:
    def test_bench_report_lists_cells_and_phases(self):
        text = render_bench_report(quick_payload())
        assert "events/s" in text
        assert "des.heap" in text
        for spec in quick_specs():
            assert spec.scheduler in text

    def test_compare_report_shows_verdict_and_warning(self):
        payload = quick_payload(n=1)
        clean = render_compare_report(compare_bench(payload, payload))
        assert "OK" in clean and "FAIL" not in clean
        broken = slow_down(payload, [0], factor=0.1)
        broken["host"] = dict(broken["host"], python="0.0.0")
        failing = render_compare_report(compare_bench(payload, broken))
        assert "FAIL" in failing and "WARNING" in failing


class TestRunBench:
    def test_serial_run_preserves_order_and_bypasses_cache(self):
        runner = ParallelRunner(pool_size=1, progress=None)
        specs = quick_specs(2)
        rows = runner.run_bench(specs, repeats=1)
        assert [r["scheduler"] for r in rows] == [s.scheduler for s in specs]
        # a second run re-executes (wall times are fresh measurements)
        again = runner.run_bench(specs, repeats=1)
        assert [r["scheduler"] for r in again] == [s.scheduler for s in specs]
        assert all(r["wall_s"] > 0.0 for r in again)

    def test_pooled_run_matches_input_order(self):
        runner = ParallelRunner(pool_size=2, progress=None)
        specs = quick_specs(2)
        rows = runner.run_bench(specs, repeats=1)
        assert [r["scheduler"] for r in rows] == [s.scheduler for s in specs]
        bench_payload(rows, git_sha=None)  # rows slot into a valid payload


class TestBenchPeakRss:
    def test_bench_rows_carry_maxrss(self):
        from repro.runner import execute_bench
        from repro.runner.spec import RunSpec, WorkloadSpec
        from repro.machine.config import MachineConfig

        row = execute_bench(RunSpec(
            scheduler="NODC",
            workload=WorkloadSpec.make("exp1", 0.8),
            config=MachineConfig(dd=1),
            seed=0,
            duration_ms=10_000.0,
            warmup_ms=0.0,
        ))
        assert row["maxrss_kb"] is None or row["maxrss_kb"] > 0
        # on POSIX hosts (the CI floor) the figure must be present
        import resource  # noqa: F401  -- import works => getrusage exists

        assert row["maxrss_kb"] > 1_000
