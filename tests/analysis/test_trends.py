"""Trend analytics: ordering, series, regression/drift/memory flags,
report determinism."""

import json

import pytest

from repro.analysis.trends import (
    DEFAULT_WINDOW,
    TRENDS_SCHEMA_VERSION,
    build_cell_series,
    cell_key,
    detect_ranking_drift,
    detect_regressions,
    history_report,
    load_history,
    memory_trajectory,
    order_snapshots,
    render_history_markdown,
    validate_history_payload,
    write_history,
)
from repro.obs.history import HistorySchemaError, HistoryStore

from tests.obs.test_history import write_bench


def bench_record(snapshot, scheduler="GOW", speed=100_000.0,
                 created=None, maxrss_kb=None, throughput_tps=1.0,
                 rate_tps=1.0, dd=1, duration_ms=1000.0):
    return {
        "history_schema_version": 1,
        "kind": "bench.cell",
        "family": "bench",
        "snapshot": snapshot,
        "source": f"{snapshot}.json",
        "created": created,
        "git_sha": None,
        "host": None,
        "cell": {"scheduler": scheduler, "workload": "exp1",
                 "rate_tps": rate_tps, "dd": dd, "seed": 0,
                 "duration_ms": duration_ms},
        "metrics": {"commits_per_wall_s": speed,
                    "events_per_s": speed,
                    "maxrss_kb": maxrss_kb,
                    "throughput_tps": throughput_tps},
    }


def series_of(values, scheduler="GOW", **kwargs):
    """One cell's record per snapshot, snapshots stamped in order."""
    return [
        bench_record(f"snap{i}", scheduler=scheduler, speed=value,
                     created=f"2026-01-{i + 1:02d}T00:00:00Z", **kwargs)
        for i, value in enumerate(values)
    ]


class TestOrdering:
    def test_snapshots_sort_by_created_then_store_order(self):
        records = [
            bench_record("late", created="2026-02-01T00:00:00Z"),
            bench_record("early", created="2026-01-01T00:00:00Z"),
            bench_record("unstamped", created=None),
        ]
        ordered = [s["snapshot"] for s in order_snapshots(records)]
        assert ordered == ["unstamped", "early", "late"]

    def test_cell_key_drops_seed_and_duration(self):
        key = cell_key({"scheduler": "GOW", "workload": "exp1",
                        "rate_tps": 1.0, "dd": 4, "seed": 7,
                        "duration_ms": 60_000.0})
        assert key == ("GOW", "exp1", 1.0, 4)

    def test_longest_horizon_wins_within_a_snapshot(self):
        records = [
            bench_record("s1", speed=50_000.0, duration_ms=1000.0),
            bench_record("s1", speed=80_000.0, duration_ms=5000.0),
        ]
        series = build_cell_series(order_snapshots(records))
        samples = series[("GOW", "exp1", 1.0, 1)]
        assert len(samples) == 1
        assert samples[0]["value"] == 80_000.0


class TestRegressions:
    def test_stable_series_is_ok(self):
        series = build_cell_series(order_snapshots(
            series_of([100.0, 101.0, 99.0, 100.5])
        ))
        verdict = detect_regressions(series)
        assert verdict["ok"] is True
        assert verdict["evaluated"] == 1
        assert verdict["regressions"] == 0

    def test_latest_drop_below_tolerance_regresses(self):
        series = build_cell_series(order_snapshots(
            series_of([100.0, 100.0, 100.0, 60.0])
        ))
        verdict = detect_regressions(series, tolerance=0.25)
        assert verdict["ok"] is False
        assert verdict["regressions"] == 1
        assert verdict["cells"][0]["status"] == "regression"
        assert verdict["cells"][0]["ratio"] == pytest.approx(0.6)
        assert any("median speed ratio" in r for r in verdict["reasons"])

    def test_single_sample_is_insufficient(self):
        series = build_cell_series(order_snapshots(series_of([100.0])))
        verdict = detect_regressions(series)
        assert verdict["evaluated"] == 0
        assert verdict["cells"][0]["status"] == "insufficient"
        # nothing evaluated is a failure, not a vacuous pass
        assert verdict["ok"] is False
        assert any("nothing was evaluated" in r for r in verdict["reasons"])

    def test_trailing_median_absorbs_one_bad_historical_sample(self):
        # a historic dip does not drag the baseline: median of the
        # window, not the mean
        series = build_cell_series(order_snapshots(
            series_of([100.0, 30.0, 100.0, 100.0, 98.0])
        ))
        verdict = detect_regressions(series, tolerance=0.25)
        assert verdict["ok"] is True

    def test_one_noisy_cell_stays_below_quorum_on_a_big_matrix(self):
        records = []
        for i in range(16):
            scheduler = f"S{i}"
            values = [100.0, 100.0, 100.0 if i else 50.0]
            records.extend(series_of(values, scheduler=scheduler))
        verdict = detect_regressions(
            build_cell_series(order_snapshots(records))
        )
        assert verdict["regressions"] == 1
        assert verdict["quorum"] == 2  # ceil(0.125 * 16)
        assert verdict["ok"] is True

    def test_broad_slowdown_trips_the_quorum(self):
        records = []
        for i in range(8):
            records.extend(series_of(
                [100.0, 100.0, 50.0], scheduler=f"S{i}"
            ))
        verdict = detect_regressions(
            build_cell_series(order_snapshots(records))
        )
        assert verdict["ok"] is False
        assert verdict["regressions"] == 8
        assert any("quorum" in r for r in verdict["reasons"])

    def test_memory_growth_flags_and_fails(self):
        series = build_cell_series(order_snapshots(series_of(
            [100.0, 100.0, 100.0],
        )))
        # splice in growing maxrss on the same records
        for key, samples in series.items():
            for i, sample in enumerate(samples):
                sample["maxrss_kb"] = 100_000 * (1 + i)
        verdict = detect_regressions(series, mem_tolerance=0.30)
        assert verdict["mem_growth"] == 1
        assert verdict["ok"] is False
        assert any("memory" in r for r in verdict["reasons"])
        assert verdict["cells"][0]["mem_status"] == "growth"

    def test_window_bounds_the_baseline(self):
        # ancient fast samples fall out of a window-2 baseline
        series = build_cell_series(order_snapshots(
            series_of([1000.0, 1000.0, 100.0, 100.0, 100.0])
        ))
        verdict = detect_regressions(series, window=2)
        assert verdict["ok"] is True
        verdict_wide = detect_regressions(series, window=4)
        assert verdict_wide["ok"] is False

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            detect_regressions({}, tolerance=1.5)
        with pytest.raises(ValueError):
            detect_regressions({}, mem_tolerance=0.0)
        with pytest.raises(ValueError):
            detect_regressions({}, window=0)


class TestRankingDrift:
    def test_flip_is_flagged_not_failed(self):
        records = (
            series_of([100.0, 100.0, 100.0], scheduler="A",
                      throughput_tps=2.0)
            + series_of([90.0, 90.0, 90.0], scheduler="B",
                        throughput_tps=1.0)
        )
        # B overtakes A in the latest snapshot
        records[-1]["metrics"]["throughput_tps"] = 3.0
        series = build_cell_series(order_snapshots(records))
        flags = detect_ranking_drift(series)
        assert len(flags) == 1
        assert flags[0]["before"] == ["A", "B"]
        assert flags[0]["after"] == ["B", "A"]
        # drift never enters the failure verdict
        assert detect_regressions(series)["ok"] is True

    def test_stable_ranking_yields_no_flags(self):
        records = (
            series_of([100.0] * 3, scheduler="A", throughput_tps=2.0)
            + series_of([90.0] * 3, scheduler="B", throughput_tps=1.0)
        )
        assert detect_ranking_drift(
            build_cell_series(order_snapshots(records))
        ) == []

    def test_single_scheduler_groups_are_skipped(self):
        records = series_of([100.0] * 3, scheduler="A")
        assert detect_ranking_drift(
            build_cell_series(order_snapshots(records))
        ) == []


class TestMemoryTrajectory:
    def test_peaks_per_snapshot(self):
        records = series_of([100.0, 100.0], maxrss_kb=None)
        records[1]["metrics"]["maxrss_kb"] = 55_000
        trajectory = memory_trajectory(order_snapshots(records))
        assert len(trajectory) == 1
        assert trajectory[0]["peak_kb"] == 55_000.0


class TestReport:
    def _store(self, tmp_path, slowdown=False):
        store = HistoryStore(tmp_path / "history")
        speeds = [100_000.0, 105_000.0, 102_000.0]
        if slowdown:
            speeds.append(40_000.0)
        for i, speed in enumerate(speeds):
            write_bench(
                tmp_path / f"b{i}.json", n_cells=2, events_per_s=speed,
                created=f"2026-01-{i + 1:02d}T00:00:00Z",
            )
            store.ingest(tmp_path / f"b{i}.json")
        return store

    def test_report_is_deterministic_and_round_trips(self, tmp_path):
        store = self._store(tmp_path)
        payload = history_report(store)
        assert payload == history_report(store)
        assert payload["schema_version"] == TRENDS_SCHEMA_VERSION
        assert len(payload["snapshots"]) == 3
        assert payload["verdict"]["ok"] is True
        json_path = tmp_path / "HISTORY.json"
        md_path = tmp_path / "HISTORY.md"
        write_history(payload, json_path, md_path)
        assert load_history(json_path) == json.loads(
            json.dumps(payload)
        )
        text = md_path.read_text(encoding="utf-8")
        assert text.startswith("# Metrics history")
        assert "**OK**" in text

    def test_report_flags_injected_slowdown(self, tmp_path):
        store = self._store(tmp_path, slowdown=True)
        payload = history_report(store)
        assert payload["verdict"]["ok"] is False
        text = render_history_markdown(payload)
        assert "**REGRESSION**" in text

    def test_series_and_aggregate_track_every_snapshot(self, tmp_path):
        payload = history_report(self._store(tmp_path))
        assert len(payload["aggregate"]) == 3
        assert all(len(s["samples"]) == 3 for s in payload["series"])
        assert payload["aggregate"][0]["events_per_s_sum"] == 200_000.0

    def test_validate_rejects_unknown_version(self):
        with pytest.raises(HistorySchemaError, match="schema_version"):
            validate_history_payload({"schema_version": 999})

    def test_window_default_is_sane(self):
        assert DEFAULT_WINDOW >= 2
