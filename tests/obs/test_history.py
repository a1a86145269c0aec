"""History store: ingest, dedup, family detection, schema gate."""

import json

import pytest

from repro.bench import bench_payload
from repro.obs.history import (
    HISTORY_SCHEMA_VERSION,
    HistorySchemaError,
    HistoryStore,
    artifact_digest,
    detect_family,
    extract_records,
    validate_history_record,
)


def bench_rows(n_cells, events_per_s=100_000.0, maxrss_kb=None):
    rows = []
    for i in range(n_cells):
        events = 100_000  # a faster run does the same events in less wall
        row = {
            "scheduler": f"S{i}", "workload": {"kind": "exp1",
                                               "rate_tps": 1.0},
            "dd": 1, "seed": 0, "duration_ms": 1_000.0, "warmup_ms": 0.0,
            "repeats": 1, "wall_s": events / events_per_s,
            "events": events, "events_per_s": events_per_s,
            "wall_per_sim_s": 1.0,
            "profile": {"phases": {}, "total_s": 1.0, "other_s": 1.0},
            "completed": 1, "throughput_tps": 1.0,
        }
        if maxrss_kb is not None:
            row["maxrss_kb"] = maxrss_kb
        rows.append(row)
    return rows


def write_bench(path, n_cells=2, events_per_s=100_000.0, created=None,
                maxrss_kb=None):
    payload = bench_payload(
        bench_rows(n_cells, events_per_s, maxrss_kb=maxrss_kb),
        git_sha="cafe1234",
    )
    if created is not None:
        payload["created"] = created
    path.write_text(json.dumps(payload), encoding="utf-8")
    return payload


def arena_cell(scheduler="NODC", throughput=10.0, with_budget=False):
    cell = {
        "scheduler": scheduler, "family": "paper", "workload": "exp1",
        "rate_tps": 0.8, "dd": 1, "seed": 0, "duration_ms": 1000.0,
        "completed": 5, "throughput_tps": throughput,
        "mean_response_s": 0.5, "p95_response_s": 0.9, "abort_rate": 0.1,
        "blocks": 0, "delays": 0, "restarts": 0,
        "admission_rejections": 0,
        "cn_utilisation": 0.5, "dpn_utilisation": 0.5,
    }
    if with_budget:
        cell["time_budget"] = {
            "queued_ms": 100.0, "blocked_ms": 50.0,
            "executing_ms": 800.0, "wasted_ms": 50.0,
            "total_ms": 1000.0,
            "fractions": {"queued": 0.1, "blocked": 0.05,
                          "executing": 0.8, "wasted": 0.05},
        }
    return cell


def write_arena(path, with_budget=False):
    payload = {
        "schema_version": 1, "schema": 1, "kind": "arena",
        "cells": [arena_cell(with_budget=with_budget)],
        "failed_cells": 0,
        "created": "2026-08-08T10:00:00Z", "git_sha": "beef5678",
    }
    path.write_text(json.dumps(payload), encoding="utf-8")
    return payload


def write_explain(path):
    payload = {
        "schema": 1, "kind": "explain",
        "source": {"scheduler": "GOW", "workload": "exp1",
                   "rate_tps": 0.8, "seed": 0, "duration_ms": 1000.0},
        "budget": {
            "queued_ms": 10.0, "blocked_ms": 5.0, "executing_ms": 80.0,
            "wasted_ms": 5.0, "total_ms": 100.0, "makespan_ms": 90.0,
            "mean_response_ms": 20.0, "transactions": 5, "committed": 5,
            "restarts": 0, "in_flight": 0,
            "fractions": {"queued": 0.1, "blocked": 0.05,
                          "executing": 0.8, "wasted": 0.05},
        },
        "hotspots": [], "critical_path": [], "blocking_edges": [],
        "anomalies": [], "transactions": [],
    }
    path.write_text(json.dumps(payload), encoding="utf-8")
    return payload


def write_telemetry(path):
    records = [
        {"schema": 1, "ts": 1.0, "kind": "batch.meta", "batch": "b-1",
         "label": "t", "total": 2},
        {"schema": 1, "ts": 2.0, "kind": "run.heartbeat", "batch": "b-1",
         "cell": 0, "host": "hostA", "maxrss_kb": 50_000},
        {"schema": 1, "ts": 3.0, "kind": "run.done", "batch": "b-1",
         "cell": 1, "host": "hostB", "maxrss_kb": 70_000},
    ]
    path.write_text(
        "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8"
    )


class TestDetectFamily:
    def test_detects_each_family(self, tmp_path):
        write_bench(tmp_path / "b.json")
        write_arena(tmp_path / "a.json")
        write_explain(tmp_path / "e.json")
        write_telemetry(tmp_path / "t.jsonl")
        assert detect_family(tmp_path / "b.json") == "bench"
        assert detect_family(tmp_path / "a.json") == "arena"
        assert detect_family(tmp_path / "e.json") == "explain"
        assert detect_family(tmp_path / "t.jsonl") == "telemetry"

    def test_rejects_unknown_json(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"what": "ever"}', encoding="utf-8")
        with pytest.raises(ValueError, match="unrecognised"):
            detect_family(path)

    def test_rejects_non_telemetry_jsonl(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"kind": "txn.arrive"}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="not a telemetry stream"):
            detect_family(path)


class TestExtract:
    def test_bench_rows_become_cell_records(self, tmp_path):
        write_bench(tmp_path / "b.json", n_cells=3, maxrss_kb=42_000)
        family, records = extract_records(tmp_path / "b.json")
        assert family == "bench"
        assert len(records) == 3
        record = records[0]
        assert record["kind"] == "bench.cell"
        assert record["history_schema_version"] == HISTORY_SCHEMA_VERSION
        assert record["git_sha"] == "cafe1234"
        assert record["cell"]["scheduler"] == "S0"
        assert record["cell"]["workload"] == "exp1"
        assert record["metrics"]["events_per_s"] == 100_000.0
        assert record["metrics"]["commits_per_wall_s"] == 1.0
        assert record["metrics"]["maxrss_kb"] == 42_000
        assert record["snapshot"] == artifact_digest(tmp_path / "b.json")

    def test_arena_cells_carry_time_budget_shares(self, tmp_path):
        write_arena(tmp_path / "a.json", with_budget=True)
        _family, records = extract_records(tmp_path / "a.json")
        assert records[0]["kind"] == "arena.cell"
        assert records[0]["metrics"]["executing_share"] == 0.8
        assert records[0]["metrics"]["throughput_tps"] == 10.0

    def test_explain_budget_record(self, tmp_path):
        write_explain(tmp_path / "e.json")
        _family, records = extract_records(tmp_path / "e.json")
        assert len(records) == 1
        record = records[0]
        assert record["kind"] == "explain.budget"
        assert record["cell"]["scheduler"] == "GOW"
        assert record["metrics"]["queued_share"] == 0.1
        assert record["metrics"]["total_ms"] == 100.0

    def test_telemetry_peak_is_the_high_water_mark(self, tmp_path):
        write_telemetry(tmp_path / "t.jsonl")
        _family, records = extract_records(tmp_path / "t.jsonl")
        assert len(records) == 1
        record = records[0]
        assert record["kind"] == "telemetry.peak"
        assert record["metrics"]["maxrss_kb"] == 70_000
        assert record["metrics"]["batch"] == "b-1"
        assert record["host"] == "hostA,hostB"

    def test_family_override_must_be_known(self, tmp_path):
        write_bench(tmp_path / "b.json")
        with pytest.raises(ValueError, match="unknown artifact family"):
            extract_records(tmp_path / "b.json", family="nope")

    def test_invalid_bench_payload_is_rejected(self, tmp_path):
        payload = write_bench(tmp_path / "b.json")
        payload["schema_version"] = 999
        payload["bench_schema_version"] = 999
        (tmp_path / "bad.json").write_text(
            json.dumps(payload), encoding="utf-8"
        )
        with pytest.raises(ValueError, match="unknown bench schema_version"):
            extract_records(tmp_path / "bad.json", family="bench")


class TestStore:
    def test_ingest_appends_and_dedups(self, tmp_path):
        store = HistoryStore(tmp_path / "history")
        write_bench(tmp_path / "b.json", n_cells=2)
        outcome = store.ingest(tmp_path / "b.json")
        assert outcome == {
            "family": "bench",
            "snapshot": artifact_digest(tmp_path / "b.json"),
            "added": 2,
            "skipped": False,
        }
        again = store.ingest(tmp_path / "b.json")
        assert again["skipped"] is True
        assert again["added"] == 0
        assert len(store.records()) == 2

    def test_different_artifacts_accumulate(self, tmp_path):
        store = HistoryStore(tmp_path / "history")
        write_bench(tmp_path / "b1.json", events_per_s=100_000.0,
                    created="2026-01-01T00:00:00Z")
        write_bench(tmp_path / "b2.json", events_per_s=120_000.0,
                    created="2026-01-02T00:00:00Z")
        write_arena(tmp_path / "a.json")
        for name in ("b1.json", "b2.json", "a.json"):
            store.ingest(tmp_path / name)
        records = store.records()
        assert len(records) == 5  # 2 + 2 bench cells + 1 arena cell
        assert len(store.snapshots()) == 3

    def test_empty_store_reads_as_empty(self, tmp_path):
        store = HistoryStore(tmp_path / "nowhere")
        assert store.records() == []
        assert store.snapshots() == set()

    def test_append_validates(self, tmp_path):
        store = HistoryStore(tmp_path / "history")
        with pytest.raises(HistorySchemaError):
            store.append([{"history_schema_version": 999}])
        assert not store.path.exists()

    def test_load_rejects_unknown_schema_version(self, tmp_path):
        store = HistoryStore(tmp_path / "history")
        write_bench(tmp_path / "b.json")
        store.ingest(tmp_path / "b.json")
        record = json.loads(store.path.read_text().splitlines()[0])
        record["history_schema_version"] = 999
        store.path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(HistorySchemaError, match="history_schema_version"):
            store.records()

    def test_load_pinpoints_corrupt_lines(self, tmp_path):
        store = HistoryStore(tmp_path / "history")
        write_bench(tmp_path / "b.json", n_cells=1)
        store.ingest(tmp_path / "b.json")
        with store.path.open("a", encoding="utf-8") as handle:
            handle.write("{not json\n")
        with pytest.raises(HistorySchemaError, match=":2"):
            store.records()


class TestRecordValidation:
    def test_round_trip(self, tmp_path):
        write_bench(tmp_path / "b.json", n_cells=1)
        _family, records = extract_records(tmp_path / "b.json")
        validate_history_record(records[0])

    def test_cellless_kinds_allow_null_cell(self):
        validate_history_record({
            "history_schema_version": HISTORY_SCHEMA_VERSION,
            "kind": "telemetry.peak", "family": "telemetry",
            "snapshot": "abc", "source": "t.jsonl", "created": None,
            "git_sha": None, "host": None, "cell": None,
            "metrics": {"maxrss_kb": 1},
        })

    def test_cell_kinds_require_scheduler(self):
        with pytest.raises(HistorySchemaError, match="scheduler"):
            validate_history_record({
                "history_schema_version": HISTORY_SCHEMA_VERSION,
                "kind": "bench.cell", "family": "bench",
                "snapshot": "abc", "source": "b.json", "created": None,
                "git_sha": None, "host": None, "cell": {},
                "metrics": {},
            })

    def test_unknown_kind_rejected(self):
        with pytest.raises(HistorySchemaError, match="kind"):
            validate_history_record({
                "history_schema_version": HISTORY_SCHEMA_VERSION,
                "kind": "mystery", "family": "bench",
                "snapshot": "abc", "source": "b.json", "created": None,
                "git_sha": None, "host": None, "cell": None,
                "metrics": {},
            })
