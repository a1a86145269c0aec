"""Tests for the command-line interface."""

import json

import pytest

from repro.analysis.arena import load_arena
from repro.bench import load_bench_json, validate_bench, write_bench_json
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "LOW"])
        assert args.scheduler == "LOW"
        assert args.workload == "exp1"
        assert args.rate == 1.0
        assert args.dd == 1
        assert args.mpl is None

    def test_run_custom_flags(self):
        args = build_parser().parse_args([
            "run", "GOW", "--workload", "exp2", "--rate", "0.5",
            "--dd", "4", "--mpl", "8", "--seed", "7",
        ])
        assert args.workload == "exp2"
        assert args.rate == 0.5
        assert args.dd == 4
        assert args.mpl == 8
        assert args.seed == 7

    def test_bad_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "LOW", "--workload", "nope"])


class TestCommands:
    def test_schedulers_lists_paper_lineup(self, capsys):
        assert main(["schedulers"]) == 0
        out = capsys.readouterr().out
        for name in ("NODC", "ASL", "GOW", "LOW", "C2PL", "OPT"):
            assert name in out

    def test_experiments_lists_all_ten(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        for eid in ("fig8", "table2", "fig9", "table3", "fig10",
                    "fig11", "table4", "fig12", "fig13", "table5"):
            assert eid in out

    def test_run_exp1(self, capsys):
        code = main([
            "run", "ASL", "--rate", "0.4",
            "--duration", "120000", "--warmup", "20000",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "throughput (TPS)" in out
        assert "ASL" in out

    def test_run_exp2(self, capsys):
        code = main([
            "run", "LOW", "--workload", "exp2", "--rate", "0.4",
            "--duration", "100000", "--warmup", "0",
        ])
        assert code == 0
        assert "LOW" in capsys.readouterr().out

    def test_run_exp3_with_sigma(self, capsys):
        code = main([
            "run", "GOW", "--workload", "exp3", "--sigma", "2.0",
            "--rate", "0.3", "--duration", "100000", "--warmup", "0",
        ])
        assert code == 0

    def test_run_with_mpl(self, capsys):
        code = main([
            "run", "C2PL", "--mpl", "4", "--rate", "0.4",
            "--duration", "100000", "--warmup", "0",
        ])
        assert code == 0

    def test_run_unknown_scheduler_raises(self):
        with pytest.raises(KeyError):
            main(["run", "NOPE", "--duration", "1000", "--warmup", "0"])


class TestTraceCommand:
    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace", "LOW"])
        assert args.jsonl == "trace.jsonl"
        assert args.chrome == ""
        assert args.top == 5
        assert args.max_events is None

    def test_trace_writes_artifacts_and_summary(self, tmp_path, capsys):
        jsonl = tmp_path / "t.jsonl"
        chrome = tmp_path / "t.json"
        code = main([
            "trace", "C2PL", "--rate", "0.6",
            "--duration", "40000", "--warmup", "0",
            "--jsonl", str(jsonl), "--chrome", str(chrome),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "schema valid" in out
        assert "trace summary" in out
        assert "events by kind" in out
        assert jsonl.exists() and chrome.exists()

    def test_trace_jsonl_can_be_disabled(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main([
            "trace", "NODC", "--rate", "0.4",
            "--duration", "20000", "--warmup", "0", "--jsonl", "",
        ])
        assert code == 0
        assert not (tmp_path / "trace.jsonl").exists()
        assert "trace summary" in capsys.readouterr().out

    def test_trace_max_events_warns_on_drop(self, tmp_path, capsys):
        code = main([
            "trace", "NODC", "--rate", "0.6",
            "--duration", "40000", "--warmup", "0",
            "--jsonl", str(tmp_path / "t.jsonl"), "--max-events", "10",
        ])
        assert code == 0
        assert "dropped" in capsys.readouterr().out

    def test_trace_bad_max_events(self):
        with pytest.raises(SystemExit):
            main(["trace", "LOW", "--max-events", "0",
                  "--duration", "1000", "--warmup", "0"])


class TestSweepCommand:
    def test_sweep_reports_cache_counts_and_manifest(self, tmp_path, capsys):
        argv = [
            "sweep", "NODC", "--rates", "0.4",
            "--duration", "20000", "--warmup", "0",
            "--cache-dir", str(tmp_path / "cache"),
            "--runs-dir", str(tmp_path / "runs"),
            "--traces-dir", str(tmp_path / "traces"),
            "--pool", "1",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "cache hits=0 misses=1 simulated=1 coalesced=0" in out
        assert f"manifest={tmp_path / 'runs'}" in out
        # the repeat is served entirely from the cache
        assert main(argv) == 0
        assert "cache hits=1 misses=0" in capsys.readouterr().out

    def test_sweep_trace_reports_artifacts(self, tmp_path, capsys):
        assert main([
            "sweep", "NODC", "--rates", "0.4", "--trace",
            "--duration", "20000", "--warmup", "0",
            "--cache-dir", "", "--runs-dir", "",
            "--traces-dir", str(tmp_path / "traces"),
            "--pool", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "trace artifacts: 1 file(s)" in out
        assert len(list((tmp_path / "traces").iterdir())) == 1


class TestRunSeries:
    def test_run_writes_series_artifacts(self, tmp_path, capsys):
        series = tmp_path / "run.series.json"
        csv = tmp_path / "run.series.csv"
        code = main([
            "run", "LOW", "--rate", "0.6",
            "--duration", "40000", "--warmup", "0",
            "--series", str(series), "--series-csv", str(csv),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "[series]" in out
        assert "p95 exact" in out
        assert series.exists() and csv.exists()

    def test_run_without_series_flags_writes_nothing(self, tmp_path,
                                                     capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main([
            "run", "NODC", "--rate", "0.4",
            "--duration", "20000", "--warmup", "0",
        ]) == 0
        assert "[series]" not in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_bad_sample_interval_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "LOW", "--duration", "1000", "--warmup", "0",
                  "--series", "x.json", "--sample-interval", "0"])


class TestReportCommand:
    def _artifact(self, tmp_path):
        path = tmp_path / "run.series.json"
        assert main([
            "run", "GOW", "--rate", "0.6",
            "--duration", "40000", "--warmup", "0", "--series", str(path),
        ]) == 0
        return path

    def test_report_renders_sparklines(self, tmp_path, capsys):
        path = self._artifact(tmp_path)
        capsys.readouterr()
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "cn.util" in out
        assert "sample(s)" in out

    def test_report_missing_file_fails(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope.json")]) == 1
        assert "ERROR" in capsys.readouterr().err


class TestBenchCommand:
    def _bench(self, tmp_path, name, capsys):
        path = tmp_path / name
        assert main([
            "bench", "--duration", "5000", "--repeats", "1",
            "--output", str(path),
        ]) == 0
        capsys.readouterr()
        return path

    def test_bench_writes_valid_artifact(self, tmp_path, capsys):
        path = tmp_path / "BENCH_now.json"
        assert main([
            "bench", "--duration", "5000", "--repeats", "1",
            "--output", str(path),
        ]) == 0
        out = capsys.readouterr().out
        assert "schema valid" in out
        assert "events/s" in out
        validate_bench(load_bench_json(path))

    def test_compare_clean_exits_zero(self, tmp_path, capsys):
        path = self._bench(tmp_path, "a.json", capsys)
        assert main(["bench", "--compare", str(path), str(path)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_compare_flags_injected_regression(self, tmp_path, capsys):
        path = self._bench(tmp_path, "a.json", capsys)
        payload = load_bench_json(path)
        for row in payload["runs"]:
            row["wall_s"] *= 2  # synthetic 2x slowdown
            row["events_per_s"] *= 0.5
        slow = tmp_path / "slow.json"
        write_bench_json(payload, slow)
        assert main(["bench", "--compare", str(path), str(slow)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_compare_missing_file_fails(self, tmp_path, capsys):
        assert main([
            "bench", "--compare",
            str(tmp_path / "a.json"), str(tmp_path / "b.json"),
        ]) == 1
        assert "ERROR" in capsys.readouterr().err

    def test_bad_repeats_rejected(self):
        with pytest.raises(SystemExit):
            main(["bench", "--repeats", "0", "--duration", "1000"])

    def test_compare_memory_regression_fails(self, tmp_path, capsys):
        path = self._bench(tmp_path, "a.json", capsys)
        payload = load_bench_json(path)
        for row in payload["runs"]:
            row["maxrss_kb"] = 100_000
        base = tmp_path / "base.json"
        write_bench_json(payload, base)
        for row in payload["runs"]:
            row["maxrss_kb"] = 160_000  # 1.6x > the 30% gate
        grown = tmp_path / "grown.json"
        write_bench_json(payload, grown)
        assert main(["bench", "--compare", str(base), str(grown)]) == 1
        out = capsys.readouterr().out
        assert "+mem" in out and "FAIL" in out
        # a looser gate lets the same artifacts pass
        assert main([
            "bench", "--compare", str(base), str(grown),
            "--mem-tolerance", "0.75",
        ]) == 0


class TestHistoryCommand:
    def _template(self, tmp_path, capsys):
        """One real quick-bench payload reused as the artifact template
        (measured wall-clock numbers are replaced with pinned synthetic
        speeds so the trend verdict is deterministic)."""
        path = tmp_path / "template.json"
        assert main([
            "bench", "--quick", "--duration", "5000", "--repeats", "1",
            "--output", str(path),
        ]) == 0
        capsys.readouterr()
        return load_bench_json(path)

    def _bench_artifact(self, tmp_path, template, name, factor, created):
        payload = json.loads(json.dumps(template))
        payload["created"] = created
        for row in payload["runs"]:
            row["events_per_s"] = 100_000.0 * factor
            row["wall_s"] = row["events"] / row["events_per_s"]
        return write_bench_json(payload, tmp_path / name)

    def _seed_store(self, tmp_path, capsys, slow_last=False):
        store = tmp_path / "history"
        template = self._template(tmp_path, capsys)
        factors = [1.0, 1.05, 0.98]
        if slow_last:
            factors.append(0.4)
        paths = [
            self._bench_artifact(
                tmp_path, template, f"b{i}.json", factor,
                f"2026-01-{i + 1:02d}T00:00:00Z",
            )
            for i, factor in enumerate(factors)
        ]
        assert main([
            "history", "ingest", *[str(p) for p in paths],
            "--store", str(store),
        ]) == 0
        capsys.readouterr()
        return store, template

    def test_ingest_reports_and_dedups(self, tmp_path, capsys):
        store = tmp_path / "history"
        template = self._template(tmp_path, capsys)
        path = self._bench_artifact(
            tmp_path, template, "b.json", 1.0, "2026-01-01T00:00:00Z"
        )
        assert main([
            "history", "ingest", str(path), "--store", str(store),
        ]) == 0
        out = capsys.readouterr().out
        assert "bench record(s)" in out
        assert main([
            "history", "ingest", str(path), "--store", str(store),
        ]) == 0
        assert "already ingested" in capsys.readouterr().out

    def test_ingest_unknown_artifact_fails(self, tmp_path, capsys):
        bogus = tmp_path / "x.json"
        bogus.write_text('{"mystery": 1}', encoding="utf-8")
        assert main([
            "history", "ingest", str(bogus),
            "--store", str(tmp_path / "history"),
        ]) == 1
        assert "ERROR" in capsys.readouterr().err

    def test_report_writes_artifact_pair(self, tmp_path, capsys):
        store, _template = self._seed_store(tmp_path, capsys)
        assert main(["history", "report", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "# Metrics history" in out
        assert "schema valid" in out
        from repro.analysis.trends import load_history
        payload = load_history(store / "HISTORY.json")
        assert len(payload["snapshots"]) == 3
        assert payload["verdict"]["ok"] is True
        assert (store / "HISTORY.md").exists()

    def test_check_passes_then_fails_on_injected_slowdown(
        self, tmp_path, capsys
    ):
        store, template = self._seed_store(tmp_path, capsys)
        assert main(["history", "check", "--store", str(store)]) == 0
        assert "OK" in capsys.readouterr().out
        slow = self._bench_artifact(
            tmp_path, template, "slow.json", 0.4, "2026-01-09T00:00:00Z"
        )
        assert main([
            "history", "ingest", str(slow), "--store", str(store),
        ]) == 0
        capsys.readouterr()
        assert main(["history", "check", "--store", str(store)]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_check_fails_when_no_cell_is_evaluated(self, tmp_path, capsys):
        """One snapshot gives no cell a baseline: the check must fail
        with a reason instead of passing over zero cells."""
        store = tmp_path / "history"
        template = self._template(tmp_path, capsys)
        only = self._bench_artifact(
            tmp_path, template, "only.json", 1.0, "2026-01-01T00:00:00Z"
        )
        assert main([
            "history", "ingest", str(only), "--store", str(store),
        ]) == 0
        capsys.readouterr()
        assert main(["history", "check", "--store", str(store)]) == 1
        out = capsys.readouterr().out
        assert "0 cell(s) evaluated" in out
        assert "nothing was evaluated" in out

    def test_empty_store_is_an_error(self, tmp_path, capsys):
        assert main([
            "history", "report", "--store", str(tmp_path / "empty"),
        ]) == 1
        assert "empty" in capsys.readouterr().err

    def test_missing_subcommand_exits_two(self, capsys):
        assert main(["history"]) == 2
        assert "subcommand" in capsys.readouterr().err


class TestTelemetryCommands:
    def _sweep(self, tmp_path, capsys):
        assert main([
            "sweep", "NODC,C2PL", "--rates", "0.4",
            "--duration", "20000", "--warmup", "0",
            "--cache-dir", "", "--runs-dir", str(tmp_path / "runs"),
            "--pool", "2", "--telemetry",
        ]) == 0
        out = capsys.readouterr().out
        assert "telemetry: batch" in out
        return out

    def test_sweep_telemetry_then_watch_once(self, tmp_path, capsys):
        self._sweep(tmp_path, capsys)
        assert main([
            "watch", "latest", "--once",
            "--runs-dir", str(tmp_path / "runs"),
        ]) == 0
        out = capsys.readouterr().out
        assert "complete" in out
        assert "100.0%" in out
        assert "2/2 finished" in out

    def test_runs_list_and_show(self, tmp_path, capsys):
        self._sweep(tmp_path, capsys)
        assert main([
            "runs", "list", "--runs-dir", str(tmp_path / "runs"),
        ]) == 0
        out = capsys.readouterr().out
        assert "cli-sweep" in out
        assert "complete" in out
        assert main([
            "runs", "show", "latest",
            "--runs-dir", str(tmp_path / "runs"),
        ]) == 0
        out = capsys.readouterr().out
        assert '"status": "complete"' in out
        assert "telemetry.jsonl" in out

    def test_tail_once_prints_validated_records(self, tmp_path, capsys):
        self._sweep(tmp_path, capsys)
        assert main([
            "tail", "latest", "--once",
            "--runs-dir", str(tmp_path / "runs"),
        ]) == 0
        out = capsys.readouterr().out
        assert "batch.meta" in out
        assert "run.done" in out
        assert "batch.done" in out

    def test_watch_unknown_batch_fails_cleanly(self, tmp_path, capsys):
        assert main([
            "watch", "nope", "--once",
            "--runs-dir", str(tmp_path / "runs"),
        ]) == 1
        assert "ERROR" in capsys.readouterr().err

    def test_watch_batch_without_telemetry_fails_cleanly(
        self, tmp_path, capsys
    ):
        assert main([
            "sweep", "NODC", "--rates", "0.4",
            "--duration", "20000", "--warmup", "0",
            "--cache-dir", "", "--runs-dir", str(tmp_path / "runs"),
            "--pool", "1",
        ]) == 0
        capsys.readouterr()
        assert main([
            "watch", "latest", "--once",
            "--runs-dir", str(tmp_path / "runs"),
        ]) == 1
        assert "without" in capsys.readouterr().err

    def test_sweep_telemetry_needs_runs_dir(self):
        with pytest.raises(SystemExit):
            main([
                "sweep", "NODC", "--rates", "0.4",
                "--duration", "20000", "--warmup", "0",
                "--runs-dir", "", "--telemetry",
            ])

    def test_bench_telemetry_links_batch(self, tmp_path, capsys):
        out_path = tmp_path / "bench.json"
        assert main([
            "bench", "--duration", "5000", "--repeats", "1",
            "--out", str(tmp_path), "--output", str(out_path),
            "--telemetry", "--runs-dir", str(tmp_path / "runs"),
        ]) == 0
        payload = load_bench_json(out_path)
        assert payload.get("batch")
        capsys.readouterr()
        assert main([
            "runs", "list", "--runs-dir", str(tmp_path / "runs"),
        ]) == 0
        assert "bench" in capsys.readouterr().out


class TestSchedulersCommand:
    def test_lists_modern_lineup_with_families(self, capsys):
        assert main(["schedulers"]) == 0
        out = capsys.readouterr().out
        for name in ("DGCC", "CAR", "PRED"):
            assert name in out
        assert "modern" in out and "paper" in out and "extension" in out
        # parameterised spellings are advertised
        assert "DGCC(B=" in out


class TestArenaCommand:
    def run_arena(self, tmp_path, *extra):
        return main([
            "arena",
            "--schedulers", "NODC,DGCC",
            "--rates", "0.8",
            "--dds", "1",
            "--duration", "20000",
            "--warmup", "0",
            "--pool", "1",
            "--cache-dir", str(tmp_path / "cache"),
            "--out", str(tmp_path / "arena"),
            "--traces-dir", str(tmp_path / "traces"),
            *extra,
        ])

    def test_writes_valid_report_pair(self, tmp_path, capsys):
        assert self.run_arena(tmp_path, "--no-phases", "--no-explain") == 0
        out = capsys.readouterr().out
        assert "2 cell(s)" in out and "schema valid" in out
        payload = load_arena(tmp_path / "arena" / "ARENA.json")
        assert [c["scheduler"] for c in payload["cells"]] == ["NODC", "DGCC"]
        assert "phase_cost_s" not in payload["cells"][0]
        assert "time_budget" not in payload["cells"][0]
        md = (tmp_path / "arena" / "ARENA.md").read_text(encoding="utf-8")
        assert "**(best)**" in md

    def test_phase_pass_adds_cost_split(self, tmp_path, capsys):
        assert self.run_arena(tmp_path, "--no-explain") == 0
        payload = load_arena(tmp_path / "arena" / "ARENA.json")
        for cell in payload["cells"]:
            assert cell["phase_cost_s"]
        assert "hot phase" in (tmp_path / "arena" / "ARENA.md").read_text(
            encoding="utf-8"
        )

    def test_explain_pass_adds_time_budgets(self, tmp_path, capsys):
        assert self.run_arena(tmp_path, "--no-phases") == 0
        payload = load_arena(tmp_path / "arena" / "ARENA.json")
        for cell in payload["cells"]:
            budget = cell["time_budget"]
            assert budget["total_ms"] > 0
            assert set(budget["fractions"]) == {
                "queued", "blocked", "executing", "wasted",
            }
        md = (tmp_path / "arena" / "ARENA.md").read_text(encoding="utf-8")
        assert "%queued" in md and "%wasted" in md
        assert (tmp_path / "traces").glob("*.trace.jsonl")

    def test_unknown_scheduler_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            self.run_arena(tmp_path, "--schedulers", "NOPE")

    def test_empty_axes_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            self.run_arena(tmp_path, "--rates", "")


class TestBackendsCommand:
    def test_backends_lists_registry_with_capabilities(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        for name in ("serial", "local", "asyncio", "shared-dir"):
            assert name in out
        assert "distributed" in out
        assert "kill" in out

    def test_sweep_accepts_and_reports_backend(self, tmp_path, capsys):
        assert main([
            "sweep", "NODC", "--rates", "0.4",
            "--duration", "20000", "--warmup", "0",
            "--cache-dir", str(tmp_path / "cache"), "--runs-dir", "",
            "--pool", "1", "--backend", "serial",
        ]) == 0
        assert "backend=serial" in capsys.readouterr().out

    def test_unknown_backend_rejected_at_parse_time(self):
        with pytest.raises(SystemExit):
            main(["sweep", "NODC", "--backend", "fpga"])

    def test_shared_dir_requires_spool(self):
        with pytest.raises(SystemExit, match="--spool"):
            main(["sweep", "NODC", "--rates", "0.4",
                  "--backend", "shared-dir"])

    def test_spool_rejected_for_other_backends(self, tmp_path):
        with pytest.raises(SystemExit, match="shared-dir"):
            main(["sweep", "NODC", "--rates", "0.4",
                  "--backend", "local", "--spool", str(tmp_path)])

    def test_bench_artifact_records_backend(self, tmp_path, capsys):
        path = tmp_path / "b.json"
        assert main([
            "bench", "--duration", "5000", "--repeats", "1",
            "--quick", "--output", str(path), "--backend", "serial",
        ]) == 0
        assert load_bench_json(path)["backend"] == "serial"


class TestCacheCommand:
    def _warm(self, tmp_path, capsys, rates="0.4"):
        assert main([
            "sweep", "NODC", "--rates", rates,
            "--duration", "20000", "--warmup", "0",
            "--cache-dir", str(tmp_path / "cache"), "--runs-dir", "",
            "--pool", "1",
        ]) == 0
        capsys.readouterr()

    def test_cache_stats(self, tmp_path, capsys):
        self._warm(tmp_path, capsys)
        assert main(["cache", "--cache-dir", str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "entries" in out and "result cache" in out

    def test_cache_prune_by_count(self, tmp_path, capsys):
        self._warm(tmp_path, capsys, rates="0.4,0.5")
        assert main([
            "cache", "--cache-dir", str(tmp_path / "cache"),
            "--max-entries", "1",
        ]) == 0
        assert "pruned 1 of 2" in capsys.readouterr().out

    def test_cache_dry_run_keeps_entries(self, tmp_path, capsys):
        self._warm(tmp_path, capsys)
        assert main([
            "cache", "--cache-dir", str(tmp_path / "cache"),
            "--max-entries", "0", "--dry-run",
        ]) == 0
        assert "would prune 1" in capsys.readouterr().out
        assert main(["cache", "--cache-dir",
                     str(tmp_path / "cache")]) == 0
        assert "entries" in capsys.readouterr().out

    def test_dry_run_without_criteria_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["cache", "--cache-dir", str(tmp_path), "--dry-run"])


class TestWorkerPoolCommand:
    def test_worker_pool_drains_a_spooled_ticket(self, tmp_path, capsys):
        import threading

        spool = tmp_path / "spool"
        sweep = threading.Thread(target=main, args=([
            "sweep", "NODC", "--rates", "0.4",
            "--duration", "20000", "--warmup", "0",
            "--cache-dir", "", "--runs-dir", "",
            "--backend", "shared-dir", "--spool", str(spool),
            "--spool-workers", "0",
        ],))
        sweep.start()
        code = main([
            "worker-pool", "--spool", str(spool),
            "--idle-exit", "30", "--max-tasks", "1",
        ])
        sweep.join(timeout=60.0)
        assert code == 0
        assert "1 run(s) executed" in capsys.readouterr().out

    def test_worker_pool_validates_flags(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["worker-pool", "--spool", str(tmp_path), "--poll", "0"])
        with pytest.raises(SystemExit):
            main(["worker-pool", "--spool", str(tmp_path),
                  "--max-tasks", "0"])


class TestExplainCommand:
    @pytest.fixture()
    def trace_path(self, tmp_path):
        path = tmp_path / "run.trace.jsonl"
        assert main([
            "trace", "LOW", "--rate", "1.2", "--duration", "30000",
            "--warmup", "0", "--seed", "3",
            "--jsonl", str(path), "--chrome", "",
        ]) == 0
        return path

    def test_explain_writes_validated_artifact_pair(
        self, trace_path, tmp_path, capsys
    ):
        out = tmp_path / "explain"
        assert main(["explain", str(trace_path), "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "## Time budget" in stdout
        assert "schema valid" in stdout
        from repro.analysis.explain import load_explain

        payload = load_explain(out / "EXPLAIN.json")
        assert payload["source"]["trace"] == str(trace_path)
        assert (out / "EXPLAIN.md").read_text(encoding="utf-8").startswith(
            "# Explain"
        )

    def test_explain_json_emits_machine_readable_payload(
        self, trace_path, capsys
    ):
        import json as json_mod

        assert main([
            "explain", str(trace_path), "--json", "--out", "",
        ]) == 0
        payload = json_mod.loads(capsys.readouterr().out)
        assert payload["kind"] == "explain"
        assert payload["budget"]["total_ms"] > 0

    def test_explain_txn_deep_dive(self, trace_path, capsys):
        assert main([
            "explain", str(trace_path), "--txn", "1", "--out", "",
        ]) == 0
        assert "# Transaction T1" in capsys.readouterr().out

    def test_explain_rejects_json_plus_md(self, trace_path):
        with pytest.raises(SystemExit):
            main(["explain", str(trace_path), "--json", "--md"])

    def test_explain_missing_target_fails(self, tmp_path):
        assert main([
            "explain", str(tmp_path / "nope.trace.jsonl"), "--out", "",
        ]) != 0

    def test_report_leads_with_budget_headline(
        self, trace_path, tmp_path, capsys
    ):
        series = tmp_path / "run.series.json"
        assert main([
            "run", "LOW", "--rate", "1.2", "--duration", "30000",
            "--warmup", "0", "--seed", "3", "--series", str(series),
        ]) == 0
        capsys.readouterr()
        assert main([
            "report", str(series), "--explain", str(trace_path),
        ]) == 0
        out = capsys.readouterr().out
        assert out.startswith("time budget")
        assert "queued" in out and "wasted" in out


class TestJanitorCommand:
    def test_janitor_sweeps_and_reports_counts(self, tmp_path, capsys):
        from repro.runner.backends.shared_dir import spool_dirs

        _pending, _claimed, done = spool_dirs(tmp_path)
        litter = done / "old.result.json"
        litter.write_text("{}")
        import os as os_mod

        old = litter.stat().st_mtime - 7200.0
        os_mod.utime(litter, (old, old))
        assert main([
            "worker-pool", "--spool", str(tmp_path), "--janitor",
        ]) == 0
        out = capsys.readouterr().out
        assert "1 stale result(s)" in out
        assert not litter.exists()

    def test_janitor_flags_validated(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["worker-pool", "--spool", str(tmp_path),
                  "--janitor-every", "0"])
        with pytest.raises(SystemExit):
            main(["worker-pool", "--spool", str(tmp_path),
                  "--done-max-age", "-1"])
