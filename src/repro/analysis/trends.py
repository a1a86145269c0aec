"""Trend analytics over the :mod:`repro.obs.history` store.

Where ``repro bench --compare`` answers "did this commit regress
against that one?", this module answers the longitudinal questions the
history store exists for:

- **per-cell and aggregate series** -- every speed sample a matrix
  cell has ever produced (``commits_per_wall_s``: commits per wall
  second, the inverse of the wall per commit ``repro bench --compare``
  judges), in snapshot order, plus the aggregate events/s trajectory
  across snapshots;
- **regression detection** -- the latest snapshot's cells against the
  median of a trailing window of prior snapshots, verdicted with the
  same noise-hardening as ``compare_bench`` (per-cell tolerance, an
  aggregate-speed rule, and a quorum so one flaky cell can't fail the
  check); a verdict that evaluated no cell fails instead of passing
  vacuously;
- **scheduler-ranking drift** -- for every (workload, rate, DD) group,
  whether the throughput ranking of schedulers flipped between the
  trailing window and the latest snapshot (the regime-dependent
  crossovers the arena exists to surface) -- flagged, never failed,
  because a genuine crossover is a *finding*, not a bug;
- **memory growth** -- peak-RSS trajectories from bench rows and
  telemetry peaks, flagged against their own (looser) tolerance.

Reports are **deterministic**: ``HISTORY.json`` is derived purely from
the store contents and the analysis parameters -- no wall-clock
timestamps, stable ordering, rounded floats -- so re-running ``repro
history report`` over an unchanged store is byte-identical, and the
artifact can be committed or diffed in CI.

Snapshots are ordered by their artifact ``created`` stamp, falling back
to store append order for artifacts that carry none (telemetry streams,
EXPLAIN payloads).  Bench cells are keyed by (scheduler, workload,
rate_tps, dd) *without* seed or duration, so runs of the same cell at
different horizons are samples of the same series (the longest horizon
wins when one snapshot holds several).  That pooling is a known
approximation, not a property of the metric: speed is *not*
horizon-free -- the committed baseline's paired cells give 60 s / 150 s
events/s ratios of 0.64-1.06 -- so a sample at another horizon than its
baseline is not a like-for-like comparison.
"""

from __future__ import annotations

import json
import math
import pathlib
import statistics
import typing

from repro.bench import (
    DEFAULT_MEM_TOLERANCE,
    DEFAULT_TOLERANCE,
    REGRESSION_QUORUM,
)
from repro.obs.history import HistoryStore, HistorySchemaError

PathLike = typing.Union[str, pathlib.Path]

#: bump when the HISTORY.json layout changes incompatibly
TRENDS_SCHEMA_VERSION = 1

#: how many prior snapshots the trailing-median baseline spans
DEFAULT_WINDOW = 5

#: a cell needs this many samples before it contributes to the verdict
MIN_SAMPLES = 2

CellKey = typing.Tuple[str, str, float, int]


# -- snapshot assembly --------------------------------------------------------


def order_snapshots(
    records: typing.Sequence[typing.Mapping[str, typing.Any]],
) -> typing.List[typing.Dict[str, typing.Any]]:
    """Group records by snapshot digest and order snapshots for trends.

    Ordering is by (``created`` stamp, first-seen store position):
    artifacts without a stamp sort before stamped ones at the same
    store position only via the empty-string fallback, and ties break
    on append order -- both stable, neither wall-clock dependent.
    """
    by_digest: typing.Dict[str, typing.Dict[str, typing.Any]] = {}
    for index, record in enumerate(records):
        digest = record["snapshot"]
        entry = by_digest.get(digest)
        if entry is None:
            entry = {
                "snapshot": digest,
                "source": record["source"],
                "family": record["family"],
                "created": record.get("created"),
                "git_sha": record.get("git_sha"),
                "host": record.get("host"),
                "first_seen": index,
                "records": [],
            }
            by_digest[digest] = entry
        if entry["created"] is None and record.get("created"):
            entry["created"] = record["created"]
        if entry["git_sha"] is None and record.get("git_sha"):
            entry["git_sha"] = record["git_sha"]
        entry["records"].append(record)
    return sorted(
        by_digest.values(),
        key=lambda entry: (entry["created"] or "", entry["first_seen"]),
    )


def cell_key(
    cell: typing.Mapping[str, typing.Any],
) -> typing.Optional[CellKey]:
    """The duration/seed-free identity a bench cell is tracked under."""
    scheduler = cell.get("scheduler")
    workload = cell.get("workload")
    rate = cell.get("rate_tps")
    dd = cell.get("dd")
    if scheduler is None or workload is None or rate is None or dd is None:
        return None
    return (str(scheduler), str(workload), float(rate), int(dd))


def _cell_label(key: CellKey) -> str:
    scheduler, workload, rate, dd = key
    rate_text = f"{rate:g}"
    return f"{scheduler}/{workload}@{rate_text}tps dd={dd}"


def _pick_bench_sample(
    rows: typing.Sequence[typing.Mapping[str, typing.Any]],
) -> typing.Mapping[str, typing.Any]:
    """When one snapshot holds several runs of a cell (different
    horizons/seeds), keep the longest-horizon, fastest row."""

    def rank(row: typing.Mapping[str, typing.Any]) -> typing.Tuple[float, float]:
        cell = row.get("cell") or {}
        return (
            float(cell.get("duration_ms") or 0.0),
            float(row["metrics"].get("commits_per_wall_s") or 0.0),
        )

    return max(rows, key=rank)


def build_cell_series(
    snapshots: typing.Sequence[typing.Mapping[str, typing.Any]],
    record_kind: str = "bench.cell",
    metric: str = "commits_per_wall_s",
) -> typing.Dict[CellKey, typing.List[typing.Dict[str, typing.Any]]]:
    """Per-cell sample series across ``snapshots``, in snapshot order.

    Each sample is ``{"snapshot", "created", "git_sha", "value", ...}``
    with ``events_per_s``, ``maxrss_kb`` and ``throughput_tps`` carried
    along when the source records have them.
    """
    series: typing.Dict[CellKey, typing.List[typing.Dict[str, typing.Any]]] = {}
    for snapshot in snapshots:
        grouped: typing.Dict[CellKey, typing.List[typing.Mapping[str, typing.Any]]] = {}
        for record in snapshot["records"]:
            if record["kind"] != record_kind:
                continue
            key = cell_key(record.get("cell") or {})
            if key is None or record["metrics"].get(metric) is None:
                continue
            grouped.setdefault(key, []).append(record)
        for key, rows in grouped.items():
            row = _pick_bench_sample(rows)
            series.setdefault(key, []).append({
                "snapshot": snapshot["snapshot"],
                "created": snapshot["created"],
                "git_sha": snapshot["git_sha"],
                "value": float(row["metrics"][metric]),
                "events_per_s": row["metrics"].get("events_per_s"),
                "maxrss_kb": row["metrics"].get("maxrss_kb"),
                "throughput_tps": row["metrics"].get("throughput_tps"),
            })
    return series


# -- regression detection -----------------------------------------------------


def _trailing_median(
    values: typing.Sequence[float], window: int
) -> typing.Optional[float]:
    """Median of the last ``window`` values before the final one."""
    prior = values[:-1][-window:]
    if not prior:
        return None
    return statistics.median(prior)


def detect_regressions(
    series: typing.Mapping[CellKey, typing.Sequence[typing.Mapping[str, typing.Any]]],
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    mem_tolerance: float = DEFAULT_MEM_TOLERANCE,
    window: int = DEFAULT_WINDOW,
) -> typing.Dict[str, typing.Any]:
    """Verdict the latest snapshot of every cell against its trailing
    window, with ``compare_bench``-style noise hardening.

    A cell *regresses* when its latest speed sample falls below the
    trailing-window median by more than ``tolerance``; memory *grows*
    when latest ``maxrss_kb`` exceeds the trailing median by more than
    ``mem_tolerance``.  The overall verdict fails only on the
    median-of-ratios aggregate or a ≥quorum count of regressed cells --
    a single noisy cell cannot fail the check.
    """
    if not 0.0 < tolerance < 1.0:
        raise ValueError(f"tolerance must be in (0, 1), got {tolerance}")
    if mem_tolerance <= 0.0:
        raise ValueError(f"mem_tolerance must be positive, got {mem_tolerance}")
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")

    cells = []
    speed_ratios = []
    mem_ratios = []
    regressions = 0
    mem_growth = 0
    evaluated = 0
    mem_evaluated = 0
    for key in sorted(series):
        samples = series[key]
        values = [sample["value"] for sample in samples]
        entry: typing.Dict[str, typing.Any] = {
            "cell": _cell_label(key),
            "scheduler": key[0],
            "workload": key[1],
            "rate_tps": key[2],
            "dd": key[3],
            "samples": len(values),
            "latest": round(values[-1], 2),
            "status": "insufficient",
        }
        baseline = _trailing_median(values, window)
        if len(values) >= MIN_SAMPLES and baseline:
            evaluated += 1
            ratio = values[-1] / baseline
            speed_ratios.append(ratio)
            entry["baseline"] = round(baseline, 2)
            entry["ratio"] = round(ratio, 4)
            if ratio < 1.0 - tolerance:
                entry["status"] = "regression"
                regressions += 1
            else:
                entry["status"] = "ok"
        rss = [
            float(sample["maxrss_kb"])
            for sample in samples
            if sample.get("maxrss_kb")
        ]
        if len(rss) >= MIN_SAMPLES:
            mem_baseline = _trailing_median(rss, window)
            if mem_baseline:
                mem_evaluated += 1
                mem_ratio = rss[-1] / mem_baseline
                mem_ratios.append(mem_ratio)
                entry["mem_ratio"] = round(mem_ratio, 4)
                if mem_ratio > 1.0 + mem_tolerance:
                    entry["mem_status"] = "growth"
                    mem_growth += 1
                else:
                    entry["mem_status"] = "ok"
        cells.append(entry)

    # same quorum rule as compare_bench: ceil(quorum_fraction * n), floor 1
    quorum = max(1, math.ceil(REGRESSION_QUORUM * evaluated)) if evaluated else 1
    mem_quorum = max(1, math.ceil(REGRESSION_QUORUM * mem_evaluated)) if mem_evaluated else 1
    aggregate = statistics.median(speed_ratios) if speed_ratios else None
    mem_aggregate = statistics.median(mem_ratios) if mem_ratios else None

    reasons = []
    if not evaluated:
        # a verdict over zero cells would pass vacuously
        reasons.append(
            f"no cell has {MIN_SAMPLES}+ speed samples across snapshots: "
            "nothing was evaluated (ingest a prior run of the same matrix)"
        )
    if aggregate is not None and aggregate < 1.0 - tolerance:
        reasons.append(
            f"median speed ratio {aggregate:.3f} below {1.0 - tolerance:.2f}"
        )
    if evaluated and regressions >= quorum:
        reasons.append(
            f"{regressions} of {evaluated} evaluated cell(s) regressed "
            f"(quorum {quorum})"
        )
    if mem_aggregate is not None and mem_aggregate > 1.0 + mem_tolerance:
        reasons.append(
            f"median memory ratio {mem_aggregate:.3f} above "
            f"{1.0 + mem_tolerance:.2f}"
        )
    if mem_evaluated and mem_growth >= mem_quorum:
        reasons.append(
            f"{mem_growth} of {mem_evaluated} memory-tracked cell(s) grew "
            f"beyond the memory tolerance (quorum {mem_quorum})"
        )

    return {
        "tolerance": tolerance,
        "mem_tolerance": mem_tolerance,
        "window": window,
        "evaluated": evaluated,
        "regressions": regressions,
        "quorum": quorum,
        "mem_evaluated": mem_evaluated,
        "mem_growth": mem_growth,
        "mem_quorum": mem_quorum,
        "aggregate_ratio": round(aggregate, 4) if aggregate is not None else None,
        "mem_aggregate_ratio": (
            round(mem_aggregate, 4) if mem_aggregate is not None else None
        ),
        "cells": cells,
        "ok": not reasons,
        "reasons": reasons,
    }


# -- ranking drift ------------------------------------------------------------


def _ranking(
    latest: typing.Mapping[str, float],
) -> typing.List[str]:
    """Schedulers best-first; throughput desc, name asc for stability."""
    return [
        name
        for name, _ in sorted(
            latest.items(), key=lambda item: (-item[1], item[0])
        )
    ]


def detect_ranking_drift(
    series: typing.Mapping[CellKey, typing.Sequence[typing.Mapping[str, typing.Any]]],
    *,
    window: int = DEFAULT_WINDOW,
    metric: str = "throughput_tps",
) -> typing.List[typing.Dict[str, typing.Any]]:
    """Flag (workload, rate, DD) groups whose scheduler ranking flipped
    between the trailing window and the latest snapshot.

    These are the regime-dependent crossovers the arena exists to
    surface; they are reported as *flags*, never as check failures.
    """
    groups: typing.Dict[
        typing.Tuple[str, float, int],
        typing.Dict[str, typing.Sequence[typing.Mapping[str, typing.Any]]],
    ] = {}
    for key, samples in series.items():
        scheduler, workload, rate, dd = key
        groups.setdefault((workload, rate, dd), {})[scheduler] = samples

    flags = []
    for group_key in sorted(groups):
        per_scheduler = groups[group_key]
        latest: typing.Dict[str, float] = {}
        trailing: typing.Dict[str, float] = {}
        for scheduler, samples in per_scheduler.items():
            values = [
                float(s[metric]) if s.get(metric) is not None else float(s["value"])
                for s in samples
            ]
            if len(values) < MIN_SAMPLES:
                continue
            baseline = _trailing_median(values, window)
            if baseline is None:
                continue
            latest[scheduler] = values[-1]
            trailing[scheduler] = baseline
        if len(latest) < 2:
            continue
        now = _ranking(latest)
        before = _ranking(trailing)
        if now != before:
            workload, rate, dd = group_key
            flags.append({
                "workload": workload,
                "rate_tps": rate,
                "dd": dd,
                "before": before,
                "after": now,
            })
    return flags


# -- memory trajectory --------------------------------------------------------


def memory_trajectory(
    snapshots: typing.Sequence[typing.Mapping[str, typing.Any]],
) -> typing.List[typing.Dict[str, typing.Any]]:
    """Peak ``maxrss_kb`` per snapshot, across bench rows and telemetry
    peaks; snapshots with no memory data are omitted."""
    trajectory = []
    for snapshot in snapshots:
        peak: typing.Optional[float] = None
        for record in snapshot["records"]:
            rss = record["metrics"].get("maxrss_kb")
            if rss and (peak is None or float(rss) > peak):
                peak = float(rss)
        if peak is not None:
            trajectory.append({
                "snapshot": snapshot["snapshot"],
                "created": snapshot["created"],
                "family": snapshot["family"],
                "peak_kb": peak,
            })
    return trajectory


# -- the report ---------------------------------------------------------------


def history_report(
    store: HistoryStore,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    mem_tolerance: float = DEFAULT_MEM_TOLERANCE,
    window: int = DEFAULT_WINDOW,
) -> typing.Dict[str, typing.Any]:
    """The full deterministic trends payload over ``store``."""
    records = store.records()
    snapshots = order_snapshots(records)
    series = build_cell_series(snapshots)
    verdict = detect_regressions(
        series,
        tolerance=tolerance,
        mem_tolerance=mem_tolerance,
        window=window,
    )
    drift = detect_ranking_drift(series, window=window)
    memory = memory_trajectory(snapshots)

    aggregate_series = []
    for snapshot in snapshots:
        digest = snapshot["snapshot"]
        values = [
            sample["events_per_s"]
            for samples in series.values()
            for sample in samples
            if sample["snapshot"] == digest
            and sample["events_per_s"] is not None
        ]
        if values:
            aggregate_series.append({
                "snapshot": snapshot["snapshot"],
                "created": snapshot["created"],
                "git_sha": snapshot["git_sha"],
                "cells": len(values),
                "events_per_s_sum": round(sum(values), 2),
                "events_per_s_median": round(statistics.median(values), 2),
            })

    serialised_series = [
        {
            "cell": _cell_label(key),
            "scheduler": key[0],
            "workload": key[1],
            "rate_tps": key[2],
            "dd": key[3],
            "samples": [
                {
                    "snapshot": sample["snapshot"],
                    "created": sample["created"],
                    "git_sha": sample["git_sha"],
                    "commits_per_wall_s": round(sample["value"], 2),
                    "events_per_s": sample["events_per_s"],
                    "maxrss_kb": sample["maxrss_kb"],
                }
                for sample in series[key]
            ],
        }
        for key in sorted(series)
    ]

    return {
        "schema_version": TRENDS_SCHEMA_VERSION,
        "store": str(store.path),
        "parameters": {
            "tolerance": tolerance,
            "mem_tolerance": mem_tolerance,
            "window": window,
        },
        "snapshots": [
            {
                "snapshot": snapshot["snapshot"],
                "source": snapshot["source"],
                "family": snapshot["family"],
                "created": snapshot["created"],
                "git_sha": snapshot["git_sha"],
                "host": snapshot["host"],
                "records": len(snapshot["records"]),
            }
            for snapshot in snapshots
        ],
        "aggregate": aggregate_series,
        "series": serialised_series,
        "memory": memory,
        "ranking_drift": drift,
        "verdict": verdict,
    }


def validate_history_payload(
    payload: typing.Mapping[str, typing.Any],
) -> None:
    """Schema-check a HISTORY.json payload (e.g. before trusting one
    loaded from disk)."""
    if not isinstance(payload, dict):
        raise HistorySchemaError("HISTORY payload must be an object")
    version = payload.get("schema_version")
    if version != TRENDS_SCHEMA_VERSION:
        raise HistorySchemaError(
            f"unknown HISTORY schema_version {version!r}; this build "
            f"supports {TRENDS_SCHEMA_VERSION}"
        )
    for field in ("snapshots", "series", "verdict"):
        if field not in payload:
            raise HistorySchemaError(f"HISTORY payload missing {field!r}")
    verdict = payload["verdict"]
    if not isinstance(verdict, dict) or "ok" not in verdict:
        raise HistorySchemaError("HISTORY verdict must carry an 'ok' flag")


def render_history_markdown(
    payload: typing.Mapping[str, typing.Any],
    *,
    spark_width: int = 24,
) -> str:
    """The HISTORY.md dashboard: sparkline trends per cell, aggregate
    trajectory, memory trajectory, drift flags, and the verdict."""
    from repro.obs.timeseries import sparkline

    validate_history_payload(payload)
    verdict = payload["verdict"]
    lines = ["# Metrics history", ""]
    lines.append(
        f"Store: `{payload['store']}` — {len(payload['snapshots'])} "
        f"snapshot(s), window {verdict['window']}, tolerance "
        f"{verdict['tolerance'] * 100:.0f}% speed / "
        f"{verdict['mem_tolerance'] * 100:.0f}% memory."
    )
    lines.append("")

    lines.append("## Snapshots")
    lines.append("")
    lines.append("| snapshot | family | created | git | records |")
    lines.append("|---|---|---|---|---|")
    for snapshot in payload["snapshots"]:
        git_sha = (snapshot.get("git_sha") or "")[:9] or "—"
        lines.append(
            f"| `{snapshot['snapshot']}` | {snapshot['family']} "
            f"| {snapshot.get('created') or '—'} | {git_sha} "
            f"| {snapshot['records']} |"
        )
    lines.append("")

    if payload["aggregate"]:
        lines.append("## Aggregate events/s")
        lines.append("")
        sums = [entry["events_per_s_sum"] for entry in payload["aggregate"]]
        lines.append(f"`{sparkline(sums, width=spark_width)}`")
        lines.append("")
        lines.append("| snapshot | cells | sum events/s | median events/s |")
        lines.append("|---|---|---|---|")
        for entry in payload["aggregate"]:
            lines.append(
                f"| `{entry['snapshot']}` | {entry['cells']} "
                f"| {entry['events_per_s_sum']:.0f} "
                f"| {entry['events_per_s_median']:.0f} |"
            )
        lines.append("")

    if payload["series"]:
        lines.append("## Per-cell speed trends (commits per wall second)")
        lines.append("")
        lines.append("| cell | n | trend | latest | baseline | ratio | status |")
        lines.append("|---|---|---|---|---|---|---|")
        verdict_by_cell = {
            entry["cell"]: entry for entry in verdict["cells"]
        }
        for entry in payload["series"]:
            values = [
                sample["commits_per_wall_s"] for sample in entry["samples"]
            ]
            cell_verdict = verdict_by_cell.get(entry["cell"], {})
            status = cell_verdict.get("status", "insufficient")
            if cell_verdict.get("mem_status") == "growth":
                status += " +mem"
            ratio = cell_verdict.get("ratio")
            baseline = cell_verdict.get("baseline")
            lines.append(
                f"| {entry['cell']} | {len(values)} "
                f"| `{sparkline(values, width=spark_width)}` "
                f"| {values[-1]:.2f} "
                f"| {baseline if baseline is not None else '—'} "
                f"| {f'{ratio:.3f}' if ratio is not None else '—'} "
                f"| {status} |"
            )
        lines.append("")

    if payload["memory"]:
        lines.append("## Peak RSS trajectory")
        lines.append("")
        peaks = [entry["peak_kb"] for entry in payload["memory"]]
        lines.append(f"`{sparkline(peaks, width=spark_width)}`")
        lines.append("")
        lines.append("| snapshot | family | peak RSS |")
        lines.append("|---|---|---|")
        for entry in payload["memory"]:
            lines.append(
                f"| `{entry['snapshot']}` | {entry['family']} "
                f"| {entry['peak_kb'] / 1024:.1f} MiB |"
            )
        lines.append("")

    lines.append("## Scheduler-ranking drift")
    lines.append("")
    if payload["ranking_drift"]:
        for flag in payload["ranking_drift"]:
            lines.append(
                f"- {flag['workload']}@{flag['rate_tps']:g}tps "
                f"dd={flag['dd']}: {' > '.join(flag['before'])} → "
                f"{' > '.join(flag['after'])}"
            )
        lines.append("")
        lines.append(
            "_Drift is a finding, not a failure: regime-dependent "
            "crossovers are exactly what the arena tracks._"
        )
    else:
        lines.append("No ranking changes against the trailing window.")
    lines.append("")

    lines.append("## Verdict")
    lines.append("")
    if verdict["ok"]:
        detail = (
            f"{verdict['regressions']} of {verdict['evaluated']} cell(s) "
            f"below tolerance (quorum {verdict['quorum']}), "
            f"{verdict['mem_growth']} of {verdict['mem_evaluated']} "
            f"memory-tracked cell(s) grew (quorum {verdict['mem_quorum']})"
        )
        lines.append(f"**OK** — {detail}.")
    else:
        lines.append("**REGRESSION**")
        for reason in verdict["reasons"]:
            lines.append(f"- {reason}")
    if verdict["aggregate_ratio"] is not None:
        lines.append("")
        lines.append(
            f"Aggregate latest-vs-trailing-median speed ratio: "
            f"{verdict['aggregate_ratio']:.3f}."
        )
    lines.append("")
    return "\n".join(lines)


def write_history(
    payload: typing.Mapping[str, typing.Any],
    json_path: PathLike,
    md_path: typing.Optional[PathLike] = None,
) -> None:
    """Write the HISTORY.json / HISTORY.md artifact pair."""
    validate_history_payload(payload)
    json_path = pathlib.Path(json_path)
    json_path.parent.mkdir(parents=True, exist_ok=True)
    json_path.write_text(
        json.dumps(payload, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    if md_path is not None:
        md_path = pathlib.Path(md_path)
        md_path.parent.mkdir(parents=True, exist_ok=True)
        md_path.write_text(render_history_markdown(payload), encoding="utf-8")


def load_history(path: PathLike) -> typing.Dict[str, typing.Any]:
    """Load and validate a HISTORY.json payload."""
    payload = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
    validate_history_payload(payload)
    return payload
