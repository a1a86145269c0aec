"""Simulator performance benchmarking and regression detection.

``repro bench`` runs a *pinned* scheduler x rate x declustering matrix
(:data:`BENCH_MATRIX`) through the parallel runner's bench path -- no
result cache, self-profiler attached -- and writes one
``BENCH_<ISO-date>.json`` artifact per invocation recording, per cell:

- ``wall_s`` and ``completed`` -- wall seconds and commits, whose
  ratio, wall per commit, is the speed metric the compare judges;
- ``events_per_s``   -- DES events processed per wall second
  (informational: a change that removes needless events lowers it
  while the run gets faster);
- ``wall_per_sim_s`` -- wall seconds per simulated second;
- the per-phase wall-time breakdown from
  :class:`~repro.obs.profile.PhaseProfiler`.

``repro bench --compare A B`` diffs two artifacts cell-by-cell (keyed
by scheduler/workload/rate/dd/seed/duration) and flags any cell whose
speed (commits per wall second, the inverse of wall per commit) dropped
by more than the tolerance, or whose peak RSS
(``maxrss_kb``, recorded per row since the telemetry layer grew
:func:`~repro.obs.telemetry.max_rss_kb`) grew beyond the separate
memory tolerance -- the CI bench job runs exactly this against the
committed baseline.
"""

from __future__ import annotations

import json
import math
import pathlib
import platform
import time
import typing

from repro.machine.config import MachineConfig
from repro.runner.spec import RunSpec, WorkloadSpec

PathLike = typing.Union[str, pathlib.Path]

#: bump when the BENCH_*.json payload changes incompatibly.  Stamped
#: into every payload both as the uniform top-level ``schema_version``
#: (the key every artifact family now shares) and as the historical
#: ``bench_schema_version`` alias.
BENCH_SCHEMA_VERSION = 1

#: default regression tolerance: fail when a cell's speed (inverse wall
#: per commit) drops > 25%
DEFAULT_TOLERANCE = 0.25

#: default memory-regression tolerance: fail when a cell's peak RSS
#: grows > 30%.  Looser than the speed tolerance because ``maxrss_kb``
#: is a process-lifetime high-water mark: allocator and import-order
#: noise moves it in coarse steps, while a real leak blows well past it.
DEFAULT_MEM_TOLERANCE = 0.30

#: the pinned measurement matrix: (scheduler, rate_tps, dd) cells.
#: Chosen to cover the cost spectrum -- C2PL (predeclared locking),
#: GOW/LOW (WTPG maintenance), OPT (validation), 2PL (deadlock tests),
#: and the modern arena line-up DGCC/CAR/PRED (admission-order grant
#: rule plus batch/queue/prediction bookkeeping) -- at a light and a
#: heavy arrival rate, partitioned and declustered.
BENCH_MATRIX: typing.Tuple[typing.Tuple[str, float, int], ...] = tuple(
    (scheduler, rate, dd)
    for scheduler in ("C2PL", "GOW", "LOW", "OPT", "2PL", "DGCC", "CAR", "PRED")
    for rate in (0.8, 1.2)
    for dd in (1, 4)
)

#: the per-PR subset (``--quick``): one cell per scheduler at the heavy
#: rate -- where each scheduler's hot path dominates -- plus LOW's
#: declustered cell (the WTPG-heaviest configuration).  Every cell is a
#: member of :data:`BENCH_MATRIX`, so quick artifacts compare cleanly
#: against full-matrix baselines.
BENCH_QUICK_MATRIX: typing.Tuple[typing.Tuple[str, float, int], ...] = (
    ("2PL", 1.2, 1),
    ("C2PL", 1.2, 4),
    ("GOW", 1.2, 1),
    ("LOW", 1.2, 1),
    ("LOW", 1.2, 4),
    ("OPT", 1.2, 4),
    ("DGCC", 1.2, 1),
    ("CAR", 1.2, 4),
    ("PRED", 1.2, 1),
)

#: default simulated horizon of one bench cell (ms); CI uses a shorter
#: one via ``--duration``
DEFAULT_DURATION_MS = 200_000.0


def bench_specs(
    duration_ms: float = DEFAULT_DURATION_MS,
    seed: int = 0,
    matrix: typing.Sequence[typing.Tuple[str, float, int]] = BENCH_MATRIX,
) -> typing.List[RunSpec]:
    """Materialise the pinned matrix as cache-bypassing run specs."""
    return [
        RunSpec(
            scheduler=scheduler,
            workload=WorkloadSpec.make("exp1", rate),
            config=MachineConfig(dd=dd),
            seed=seed,
            duration_ms=duration_ms,
            warmup_ms=0.0,
        )
        for scheduler, rate, dd in matrix
    ]


def host_info() -> typing.Dict[str, typing.Any]:
    """The machine identity attached to every artifact.

    Speed numbers are only comparable on like hardware; ``--compare``
    warns when the two artifacts disagree on any of these fields.
    """
    import os

    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
    }


def bench_payload(
    rows: typing.Sequence[typing.Mapping[str, typing.Any]],
    git_sha: typing.Optional[str] = None,
    batch: typing.Optional[str] = None,
    backend: typing.Optional[str] = None,
) -> typing.Dict[str, typing.Any]:
    """Assemble the stable-schema BENCH artifact from bench rows.

    ``batch`` links the artifact back to the runner's registry entry
    (set when the bench ran with live telemetry on); ``backend``
    records which executor backend measured the rows -- timings from
    different backends are not comparable (subprocess spawn overhead,
    cross-host hardware), so comparisons should check it matches.
    """
    payload = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "bench_schema_version": BENCH_SCHEMA_VERSION,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "git_sha": git_sha,
        "host": host_info(),
        "runs": [dict(row) for row in rows],
    }
    if batch is not None:
        payload["batch"] = batch
    if backend is not None:
        payload["backend"] = backend
    return payload


def default_bench_path(
    out_dir: PathLike, created: typing.Optional[str] = None
) -> pathlib.Path:
    """``<out_dir>/BENCH_<ISO-date>.json`` (date = today by default)."""
    date = (created or time.strftime("%Y-%m-%d"))[:10]
    return pathlib.Path(out_dir) / f"BENCH_{date}.json"


def write_bench_json(
    payload: typing.Mapping[str, typing.Any], path: PathLike
) -> pathlib.Path:
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(payload, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return path


def load_bench_json(path: PathLike) -> typing.Dict[str, typing.Any]:
    """Load and schema-check a BENCH artifact."""
    payload = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
    validate_bench(payload)
    return payload


def validate_bench(payload: typing.Mapping[str, typing.Any]) -> None:
    """Raise ``ValueError`` unless ``payload`` is a valid BENCH artifact.

    The schema stamp is read from the uniform ``schema_version`` key,
    falling back to the historical ``bench_schema_version`` alias for
    artifacts written before the stamp was unified; an unknown version
    under either key is rejected outright.
    """
    if not isinstance(payload, dict):
        raise ValueError("bench artifact must be a JSON object")
    version = payload.get("schema_version", payload.get("bench_schema_version"))
    if version is None:
        raise ValueError(
            "bench artifact carries no schema_version (nor the legacy "
            "bench_schema_version) stamp"
        )
    if version != BENCH_SCHEMA_VERSION:
        raise ValueError(
            f"unknown bench schema_version {version!r}; this build "
            f"supports {BENCH_SCHEMA_VERSION}"
        )
    legacy = payload.get("bench_schema_version")
    if "schema_version" in payload and legacy not in (None, version):
        raise ValueError(
            f"schema_version {version!r} contradicts "
            f"bench_schema_version {legacy!r}"
        )
    runs = payload.get("runs")
    if not isinstance(runs, list) or not runs:
        raise ValueError("bench artifact needs a non-empty 'runs' list")
    required = (
        "scheduler", "workload", "dd", "seed", "duration_ms",
        "wall_s", "events", "events_per_s", "wall_per_sim_s", "profile",
        "completed",
    )
    for row in runs:
        missing = [field for field in required if field not in row]
        if missing:
            raise ValueError(f"bench run lacks field(s) {missing}: {row!r}")


# -- comparison ---------------------------------------------------------------

RunKey = typing.Tuple[str, str, float, int, int, float]


def _run_key(row: typing.Mapping[str, typing.Any]) -> RunKey:
    workload = row["workload"]
    return (
        row["scheduler"],
        workload["kind"],
        float(workload["rate_tps"]),
        int(row["dd"]),
        int(row["seed"]),
        float(row["duration_ms"]),
    )


#: a comparison fails on cell count alone only when at least this
#: fraction of matched cells regressed -- single-cell wall-clock noise
#: routinely exceeds any usable per-cell tolerance on shared hardware,
#: while a real slowdown hits the aggregate or a whole scheduler's
#: cells (4/32 of the pinned matrix)
REGRESSION_QUORUM = 0.125


def wall_ms_per_commit(row: typing.Mapping[str, typing.Any]) -> float:
    """Wall milliseconds per committed transaction of a bench row (per
    run, for a cell without commits)."""
    return row["wall_s"] * 1_000.0 / max(row["completed"], 1)


def compare_bench(
    baseline: typing.Mapping[str, typing.Any],
    current: typing.Mapping[str, typing.Any],
    tolerance: float = DEFAULT_TOLERANCE,
    mem_tolerance: float = DEFAULT_MEM_TOLERANCE,
) -> typing.Dict[str, typing.Any]:
    """Diff two BENCH artifacts on wall per commit *and* ``maxrss_kb``,
    cell by cell.

    A cell's speed is the inverse of its wall per commit
    (:func:`wall_ms_per_commit`); the cell *regresses* when its current
    speed falls below ``baseline * (1 - tolerance)``; it *memory-regresses* when its peak
    RSS grows above ``baseline * (1 + mem_tolerance)`` (cells lacking
    ``maxrss_kb`` on either side -- pre-PR-9 artifacts, non-POSIX hosts
    -- are skipped for the memory check only).  Cells present in only
    one artifact are reported but never fail the comparison (the matrix
    may grow).

    The overall verdict (``failed``) is noise-hardened and trips when
    any of the following holds:

    - no cell matched at all (different matrix, horizon or seed), so
      nothing was compared;
    - the *aggregate* speed over all matched cells (total commits /
      total wall) regressed beyond the tolerance;
    - at least :data:`REGRESSION_QUORUM` of the matched cells regressed
      individually (minimum one);
    - the peak RSS over all memory-matched cells grew beyond the memory
      tolerance, or a quorum of those cells memory-regressed.

    A single noisy cell on an otherwise healthy run reports as a
    regression but does not fail the gate.
    """
    if not 0 < tolerance < 1:
        raise ValueError(f"tolerance must be in (0, 1), got {tolerance}")
    if mem_tolerance <= 0:
        raise ValueError(
            f"mem_tolerance must be > 0, got {mem_tolerance}"
        )
    base_rows = {_run_key(row): row for row in baseline["runs"]}
    curr_rows = {_run_key(row): row for row in current["runs"]}
    cells = []
    regressions = 0
    mem_regressions = 0
    mem_matched = 0
    for key in sorted(set(base_rows) | set(curr_rows)):
        base, curr = base_rows.get(key), curr_rows.get(key)
        cell: typing.Dict[str, typing.Any] = {
            "scheduler": key[0],
            "workload": key[1],
            "rate_tps": key[2],
            "dd": key[3],
            "seed": key[4],
            "duration_ms": key[5],
            "baseline_ms_per_commit": base and wall_ms_per_commit(base),
            "current_ms_per_commit": curr and wall_ms_per_commit(curr),
            "baseline_events_per_s": base and base["events_per_s"],
            "current_events_per_s": curr and curr["events_per_s"],
        }
        if base is None or curr is None:
            cell["status"] = "baseline-only" if curr is None else "new"
        else:
            ratio = wall_ms_per_commit(base) / wall_ms_per_commit(curr)
            cell["ratio"] = round(ratio, 4)
            if ratio < 1.0 - tolerance:
                cell["status"] = "regression"
                regressions += 1
            else:
                cell["status"] = "ok"
            base_rss = base.get("maxrss_kb")
            curr_rss = curr.get("maxrss_kb")
            if base_rss and curr_rss:
                mem_matched += 1
                mem_ratio = curr_rss / base_rss
                cell["baseline_maxrss_kb"] = base_rss
                cell["current_maxrss_kb"] = curr_rss
                cell["mem_ratio"] = round(mem_ratio, 4)
                if mem_ratio > 1.0 + mem_tolerance:
                    cell["mem_status"] = "regression"
                    mem_regressions += 1
                else:
                    cell["mem_status"] = "ok"
        cells.append(cell)
    host_mismatch = [
        field
        for field in ("platform", "machine", "python", "implementation")
        if baseline.get("host", {}).get(field)
        != current.get("host", {}).get(field)
    ]
    matched = sorted(set(base_rows) & set(curr_rows))
    aggregate: typing.Optional[typing.Dict[str, typing.Any]] = None
    if matched:
        base_cost = wall_ms_per_commit({
            "wall_s": sum(base_rows[k]["wall_s"] for k in matched),
            "completed": sum(base_rows[k]["completed"] for k in matched),
        })
        curr_cost = wall_ms_per_commit({
            "wall_s": sum(curr_rows[k]["wall_s"] for k in matched),
            "completed": sum(curr_rows[k]["completed"] for k in matched),
        })
        if base_cost > 0 and curr_cost > 0:
            aggregate = {
                "baseline_ms_per_commit": round(base_cost, 6),
                "current_ms_per_commit": round(curr_cost, 6),
                "ratio": round(base_cost / curr_cost, 4),
            }
    mem_aggregate: typing.Optional[typing.Dict[str, typing.Any]] = None
    mem_keys = [
        k for k in matched
        if base_rows[k].get("maxrss_kb") and curr_rows[k].get("maxrss_kb")
    ]
    if mem_keys:
        base_peak = max(base_rows[k]["maxrss_kb"] for k in mem_keys)
        curr_peak = max(curr_rows[k]["maxrss_kb"] for k in mem_keys)
        mem_aggregate = {
            "baseline_peak_kb": base_peak,
            "current_peak_kb": curr_peak,
            "ratio": round(curr_peak / base_peak, 4),
        }
    quorum = max(1, math.ceil(REGRESSION_QUORUM * len(matched)))
    mem_quorum = max(1, math.ceil(REGRESSION_QUORUM * mem_matched))
    fail_reasons = []
    if not matched:
        fail_reasons.append(
            "no cell matched between baseline and current (different "
            "matrix, horizon or seed): nothing was compared"
        )
    if aggregate is not None and aggregate["ratio"] < 1.0 - tolerance:
        fail_reasons.append(
            f"aggregate speed ratio {aggregate['ratio']:.3f} below "
            f"{1.0 - tolerance:.2f}"
        )
    if regressions >= quorum:
        fail_reasons.append(
            f"{regressions} of {len(matched)} matched cell(s) regressed "
            f"(quorum {quorum})"
        )
    if (
        mem_aggregate is not None
        and mem_aggregate["ratio"] > 1.0 + mem_tolerance
    ):
        fail_reasons.append(
            f"peak RSS ratio {mem_aggregate['ratio']:.3f} above "
            f"{1.0 + mem_tolerance:.2f}"
        )
    if mem_matched and mem_regressions >= mem_quorum:
        fail_reasons.append(
            f"{mem_regressions} of {mem_matched} memory-matched cell(s) "
            f"grew beyond the memory tolerance (quorum {mem_quorum})"
        )
    return {
        "tolerance": tolerance,
        "mem_tolerance": mem_tolerance,
        "cells": cells,
        "regressions": regressions,
        "mem_regressions": mem_regressions,
        "mem_matched": mem_matched,
        "aggregate": aggregate,
        "mem_aggregate": mem_aggregate,
        "quorum": quorum,
        "mem_quorum": mem_quorum,
        "failed": bool(fail_reasons),
        "fail_reasons": fail_reasons,
        "host_mismatch": host_mismatch,
        "baseline_sha": baseline.get("git_sha"),
        "current_sha": current.get("git_sha"),
    }


# -- terminal rendering -------------------------------------------------------


def render_bench_report(payload: typing.Mapping[str, typing.Any]) -> str:
    """One line per bench cell, plus an aggregate phase breakdown."""
    lines = [
        f"bench: {len(payload['runs'])} cell(s), "
        f"git={payload.get('git_sha') or '?'}, "
        f"python={payload.get('host', {}).get('python', '?')}",
        "",
        f"  {'scheduler':<8} {'rate':>5} {'dd':>3} {'wall_s':>8} "
        f"{'events':>9} {'events/s':>10} {'wall/sim_s':>11}",
    ]
    phase_totals: typing.Dict[str, float] = {}
    wall_total = 0.0
    for row in payload["runs"]:
        workload = row["workload"]
        lines.append(
            f"  {row['scheduler']:<8} {workload['rate_tps']:>5g} "
            f"{row['dd']:>3} {row['wall_s']:>8.3f} {row['events']:>9} "
            f"{row['events_per_s']:>10.0f} {row['wall_per_sim_s']:>11.3g}"
        )
        wall_total += row["wall_s"]
        for phase, body in row["profile"]["phases"].items():
            phase_totals[phase] = phase_totals.get(phase, 0.0) + (
                body["seconds"]
            )
    lines.append("")
    lines.append(f"  total wall: {wall_total:.2f} s; phase breakdown:")
    covered = sum(phase_totals.values())
    phase_totals["other"] = max(0.0, wall_total - covered)
    for phase in sorted(phase_totals, key=phase_totals.get, reverse=True):
        seconds = phase_totals[phase]
        share = seconds / wall_total * 100.0 if wall_total > 0 else 0.0
        lines.append(f"    {phase:<16} {seconds:>8.3f} s  {share:>5.1f}%")
    return "\n".join(lines)


def render_compare_report(report: typing.Mapping[str, typing.Any]) -> str:
    """Terminal diff of :func:`compare_bench` output."""
    lines = [
        f"bench compare: tolerance {report['tolerance'] * 100:.0f}% "
        f"(memory {report.get('mem_tolerance', 0) * 100:.0f}%), "
        f"baseline git={report.get('baseline_sha') or '?'} -> "
        f"current git={report.get('current_sha') or '?'}",
    ]
    if report["host_mismatch"]:
        lines.append(
            "  WARNING: hosts differ on "
            f"{', '.join(report['host_mismatch'])}; speed deltas may "
            "reflect hardware, not code"
        )
    lines.append("")
    lines.append(
        f"  {'scheduler':<8} {'rate':>5} {'dd':>3} {'base ms/c':>10} "
        f"{'curr ms/c':>10} {'speed':>7}  status"
    )
    for cell in report["cells"]:
        base = cell["baseline_ms_per_commit"]
        curr = cell["current_ms_per_commit"]
        ratio = cell.get("ratio")
        status = cell["status"]
        if cell.get("mem_status") == "regression":
            status += f" +mem x{cell['mem_ratio']:.2f}"
        lines.append(
            f"  {cell['scheduler']:<8} {cell['rate_tps']:>5g} "
            f"{cell['dd']:>3} "
            f"{f'{base:.3f}' if base is not None else '-':>10} "
            f"{f'{curr:.3f}' if curr is not None else '-':>10} "
            f"{f'{ratio:.3f}' if ratio is not None else '-':>7}  "
            f"{status}"
        )
    lines.append("")
    aggregate = report.get("aggregate")
    if aggregate is not None:
        lines.append(
            f"  aggregate: {aggregate['baseline_ms_per_commit']:.3f} -> "
            f"{aggregate['current_ms_per_commit']:.3f} ms/commit "
            f"(speed ratio {aggregate['ratio']:.3f})"
        )
    mem_aggregate = report.get("mem_aggregate")
    if mem_aggregate is not None:
        lines.append(
            f"  peak RSS: {mem_aggregate['baseline_peak_kb']} -> "
            f"{mem_aggregate['current_peak_kb']} KiB "
            f"(ratio {mem_aggregate['ratio']:.3f}; "
            f"{report.get('mem_matched', 0)} cell(s) matched)"
        )
    if report["failed"]:
        for reason in report["fail_reasons"]:
            lines.append(f"  FAIL: {reason}")
    elif report["regressions"] or report.get("mem_regressions"):
        lines.append(
            f"  OK (noisy): {report['regressions']} speed / "
            f"{report.get('mem_regressions', 0)} memory cell(s) regressed "
            f"but neither an aggregate nor a quorum "
            f"({report['quorum']} speed / {report.get('mem_quorum', 1)} "
            "memory) tripped"
        )
    else:
        lines.append("  OK: no cell regressed beyond tolerance")
    return "\n".join(lines)
