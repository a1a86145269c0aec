"""The longitudinal metrics history store behind ``repro history``.

Every artifact family the repo produces is a *snapshot*: one BENCH
payload, one ARENA report, one EXPLAIN budget, one telemetry stream --
each describing the simulator at one commit on one host.  ``repro bench
--compare`` can diff exactly two of them; everything longer-range (is
``events_per_s`` trending down? did a scheduler's ranking flip under
contention? is peak RSS creeping?) needs the snapshots kept side by
side.  This module is that keel: a persistent, append-only JSONL store
under ``results/history/`` whose records are

- **schema-versioned** -- every line carries
  ``history_schema_version`` and loading rejects unknown versions with
  a clear error, so a store written by a future build never parses
  silently wrong;
- **keyed** by git SHA, artifact creation date, host, and matrix cell
  (scheduler / workload / rate / DD), the axes the trend analytics in
  :mod:`repro.analysis.trends` group by;
- **deduplicated** by source-artifact digest: ingesting the same file
  twice is a no-op, so the CI job can blindly re-ingest the committed
  baselines every night.

Four record kinds cover the four artifact families:

=================  ============================================persist
``bench.cell``     one BENCH run row: ``commits_per_wall_s``,
                   ``events_per_s``, wall/sim, ``throughput_tps``,
                   ``maxrss_kb``
``arena.cell``     one ARENA cell: throughput, response times, abort
                   rate, and the %queued/%blocked/%exec/%wasted time
                   budget when the explain pass ran
``explain.budget`` one EXPLAIN batch budget: total txn-ms + fractions
``telemetry.peak`` one telemetry stream's peak ``maxrss_kb`` high-water
                   mark across every worker record
=================  ============================================persist
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import typing

PathLike = typing.Union[str, pathlib.Path]

#: bump when the history record layout changes incompatibly; stamped
#: into every record and checked on every load
HISTORY_SCHEMA_VERSION = 1

#: where the store lives unless told otherwise
DEFAULT_STORE_DIR = "results/history"

#: the append-only record file inside the store directory
STORE_FILENAME = "history.jsonl"

#: artifact families the store can ingest
FAMILIES = ("bench", "arena", "explain", "telemetry")

#: record kinds, mapped to whether they carry a matrix ``cell``
RECORD_KINDS: typing.Dict[str, bool] = {
    "bench.cell": True,
    "arena.cell": True,
    "explain.budget": False,
    "telemetry.peak": False,
}


class HistorySchemaError(ValueError):
    """A history record (or store line) violates the schema."""


def artifact_digest(path: PathLike) -> str:
    """Stable 12-hex identity of an artifact file (content digest)."""
    digest = hashlib.sha256(pathlib.Path(path).read_bytes())
    return digest.hexdigest()[:12]


def validate_history_record(
    record: typing.Mapping[str, typing.Any],
) -> None:
    """Raise :class:`HistorySchemaError` unless ``record`` is valid."""
    if not isinstance(record, dict):
        raise HistorySchemaError(
            f"history record must be an object, got {type(record).__name__}"
        )
    version = record.get("history_schema_version")
    if version != HISTORY_SCHEMA_VERSION:
        raise HistorySchemaError(
            f"unknown history_schema_version {version!r}; this build "
            f"supports {HISTORY_SCHEMA_VERSION}"
        )
    kind = record.get("kind")
    if kind not in RECORD_KINDS:
        raise HistorySchemaError(
            f"unknown history record kind {kind!r}; "
            f"known: {sorted(RECORD_KINDS)}"
        )
    if record.get("family") not in FAMILIES:
        raise HistorySchemaError(
            f"{kind}: unknown family {record.get('family')!r}"
        )
    if not isinstance(record.get("snapshot"), str) or not record["snapshot"]:
        raise HistorySchemaError(f"{kind}: missing snapshot digest")
    if not isinstance(record.get("source"), str):
        raise HistorySchemaError(f"{kind}: missing source path")
    if not isinstance(record.get("metrics"), dict):
        raise HistorySchemaError(f"{kind}: metrics must be a mapping")
    cell = record.get("cell")
    if RECORD_KINDS[kind]:
        if not isinstance(cell, dict) or "scheduler" not in cell:
            raise HistorySchemaError(
                f"{kind}: needs a cell mapping with a scheduler"
            )
    elif cell is not None and not isinstance(cell, dict):
        raise HistorySchemaError(f"{kind}: cell must be a mapping or null")


# -- family detection & extraction --------------------------------------------


def detect_family(path: PathLike) -> str:
    """Classify an artifact file into one of :data:`FAMILIES`.

    Raises ``ValueError`` for anything unrecognised (a trace JSONL, a
    series artifact, a manifest...) rather than guessing.
    """
    path = pathlib.Path(path)
    if path.suffix == ".jsonl":
        with path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    break
                kind = record.get("kind", "")
                if isinstance(kind, str) and (
                    kind.startswith("batch.") or kind.startswith("run.")
                ):
                    return "telemetry"
                break
        raise ValueError(
            f"{path}: not a telemetry stream (trace/series JSONL files "
            "are per-run artifacts; ingest the BENCH/ARENA/EXPLAIN "
            "payloads built from them instead)"
        )
    payload = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: artifact must be a JSON object")
    if "runs" in payload and (
        "schema_version" in payload or "bench_schema_version" in payload
    ):
        return "bench"
    if payload.get("kind") == "arena":
        return "arena"
    if payload.get("kind") == "explain":
        return "explain"
    raise ValueError(
        f"{path}: unrecognised artifact family (expected a BENCH, "
        "ARENA, or EXPLAIN payload, or a telemetry .jsonl stream)"
    )


def _record(
    kind: str,
    family: str,
    snapshot: str,
    source: str,
    *,
    created: typing.Optional[str],
    git_sha: typing.Optional[str],
    host: typing.Optional[str],
    cell: typing.Optional[typing.Dict[str, typing.Any]],
    metrics: typing.Dict[str, typing.Any],
) -> typing.Dict[str, typing.Any]:
    return {
        "history_schema_version": HISTORY_SCHEMA_VERSION,
        "kind": kind,
        "family": family,
        "snapshot": snapshot,
        "source": source,
        "created": created,
        "git_sha": git_sha,
        "host": host,
        "cell": cell,
        "metrics": metrics,
    }


def _bench_host(payload: typing.Mapping[str, typing.Any]) -> typing.Optional[str]:
    host = payload.get("host")
    if not isinstance(host, dict):
        return None
    machine = host.get("machine") or "?"
    python = host.get("python") or "?"
    return f"{machine}/py{python}"


def bench_records(
    payload: typing.Mapping[str, typing.Any],
    source: str,
    snapshot: str,
) -> typing.List[typing.Dict[str, typing.Any]]:
    """One ``bench.cell`` record per BENCH run row."""
    from repro.bench import validate_bench, wall_ms_per_commit

    validate_bench(payload)
    records = []
    for row in payload["runs"]:
        workload = row["workload"]
        cell = {
            "scheduler": row["scheduler"],
            "workload": workload["kind"],
            "rate_tps": float(workload["rate_tps"]),
            "dd": int(row["dd"]),
            "seed": int(row["seed"]),
            "duration_ms": float(row["duration_ms"]),
        }
        metrics: typing.Dict[str, typing.Any] = {
            "commits_per_wall_s": 1_000.0 / wall_ms_per_commit(row),
            "events_per_s": row["events_per_s"],
            "events": row["events"],
            "wall_s": row["wall_s"],
            "wall_per_sim_s": row["wall_per_sim_s"],
            "throughput_tps": row.get("throughput_tps"),
            "maxrss_kb": row.get("maxrss_kb"),
        }
        records.append(_record(
            "bench.cell", "bench", snapshot, source,
            created=payload.get("created"),
            git_sha=payload.get("git_sha"),
            host=_bench_host(payload),
            cell=cell,
            metrics=metrics,
        ))
    return records


def arena_records(
    payload: typing.Mapping[str, typing.Any],
    source: str,
    snapshot: str,
) -> typing.List[typing.Dict[str, typing.Any]]:
    """One ``arena.cell`` record per ARENA cell."""
    from repro.analysis.arena import validate_arena

    validate_arena(dict(payload))
    records = []
    for row in payload["cells"]:
        cell = {
            "scheduler": row["scheduler"],
            "workload": row.get("workload"),
            "rate_tps": float(row["rate_tps"]),
            "dd": int(row["dd"]),
            "seed": int(row["seed"]),
            "duration_ms": row.get("duration_ms"),
        }
        metrics: typing.Dict[str, typing.Any] = {
            "throughput_tps": row["throughput_tps"],
            "mean_response_s": row["mean_response_s"],
            "p95_response_s": row["p95_response_s"],
            "abort_rate": row["abort_rate"],
        }
        budget = row.get("time_budget")
        if isinstance(budget, dict):
            fractions = budget.get("fractions", {})
            for bucket in ("queued", "blocked", "executing", "wasted"):
                metrics[f"{bucket}_share"] = fractions.get(bucket)
        records.append(_record(
            "arena.cell", "arena", snapshot, source,
            created=payload.get("created"),
            git_sha=payload.get("git_sha"),
            host=None,
            cell=cell,
            metrics=metrics,
        ))
    return records


def explain_records(
    payload: typing.Mapping[str, typing.Any],
    source: str,
    snapshot: str,
) -> typing.List[typing.Dict[str, typing.Any]]:
    """One ``explain.budget`` record for an EXPLAIN payload."""
    from repro.analysis.explain import validate_explain

    validate_explain(payload)
    meta = payload.get("source", {})
    cell = None
    if "scheduler" in meta:
        cell = {
            "scheduler": meta["scheduler"],
            "workload": meta.get("workload"),
            "rate_tps": meta.get("rate_tps"),
            "dd": meta.get("dd"),
            "seed": meta.get("seed"),
            "duration_ms": meta.get("duration_ms"),
        }
    budget = payload["budget"]
    fractions = budget.get("fractions", {})
    metrics: typing.Dict[str, typing.Any] = {
        "total_ms": budget.get("total_ms"),
        "makespan_ms": budget.get("makespan_ms"),
        "mean_response_ms": budget.get("mean_response_ms"),
        "transactions": budget.get("transactions"),
        "committed": budget.get("committed"),
        "restarts": budget.get("restarts"),
    }
    for bucket in ("queued", "blocked", "executing", "wasted"):
        metrics[f"{bucket}_share"] = fractions.get(bucket)
    return [_record(
        "explain.budget", "explain", snapshot, source,
        created=None,
        git_sha=None,
        host=None,
        cell=cell,
        metrics=metrics,
    )]


def telemetry_records(
    path: PathLike,
    source: str,
    snapshot: str,
) -> typing.List[typing.Dict[str, typing.Any]]:
    """One ``telemetry.peak`` record for a telemetry stream: the peak
    ``maxrss_kb`` high-water mark over every worker record, plus the
    batch identity and host set."""
    from repro.obs.telemetry import read_telemetry_records

    records, _ = read_telemetry_records(path, 0)
    if not records:
        raise ValueError(f"{source}: empty telemetry stream")
    peak: typing.Optional[int] = None
    batch = None
    cells: typing.Set[typing.Any] = set()
    hosts: typing.Set[str] = set()
    for record in records:
        if record.get("kind") == "batch.meta":
            batch = record.get("batch")
        if "cell" in record:
            cells.add(record["cell"])
        host = record.get("host")
        if isinstance(host, str):
            hosts.add(host)
        rss = record.get("maxrss_kb")
        if isinstance(rss, int) and (peak is None or rss > peak):
            peak = rss
    return [_record(
        "telemetry.peak", "telemetry", snapshot, source,
        created=None,
        git_sha=None,
        host=",".join(sorted(hosts)) or None,
        cell=None,
        metrics={
            "maxrss_kb": peak,
            "batch": batch,
            "records": len(records),
            "cells": len(cells),
        },
    )]


_EXTRACTORS = {
    "bench": bench_records,
    "arena": arena_records,
    "explain": explain_records,
}


def extract_records(
    path: PathLike,
    family: typing.Optional[str] = None,
) -> typing.Tuple[str, typing.List[typing.Dict[str, typing.Any]]]:
    """Classify ``path`` and extract its history records.

    Returns ``(family, records)``; every record is schema-validated
    before it is handed back.
    """
    path = pathlib.Path(path)
    if family is None or family == "auto":
        family = detect_family(path)
    elif family not in FAMILIES:
        raise ValueError(
            f"unknown artifact family {family!r}; known: {FAMILIES}"
        )
    snapshot = artifact_digest(path)
    source = str(path)
    if family == "telemetry":
        records = telemetry_records(path, source, snapshot)
    else:
        payload = json.loads(path.read_text(encoding="utf-8"))
        records = _EXTRACTORS[family](payload, source, snapshot)
    for record in records:
        validate_history_record(record)
    return family, records


# -- the store ----------------------------------------------------------------


class HistoryStore:
    """Append-only JSONL store of history records under one directory.

    Lines are only ever appended (one complete JSON object per
    ``write()``), so concurrent ingests from different processes never
    tear and a partially-written trailing line from a crash is reported
    with its line number rather than corrupting the whole store.
    """

    def __init__(self, root: PathLike = DEFAULT_STORE_DIR) -> None:
        self.root = pathlib.Path(root)
        self.path = self.root / STORE_FILENAME

    def records(self) -> typing.List[typing.Dict[str, typing.Any]]:
        """Every record, in append order, schema-checked on the way in."""
        if not self.path.exists():
            return []
        records = []
        with self.path.open("r", encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise HistorySchemaError(
                        f"{self.path}:{number}: not JSON ({exc})"
                    ) from exc
                try:
                    validate_history_record(record)
                except HistorySchemaError as exc:
                    raise HistorySchemaError(
                        f"{self.path}:{number}: {exc}"
                    ) from exc
                records.append(record)
        return records

    def snapshots(self) -> typing.Set[str]:
        """The source-artifact digests already ingested."""
        return {record["snapshot"] for record in self.records()}

    def append(
        self, records: typing.Sequence[typing.Mapping[str, typing.Any]]
    ) -> int:
        """Validate and append ``records``; returns how many landed."""
        for record in records:
            validate_history_record(record)
        if not records:
            return 0
        self.root.mkdir(parents=True, exist_ok=True)
        with self.path.open("a", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        return len(records)

    def ingest(
        self,
        artifact: PathLike,
        family: typing.Optional[str] = None,
    ) -> typing.Dict[str, typing.Any]:
        """Ingest one artifact file, skipping already-seen digests.

        Returns ``{"family", "snapshot", "added", "skipped"}``.
        """
        digest = artifact_digest(artifact)
        if digest in self.snapshots():
            detected = family if family not in (None, "auto") else None
            return {
                "family": detected,
                "snapshot": digest,
                "added": 0,
                "skipped": True,
            }
        detected, records = extract_records(artifact, family=family)
        added = self.append(records)
        return {
            "family": detected,
            "snapshot": digest,
            "added": added,
            "skipped": False,
        }

    def __repr__(self) -> str:
        return f"<HistoryStore {self.path}>"
