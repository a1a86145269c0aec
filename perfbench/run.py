"""Host cost of the simulator on three fixed cell sets.

    python3 perfbench/run.py --workload wtpg-contended --seed 1 \\
        --seconds 30 --trace 0

Run from the repository root.  The seed makes the workload's
``RunSpec``s (see ``cells.py``); the program sees only those.

``--trace 0`` repeats the whole cell set for ``--seconds`` with tracing
off and reports the end-to-end metrics: wall time of one pass (median
over passes), that time per simulated second and per committed
transaction, set-up time (median of fresh-interpreter samples) and
peak RSS.  The times are scaled to a reference host speed measured
between the runs (``hostref.py``), which cancels most of a shared
host's own speed changes.  ``--trace 1`` alternates untraced and traced passes over a
prefix of the seeds and reports the per-layer metrics, with the
tracing overhead.

Either mode checks every run's output: each run executes at least
twice and must give the same ``SimulationResult``; a check pass
outside the timed region attaches the ``SerializabilityAuditor`` to
every run except NODC's.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` (cells: a cell fails if
any of its runs fails) and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import typing

import cells
from setup_probe import reap_children

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: scratch space for result caches and span files (ignored by git)
SCRATCH = ROOT / ".perfbench"

#: the held-out seed, never used while tuning, is in NOTES.md
DEFAULT_SEED = 1

#: every run executes at least this often in the timed region
MIN_PASSES = 2
#: fresh-interpreter set-up samples per run
SETUP_SAMPLES = 16
#: set-up samples taken after each timed pass, until there are enough
PROBES_PER_PASS = 4
#: seconds of one reference sample on the host all timings are scaled to
REF_NOMINAL_S = 0.040
#: a serial pass takes a reference sample at least this often
REF_EVERY_S = 0.4
#: reference samples taken on each side of a pooled pass
REF_BRACKET = 4
#: schedulers that write in a private workspace until commit
OPTIMISTIC = frozenset({"OPT"})
#: auditor history compaction (verdicts are unchanged by it)
AUDIT_COMPACT = 1000

_clock = time.perf_counter


class Checks:
    """Per-run verdicts: raises, repeat mismatches and audit cycles."""

    def __init__(self, specs: typing.Sequence[typing.Any]) -> None:
        self.specs = list(specs)
        self.digests: typing.List[typing.Optional[str]] = [None] * len(specs)
        self.results: typing.List[typing.Any] = [None] * len(specs)
        self.failures: typing.Dict[int, str] = {}

    def fail(self, index: int, reason: str) -> None:
        self.failures.setdefault(index, reason)

    def record(self, index: int, result: typing.Any, source: str) -> None:
        """Keep the first result of a run; later ones must match it."""
        if result is None:
            return
        digest = result_digest(result)
        if self.digests[index] is None:
            self.digests[index] = digest
            self.results[index] = result
        elif self.digests[index] != digest:
            self.fail(index, f"{source}: result differs from an earlier "
                             "run of the same spec")

    def record_all(
        self, results: typing.Sequence[typing.Any], source: str
    ) -> None:
        for index, result in enumerate(results):
            self.record(index, result, source)


class HostReference:
    """The host speed reference (``hostref.py``) in a process of its own.

    ``sample()`` times one fixed reference loop there.  A timing scaled
    by ``REF_NOMINAL_S`` / (the mean reference time taken around it)
    is what it would read on a host where the loop takes
    ``REF_NOMINAL_S``.  The scaling cancels the host speed changes that
    slow the loop and the program alike; since the loop never runs the
    program, no change to the program moves it.
    """

    def __init__(self) -> None:
        self.samples: typing.List[float] = []
        self._process = subprocess.Popen(
            [sys.executable, str(HERE / "hostref.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def sample(self) -> None:
        assert self._process.stdin and self._process.stdout
        self._process.stdin.write("\n")
        self._process.stdin.flush()
        self.samples.append(float(self._process.stdout.readline()))

    def scale(self, first: int) -> float:
        """Host speed factor over the samples from index ``first`` on."""
        return REF_NOMINAL_S / statistics.fmean(self.samples[first:])

    def close(self) -> None:
        if self._process.stdin:
            self._process.stdin.close()
        try:
            self._process.wait(30.0)
        except subprocess.TimeoutExpired:
            self._process.kill()
            self._process.wait()


def result_digest(result: typing.Any) -> str:
    canonical = json.dumps(result.to_dict(), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def _fits(started: float, last_pass: float, seconds: float) -> bool:
    """Whether another pass as long as the last ends within ``seconds``."""
    return _clock() - started + last_pass <= seconds


# -- passes -------------------------------------------------------------------


def serial_pass(
    specs: typing.Sequence[typing.Any],
    checks: Checks,
    source: str,
    reference: typing.Optional[HostReference] = None,
) -> typing.Tuple[float, typing.List[float]]:
    """Run every spec in this process; (pass wall, per-run walls).

    With a ``reference``, a reference sample is taken before the first
    run and then between runs every ``REF_EVERY_S``; the pass wall is
    then the sum of the run walls, which leaves the samples out.
    """
    results: typing.List[typing.Any] = []
    walls: typing.List[float] = []
    started = sampled = _clock()
    if reference is not None:
        reference.sample()
    for index, spec in enumerate(specs):
        if reference is not None and _clock() - sampled >= REF_EVERY_S:
            reference.sample()
            sampled = _clock()
        run_started = _clock()
        try:
            result = cells.build(spec).run()
        except Exception as exc:
            checks.fail(index, f"{source}: {type(exc).__name__}: {exc}")
            result = None
        walls.append(_clock() - run_started)
        results.append(result)
    wall = sum(walls) if reference is not None else _clock() - started
    checks.record_all(results, source)
    return wall, walls


def pooled_pass(
    workload: cells.BenchWorkload,
    specs: typing.Sequence[typing.Any],
    checks: Checks,
    source: str,
) -> typing.Tuple[float, typing.Any]:
    """One cold batch into a fresh cache, then a warm re-run from it.

    Returns (wall of both batches, the runner).
    """
    from repro.runner.cache import ResultCache
    from repro.runner.runner import ParallelRunner

    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=SCRATCH)
    try:
        runner = ParallelRunner(
            pool_size=workload.pool_size,
            cache=ResultCache(cache_dir),
            progress=None,
        )
        started = _clock()
        try:
            cold = runner.run_batch(specs, label=f"{workload.name}-cold")
            cold_failures = dict(runner.last_failures)
            warm = runner.run_batch(specs, label=f"{workload.name}-warm")
        except Exception as exc:
            for index in range(len(specs)):
                checks.fail(index, f"{source}: batch raised "
                                   f"{type(exc).__name__}: {exc}")
            return _clock() - started, runner
        wall = _clock() - started
    finally:
        reap_children()
        shutil.rmtree(cache_dir, ignore_errors=True)
    for index, reason in cold_failures.items():
        checks.fail(index, f"{source}: {reason}")
    if runner.cache_hits != len(specs):
        for index in range(len(specs)):
            checks.fail(index, f"{source}: warm re-run read "
                               f"{runner.cache_hits} of {len(specs)} "
                               "results from the cache")
    checks.record_all(cold, source)
    checks.record_all(warm, f"{source} (warm)")
    return wall, runner


def check_pass(specs: typing.Sequence[typing.Any], checks: Checks) -> None:
    """Re-run every spec with the serializability auditor attached."""
    from repro.core.audit import SerializabilityAuditor

    for index, spec in enumerate(specs):
        auditor = None
        if spec.scheduler != "NODC":  # NODC is not serializable by design
            auditor = SerializabilityAuditor(
                deferred_writes=spec.scheduler in OPTIMISTIC,
                compact_interval=AUDIT_COMPACT,
            )
        try:
            result = cells.build(spec, auditor=auditor).run()
        except Exception as exc:
            checks.fail(index, f"audit pass: {type(exc).__name__}: {exc}")
            continue
        checks.record(index, result, "audit pass")
        if auditor is not None:
            cycle = auditor.find_cycle()
            if cycle is not None:
                checks.fail(index, f"audit pass: serialization cycle "
                                   f"through {cycle[:6]}")


# -- end-to-end (untraced) ------------------------------------------------------


def peak_rss_mib(who: int) -> float:
    """Peak RSS in MiB of ``RUSAGE_SELF`` or of the largest reaped child."""
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def setup_sample(
    workload: cells.BenchWorkload, seed: int, reference: HostReference
) -> typing.Tuple[float, float]:
    """Set-up seconds, measured in a fresh interpreter: (raw, scaled).

    One reference sample on each side gives the scale.
    """
    first = len(reference.samples)
    reference.sample()
    scratch = tempfile.mkdtemp(prefix="setup-", dir=SCRATCH)
    try:
        probe = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"),
             workload.name, str(seed), scratch],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    reference.sample()
    if probe.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{probe.stderr}")
    raw = json.loads(probe.stdout.splitlines()[-1])["setup_s"]
    return raw, raw * reference.scale(first)


def timed_run(
    workload: cells.BenchWorkload, seed: int, seconds: float
) -> typing.Tuple[
    Checks, typing.Dict[str, typing.Tuple[float, str]], typing.FrozenSet[str]
]:
    """Timed passes, each followed by a few set-up samples.

    Every timing is scaled to the reference host speed
    (``HostReference``).  A pass is scaled by the reference samples
    taken during it: between the runs of a serial pass, or
    ``REF_BRACKET`` on each side of a pooled pass.  A set-up sample is
    scaled by one reference sample on each side of it.  ``wall_s`` is
    the median scaled pass and ``setup_s`` the median scaled set-up
    sample; both raw medians are printed beside them.  Pool workers
    are the only children until the first probe runs, so their peak
    RSS is read then.
    """
    specs = cells.run_specs(workload, seed)
    checks = Checks(specs)
    raw_walls: typing.List[float] = []
    walls: typing.List[float] = []
    setup: typing.List[typing.Tuple[float, float]] = []
    worker_peak = None
    reference = HostReference()
    try:
        started = last = _clock()
        while len(walls) < MIN_PASSES or _fits(
            started, _clock() - last, seconds
        ):
            last = _clock()
            first = len(reference.samples)
            if workload.pool_size:
                for _ in range(REF_BRACKET):
                    reference.sample()
                wall, _runner = pooled_pass(
                    workload, specs, checks, "timed pass"
                )
                for _ in range(REF_BRACKET):
                    reference.sample()
            else:
                wall, _walls = serial_pass(
                    specs, checks, "timed pass", reference
                )
            raw_walls.append(wall)
            walls.append(wall * reference.scale(first))
            if worker_peak is None:
                worker_peak = peak_rss_mib(resource.RUSAGE_CHILDREN)
            for _ in range(min(PROBES_PER_PASS, SETUP_SAMPLES - len(setup))):
                setup.append(setup_sample(workload, seed, reference))
        peak = max(peak_rss_mib(resource.RUSAGE_SELF), worker_peak)
        while len(setup) < SETUP_SAMPLES:
            setup.append(setup_sample(workload, seed, reference))
    finally:
        reference.close()
    check_pass(specs, checks)

    wall_s = statistics.median(walls)
    simulated_s = sum(spec.duration_ms for spec in specs) / 1000.0
    commits = sum(r.completed for r in checks.results if r is not None)
    print(f"passes: {len(walls)}  raw pass walls (s): "
          + " ".join(f"{w:.3f}" for w in raw_walls)
          + "  scaled: " + " ".join(f"{w:.3f}" for w in walls))
    print("setup samples, raw (s): "
          + " ".join(f"{raw:.4f}" for raw, _ in setup))
    print(f"reference: {len(reference.samples)} samples, median "
          f"{statistics.median(reference.samples) * 1000:.2f} ms "
          f"(scaled to {REF_NOMINAL_S * 1000:g} ms)")
    print(f"raw medians: wall_s {statistics.median(raw_walls):.6g} s, "
          f"setup_s {statistics.median(raw for raw, _ in setup):.6g} s")
    return checks, {
        "wall_s": (wall_s, "s"),
        "wall_per_sim_s": (wall_s / simulated_s, "s/s"),
        "wall_ms_per_commit": (1000.0 * wall_s / max(commits, 1), "ms"),
        "setup_s": (statistics.median(scaled for _, scaled in setup), "s"),
        "peak_rss_mb": (peak, "MiB"),
    }, frozenset()


# -- per-layer (traced) ---------------------------------------------------------


def traced_pass(
    specs: typing.Sequence[typing.Any], checks: Checks, profiler: typing.Any
) -> typing.Tuple[float, typing.List[typing.Dict[str, typing.Any]]]:
    """Run every spec with spans on; (pass wall, per-run facts)."""
    from spans import simulator_wrappers

    runs = []
    results = []
    started = _clock()
    with simulator_wrappers(profiler):
        for index, spec in enumerate(specs):
            profiler.cell = index
            run_started = _clock()
            try:
                profiler.push("sim.build")
                try:
                    simulation = cells.build(spec, profiler=profiler)
                finally:
                    profiler.pop()
                result = simulation.run()
            except Exception as exc:
                checks.fail(index, f"traced pass: {type(exc).__name__}: {exc}")
                results.append(None)
                continue
            stats = simulation.scheduler.stats
            runs.append({
                "index": index,
                "wall": _clock() - run_started,
                "events": simulation.env.events_processed,
                "grants": stats.grants.total,
                "admissions": stats.admissions.total,
                "result": result,
            })
            results.append(result)
    wall = _clock() - started
    checks.record_all(results, "traced pass")
    return wall, runs


def layer_metrics(
    profiler: typing.Any,
    runs: typing.Sequence[typing.Dict[str, typing.Any]],
    modern: typing.Collection[int],
) -> typing.Dict[str, float]:
    """Per-layer numbers of one traced pass.

    Scheduler counters (evaluations, grants, blocks, delays) cover the
    post-warm-up window, as ``SimulationResult`` does; spans cover the
    whole run.
    """
    from spans import HEAP

    seconds = profiler.layer_seconds(modern)
    results = [run["result"] for run in runs]
    events = sum(run["events"] for run in runs)
    commits = sum(r.completed for r in results)
    grants = sum(run["grants"] for run in runs)
    blocks = sum(r.blocks for r in results)
    delays = sum(r.delays for r in results)
    evaluations = (
        sum(run["admissions"] for run in runs)
        + sum(r.admission_rejections for r in results)
        + grants + blocks + delays
    )
    lock_requests = grants + blocks + delays
    wall = sum(run["wall"] for run in runs)
    covered = profiler.covered_seconds(run["index"] for run in runs)
    return {
        "des.events": events,
        "des.events_per_commit": events / max(commits, 1),
        "des.heap_s": seconds.get(HEAP, 0.0),
        "core.sched.decision_s": seconds.get("core.sched.decision_s", 0.0),
        "core.sched.evaluations": evaluations,
        "core.sched.grant_ratio": grants / lock_requests if lock_requests else 0.0,
        "core.sched.delays": delays,
        "core.sched.blocks": blocks,
        "core.wtpg.hypothetical_calls": profiler.calls(
            "WTPG.hypothetical_grant_critical_path"
        ),
        "core.wtpg.hypothetical_s": seconds.get("core.wtpg.hypothetical_s", 0.0),
        "core.chain.order_s": seconds.get("core.chain.order_s", 0.0),
        "core.locks.s": seconds.get("core.locks.s", 0.0),
        "core.locks.grants": profiler.calls("LockTable.grant"),
        "schedulers.modern.decision_s": seconds.get(
            "schedulers.modern.decision_s", 0.0
        ),
        "machine.scan_s": seconds.get("machine.scan_s", 0.0),
        "machine.msg_s": seconds.get("machine.msg_s", 0.0),
        "machine.cn_s": seconds.get("machine.cn_s", 0.0),
        "machine.cohorts": profiler.calls("DataProcessingNode.submit"),
        "txn.generate_s": seconds.get("txn.generate_s", 0.0),
        "txn.arrivals": profiler.calls("Workload.make_transaction"),
        "sim.build_s": seconds.get("sim.build_s", 0.0),
        "sim.unattributed_share": (wall - covered) / wall if wall else 0.0,
        "sim.commits": commits,
        "sim.throughput_tps": statistics.fmean(
            r.throughput_tps for r in results
        ),
        "sim.mean_response_s": sum(
            r.mean_response_ms * r.completed for r in results if r.completed
        ) / max(commits, 1) / 1000.0,
        "sim.restarts": sum(r.restarts for r in results),
        "sim.in_flight_at_end": sum(r.in_flight_at_end for r in results),
    }


def runner_metrics(
    profiler: typing.Any,
    runner: typing.Any,
    cell_walls: typing.Sequence[float],
    workers: int,
) -> typing.Dict[str, float]:
    """Runner-layer numbers of one traced cold + warm batch."""
    batch_id = profiler.names.index("ParallelRunner.run_batch")
    batches = [
        profiler.ends[i] - profiler.starts[i]
        for i, name_id in enumerate(profiler.name_ids)
        if name_id == batch_id
    ]
    seconds = profiler.layer_seconds(())
    return {
        "runner.overhead_s": batches[0] - sum(cell_walls) / workers,
        "runner.cache_get_s": seconds.get("runner.cache_get_s", 0.0),
        "runner.cache_put_s": seconds.get("runner.cache_put_s", 0.0),
        "runner.cache_hits": runner.cache_hits,
        "runner.cache_misses": runner.cache_misses,
    }


#: units of the per-layer metrics, in reporting order
LAYER_UNITS: typing.Dict[str, str] = {
    "des.events": "count",
    "des.events_per_commit": "count",
    "des.heap_s": "s",
    "core.sched.decision_s": "s",
    "core.sched.evaluations": "count",
    "core.sched.grant_ratio": "ratio",
    "core.sched.delays": "count",
    "core.sched.blocks": "count",
    "core.wtpg.hypothetical_calls": "count",
    "core.wtpg.hypothetical_s": "s",
    "core.chain.order_s": "s",
    "core.locks.s": "s",
    "core.locks.grants": "count",
    "schedulers.modern.decision_s": "s",
    "machine.scan_s": "s",
    "machine.msg_s": "s",
    "machine.cn_s": "s",
    "machine.cohorts": "count",
    "txn.generate_s": "s",
    "txn.arrivals": "count",
    "sim.build_s": "s",
    "sim.unattributed_share": "ratio",
    "sim.commits": "count",
    "sim.throughput_tps": "1/s",
    "sim.mean_response_s": "s",
    "sim.restarts": "count",
    "sim.in_flight_at_end": "count",
    "runner.overhead_s": "s",
    "runner.cache_get_s": "s",
    "runner.cache_put_s": "s",
    "runner.cache_hits": "count",
    "runner.cache_misses": "count",
    "obs.trace_overhead_ratio": "ratio",
}

#: reported as 0 by a workload that never enters the runner
_NO_RUNNER = {
    "runner.overhead_s": 0.0,
    "runner.cache_get_s": 0.0,
    "runner.cache_put_s": 0.0,
    "runner.cache_hits": 0,
    "runner.cache_misses": 0,
}

#: per-layer metric -> the span whose calls show that its layer ran
_ENTRY_SPAN = {
    "core.wtpg.hypothetical_calls": "WTPG.hypothetical_grant_critical_path",
    "core.wtpg.hypothetical_s": "WTPG.hypothetical_grant_critical_path",
    "core.chain.order_s": "chain.compute_optimal_order",
}


def layers_not_run(
    workload: cells.BenchWorkload,
    profiler: typing.Any,
    modern: typing.Collection[int],
    runs: int,
) -> typing.FrozenSet[str]:
    """Per-layer metrics of layers this workload never enters.

    They are 0 by construction, not by measurement.
    """
    skipped = {
        name for name, span in _ENTRY_SPAN.items()
        if profiler.calls(span) == 0
    }
    if not modern:
        skipped.add("schedulers.modern.decision_s")
    if len(modern) == runs:
        skipped.add("core.sched.decision_s")
    if not workload.pool_size:
        skipped.update(_NO_RUNNER)
    return frozenset(skipped)


def traced_run(
    workload: cells.BenchWorkload, seed: int, seconds: float
) -> typing.Tuple[
    Checks, typing.Dict[str, typing.Tuple[float, str]], typing.FrozenSet[str]
]:
    from repro.core.registry import family_of
    from spans import SpanProfiler, runner_wrappers

    specs = cells.run_specs(workload, seed, traced=True)
    checks = Checks(specs)
    modern = {
        index for index, spec in enumerate(specs)
        if family_of(spec.scheduler) == "modern"
    }
    untraced: typing.List[float] = []
    traced: typing.List[float] = []
    samples: typing.List[typing.Dict[str, float]] = []
    started = last = _clock()
    while not traced or _fits(started, _clock() - last, seconds):
        last = _clock()
        wall, cell_walls = serial_pass(specs, checks, "untraced pass")
        untraced.append(wall)
        profiler = SpanProfiler()
        wall, runs = traced_pass(specs, checks, profiler)
        traced.append(wall)
        sample = layer_metrics(profiler, runs, modern)
        if workload.pool_size:
            batch_profiler = SpanProfiler()
            with runner_wrappers(batch_profiler):
                _wall, runner = pooled_pass(
                    workload, specs, checks, "traced batch"
                )
            sample.update(runner_metrics(
                batch_profiler, runner, cell_walls, workload.pool_size
            ))
        else:
            sample.update(_NO_RUNNER)
        samples.append(sample)
    check_pass(specs, checks)
    labels = [f"{cells.cell_label(s)} seed={s.seed}" for s in specs]
    profiler.write(SCRATCH / f"spans-{workload.name}", labels)

    print(f"passes: {len(traced)}  untraced walls (s): "
          + " ".join(f"{w:.3f}" for w in untraced)
          + "  traced walls (s): " + " ".join(f"{w:.3f}" for w in traced))
    metrics = {
        name: (statistics.median(s[name] for s in samples), LAYER_UNITS[name])
        for name in LAYER_UNITS
        if name != "obs.trace_overhead_ratio"
    }
    metrics["obs.trace_overhead_ratio"] = (
        statistics.median(traced) / statistics.median(untraced), "ratio"
    )
    return checks, metrics, layers_not_run(
        workload, profiler, modern, len(specs)
    )


# -- report -----------------------------------------------------------------------


def print_cells(checks: Checks) -> None:
    """Per-cell digest of the simulated statistics of all its runs."""
    by_cell: typing.Dict[str, typing.List[int]] = {}
    for index, spec in enumerate(checks.specs):
        by_cell.setdefault(cells.cell_label(spec), []).append(index)
    for label, indices in by_cell.items():
        results = [checks.results[i] for i in indices]
        digest = hashlib.sha256(
            "".join(checks.digests[i] or "-" for i in indices).encode()
        ).hexdigest()[:16]
        done = [r for r in results if r is not None]
        print(f"cell {label:<24} runs={len(indices)} "
              f"commits={sum(r.completed for r in done)} "
              f"in_flight_at_end={sum(r.in_flight_at_end for r in done)} "
              f"digest={digest}")


def main(argv: typing.Optional[typing.Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=cells.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # ParallelRunner asks git for the commit; keep git's search for a
    # repository inside the checkout
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    SCRATCH.mkdir(exist_ok=True)
    workload = cells.WORKLOADS[args.workload]
    print(f"perfbench workload={workload.name} seed={args.seed} "
          f"trace={args.trace} seconds={args.seconds:g}")
    run = traced_run if args.trace else timed_run
    checks, metrics, not_run = run(workload, args.seed, args.seconds)

    print_cells(checks)
    for index, reason in sorted(checks.failures.items()):
        spec = checks.specs[index]
        print(f"FAILED {cells.cell_label(spec)} seed={spec.seed}: {reason}")
    # a cell fails if any of its runs fails
    labels = [cells.cell_label(spec) for spec in checks.specs]
    attempted = len(set(labels))
    failed = len({labels[index] for index in checks.failures})
    print(f"failed_cell_ratio = {failed / attempted:g} ratio "
          f"({failed} of {attempted} cells)")
    for name, (value, unit) in metrics.items():
        if name in not_run:
            print(f"{name} = n/a {unit} (layer not run by this workload; "
                  f"0 in the JSON line)")
        else:
            print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
