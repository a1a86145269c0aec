"""The benchmark's workloads: fixed cell sets and the inputs a seed makes.

A cell is one scheduler x workload kind x arrival rate x declustering
degree.  Each workload runs a fixed set of cells, every cell at
``replicas`` simulation seeds drawn from the benchmark's ``--seed``, so
one seed always yields the same list of ``RunSpec``s.  Several seeds
per cell average out how much a single seed's arrival stream changes a
cell's cost (CAR's events per run vary about 3x from seed to seed).

This module imports nothing from ``repro`` at import time: the set-up
probe times that import itself.
"""

from __future__ import annotations

import dataclasses
import random
import typing

#: (scheduler, workload kind, arrival rate in TPS, declustering degree)
Cell = typing.Tuple[str, str, float, int]


@dataclasses.dataclass(frozen=True)
class BenchWorkload:
    """A fixed cell set with its horizon and seeds per cell."""

    name: str
    cells: typing.Tuple[Cell, ...]
    horizon_ms: float
    warmup_ms: float
    #: simulation seeds per cell in the timed runs
    replicas: int
    #: simulation seeds per cell in the traced run (spans are kept in
    #: memory, so the traced run covers a prefix of the seeds)
    traced_replicas: int
    #: run as one ParallelRunner batch over a worker pool of this size;
    #: 0 runs the cells serially in this process
    pool_size: int = 0


#: pool width of ``scan-sweep``, sized for a 2-core host
SCAN_POOL = 2

WORKLOADS: typing.Dict[str, BenchWorkload] = {
    workload.name: workload
    for workload in (
        # The paper's own subject near its operating point: WTPG
        # maintenance and chain ordering are the hot path.  exp2 puts many
        # S locks beside X locks on 8 hot files, so it loads the lock
        # table differently from exp1.
        BenchWorkload(
            name="wtpg-contended",
            cells=(
                ("GOW", "exp1", 0.6, 1),
                ("LOW", "exp1", 0.6, 1),
                ("GOW", "exp1", 1.0, 4),
                ("LOW", "exp1", 1.0, 4),
                ("GOW", "exp2", 0.6, 1),
                ("LOW", "exp2", 0.6, 1),
            ),
            horizon_ms=200_000.0,
            warmup_ms=20_000.0,
            replicas=8,
            traced_replicas=1,
        ),
        # Retry polling dominates: every DELAY is re-evaluated each
        # retry_delay_ms, so events per commit run into the hundreds and
        # thousands.  All three cells build a backlog over the horizon.
        BenchWorkload(
            name="modern-polling",
            cells=(
                ("DGCC", "exp1", 1.0, 1),
                ("PRED", "exp1", 0.8, 1),
                ("CAR", "exp1", 1.0, 4),
            ),
            horizon_ms=30_000.0,
            warmup_ms=3_000.0,
            replicas=96,
            traced_replicas=8,
        ),
        # DPN scans, messages and the event heap; scheduler decisions are
        # a few percent of wall time.  The only workload that runs the
        # runner: pool start, pickling, cache writes and a warm re-run.
        BenchWorkload(
            name="scan-sweep",
            cells=tuple(
                (scheduler, "exp1", rate, dd)
                for scheduler in ("NODC", "ASL", "C2PL", "OPT")
                for dd in (4, 8)
                for rate in (0.4, 0.8)
            ),
            horizon_ms=400_000.0,
            warmup_ms=40_000.0,
            replicas=3,
            traced_replicas=1,
            pool_size=SCAN_POOL,
        ),
    )
}


def simulation_seeds(seed: int, workload: BenchWorkload) -> typing.List[
    typing.List[int]
]:
    """Per cell, the ``replicas`` simulation seeds ``seed`` yields.

    Cells draw distinct seeds, so two cells at the same rate do not
    share an arrival stream and their costs do not move together.
    """
    rng = random.Random(seed)
    return [
        [rng.randrange(1, 2**31) for _ in range(workload.replicas)]
        for _ in workload.cells
    ]


def run_specs(
    workload: BenchWorkload, seed: int, traced: bool = False
) -> typing.List[typing.Any]:
    """The workload's ``RunSpec``s for ``seed``, cell-major order.

    The traced run takes the first ``traced_replicas`` seeds of each cell.
    """
    from repro.machine.config import MachineConfig
    from repro.runner.spec import RunSpec, WorkloadSpec

    count = workload.traced_replicas if traced else workload.replicas
    return [
        RunSpec(
            scheduler=scheduler,
            workload=WorkloadSpec.make(kind, rate),
            config=MachineConfig(dd=dd),
            seed=sim_seed,
            duration_ms=workload.horizon_ms,
            warmup_ms=workload.warmup_ms,
        )
        for (scheduler, kind, rate, dd), seeds in zip(
            workload.cells, simulation_seeds(seed, workload)
        )
        for sim_seed in seeds[:count]
    ]


def build(
    spec: typing.Any,
    profiler: typing.Any = None,
    auditor: typing.Any = None,
) -> typing.Any:
    """The ``Simulation`` a spec describes, as the runner builds it."""
    from repro.sim.simulation import Simulation

    return Simulation(
        spec.config,
        spec.workload.build(),
        scheduler=spec.scheduler,
        seed=spec.seed,
        duration_ms=spec.duration_ms,
        warmup_ms=spec.warmup_ms,
        auditor=auditor,
        profiler=profiler,
    )


def cell_label(spec: typing.Any) -> str:
    """``GOW exp1 rate=0.6 dd=1`` -- the cell a spec belongs to."""
    return (
        f"{spec.scheduler} {spec.workload.kind} "
        f"rate={spec.workload.rate_tps:g} dd={spec.config.dd}"
    )
